"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: full inverted-index build over the deterministic synthetic pages
corpus (FIXTURES.md) + BM25 query latency over the 73-query conformance set,
plus the flagship relational/dedup/ann pipelines over $GRAFT_SF_DIR.

    python bench.py             # one run at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling   # same job at 8 and 32 CPUs in fresh
                                # processes -> throughput + efficiency line
    python bench.py --merge     # opt-in: merge_indexes consolidation cost
                                # vs a fresh union build (BASELINE.md)

Scaling evidence per BASELINE.json north_rule: the two-cluster-size criterion
is evidenced by two parallelism levels in fresh processes on the same input.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

NCPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
BENCH_DOCS = int(os.environ.get("GRAFT_BENCH_DOCS", "100000"))
# the scaling comparison needs a compute-dominated build; coordination
# overhead (~15s regardless of cpu count) would swamp a small corpus
SCALING_DOCS = int(os.environ.get("GRAFT_SCALING_DOCS", "1500000"))
CORPUS_FILES = 32


def _corpus_dir(n_docs: int) -> str:
    """Shared, content-addressed corpus dir: generated once, reused by every
    run (so 8- and 32-cpu runs read identical warm files)."""
    d = os.path.join(tempfile.gettempdir(), f"rayft_bench_pages_{n_docs}_{CORPUS_FILES}")
    marker = os.path.join(d, ".complete")
    if not os.path.exists(marker):
        from engine import synth

        shutil.rmtree(d, ignore_errors=True)
        synth.write_pages(d, n_docs, num_files=CORPUS_FILES)
        with open(marker, "w") as f:
            f.write("ok")
    return d


def calibrate() -> float:
    """Fixed single-core probe (extract+tokenize 6k docs, no Ray): measures
    the BOX, not the engine.  This sandbox is a shared VM whose effective
    per-core throughput swings ~3x with neighbor load (memory-bus
    contention invisible to steal%); recording the probe next to every
    measurement lets absolute numbers be compared across runs honestly.
    Returns docs/sec; higher = healthier box (quiet ~7k, degraded ~2k)."""
    import time as _t

    import pyarrow.parquet as pq

    from engine.analyze import Tokenizer
    from engine.extract import extract_batch

    d = _corpus_dir(BENCH_DOCS)
    f = sorted(os.path.join(d, x) for x in os.listdir(d) if x.endswith(".parquet"))[0]
    # ~25k docs ≈ 30MB of html: larger than L3, so the probe sees the
    # memory bus (a cache-resident probe reads healthy while neighbors
    # saturate the bus)
    t = pq.read_table(f, columns=["url", "warc_ts", "html", "lang"])
    n = min(25000, t.num_rows)
    t = t.slice(0, n)
    tok = Tokenizer()
    t0 = _t.perf_counter()
    tok(extract_batch(t))
    return round(n / (_t.perf_counter() - t0), 1)


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=NCPUS, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import numpy as np

    from engine import synth
    from engine.build import build_index
    from engine.query import IndexReader

    queries: dict[str, float] = {}
    pages_dir = _corpus_dir(BENCH_DOCS)
    queries["box_calibration_docs_per_s"] = calibrate()

    # warm the worker pool (with the engine package imported in every worker)
    # and the OS page cache (untimed) so the measured run sees steady-state
    # compute + shuffle, not process spin-up and cold imports
    def _warm(b):
        import engine.analyze  # noqa: F401
        import engine.build  # noqa: F401
        return b

    ray.data.range(1024).map_batches(_warm, batch_size=8).count()
    ray.data.read_parquet(pages_dir).count()

    # ---- extract+tokenize throughput (the compute-bound core; no sinks) --
    from engine.analyze import Tokenizer
    from engine.extract import dedup_latest_in_batch, extract_batch

    tok = Tokenizer()
    mode = os.environ.get("GRAFT_BENCH_MODE", "all")

    def _run_et() -> float:
        t0 = time.perf_counter()
        et = (
            ray.data.read_parquet(pages_dir, columns=["url", "warc_ts", "html", "lang"])
            .map_batches(extract_batch, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True)
            .map_batches(dedup_latest_in_batch, batch_format="pyarrow", batch_size=None)
            .map_batches(tok, batch_format="pyarrow", batch_size=None,
                         zero_copy_batch=True)
        )
        et.count()
        return time.perf_counter() - t0

    if mode in ("all", "et"):
        # best of two: the first run still pays worker ramp-up / cache effects
        et_s = min(_run_et(), _run_et())
        queries["extract_tokenize_s"] = round(et_s, 3)
        queries["extract_tokenize_docs_per_s"] = round(BENCH_DOCS / et_s, 1)
    if mode == "et":
        # closing probe: a leg whose end-calibration is far below its start
        # collapsed mid-leg (the start probe only bounds leg-START state)
        queries["box_calibration_end_docs_per_s"] = calibrate()
        return {
            "metric": "extract+tokenize throughput",
            "value": queries["extract_tokenize_s"],
            "unit": "sec",
            "queries": queries,
            "num_cpus": NCPUS,
            "bench_docs": BENCH_DOCS,
        }

    # ---- headline: index build -----------------------------------------
    # Full-bench runs take the best of two builds: multi-core throughput on
    # this shared box swings ~25% run-to-run even at equal single-core
    # calibrations (the probe can't see neighbor bus pressure that only
    # bites at 32-way concurrency).  Scaling legs stay single-shot so their
    # levels remain comparable with each other and with past runs.
    n_builds = 1 if os.environ.get("GRAFT_HEADLINE_ONLY") == "1" else 2
    index_dir = tempfile.mkdtemp(prefix="rayft_bench_idx_")
    try:
        build_times: list[float] = []
        for _ in range(n_builds):
            shutil.rmtree(index_dir, ignore_errors=True)
            t0 = time.perf_counter()
            metrics = build_index(
                pages_dir, index_dir, num_partitions=8,
            )
            build_times.append(time.perf_counter() - t0)
        build_s = min(build_times)
        # record the methodology next to the number (ADVICE round 4): a
        # best-of-2 snapshot is not comparable to a single-shot one without
        # knowing which it was, and the losing time bounds the box swing
        queries["index_build_n_builds"] = n_builds
        queries["index_build_times_s"] = [round(t, 3) for t in build_times]
        queries["index_build_s"] = round(build_s, 3)
        queries["index_docs_per_s"] = round(metrics["n_docs"] / build_s, 1)

        # ---- BM25 query latency ----------------------------------------
        reader = IndexReader(index_dir)
        qtbl = synth.gen_queries_table(73).to_pylist()
        # steady-state serving latency: one untimed pass loads segment
        # buckets + doc metadata into the reader's caches (a serving actor
        # holds these across its lifetime)
        for q in qtbl:
            reader.search(q["query_text"], k=q["k"], prior_weight=0.0)
        lat = []
        for q in qtbl:
            t0 = time.perf_counter()
            reader.search(q["query_text"], k=q["k"], prior_weight=0.0)
            lat.append(time.perf_counter() - t0)
        lat_ms = np.array(lat) * 1e3
        queries["query_p50_ms"] = round(float(np.percentile(lat_ms, 50)), 3)
        queries["query_p95_ms"] = round(float(np.percentile(lat_ms, 95)), 3)

        # ---- boolean/phrase query latency ------------------------------
        # operators: +must / -not / "phrase" (phrases sampled from real
        # docs so adjacency verification actually runs; this index has no
        # positions column, so this measures the match-then-verify path).
        # Skipped in scaling sub-runs (mode != "all"): the scaling metric
        # uses only build/ET throughputs, and the positional rebuild would
        # triple each leg's wall time at SCALING_DOCS.
        if mode == "all":
            from engine.analyze import tokenize as _tok

            h = synth.HEAD_TERMS
            some = [d for d, _ in reader.search(h[0], k=3)]
            docs_tbl = reader.fetch_docs(some, columns=["doc_id", "warc_ts", "text"])
            bool_qs = [f"{h[0]} +{h[1]}", f"{h[2]} {h[3]} -{h[0]}", f"+{h[4]} {h[5]}"]
            for txt in docs_tbl["text"].to_pylist():
                toks = _tok(txt)
                bool_qs.append(f'{h[0]} "{toks[3]} {toks[4]}"')
                bool_qs.append(f'"{toks[10]} {toks[11]} {toks[12]}"')
            for q in bool_qs:  # warm
                reader.search_boolean(q, k=10)
            lat = []
            for q in bool_qs:
                t0 = time.perf_counter()
                reader.search_boolean(q, k=10)
                lat.append(time.perf_counter() - t0)
            lat_ms = np.array(lat) * 1e3
            queries["bool_query_p50_ms"] = round(float(np.percentile(lat_ms, 50)), 3)
            queries["bool_query_p95_ms"] = round(float(np.percentile(lat_ms, 95)), 3)

            # ---- positional index: phrase adjacency off the postings -------
            # rebuild postings with positions (resume reuses the extract phase;
            # the delta vs index_build_s is the positional overhead) and
            # re-measure the same boolean set — verification now intersects
            # position lists instead of scanning the doc store
            t0 = time.perf_counter()
            build_index(
                pages_dir, index_dir, num_partitions=8, store_positions=True,
            )
            queries["index_pos_rebuild_s"] = round(time.perf_counter() - t0, 3)
            reader_pos = IndexReader(index_dir)
            for q in bool_qs:  # warm
                reader_pos.search_boolean(q, k=10)
            lat = []
            for q in bool_qs:
                t0 = time.perf_counter()
                reader_pos.search_boolean(q, k=10)
                lat.append(time.perf_counter() - t0)
            lat_ms = np.array(lat) * 1e3
            queries["bool_query_pos_p50_ms"] = round(float(np.percentile(lat_ms, 50)), 3)
            queries["bool_query_pos_p95_ms"] = round(float(np.percentile(lat_ms, 95)), 3)

            # ---- serving throughput: QueryPool fan-out ---------------------
            # QPS through the actor pool (the serving deployment unit): one
            # warm pass, then 4x the conformance set fanned across 8 actors
            from engine.serve import QueryPool

            pool = QueryPool(index_dir, num_actors=8)
            try:
                qlist = [
                    {"query_text": q["query_text"], "k": q["k"]} for q in qtbl
                ] * 4
                pool.search_many([dict(q) for q in qlist[: len(qtbl)]])  # warm
                t0 = time.perf_counter()
                pool.search_many([dict(q) for q in qlist])
                dt = time.perf_counter() - t0
                queries["pool_qps_8actors"] = round(len(qlist) / dt, 1)
            finally:
                pool.shutdown()

            # ---- doc-sharded layout: concurrent 8-shard build + serve QPS --
            # the corpus-scaling path: S independent shard builds run
            # concurrently (one build_index each, no barrier) + the
            # distributed global-df reduce; serving is batched scatter-gather
            # where every query hits all 8 shards (vs pool_qps's 1
            # actor/query)
            from engine.serve import ShardedQueryPool, build_sharded

            shards_root = tempfile.mkdtemp(prefix="rayft_bench_shards_")
            try:
                t0 = time.perf_counter()
                shard_dirs = build_sharded(
                    pages_dir, shards_root, 8, num_partitions=2,
                )
                queries["sharded_build_8shards_s"] = round(
                    time.perf_counter() - t0, 3
                )
                spool = ShardedQueryPool(shard_dirs)
                try:
                    spool.search_many(
                        [dict(q) for q in qlist[: len(qtbl)]]
                    )  # warm
                    t0 = time.perf_counter()
                    spool.search_many([dict(q) for q in qlist])
                    dt = time.perf_counter() - t0
                    queries["sharded_qps_8shards"] = round(len(qlist) / dt, 1)
                finally:
                    spool.shutdown()
            finally:
                shutil.rmtree(shards_root, ignore_errors=True)
    finally:
        shutil.rmtree(index_dir, ignore_errors=True)

    if os.environ.get("GRAFT_HEADLINE_ONLY") == "1":
        queries["box_calibration_end_docs_per_s"] = calibrate()
        return {
            "metric": "index-build throughput (docs/s) + BM25 query p50 (ms)",
            "value": queries["index_build_s"],
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NCPUS,
            "bench_docs": BENCH_DOCS,
        }

    # ---- flagship operators over the relational testdata ---------------
    from engine.ops import (
        ann,
        curate,
        decontam,
        dedup,
        docsearch,
        relational,
        textops,
    )

    # hybrid retrieval re-uses the cached documents index; pay (and report)
    # its one-off build separately so docs_hybrid_rrf below measures ONLY
    # fuse+search (round-4 verdict #7: the old single number conflated a
    # 10s index build with a sub-second fusion)
    shutil.rmtree(docsearch._index_dir_for(SF_DIR), ignore_errors=True)  # cold
    t0 = time.perf_counter()
    docsearch._index_for(SF_DIR)
    queries["docs_index_build_s"] = round(time.perf_counter() - t0, 3)

    def consume(res):
        import pandas as pd
        import pyarrow as pa

        if isinstance(res, (pd.DataFrame, pa.Table)):
            return len(res)
        return res.count()

    for name, fn in [
        ("q1_pricing_summary", relational.q1_pricing_summary),
        ("q3_top_orders", relational.q3_top_orders),
        ("q6_revenue", relational.q6_revenue),
        ("events_latest_per_user", relational.events_latest_per_user),
        ("exact_dedup", dedup.exact_dedup),
        ("dup_spans", dedup.dup_spans),
        ("minhash_lsh_pairs", dedup.minhash_lsh_pairs),
        ("events_sessionize", relational.events_sessionize),
        ("token_counts", textops.token_counts),
        ("top_terms", textops.top_terms),
        ("docs_unigram_surprisal", textops.docs_unigram_surprisal),
        ("docs_pmi_bigrams", textops.docs_pmi_bigrams),
        ("decontaminate_docs", decontam.decontaminate_docs),
        ("docs_hybrid_rrf", docsearch.docs_hybrid_rrf),
        ("knn_topk", ann.knn_topk),
        ("ivf_knn_topk", ann.ivf_knn_topk),
        ("pq_knn_topk", ann.pq_knn_topk),
        ("docs_dsir_weights", curate.docs_dsir_weights),
        ("docs_chunk_sliding", curate.docs_chunk_sliding),
        ("docs_bpe_pair_counts", textops.docs_bpe_pair_counts),
        ("q13_custdist", relational.q13_custdist),
        ("q18_large_orders", relational.q18_large_orders),
        ("events_user_rolling_mean", relational.events_user_rolling_mean),
        ("docs_fuzzy_topk", docsearch.bm25_docs_fuzzy),
        ("docs_snapshot_delta", dedup.docs_snapshot_delta),
        ("events_props_stats", relational.events_props_stats),
        ("lang_embedding_centroids", ann.lang_embedding_centroids),
        # session-5 wave representatives
        ("docs_bigram_surprisal", textops.docs_bigram_surprisal),
        ("orders_basket_pairs", relational.orders_basket_pairs),
        ("customers_rfm", relational.customers_rfm),
        ("docs_compression_ratio", textops.docs_compression_ratio),
        # final-wave representatives: the exact similarity join's two paths
        # side by side (prefix filtering should win on a low-dup corpus),
        # plus the widest new join shape
        ("ngram_jaccard_pairs", dedup.ngram_jaccard_pairs),
        ("ngram_jaccard_prefix", dedup.ngram_jaccard_prefix),
        ("q9_profit_by_nation_year", relational.q9_profit_by_nation_year),
        ("events_dau_mau", relational.events_dau_mau),
    ]:
        best = None
        for _ in range(2):  # best-of-2: single shots swing with neighbor load
            t0 = time.perf_counter()
            consume(fn(SF_DIR))
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        queries[name] = round(best, 3)

    return {
        "metric": "index-build throughput (docs/s) + BM25 query p50 (ms) + op wall times",
        "value": queries["index_build_s"],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NCPUS,
        "bench_docs": BENCH_DOCS,
    }


def run_merge_bench() -> dict:
    """Opt-in (`python bench.py --merge`, not part of the driver's per-round
    snapshot): consolidation cost of engine/merge.py merge_indexes vs a
    fresh build over the same union at BENCH_DOCS.  The merge grafts both
    sources' partitions (no re-extract/re-tokenize) and pays only the
    losers remap + stats + segments reduce, so merge_s should track the
    build's stats+segments phase time, not the full build."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=NCPUS, include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from engine.build import build_index
    from engine.merge import merge_indexes
    from engine.query import IndexReader

    pages_dir = _corpus_dir(BENCH_DOCS)
    files = sorted(
        os.path.join(pages_dir, f)
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    out: dict = {
        "metric": "index merge consolidation vs fresh union build",
        "unit": "sec",
        "bench_docs": BENCH_DOCS,
        "num_cpus": NCPUS,
        "box_calibration_docs_per_s": calibrate(),
    }

    def _warm(b):
        import engine.analyze  # noqa: F401
        import engine.build  # noqa: F401
        return b

    ray.data.range(1024).map_batches(_warm, batch_size=8).count()
    ray.data.read_parquet(pages_dir).count()

    root = tempfile.mkdtemp(prefix="rayft_mergebench_")
    try:
        half = len(files) // 2
        t0 = time.perf_counter()
        build_index(files[:half], os.path.join(root, "A"), num_partitions=4)
        build_index(files[half:], os.path.join(root, "B"), num_partitions=4)
        out["half_builds_s"] = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        m = merge_indexes(
            [os.path.join(root, "A"), os.path.join(root, "B")],
            os.path.join(root, "merged"),
        )
        out["merge_s"] = round(time.perf_counter() - t0, 3)
        out["merge_grafted"] = m["grafted_partitions"]
        out["merge_reextracted"] = m["reextracted_partitions"]
        out["merge_losers_mode"] = m["losers_mode"]
        t0 = time.perf_counter()
        build_index(pages_dir, os.path.join(root, "full"), num_partitions=8)
        out["full_build_s"] = round(time.perf_counter() - t0, 3)
        out["merge_speedup_vs_rebuild"] = round(
            out["full_build_s"] / out["merge_s"], 2
        )
        # sanity: merged index answers like the fresh one
        from engine import synth

        rm = IndexReader(os.path.join(root, "merged"))
        rf = IndexReader(os.path.join(root, "full"))
        q = synth.HEAD_TERMS[0] + " " + synth.VOCAB[300]
        out["rank_identical"] = rm.search(q, k=10) == rf.search(q, k=10)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out["box_calibration_end"] = calibrate()
    return out


def run_scaling() -> dict:
    """Same headline job at 2, 8 and 32 CPUs in fresh processes, same corpus.

    Headline pair (the north-rule N vs 4N criterion): 2 vs 8 cpus.  This
    sandbox is ONE box whose memory bus saturates at ~8 concurrent workers
    (measured: a pure-multiprocessing run of the extract+tokenize kernel
    does 53.7k docs/s at 8 procs and 50.7k at 32, while a register-only
    spin loop scales 3.14x over the same range — the ceiling is bandwidth,
    not cycles or Ray).  A real N-node vs 4N-node cluster adds a memory bus
    and a disk with every node, so the honest single-box proxy is the pair
    that keeps per-worker bandwidth constant: N=2 vs 4N=8.  The 8 vs 32
    pair is reported alongside as the saturated-box lower bound; the full
    analysis lives in BASELINE.md §B.
    """
    _corpus_dir(SCALING_DOCS)  # pre-generate + warm page cache once

    def one(ncpu: int, mode: str) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_DOCS=str(SCALING_DOCS),
            GRAFT_HEADLINE_ONLY="1",
            GRAFT_BENCH_MODE=mode,
        )
        if mode == "et":
            # Arrow's per-worker IO pool defaults to 8 threads regardless of
            # the session's cpu budget, silently giving the small session
            # extra cores on one box; pin it so both levels are resourced
            # proportionally for the compute-core comparison (a real N-node
            # vs 4N-node cluster is resourced proportionally by definition)
            env["ARROW_IO_THREADS"] = "2"
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    runs: dict[int, dict] = {}
    for ncpu in (2, 8, 32):
        et = one(ncpu, "et")
        time.sleep(8)  # let the previous session's raylet fully wind down
        b = one(ncpu, "build")
        time.sleep(8)
        # merge with build's keys winning, but keep each sub-run's own
        # start/end calibration pair so a mid-leg load collapse is visible
        # per leg (run 9 post-mortem, BASELINE.md)
        merged = dict(et["queries"])
        merged.update(b["queries"])
        for tag, sub in (("et", et["queries"]), ("build", b["queries"])):
            merged[f"{tag}_calibration_start"] = sub.get(
                "box_calibration_docs_per_s"
            )
            merged[f"{tag}_calibration_end"] = sub.get(
                "box_calibration_end_docs_per_s"
            )
        runs[ncpu] = merged

    def eff(metric: str, lo: int, hi: int) -> float:
        return round((runs[hi][metric] / runs[lo][metric]) / (hi / lo), 3)

    out = {
        "metric": "scaling efficiency N->4N (compute core + full build), pairs 2->8 and 8->32 cpus",
        # headline value: full-build efficiency on the unsaturated pair
        "value": eff("index_docs_per_s", 2, 8),
        "unit": "efficiency",
        "build_efficiency_2_8": eff("index_docs_per_s", 2, 8),
        "build_efficiency_8_32": eff("index_docs_per_s", 8, 32),
        "extract_tokenize_efficiency_2_8": eff("extract_tokenize_docs_per_s", 2, 8),
        "extract_tokenize_efficiency_8_32": eff("extract_tokenize_docs_per_s", 8, 32),
        "bench_docs": SCALING_DOCS,
    }
    for ncpu in (2, 8, 32):
        out[f"build_docs_per_s_{ncpu}"] = runs[ncpu]["index_docs_per_s"]
        out[f"build_s_{ncpu}"] = runs[ncpu]["index_build_s"]
        out[f"extract_tokenize_docs_per_s_{ncpu}"] = runs[ncpu]["extract_tokenize_docs_per_s"]
        # NOTE: the old box_calibration_docs_per_s_{ncpu} key is gone
        # (ADVICE round 4: its meaning silently flipped from the ET leg's
        # probe to the build leg's when the merge order changed); the
        # unambiguous per-leg et_/build_ calibration_start/end fields below
        # are the record now
        for tag in ("et", "build"):
            for edge in ("start", "end"):
                out[f"{tag}_calibration_{edge}_{ncpu}"] = runs[ncpu].get(
                    f"{tag}_calibration_{edge}"
                )
    out["query_p50_ms_32"] = runs[32]["query_p50_ms"]
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        result = run_scaling()
    elif "--merge" in sys.argv:
        result = run_merge_bench()
        import ray

        ray.shutdown()
    else:
        result = run_bench()
        import ray

        ray.shutdown()
    print(json.dumps(result))
