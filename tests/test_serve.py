"""Query actor pool: distributed serving stays rank-identical to a local
reader, and the pool fans a query list across actors.  Sharded mode: S
doc-shard indexes with global stats merge rank-identical to one big index."""

import pytest

from engine import synth
from engine.build import build_index
from engine.query import IndexReader
from engine.serve import QueryPool, ShardedQueryPool, build_sharded


@pytest.fixture(scope="module")
def served_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    pages_dir = str(root / "pages")
    synth.write_pages(pages_dir, 500, num_files=8)
    index_dir = str(root / "index")
    build_index(pages_dir, index_dir, num_partitions=2)
    return index_dir


def test_sorted_term_map_dict_protocol():
    """The searchsorted-backed df map the shard actors use must behave
    exactly like the reader's plain dict for every operation the reader
    performs: get/[]/in/iter/len, including misses between, before and
    after the sorted keys."""
    import numpy as np
    import pyarrow as pa

    from engine.query import SortedTermMap

    tbl = pa.table({"term": ["alpha", "beta", "delta", "zeta"],
                    "df": pa.array([3, 1, 7, 2], pa.int64())})
    m = SortedTermMap.from_arrow(tbl)
    ref = {"alpha": 3, "beta": 1, "delta": 7, "zeta": 2}
    assert len(m) == 4 and list(m) == sorted(ref)
    for t, v in ref.items():
        assert t in m and m[t] == v and m.get(t) == v
    for miss in ("a", "bete", "gamma", "zz", ""):
        assert miss not in m and m.get(miss, 0) == 0
        try:
            m[miss]
            raise AssertionError("KeyError expected")
        except KeyError:
            pass
    # from_arrow preserves int64 dfs and object terms (what _vocab expects)
    assert m.dfs.dtype == np.int64 and m.terms.dtype == object


def test_pool_matches_local_reader(served_index):
    local = IndexReader(served_index)
    pool = QueryPool(served_index, num_actors=3)
    try:
        queries = [
            {"query_text": q["query_text"], "k": q["k"]}
            for q in synth.gen_queries_table(20).to_pylist()
        ]
        got = pool.search_many([dict(q) for q in queries])
        for q, res in zip(queries, got):
            assert res == local.search(q["query_text"], k=q["k"])
        # single-query path too
        one = pool.search(queries[0]["query_text"], k=queries[0]["k"])
        assert one == local.search(queries[0]["query_text"], k=queries[0]["k"])
        # did-you-mean serves from the pool identically to the local reader
        h = synth.HEAD_TERMS[0]
        for term in (h, h + "x", h[:-1], "zzzzzzzz"):
            assert pool.suggest(term) == local.suggest(term), term
    finally:
        pool.shutdown()


def test_sharded_pool_rank_identical_to_one_big_index(served_index, tmp_path):
    """8 doc-shard indexes (global loser set + global avgdl baked into the
    impacts, global df Arrow-reduced at serve time) answer every query
    rank-identical — including float64 scores — to the single big index.
    The synth corpus's duplicate url lands its re-crawl in a different file
    than the original, so the cross-shard dedup path is genuinely hit."""
    import os

    pages_dir = os.path.join(os.path.dirname(served_index), "pages")
    shard_dirs = build_sharded(pages_dir, str(tmp_path / "shards"), 8,
                               num_partitions=2)
    local = IndexReader(served_index)
    # 8 one-cpu actors would overcommit the 4-cpu test session (half the
    # pool never schedules and scatter-gather blocks forever); serving
    # actors are latency- not throughput-bound, so fractional cpus are fine
    pool = ShardedQueryPool(shard_dirs, num_cpus=0.25)
    try:
        assert pool.n_docs == local.n_docs
        for q in synth.gen_queries_table(20).to_pylist():
            want = local.search(q["query_text"], k=q["k"])
            got = pool.search(q["query_text"], k=q["k"])
            assert got == want, q["query_text"]
        # batched scatter-gather path: identical, in input order
        qs = [
            {"query_text": q["query_text"], "k": q["k"]}
            for q in synth.gen_queries_table(10).to_pylist()
        ]
        many = pool.search_many([dict(q) for q in qs])
        for q, res in zip(qs, many):
            assert res == local.search(q["query_text"], k=q["k"])
        # metadata filters work per shard (each shard owns its docmeta)
        want = local.search("the", k=10, lang_filter="en")
        assert pool.search("the", k=10, lang_filter="en") == want
        # boolean operators: eligibility is doc-local, scores use the
        # injected global df, so the shard merge stays score-identical
        h = synth.HEAD_TERMS
        for bq in (
            f"{h[0]} +{h[1]}",
            f"{h[0]} -{h[1]}",
            f'{h[2]} "{h[0]} {h[1]}"',
        ):
            want = local.search_boolean(bq, k=10)
            assert pool.search_boolean(bq, k=10) == want, bq
        # suggest: the injected global df map makes any one shard's delete
        # index span the whole vocabulary -> identical to the big index
        for term in (h[0], h[0] + "x", "zzzzzzzz"):
            assert pool.suggest(term) == local.suggest(term), term
    finally:
        pool.shutdown()
    # the global df reduce ran DISTRIBUTED and the driver handed actors a
    # PATH: per-bucket-group parquet + fingerprint live under the shard root
    gdir = str(tmp_path / "shards" / "global_dfs")
    files = sorted(os.listdir(gdir))
    assert ".fingerprint" in files
    assert any(f.startswith("bg-") and f.endswith(".parquet") for f in files)
    # fingerprint-matched reassembly is a no-op (pool creation stays free)
    before = {f: os.path.getmtime(os.path.join(gdir, f)) for f in files}
    from engine.serve import _assemble_global_dfs

    _assemble_global_dfs(shard_dirs, gdir)
    assert {f: os.path.getmtime(os.path.join(gdir, f))
            for f in sorted(os.listdir(gdir))} == before


def test_build_sharded_resumes_and_skips(served_index, tmp_path):
    """Re-running the CONCURRENT build_sharded over unchanged inputs must
    skip every per-shard phase via the manifests (per-shard resume semantics
    unchanged by the thread-pool orchestration)."""
    import os
    import time

    pages_dir = os.path.join(os.path.dirname(served_index), "pages")
    root = str(tmp_path / "shards")
    shard_dirs = build_sharded(pages_dir, root, 4, num_partitions=2)
    t0 = time.perf_counter()
    again = build_sharded(pages_dir, root, 4, num_partitions=2)
    dt = time.perf_counter() - t0
    assert again == shard_dirs
    # every phase checkpointed: the rerun is manifest reads + the cached
    # global-df fingerprint check (a fresh 4-shard build takes >>10s here)
    assert dt < 10, dt
    pool = ShardedQueryPool(shard_dirs, num_cpus=0.25)
    try:
        local = IndexReader(served_index)
        q = synth.gen_queries_table(5).to_pylist()[0]
        assert pool.search(q["query_text"], k=q["k"]) == local.search(
            q["query_text"], k=q["k"]
        )
    finally:
        pool.shutdown()


def test_shard_reader_addresses_its_own_lexicon(served_index, tmp_path):
    """A shard reader scores with the corpus-global df table but reads
    postings through its OWN lexicon: a term stored only in another shard
    has a global df here yet loads no chunks, a local term loads exactly
    the shard's stored chunks, and fresh shard readers per query merge to
    the one-big-index answers."""
    import json
    import os

    import numpy as np
    import pyarrow.compute as pc

    from engine._testing import segment_rows
    from engine.query import Lexicon, SortedTermMap
    from engine.serve import _assemble_global_dfs, shard_reader

    pages_dir = os.path.join(os.path.dirname(served_index), "pages")
    root = str(tmp_path / "shards")
    shard_dirs = build_sharded(pages_dir, root, 2, num_partitions=2)
    gdir = _assemble_global_dfs(shard_dirs, os.path.join(root, "global_dfs"))
    n_docs = 0
    for d in shard_dirs:
        with open(os.path.join(d, "stats.json")) as f:
            n_docs += json.load(f)["n_docs"]
    for d in shard_dirs:
        r = shard_reader(d, gdir, n_docs)
        assert type(r._df) is SortedTermMap and isinstance(r._lex, Lexicon)
        segs = segment_rows(d)
        stored = set(segs["term"].to_pylist())
        elsewhere = [t for t in r._df if t not in stored][:5]
        assert elsewhere
        for t in elsewhere:
            assert r.df(t) > 0 and r._load_chunks(t) == []
        for t in (synth.HEAD_TERMS[0], *sorted(stored)[:3]):
            rows = segs.filter(pc.equal(segs["term"], t))
            want = np.sort(pc.list_flatten(rows["doc_ids"]).to_numpy())
            got = np.sort(np.concatenate([c[0] for c in r._load_chunks(t)]))
            assert np.array_equal(got, want), t
            assert r.df(t) >= got.size
    local = IndexReader(served_index)
    for q in synth.gen_queries_table(10).to_pylist():
        merged = [
            hit for d in shard_dirs
            for hit in shard_reader(d, gdir, n_docs).search(q["query_text"], k=q["k"])
        ]
        merged.sort(key=lambda t: (-t[1], t[0]))
        assert merged[: q["k"]] == local.search(q["query_text"], k=q["k"]), q
