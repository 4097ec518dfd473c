"""Index build pipeline: pages parquet -> inverted-index segments.

Ray-Data-first realization of the reference's ETL
(/root/reference/ec2/parse_arxiv_papers/__main__.py:128-287, SURVEY.md §3.1),
re-expressed per SURVEY.md §7.2:

  phase losers    global keep-latest-by-url dedup residue: pre-aggregated
                  groupby(doc_id) over (doc_id, warc_ts) -> tiny loser set,
                  broadcast (no row-level shuffle of documents)
  phase extract+postings (FUSED cold path)
                  one actor-pool pass per input partition: read pages ->
                  extract -> loser filter -> within-batch dedup -> tokenize
                  -> write the doc store (extracted/pid=K), the partials
                  (sharded by term-bucket group via row-group layout) and
                  the compact per-doc docmeta table, all from the same
                  actor.  Doc text is read exactly once and posting rows
                  never enter the object store.  On resume, partitions with
                  a valid extract checkpoint but stale postings (e.g. an
                  analyzer change) re-run only the tokenize half from the
                  doc store.
  phase stats     pure metadata (no data re-read): N and total_tokens come
                  from the wave's per-shard metadata rows
  phase segments  the reduce side of the filesystem exchange: one
                  independent task per term-bucket group reads ONLY its own
                  row groups from each partials file, computes exact df
                  locally, and writes its segment file
                  (segments/bg-XXX.parquet: one chunk per term, a row
                  group per hot term; docnos and tfs as
                  delta-encoded Parquet list columns) and term lexicon
                  (dfs/bg-XXX.parquet) directly.  No all-to-all operator.

Every phase is checkpointed in the lineage manifest (engine/checkpoint.py);
re-running skips partitions/phases whose input fingerprints are unchanged —
the reference's NOT-EXISTS anti-join semantics (SURVEY.md §2.4 J3) as a
driver-side set difference.
"""

from __future__ import annotations

import gc
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet  # noqa: F401  (enables pa.parquet.*)
import ray
import ray.data as rd

from . import segments
from .analyze import DEFAULT_ANALYZER, AnalyzerConfig, Tokenizer
from .checkpoint import BuildManifest, atomic_dir, fingerprint_files
from .extract import dedup_latest_in_batch, extract_batch
from .schema import (
    B,
    doc_ids_of_urls,
    DOCMETA_SCHEMA,
    EXTRACTED_SCHEMA,
    HOT_TERM_DF_FRACTION,
    K1,
    DOC_RANGE_SHIFT,
    FORMAT_VERSION,
    LEXICON_SCHEMA,
    NUM_BUCKET_GROUPS,
    NUM_DOC_RANGES,
    NUM_TERM_BUCKETS,
    PARTIAL_POSTINGS_POS_SCHEMA,
    PARTIAL_POSTINGS_SCHEMA,
    term_bucket,
)


def _ensure_nonempty(out_dir: str, schema: pa.Schema) -> None:
    """Zero-row stages must still leave a schema-bearing parquet file so
    downstream column-pruned reads work (empty-corpus / empty-partition)."""
    if not any(f.endswith(".parquet") for f in os.listdir(out_dir)):
        pa.parquet.write_table(
            schema.empty_table(), os.path.join(out_dir, "empty.parquet")
        )


def _dir_bytes(root: str) -> int:
    """Total on-disk bytes under ``root`` (driver-side stat walk: one stat
    per written part file, O(files) not O(bytes)) — the build records these
    per phase so the exchange's byte volume is attributable from the
    manifest instead of guessed (round-4 verdict #4: the 8->32-cpu
    inversion is a bus symptom; this is the meter for it)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, f))
            except OSError:
                pass
    return total


def _hash_analyzer(cfg: AnalyzerConfig) -> str:
    import hashlib as _h

    return _h.blake2b(
        json.dumps(cfg.to_json(), sort_keys=True).encode(), digest_size=6
    ).hexdigest()


def _loser_content_fp(
    ids: np.ndarray, max_ts: np.ndarray, win_rank: np.ndarray
) -> str:
    """Content hash of a loser TABLE (doc_id-sorted values, order-free).

    Shared by build_index and merge_indexes (engine/merge.py), which must
    predict the fingerprint build_index will derive from a grafted
    losers.parquet."""
    import hashlib as _h

    order = np.argsort(ids.astype(np.uint64))
    h = _h.blake2b(digest_size=8)
    h.update(ids.astype(np.uint64)[order].tobytes())
    h.update(max_ts.astype(np.int64)[order].tobytes())
    h.update(win_rank.astype(np.int32)[order].tobytes())
    return h.hexdigest()


def _filter_tag(input_filter) -> str:
    return f"+W{input_filter}" if input_filter is not None else ""


def _extract_tag(extract_chain, extract_timeout_s) -> str:
    """Extract-lineage tag: a chain changes OUTPUT, and a poisoned row's
    fate depends on both chain and timeout — conservative: either setting
    is part of the extract lineage."""
    if extract_chain or extract_timeout_s:
        return "+X" + ",".join(extract_chain or ()) + f"@{extract_timeout_s or 0}"
    return ""


def _partition_inputs(input_files: list[str], num_partitions: int) -> dict[str, list[str]]:
    files = sorted(input_files)
    num_partitions = max(1, min(num_partitions, len(files)))
    out: dict[str, list[str]] = {}
    for i, f in enumerate(files):
        out.setdefault(f"{i % num_partitions:05d}", []).append(f)
    return out


def _assign_partitions(
    man: BuildManifest, files: list[str], num_partitions: int
) -> dict[str, list[str]]:
    """Sticky file->partition assignment (append-friendly lineage).

    A fresh build lays files out balanced round-robin over the sorted list
    (`_partition_inputs`).  On a re-run with the SAME num_partitions, files
    keep the partition recorded in the manifest and only files not seen
    before are assigned — each to the currently-smallest partition,
    deterministically (ties break on pid) — so growing the corpus (the
    reference's NOT-EXISTS incremental loop,
    ec2/parse_arxiv_papers/__main__.py:167-175) re-extracts only the
    partitions that actually received new files.  A pure round-robin over
    the re-sorted list would shift membership of nearly every partition on
    one appended crawl file and pay a near-full rebuild.  Files that
    disappeared from the input simply drop out of their partition (its
    fingerprint changes, it re-runs).  Changing num_partitions re-layouts
    from scratch; stale pid dirs are pruned by `_prune_stale_partitions`.
    """
    files = sorted(set(files))
    cfg = man.data.setdefault("config", {})
    prev = cfg.get("assignment") or {}
    if prev and cfg.get("assign_num_partitions") == num_partitions:
        parts: dict[str, list[str]] = {}
        new_files = []
        for f in files:
            pid = prev.get(f)
            if pid is None:
                new_files.append(f)
            else:
                parts.setdefault(pid, []).append(f)
        # the pid universe for NEW files is the caller's full range, so a
        # corpus that started smaller than num_partitions can still fan out
        counts = {f"{i:05d}": 0 for i in range(max(1, num_partitions))}
        for pid, fs in parts.items():
            counts[pid] = len(fs)
        for f in new_files:
            pid = min(counts, key=lambda p: (counts[p], p))
            counts[pid] += 1
            parts.setdefault(pid, []).append(f)
        parts = {pid: sorted(fs) for pid, fs in parts.items()}
    else:
        parts = _partition_inputs(files, num_partitions)
    cfg["assignment"] = {f: pid for pid, fs in sorted(parts.items()) for f in fs}
    cfg["assign_num_partitions"] = num_partitions
    man.save()
    return parts


def _default_concurrency() -> int:
    """Actor-pool size for the fused wave = ALL session cpus: Ray fuses the
    read->extract->filter->tokenize-shard chain into the actor-pool operator
    itself, so there are no sibling task stages competing for cores — a pool
    of cpus-2 would idle two cores outright (measurably: 6/8 actors cost 25%
    of an 8-cpu session's fused-phase throughput)."""
    return max(2, int(ray.cluster_resources().get("CPU", 4)))


def delete_docs(
    index_dir: str, *, urls=None, doc_ids=None
) -> int:
    """Tombstone documents in an existing index (the reference's
    delete-then-insert writer, ec2/parse_arxiv_papers/__main__.py:269-285,
    at the index level).  Returns the total tombstone count.

    Lucene-style two-phase semantics:
    - IMMEDIATE: IndexReader composes the tombstone set into the same
      docmeta-aligned mask as the metadata filters, so deleted docs vanish
      from every query path at the next reader construction — no segment
      rewrite.  Global stats (n_docs/avgdl/df -> idf) remain as-built, so
      scores of surviving docs are unchanged until compaction.
    - COMPACTION: re-running ``build_index`` over the same dir re-runs ONLY
      the stats+segments phases (the tombstone-set fingerprint is part of
      their lineage; extract/postings checkpoints stay valid) with
      tombstoned postings dropped and df/N/avgdl recomputed exactly —
      rank- and score-identical to a fresh build over the surviving docs.
    The tombstone file persists after compaction so a later postings re-run
    (e.g. an analyzer change) cannot resurrect deleted docs.

    Serving note: QueryPool / ShardedQueryPool actors construct their
    readers at pool creation and cache the mask — create pools AFTER
    deleting.  For a build_sharded layout, tombstone the docs in the shard
    dir that holds them and re-run build_sharded: only that shard compacts,
    and global scoring still holds, because ShardedQueryPool sums every
    shard's stats.json (n_docs, total_tokens) and df table at open.
    """
    ids: set[int] = set()
    if doc_ids is not None:
        ids.update(int(d) for d in doc_ids)
    if urls is not None:
        ids.update(int(d) for d in doc_ids_of_urls(list(urls)))
    path = os.path.join(index_dir, "tombstones.parquet")
    if os.path.exists(path):
        prev = pa.parquet.read_table(path)
        ids.update(prev["doc_id"].to_pylist())
    arr = np.array(sorted(ids), dtype=np.uint64)
    pa.parquet.write_table(
        pa.table({"doc_id": pa.array(arr, pa.uint64())}), path + ".tmp"
    )
    os.replace(path + ".tmp", path)
    return int(arr.size)


def _load_tombstones(index_dir: str) -> tuple[np.ndarray, str]:
    """(sorted tombstoned doc_ids, lineage tag).  Empty set -> empty tag."""
    path = os.path.join(index_dir, "tombstones.parquet")
    if not os.path.exists(path):
        return np.empty(0, np.uint64), ""
    t = pa.parquet.read_table(path)
    tombs = np.unique(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
    if not tombs.size:
        return tombs, ""
    import hashlib as _h

    return tombs, "+T" + _h.blake2b(tombs.tobytes(), digest_size=8).hexdigest()


def documents_to_extracted(batch: pa.Table) -> pa.Table:
    """Adapter: a `documents(doc_id, text, lang, ...)` table -> EXTRACTED rows.

    The table's own int64 doc_id is kept (any unique uint64 works for the
    postings); url is synthesized as doc://<id>; warc_ts is a fixed epoch.
    """
    ids = batch.column("doc_id").to_pylist()
    return pa.table(
        {
            "doc_id": batch.column("doc_id").cast(pa.uint64()),
            "url": pa.array([f"doc://{i}" for i in ids], pa.string()),
            "warc_ts": pa.array([0] * len(ids), pa.timestamp("us")),
            "lang": batch.column("lang"),
            "text": batch.column("text"),
        }
    )


def build_index(
    input_path: str | list[str],
    index_dir: str,
    *,
    num_partitions: int = 8,
    tokenize_batch_size: int | None = None,
    tokenizer_concurrency: int | None = None,
    input_kind: str = "pages",
    analyzer: AnalyzerConfig = DEFAULT_ANALYZER,
    extract_chain: tuple[str, ...] | None = None,
    extract_timeout_s: float | None = None,
    loser_files: list[str] | None = None,
    input_filter=None,
    store_positions: bool = False,
    precomputed_losers: pa.Table | None = None,
) -> dict:
    """Build (or resume) the full index under ``index_dir``. Returns metrics.

    ``extract_chain`` is an ordered tuple of "module:attr" extraction
    strategies with fall-through (the reference's per-paper parser dispatch,
    ec2/parse_arxiv_papers/__main__.py:42-47); ``extract_timeout_s`` routes
    extraction through the killable sidecar (engine/sandbox.py) so a poison
    page cannot stall a partition.  Both are part of the extract lineage
    fingerprint.

    ``loser_files`` and ``precomputed_losers`` support DOC-SHARDED
    multi-index builds (engine/serve.py build_sharded): ``loser_files``
    computes the keep-latest-by-url loser set over the WHOLE corpus (a url
    re-crawled into a different shard must still lose globally), and
    ``precomputed_losers`` injects a loser table the orchestrator computed
    ONCE over the whole corpus (build_sharded runs S shard builds — without
    it each would redundantly re-scan every input file for the identical
    global loser set); the lineage fingerprint is unchanged, so a resumed
    build without the injection still validates.

    ``input_filter`` is an optional ``pyarrow.dataset`` Expression pushed
    into every input read (the reference's free-form ``--condition`` WHERE
    hook, ec2/parse_arxiv_papers/__main__.py:176) — rows it rejects never
    leave storage; the expression is part of the lineage fingerprints.

    ``store_positions`` builds a POSITIONAL index: per-(term, doc) token
    positions (in the analyzed stream) ride the partial postings and are
    stored with each segment chunk (a positions list column), so phrase
    queries (engine/query.py search_boolean) resolve adjacency from the
    index instead of re-reading doc text.  It is part of the postings
    lineage fingerprint — toggling it re-runs tokenize+merge but reuses
    the extract phase."""
    if isinstance(input_path, str):
        if os.path.isdir(input_path):
            files = [
                os.path.join(input_path, f)
                for f in os.listdir(input_path)
                if f.endswith(".parquet")
            ]
        else:
            files = [input_path]
    else:
        files = list(input_path)
    import time as _time

    os.makedirs(index_dir, exist_ok=True)
    man = BuildManifest(index_dir)
    # a format bump invalidates every checkpoint (segment/partials layout or
    # scoring semantics changed); input fingerprints alone can't see that
    if man.data.get("config", {}).get("format_version") != FORMAT_VERSION:
        if man.data.get("partitions") or man.data.get("phases"):
            shutil.rmtree(index_dir)
            os.makedirs(index_dir, exist_ok=True)
            man = BuildManifest(index_dir)
        man.data.setdefault("config", {})["format_version"] = FORMAT_VERSION
        man.save()
    parts = _assign_partitions(man, files, num_partitions)
    _prune_stale_partitions(index_dir, man, set(parts))
    concurrency = tokenizer_concurrency or _default_concurrency()
    metrics: dict = {"partitions": len(parts), "skipped_extract": 0, "skipped_postings": 0}
    _t = _time.perf_counter()
    _phase_t: dict[str, float] = {}

    def _mark(name: str) -> None:
        nonlocal _t
        now = _time.perf_counter()
        _phase_t[name] = round(now - _t, 2)
        _t = now

    # ---- phase losers (global keep-latest-by-url dedup, computed FIRST
    # from a column-pruned read of the raw input: only (url, warc_ts) leave
    # storage; losers are filtered during extraction so no later phase ever
    # sees them) ----------------------------------------------------------
    losers_path = os.path.join(index_dir, "losers.parquet")
    loser_src = sorted(loser_files) if loser_files else files
    all_input_fp = fingerprint_files(loser_src) if loser_src else "empty"
    filt_tag = _filter_tag(input_filter)
    losers_fp = "input:" + all_input_fp + filt_tag
    if loser_files:
        # merge_indexes (engine/merge.py) remaps each source's loser
        # win_ranks into the union's file-rank space; when the ranks index a
        # WIDER corpus than this index's own inputs (shard builds), the
        # rank-owning file list must be recoverable from the manifest
        man.data.setdefault("config", {})["loser_src_extra"] = loser_src
    # file ranks (the ts-tie winner key) come from the GLOBAL corpus order
    # when loser_files is given, so every shard agrees on the winner
    rank_of_path = {f: i for i, f in enumerate(sorted(loser_src))}
    if not man.phase_done("losers", losers_fp, losers_path):
        if precomputed_losers is not None:
            # a callable is a lazy memo (build_sharded): the corpus-wide
            # loser scan runs at most once across S shard builds, and not
            # at all on a fully-checkpointed rerun
            losers_tbl = (
                precomputed_losers()
                if callable(precomputed_losers)
                else precomputed_losers
            )
        elif input_kind == "pages" and loser_src:
            losers_tbl = _compute_losers_from_input(
                loser_src, rank_of_path, input_filter=input_filter
            )
        else:  # documents tables carry a unique doc_id — no recrawls
            losers_tbl = _EMPTY_LOSERS
        pa.parquet.write_table(losers_tbl, losers_path + ".tmp")
        os.replace(losers_path + ".tmp", losers_path)
        man.record_phase(
            "losers", losers_fp,
            {"dup_urls": losers_tbl.num_rows,
             "dup_extra_rows": int(pa.compute.sum(losers_tbl["extra"]).as_py() or 0)},
        )
    losers_tbl = pa.parquet.read_table(losers_path)
    loser_ids = losers_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    loser_max_ts = losers_tbl["max_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    loser_win_rank = losers_tbl["win_rank"].to_numpy(zero_copy_only=False).astype(np.int32)
    loser_order = np.argsort(loser_ids)
    loser_ref = ray.put(
        (loser_ids[loser_order], loser_max_ts[loser_order], loser_win_rank[loser_order])
    )
    # content hash of the loser set: extract partitions are invalidated only
    # when the DEDUP OUTCOME changes, not whenever any input file changes
    loser_content_fp = _loser_content_fp(loser_ids, loser_max_ts, loser_win_rank)
    _mark("t_losers")

    # ---- phases extract + postings ---------------------------------------
    # The cold path FUSES them: one actor-pool pass reads pages, extracts,
    # filters losers, tokenizes and writes all three outputs (doc store,
    # bucket-group-sharded partials, compact docmeta) from the same actor —
    # doc text is read once, posting rows never enter the object store, and
    # the partials are the map side of a filesystem exchange (the segments
    # phase schedules one independent reduce task per bucket group reading
    # only its own row groups; on a multi-node cluster the same files live
    # in the shared store).  Extract and postings keep SEPARATE lineage
    # records: a partition whose extract checkpoint is valid but whose
    # postings are stale (analyzer / exchange-layout change) re-runs only
    # the tokenize half from the doc store.
    extracted_root = os.path.join(index_dir, "extracted")
    partials_root = os.path.join(index_dir, "partials")
    docmeta_root = os.path.join(index_dir, "docmeta")
    n_bg = NUM_BUCKET_GROUPS
    if input_kind == "pages":
        if extract_chain or extract_timeout_s:
            import functools

            extract_fn = functools.partial(
                extract_batch, chain=extract_chain, timeout_s=extract_timeout_s
            )
        else:
            extract_fn = extract_batch
    else:
        extract_fn = documents_to_extracted
    a_hash = _hash_analyzer(analyzer)
    x_tag = _extract_tag(extract_chain, extract_timeout_s)
    ext_fp = {
        pid: fingerprint_files(pfiles) + "+L" + loser_content_fp + x_tag + filt_tag
        for pid, pfiles in parts.items()
    }
    p_tag = "+P1" if store_positions else ""
    post_fp = {
        pid: ext_fp[pid] + "+A" + a_hash + f"+G{n_bg}" + p_tag for pid in parts
    }

    fused_todo = []
    for pid in parts:
        out_dir = os.path.join(extracted_root, f"pid={pid}")
        if man.partition_done(pid, "extract", ext_fp[pid], out_dir):
            metrics["skipped_extract"] += 1
        else:
            fused_todo.append(pid)
    if fused_todo:
        path_to_pid = {f: pid for pid in fused_todo for f in parts[pid]}
        ds = rd.read_parquet(
            sorted(path_to_pid), include_paths=True,
            # prune at the read: the pages table also carries a `text`
            # column (input_hint) that extraction never consumes
            columns=(
                ["url", "warc_ts", "html", "lang"]
                if input_kind == "pages" else None
            ),
            filter=input_filter,
            # finer blocks than files: with blocks == cpus one straggler
            # idles the pool tail; ~4 blocks/core keeps every stage busy
            override_num_blocks=max(4 * concurrency, len(path_to_pid)),
            # an override_num_blocks read carries a split factor, which
            # BLOCKS fusion into the tokenize actor pool (ray
            # operator_fusion.py: get_additional_split_factor() > 1) — so
            # these read tasks must be schedulable while a full-size pool
            # of 1-CPU actors occupies every core, or the wave deadlocks
            # (actors win the placement race, reads starve).  num_cpus=0
            # keeps them always schedulable; the explicit concurrency cap
            # bounds the oversubscription that zero-cost tasks would
            # otherwise allow (unbounded readers measurably halve
            # throughput by saturating the memory bus).
            ray_remote_args={"num_cpus": 0},
            concurrency=max(2, concurrency // 4),
        )
        ds = ds.map_batches(
            _ExtractWithPid(
                extract_fn, path_to_pid,
                rank_of_path if len(loser_ids) else None,
            ),
            batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True,
        )
        if len(loser_ids):
            ds = ds.map_batches(
                _LoserFilter(loser_ref), batch_format="pyarrow",
                batch_size=None, zero_copy_batch=True,
            )
        ds = ds.map_batches(dedup_latest_in_batch, batch_format="pyarrow")
        wave = _run_shard_wave(
            ds, fused_todo, n_bg, analyzer, tokenize_batch_size, concurrency,
            partials_root=partials_root, docmeta_root=docmeta_root,
            docstore_root=extracted_root, store_positions=store_positions,
        )
        for pid in fused_todo:
            man.record_partition(
                pid, "extract", ext_fp[pid], parts[pid],
                {"rows": wave.n_rows.get(pid, 0)},
            )
            man.record_partition(
                pid, "postings", post_fp[pid], [],
                {"tf_sum": wave.tf_sums.get(pid, 0)},
            )
    _mark("t_extract_tokenize")

    # ---- postings-only resume path (valid doc store, stale postings) -----
    todo = []
    for pid in parts:
        if pid in fused_todo:
            continue
        out_dir = os.path.join(partials_root, f"pid={pid}")
        meta_dir = os.path.join(docmeta_root, f"pid={pid}")
        if man.partition_done(pid, "postings", post_fp[pid], out_dir) and os.path.isdir(meta_dir):
            metrics["skipped_postings"] += 1
        else:
            todo.append(pid)
    if todo:
        pid_dirs = {}
        for pid in todo:
            d = os.path.join(extracted_root, f"pid={pid}")
            for f in os.listdir(d):
                if f.endswith(".parquet"):
                    pid_dirs[os.path.join(d, f)] = pid
        ds = rd.read_parquet(
            sorted(pid_dirs),
            columns=["doc_id", "url", "warc_ts", "lang", "text"],
            include_paths=True,
            # same deadlock guard as the cold wave: Ray may give this read
            # a split factor (small files vs target parallelism), which
            # blocks fusion into the full-size actor pool
            ray_remote_args={"num_cpus": 0},
            concurrency=max(2, concurrency // 4),
        ).map_batches(_PathToPid(pid_dirs), batch_format="pyarrow", batch_size=None)
        wave = _run_shard_wave(
            ds, todo, n_bg, analyzer, tokenize_batch_size, concurrency,
            partials_root=partials_root, docmeta_root=docmeta_root,
            docstore_root=None, store_positions=store_positions,
        )
        for pid in todo:
            man.record_partition(
                pid, "postings", post_fp[pid], [],
                {"tf_sum": wave.tf_sums.get(pid, 0)},
            )
    _mark("t_postings")

    # byte volume of the exchange's map side (what the merge must re-read)
    # and of the fused wave's other sinks, attributable per phase
    metrics["bytes_input"] = sum(os.path.getsize(f) for f in files)
    metrics["bytes_partials"] = _dir_bytes(partials_root)
    metrics["bytes_docmeta"] = _dir_bytes(docmeta_root)
    metrics["bytes_docstore"] = _dir_bytes(extracted_root)

    # ---- phase stats -----------------------------------------------------
    # N and total_tokens are DISTINCT-doc counts off the compact docmeta
    # table (one narrow two-column read per pid, in parallel): the wave's
    # per-shard row counts would double-count an exact-duplicate row split
    # across Ray blocks of one input file (ADVICE round 2) — the postings
    # side dedups such rows in the merge, so stats must agree.  Per-term df
    # is computed exactly inside each segments reduce task (a term's
    # postings all live in one bucket group) and written as the partitioned
    # dfs/ table there — the round-1 stats phase re-read every PARTIALS file
    # (posting-scale) and reduced on the driver, which scaled NEGATIVELY
    # with more shards.
    # tombstoned docs (delete_docs) are dropped from stats and segments;
    # the tombstone-set fingerprint rides the phase lineage, so re-running
    # build_index after a delete re-runs ONLY stats+segments (= compaction)
    tombs, tomb_tag = _load_tombstones(index_dir)

    stats_path = os.path.join(index_dir, "stats.json")
    dfs_root = os.path.join(index_dir, "dfs")
    # the format version is part of the stats+segments lineage: partitions
    # grafted into a dir (merge_indexes) keep valid checkpoints across a
    # format bump, but the layout these phases write does not
    partials_fp = man.partials_fingerprint() + tomb_tag + f"+F{FORMAT_VERSION}"
    if not man.phase_done("stats", partials_fp, stats_path):
        n_docs, total_tokens, range_counts = _distinct_doc_stats(
            docmeta_root, parts, tombstones=tombs
        )
        avgdl = float(total_tokens) / n_docs if n_docs else 0.0
        hot_threshold = max(2.0, HOT_TERM_DF_FRACTION * n_docs)
        # dense-docno range bases: prefix sums of per-interval-range distinct
        # doc counts (tombstoned docs INCLUDED — the docno space is the
        # reader's full docmeta order).  docno(d) = bases[range(d)] + rank of
        # d within its range; bases[-1] is the docno-space size.
        doc_range_bases = np.concatenate(
            ([0], np.cumsum(range_counts))
        ).astype(np.int64)
        stats = {
            "n_docs": n_docs,
            "total_tokens": int(total_tokens),
            "doc_range_bases": doc_range_bases.tolist(),
            "avgdl": avgdl,
            "hot_df_threshold": hot_threshold,
            "k1": K1,
            "b": B,
            "num_buckets": NUM_TERM_BUCKETS,
            "format_version": FORMAT_VERSION,
            "analyzer": analyzer.to_json(),
            "positions": bool(store_positions),
        }
        with open(stats_path + ".tmp", "w") as f:
            json.dump(stats, f, indent=1)
        os.replace(stats_path + ".tmp", stats_path)
        man.record_phase("stats", partials_fp, stats)
    with open(stats_path) as f:
        stats = json.load(f)
    _mark("t_stats")

    # ---- phase segments (the reduce side of the filesystem exchange) -----
    # One independent task per bucket group: read ONLY partials/*/bg=K
    # (column-pruned), give each hot term (Zipf head, SURVEY.md §4 "Skew") a
    # row group of its own and each bucket's cold terms one shared row
    # group, then write the group's segment file (one delta-encoded chunk
    # per term) and its lexicon directly.  No
    # all-to-all: reduce parallelism = n_bg tasks sized to the cluster (round 1 used a
    # sort-based groupby whose reduce was pinned to ~32 fat blocks and
    # scaled 1.5x from 8->32 cpus; partitioned reads scale with the cores).
    segments_root = os.path.join(index_dir, "segments")
    if not man.phase_done("segments", partials_fp, segments_root):
        # exchange map: bg -> [(partials file, row-group indexes)] from each
        # file's key-value metadata (footer-only reads; one per shard file)
        bg_files: dict[int, dict[str, list[int]]] = {}
        for pid in parts:
            pdir = os.path.join(partials_root, f"pid={pid}")
            for f in sorted(os.listdir(pdir)):
                if not f.endswith(".parquet"):
                    continue
                path = os.path.join(pdir, f)
                kv = pa.parquet.read_metadata(path).metadata or {}
                for rg, bg in enumerate(json.loads(kv.get(b"bgs", b"[]"))):
                    bg_files.setdefault(bg, {}).setdefault(path, []).append(rg)
        # docno exchange: the corpus's sorted doc_id table (8 bytes/doc) is
        # ray.put ONCE and fetched zero-copy by every reduce task; each doc's
        # docno is its rank in the deduped sorted order (the reader's
        # docmeta dedup, exactly).  A corpus too large for one broadcast is
        # built as doc shards (engine/serve.py build_sharded).
        import pyarrow.dataset as _pads

        dm = _pads.dataset(docmeta_root).to_table(columns=["doc_id"])
        dm_ids = np.unique(
            dm["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        )
        docids_ref = ray.put(dm_ids)
        with atomic_dir(segments_root) as tmp:
            dfs_tmp = os.path.join(tmp, "_dfs")
            os.makedirs(dfs_tmp, exist_ok=True)
            n_terms = 0
            n_hot = 0
            if bg_files:
                work = rd.from_items(
                    [
                        {
                            "bg": bg,
                            "paths": sorted(fmap),
                            "rgs": [fmap[p] for p in sorted(fmap)],
                        }
                        for bg, fmap in sorted(bg_files.items())
                    ],
                    override_num_blocks=len(bg_files),
                )
                merged = work.map_batches(
                    _MergeBucketGroup(
                        stats["hot_df_threshold"], tmp, dfs_tmp, partials_fp,
                        docids_ref,
                        tomb_ref=ray.put(tombs) if tombs.size else None,
                    ),
                    batch_format="pyarrow", batch_size=None,
                )
                summary = merged.to_pandas()
                n_terms = int(summary["n_terms"].sum())
                n_hot = int(summary["n_hot"].sum())
            if not os.listdir(dfs_tmp):  # empty corpus: an empty lexicon
                pa.parquet.write_table(
                    LEXICON_SCHEMA.empty_table(),
                    os.path.join(dfs_tmp, "empty.parquet"),
                )
            # promote the per-bucket-group lexicon alongside the segments
            if os.path.isdir(dfs_root):
                shutil.rmtree(dfs_root)
            os.replace(dfs_tmp, dfs_root)
        # n_terms/n_hot_terms are informational; fill them into stats.json
        # now that the merge has counted the vocabulary exactly
        stats["n_terms"] = n_terms
        stats["n_hot_terms"] = n_hot
        with open(stats_path + ".tmp", "w") as f:
            json.dump(stats, f, indent=1)
        os.replace(stats_path + ".tmp", stats_path)
        man.record_phase(
            "segments", partials_fp,
            {"n_terms": n_terms, "n_hot_terms": n_hot,
             "bytes_partials_read": metrics.get("bytes_partials"),
             "bytes_segments": _dir_bytes(segments_root),
             "bytes_dfs": _dir_bytes(dfs_root)},
        )
    metrics["bytes_segments"] = _dir_bytes(segments_root)

    _mark("t_segments")
    metrics.update(stats)
    metrics["phase_seconds"] = _phase_t
    return metrics


def _distinct_doc_stats(
    docmeta_root: str, pids, tombstones: np.ndarray | None = None
) -> tuple[int, int, np.ndarray]:
    """Exact (distinct doc count, total doclen over distinct docs, per-range
    distinct counts) from the compact docmeta table.  Count and doclen sum
    exclude tombstoned docs (BM25 stats must not score deleted docs); the
    per-range counts include them — they define the dense-docno space, which
    must stay aligned with the reader's docmeta table (tombstoned rows are
    masked at query time, not removed from docmeta).

    A duplicate doc_id can only occur WITHIN a pid (an exact-duplicate row
    split across Ray blocks of one input file; cross-file recrawls are
    resolved by the loser filter), so per-pid distinct counts sum exactly.
    One zero-cpu task per pid reads only the two narrow columns — work and
    memory per task are bounded by that pid's doc count.
    """
    tomb_ref = (
        ray.put(tombstones)
        if tombstones is not None and tombstones.size
        else None
    )

    @ray.remote(num_cpus=0)
    def one(pdir: str, tref) -> tuple[int, int, np.ndarray]:
        import pyarrow.dataset as pads

        zero = np.zeros(NUM_DOC_RANGES, dtype=np.int64)
        t = pads.dataset(pdir).to_table(columns=["doc_id", "doclen"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        if ids.size == 0:
            return 0, 0, zero
        dls = t["doclen"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids, dls = ids[order], dls[order]
        keep = np.ones(ids.size, dtype=bool)
        keep[1:] = ids[1:] != ids[:-1]
        ids, dls = ids[keep], dls[keep]
        ranges = np.bincount(
            (ids >> np.uint64(DOC_RANGE_SHIFT)).astype(np.int64),
            minlength=NUM_DOC_RANGES,
        ).astype(np.int64)
        if tref is not None:
            tomb = tref  # ObjectRef args arrive resolved
            pos = np.minimum(np.searchsorted(tomb, ids), tomb.size - 1)
            alive = tomb[pos] != ids
            ids, dls = ids[alive], dls[alive]
        return int(ids.size), int(dls.sum()), ranges

    futs = [
        one.remote(os.path.join(docmeta_root, f"pid={pid}"), tomb_ref)
        for pid in pids
    ]
    res = ray.get(futs)
    range_counts = np.zeros(NUM_DOC_RANGES, dtype=np.int64)
    for r in res:
        range_counts += r[2]
    return sum(r[0] for r in res), sum(r[1] for r in res), range_counts


def _prune_stale_partitions(
    index_dir: str, man: BuildManifest, live_pids: set[str]
) -> None:
    """Delete extracted/partials pid dirs (and manifest entries) whose pid is
    not in the current partition map.

    Rebuilding into the same index_dir with fewer --partitions (or after an
    input file was removed) would otherwise leave stale pid=* dirs whose rows
    the stats/segments phases re-read alongside the live data — duplicated
    df/postings with no error.  Stale pids also invalidate downstream phases
    via partials_fingerprint() once their manifest entries are dropped.
    """
    stale = set()
    for sub in ("extracted", "partials", "docmeta"):
        root = os.path.join(index_dir, sub)
        if sub == "extracted" and os.path.islink(root):
            # shared family doc store (engine/family.py): the primary member
            # owns it; pruning THROUGH the symlink would delete every other
            # member's extraction
            continue
        if not os.path.isdir(root):
            continue
        for d in os.listdir(root):
            if d.startswith("pid=") and d[4:] not in live_pids:
                shutil.rmtree(os.path.join(root, d), ignore_errors=True)
                stale.add(d[4:])
    dropped = [pid for pid in man.data["partitions"] if pid not in live_pids]
    for pid in dropped:
        del man.data["partitions"][pid]
    if dropped:
        man.save()


class _PathToPid:
    """Map each row's source-file path to its checkpoint-partition id and
    drop the path column (vectorized via per-batch unique paths)."""

    def __init__(self, path_to_pid: dict[str, str]):
        self.path_to_pid = path_to_pid

    def pid_array(self, batch: pa.Table) -> pa.Array:
        paths = batch.column("path")
        de = paths.combine_chunks() if isinstance(paths, pa.ChunkedArray) else paths
        de = de.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        pid_of = [self.path_to_pid[p] for p in de.dictionary.to_pylist()]
        codes = de.indices.cast(pa.int32())
        # dictionary-encoded pid: 4 bytes/row through the pipeline, not a
        # python string per row (148M rows at 1.5M docs)
        return pa.DictionaryArray.from_arrays(codes, pa.array(pid_of, pa.string()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        pid = self.pid_array(batch)
        return batch.drop_columns(["path"]).append_column("pid", pid)


class _ExtractWithPid(_PathToPid):
    """Fused path->pid + extraction stage (one map over the input wave).

    When a loser set exists, each row also carries `frank` — the global rank
    of its source file among all sorted input files — so `_LoserFilter` can
    apply the deterministic (warc_ts, file_rank) winner tie-break.
    """

    def __init__(self, extract_fn, path_to_pid: dict[str, str],
                 rank_of_path: dict[str, int] | None = None):
        super().__init__(path_to_pid)
        self.extract_fn = extract_fn
        self.rank_of_path = rank_of_path

    def __call__(self, batch: pa.Table) -> pa.Table:
        pid = self.pid_array(batch)
        out = self.extract_fn(batch.drop_columns(["path"])).append_column("pid", pid)
        if self.rank_of_path is not None:
            paths = batch.column("path")
            de = paths.combine_chunks() if isinstance(paths, pa.ChunkedArray) else paths
            de = de.dictionary_encode()
            if isinstance(de, pa.ChunkedArray):
                de = de.combine_chunks()
            rank_of = np.array(
                [self.rank_of_path[p] for p in de.dictionary.to_pylist()],
                dtype=np.int32,
            )
            codes = de.indices.to_numpy(zero_copy_only=False)
            out = out.append_column("frank", pa.array(rank_of[codes], pa.int32()))
        return out


class _PidTokenizer(Tokenizer):
    """Tokenizer that forwards each doc's pid onto its posting rows (batches
    after a union may mix partitions, so pid is carried per row, dictionary-
    encoded)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = super().__call__(batch)
        pid_col = batch.column("pid")
        if isinstance(pid_col, pa.ChunkedArray):
            pid_col = pid_col.combine_chunks()
        if not pa.types.is_dictionary(pid_col.type):
            pid_col = pid_col.dictionary_encode()
        pid_codes = pid_col.indices.to_numpy(zero_copy_only=False)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        # map each posting row back to its doc's position in this batch
        order = np.argsort(doc_ids, kind="stable")
        pos = order[
            np.searchsorted(doc_ids[order], out.column("doc_id").to_numpy(zero_copy_only=False))
        ]
        pid_out = pa.DictionaryArray.from_arrays(
            pa.array(pid_codes[pos].astype(np.int32)), pid_col.dictionary
        )
        return out.append_column("pid", pid_out)


class _LoserFilter:
    """Drop rows of duplicate urls that are not the winning crawl.

    Broadcast-small-side anti-join (SURVEY.md §2.4 J5 pattern): the loser set
    lives in the object store once (ray.put), fetched per actor, probed with
    np.searchsorted per batch — no shuffle of the documents.

    The winner per duplicate url is the unique max (warc_ts, file_rank) row —
    equal-timestamp recrawls in different input files resolve
    deterministically regardless of partition layout, mirroring the oracle's
    last-writer-wins order over file-rank-ordered rows.  (Equal-ts duplicates
    within ONE file are resolved last-row-wins by dedup_latest_in_batch; an
    exact-duplicate row split across blocks of the same file additionally
    hits the duplicate-(term,doc) guard in _MergeBucketGroup._merge_one.)
    """

    def __init__(self, loser_ref):
        self.ids, self.max_ts, self.win_rank = ray.get(loser_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        ts = batch.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        frank = batch.column("frank").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(self.ids, ids)
        pos = np.minimum(pos, len(self.ids) - 1)
        is_dup = self.ids[pos] == ids
        keep = ~is_dup | ((ts == self.max_ts[pos]) & (frank == self.win_rank[pos]))
        return batch.filter(pa.array(keep)).drop_columns(["frank"])


class _TokenizeAndShard(_PidTokenizer):
    """Fused actor-pool stage: tokenize a batch AND write every output.

    Per batch, per pid present in the batch, this writes:

    - (optional) one doc-store part under extracted.wave/pid=P — fusing the
      doc-store writer here means extracted text is produced and persisted
      in the same pass that consumes it (round 1 wrote it in one wave and
      re-read all of it in a second);
    - one partials shard file under partials.wave/pid=P with ONE ROW GROUP
      PER TERM-BUCKET GROUP (sorted by bg; the bg of each row group is
      recorded in the file's key-value metadata).  This is the map side of
      a filesystem exchange: the segments phase reads only its own row
      groups from each file — partitioned pruned reads instead of an
      all-to-all shuffle operator, and row-group indexing instead of a
      file-per-(shard, group) explosion;
    - one docmeta part under docmeta.wave/pid=P: (doc_id, url, warc_ts,
      lang, doclen) — the compact per-doc table that serves query-time
      metadata filters and the rerank prior.

    Only tiny metadata rows are returned, so posting rows never enter the
    object store.  File names are content-addressed (hash of the rows), so
    Ray task retries overwrite their own output — idempotent, like the
    deterministic segment-file names downstream.
    """

    def __init__(self, analyzer, partials_tmp: str, docmeta_tmp: str,
                 docstore_tmp: str | None, n_bg: int,
                 store_positions: bool = False):
        super().__init__(analyzer, with_positions=store_positions)
        self.partials_tmp = partials_tmp
        self.docmeta_tmp = docmeta_tmp
        self.docstore_tmp = docstore_tmp
        self.n_bg = n_bg

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib as _h

        meta_cols = batch.select(["doc_id", "url", "warc_ts", "lang", "pid"])
        postings = super().__call__(batch.select(["doc_id", "text", "pid"]))
        out_pid, out_bg, out_rows, out_tf = [], [], [], []
        pid_col = meta_cols.column("pid")
        if isinstance(pid_col, pa.ChunkedArray):
            pid_col = pid_col.combine_chunks()
        if not pa.types.is_dictionary(pid_col.type):
            pid_col = pid_col.dictionary_encode()
        pids_vocab = pid_col.dictionary.to_pylist()
        meta_pid_codes = pid_col.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # per-doc doclen: tokenizer emits doclen per (term, doc) row; recover
        # one value per doc vectorized (any posting row of the doc carries it)
        doc_ids = meta_cols.column("doc_id").to_numpy(zero_copy_only=False)
        p_doc = postings.column("doc_id").to_numpy(zero_copy_only=False)
        p_dl = postings.column("doclen").to_numpy(zero_copy_only=False)
        order = np.argsort(doc_ids, kind="stable")
        doclens = np.zeros(len(doc_ids), dtype=np.int64)
        if len(p_doc) and len(doc_ids):
            pos = np.searchsorted(doc_ids[order], p_doc)
            doclens[order[pos]] = p_dl  # every posting doc exists in the batch
        meta_tbl = pa.table(
            {
                "doc_id": meta_cols.column("doc_id"),
                "url": meta_cols.column("url"),
                "warc_ts": meta_cols.column("warc_ts"),
                "lang": meta_cols.column("lang"),
                "doclen": pa.array(doclens, pa.int64()),
            }
        )
        for pc_ in np.unique(meta_pid_codes):
            pid = pids_vocab[int(pc_)]
            mask = pa.array(meta_pid_codes == pc_)
            sub = meta_tbl.filter(mask)
            hh = _h.blake2b(digest_size=10)
            hh.update(sub.column("doc_id").to_numpy(zero_copy_only=False).tobytes())
            tag = hh.hexdigest()
            d = os.path.join(self.docmeta_tmp, f"pid={pid}")
            os.makedirs(d, exist_ok=True)
            # one row group per doc_id range (footer KV "drs" = the range of
            # each row group): merge_indexes scans survivors per range
            ids_np = sub.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            drs_np = (ids_np >> np.uint64(DOC_RANGE_SHIFT)).astype(np.int64)
            dorder = np.argsort(drs_np, kind="stable")
            sub = sub.take(pa.array(dorder))
            drs_sorted = drs_np[dorder]
            dbounds = np.nonzero(np.diff(drs_sorted))[0] + 1
            dstarts = np.concatenate(([0], dbounds))
            dends = np.concatenate((dbounds, [len(drs_sorted)]))
            drs_list = [int(drs_sorted[s]) for s in dstarts] if len(drs_sorted) else []
            dm_schema = sub.schema.with_metadata({"drs": json.dumps(drs_list)})
            with pa.parquet.ParquetWriter(
                os.path.join(d, f"part-{tag}.parquet"), dm_schema,
                compression="zstd", compression_level=1,
            ) as w:
                for s0, e0 in zip(dstarts, dends):
                    w.write_table(
                        sub.slice(s0, e0 - s0), row_group_size=max(1, e0 - s0)
                    )
            if self.docstore_tmp is not None:
                store = batch.select(
                    ["doc_id", "url", "warc_ts", "lang", "text"]
                ).filter(mask)
                # doc_id-sorted with small row groups: a point lookup
                # (fetch_docs isin filter) then prunes on the parquet
                # row-group doc_id min/max stats instead of decoding the
                # whole part — hash ids in arrival order span the full id
                # range in EVERY row group, which defeats pruning entirely
                store = store.sort_by("doc_id")
                d = os.path.join(self.docstore_tmp, f"pid={pid}")
                os.makedirs(d, exist_ok=True)
                pa.parquet.write_table(
                    store, os.path.join(d, f"part-{tag}.parquet"),
                    row_group_size=128,
                    # doc store is write-heavy and disk-bound; zstd-1 halves
                    # bytes at ~snappy speed
                    compression="zstd", compression_level=1,
                )
            out_pid.append(pid)
            out_bg.append(-1)  # marker row: doc-store/docmeta row count
            out_rows.append(sub.num_rows)
            out_tf.append(0)
        # ---- partials shards: one file per pid, one row group per bg -----
        terms = postings.column("term")
        de = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
        de = de.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq_bucket = np.array(
            [term_bucket(t) for t in de.dictionary.to_pylist()], dtype=np.int64
        )
        p_pid = postings.column("pid")
        if isinstance(p_pid, pa.ChunkedArray):
            p_pid = p_pid.combine_chunks()
        if not pa.types.is_dictionary(p_pid.type):
            p_pid = p_pid.dictionary_encode()
        p_pid_codes = p_pid.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        p_pids_vocab = p_pid.dictionary.to_pylist()
        if postings.num_rows:
            bg = uniq_bucket[codes] % self.n_bg
            key = p_pid_codes * self.n_bg + bg
            order = np.argsort(key, kind="stable")
            pcols = ["term", "doc_id", "tf"] + (
                ["positions"] if self.with_positions else []
            )
            pschema = (
                PARTIAL_POSTINGS_POS_SCHEMA
                if self.with_positions
                else PARTIAL_POSTINGS_SCHEMA
            )
            t2 = postings.select(pcols).take(pa.array(order))
            key = key[order]
            bounds = np.nonzero(np.diff(key))[0] + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [len(key)]))
            # group consecutive runs by pid (key // n_bg)
            by_pid: dict[int, list[tuple[int, int]]] = {}
            for s0, e0 in zip(starts, ends):
                by_pid.setdefault(int(key[s0] // self.n_bg), []).append((s0, e0))
            for pc_, runs in by_pid.items():
                pid = p_pids_vocab[pc_]
                hh = _h.blake2b(digest_size=10)
                lo, hi = runs[0][0], runs[-1][1]
                hh.update(
                    t2.column("doc_id").slice(lo, hi - lo)
                    .to_numpy(zero_copy_only=False).tobytes()
                )
                d = os.path.join(self.partials_tmp, f"pid={pid}")
                os.makedirs(d, exist_ok=True)
                path = os.path.join(d, f"part-{hh.hexdigest()}.parquet")
                bgs = [int(key[s0] % self.n_bg) for s0, _ in runs]
                schema = pschema.with_metadata({"bgs": json.dumps(bgs)})
                with pa.parquet.ParquetWriter(
                    path, schema,
                    use_dictionary=["term"],  # terms dict-encode; ids don't
                    compression="zstd", compression_level=1,
                ) as w:
                    for (s0, e0), bgv in zip(runs, bgs):
                        sub = t2.slice(s0, e0 - s0).cast(pschema)
                        w.write_table(sub, row_group_size=max(1, e0 - s0))
                        out_pid.append(pid)
                        out_bg.append(bgv)
                        out_rows.append(e0 - s0)
                        out_tf.append(
                            int(sub.column("tf").to_numpy(zero_copy_only=False).sum())
                        )
        return pa.table(
            {
                "pid": pa.array(out_pid, pa.string()),
                "bg": pa.array(out_bg, pa.int32()),
                "rows": pa.array(np.asarray(out_rows, dtype=np.int64), pa.int64()),
                "tf_sum": pa.array(np.asarray(out_tf, dtype=np.int64), pa.int64()),
            }
        )


class _WaveResult:
    def __init__(self, tf_sums: dict[str, int], n_rows: dict[str, int]):
        self.tf_sums = tf_sums
        self.n_rows = n_rows


def _run_shard_wave(
    ds: rd.Dataset, pids: list[str], n_bg: int, analyzer,
    tokenize_batch_size, concurrency, *,
    partials_root: str, docmeta_root: str, docstore_root: str | None,
    store_positions: bool = False,
) -> _WaveResult:
    """Run the fused tokenize+shard wave into tmp dirs, then promote each
    pid dir of partials/, docmeta/ (and the doc store, on the cold path)
    atomically; returns per-pid tf sums and doc counts."""
    import tempfile

    roots = [(partials_root, "partials.wave."), (docmeta_root, "docmeta.wave.")]
    if docstore_root is not None:
        roots.append((docstore_root, "extracted.wave."))
    tmps = []
    for root, prefix in roots:
        os.makedirs(root, exist_ok=True)
        tmps.append(
            tempfile.mkdtemp(prefix=prefix, dir=os.path.dirname(root.rstrip("/")))
        )
    ptmp, mtmp = tmps[0], tmps[1]
    stmp = tmps[2] if docstore_root is not None else None
    tf_sums: dict[str, int] = {pid: 0 for pid in pids}
    n_rows: dict[str, int] = {pid: 0 for pid in pids}
    try:
        meta = ds.map_batches(
            _TokenizeAndShard,
            fn_constructor_args=(analyzer, ptmp, mtmp, stmp, n_bg, store_positions),
            batch_format="pyarrow",
            batch_size=tokenize_batch_size,
            # fixed-size pool: all actors start with the phase (an
            # autoscaling (1, N) pool ramps too slowly for short waves)
            concurrency=concurrency,
            zero_copy_batch=True,
        ).to_pandas()  # metadata rows only (one per written row group)
        # the pool's actors hold their CPUs until this process's garbage
        # collector frees the executor's reference cycles; collect now, or
        # the next phase's tasks can wait ~10-20 s on a small box for the
        # raylet to ask for a collection
        gc.collect()
        if len(meta):
            post = meta[meta["bg"] >= 0]
            for pid, r in post.groupby("pid")["tf_sum"].sum().items():
                tf_sums[pid] = int(r)
            docs = meta[meta["bg"] < 0]
            for pid, r in docs.groupby("pid")["rows"].sum().items():
                n_rows[pid] = int(r)
        schemas = [
            PARTIAL_POSTINGS_POS_SCHEMA if store_positions
            else PARTIAL_POSTINGS_SCHEMA,
            DOCMETA_SCHEMA,
        ]
        finals = [partials_root, docmeta_root]
        if stmp is not None:
            no_pid = pa.schema([f for f in EXTRACTED_SCHEMA if f.name != "pid"])
            schemas.append(no_pid)
            finals.append(docstore_root)
        for pid in pids:
            for tmp_root, root, schema in zip(tmps, finals, schemas):
                pdir = os.path.join(tmp_root, f"pid={pid}")
                os.makedirs(pdir, exist_ok=True)
                _ensure_nonempty(pdir, schema)
                final = os.path.join(root, f"pid={pid}")
                if os.path.isdir(final):
                    shutil.rmtree(final)
                os.replace(pdir, final)
    finally:
        for t in tmps:
            shutil.rmtree(t, ignore_errors=True)
    return _WaveResult(tf_sums, n_rows)


class _MergeBucketGroup:
    """Reduce task of the filesystem exchange: one bucket group's row groups
    -> its segment file (segments/bg-XXX.parquet) + its slice of the
    partitioned term lexicon (dfs/bg-XXX.parquet: df and chunk addresses).

    ALL postings of a term live in exactly one bucket group, so per-term df
    is computed exactly here — no global stats pass, no hot-set broadcast:
    a term is hot iff its (local == global) df exceeds the threshold.  Each
    term is written as one docno-sorted chunk; a hot term (Zipf head,
    SURVEY.md §4 'Skew') gets a row group of its own, so reading it reads no
    other term's postings, while a bucket's cold terms share one row group.
    Each doc_id is replaced by its dense docno, looked up in the
    broadcast sorted doc_id table (ray.put once, zero-copy per task).
    Writes both files directly with deterministic names — Ray's generic
    parquet sink re-buffers the large chunk rows and is ~3x slower, and
    deterministic names keep task retries idempotent.
    """

    def __init__(self, hot_threshold: float, out_root: str, dfs_root: str,
                 lineage: str, docids_ref, tomb_ref=None):
        self.hot_threshold = hot_threshold
        self.out_root = out_root
        self.dfs_root = dfs_root
        # the segments phase's lineage fingerprint: each group's segment
        # file and lexicon carry segments.pairing_token(lineage, bg)
        self.lineage = lineage
        self.docids_ref = docids_ref
        self.tomb_ref = tomb_ref  # sorted tombstoned doc_ids (delete_docs)

    def __call__(self, work: pa.Table) -> pa.Table:
        dm_ids = ray.get(self.docids_ref)
        tomb = ray.get(self.tomb_ref) if self.tomb_ref is not None else None
        out_bg, out_terms, out_hot = [], [], []
        for item in work.to_pylist():
            tabs = []
            for path, rgs in zip(item["paths"], item["rgs"]):
                pf = pa.parquet.ParquetFile(path)
                tabs.append(pf.read_row_groups(list(rgs)))
            t = (
                pa.concat_tables(tabs).combine_chunks()
                if tabs else PARTIAL_POSTINGS_SCHEMA.empty_table()
            )
            if tomb is not None and t.num_rows:
                # drop tombstoned docs BEFORE df counting (compaction path)
                docs = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
                pos = np.minimum(np.searchsorted(tomb, docs), tomb.size - 1)
                dead = tomb[pos] == docs
                if dead.any():
                    t = t.filter(pa.array(~dead))
            nt, nh = self._merge_one(t, int(item["bg"]), dm_ids)
            out_terms.append(nt)
            out_hot.append(nh)
            out_bg.append(int(item["bg"]))
        return pa.table(
            {
                "bg": pa.array(out_bg, pa.int32()),
                "n_terms": pa.array(np.asarray(out_terms, dtype=np.int64), pa.int64()),
                "n_hot": pa.array(np.asarray(out_hot, dtype=np.int64), pa.int64()),
            }
        )

    def _merge_one(
        self, t: pa.Table, bg: int, dm_ids: np.ndarray
    ) -> tuple[int, int]:
        if t.num_rows == 0:
            return 0, 0
        terms = t.column("term")
        de = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
        de = de.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        # codes in term order, not in order of first appearance in the
        # partials: the same corpus then gets the same row groups, rows and
        # lexicon whatever its build history (incremental or from scratch)
        by_term = pc.array_sort_indices(de.dictionary).to_numpy()
        rank = np.empty(len(by_term), np.int64)
        rank[by_term] = np.arange(len(by_term))
        codes = rank[de.indices.to_numpy(zero_copy_only=False)]
        vocab = de.dictionary.take(pa.array(by_term))
        uniq = vocab.to_pylist()
        # duplicate-(term, doc) guard BEFORE any counting: an exact-duplicate
        # input row split across Ray blocks of one file emits the same
        # (term, doc) twice; counting it in df (or storing it in a chunk)
        # would drift idf from the oracle (ADVICE round 2).  Keep-first in
        # original row order.
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        if len(codes) > 1:
            order0 = np.lexsort((doc_ids, codes))
            eq = (codes[order0][1:] == codes[order0][:-1]) & (
                doc_ids[order0][1:] == doc_ids[order0][:-1]
            )
            if eq.any():
                keep = np.ones(len(codes), dtype=bool)
                keep[order0[1:][eq]] = False
                t = t.filter(pa.array(keep))
                codes, doc_ids = codes[keep], doc_ids[keep]
        # exact global df per term (this group owns every posting of its
        # terms); rows are (term, doc) pre-aggregated, so df = row count
        dfs = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        uniq_hot = dfs > self.hot_threshold
        uniq_bucket = np.array([term_bucket(tm) for tm in uniq], dtype=np.int64)
        # dense-docno substitution (FORMAT_VERSION 9): postings leave this
        # point keyed by each doc's rank in the doc_id-sorted docmeta order,
        # which the deduped broadcast IS: docno = its searchsorted position.
        # Monotone in doc_id, so every downstream sort/tie-break is unchanged.
        pos = np.searchsorted(dm_ids, doc_ids.astype(np.uint64))
        pos = np.minimum(pos, max(len(dm_ids) - 1, 0))
        docnos = pos.astype(np.uint64)
        t = t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id",
            pa.array(docnos, pa.uint64()),
        )
        # row groups, each sorted by (term, docno): one per hot term, one
        # per bucket for its cold terms
        n = len(uniq)
        group = uniq_bucket * (n + 1) + np.where(uniq_hot, np.arange(1, n + 1), 0)
        key = group[codes]
        order = np.lexsort((docnos, codes, key))
        t2 = t.take(pa.array(order))
        key = key[order]
        bounds = np.nonzero(np.diff(key))[0] + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(key)]))
        segments.write_bucket_group(
            os.path.join(self.out_root, f"bg-{bg:03d}.parquet"),
            os.path.join(self.dfs_root, f"bg-{bg:03d}.parquet"),
            vocab, dfs,
            (
                segments.compress_group(t2.slice(s0, e0 - s0))
                for s0, e0 in zip(starts, ends)
            ),
            segments.pairing_token(self.lineage, bg),
        )
        return len(uniq), int(uniq_hot.sum())


_EMPTY_LOSERS = pa.table(
    {
        "doc_id": pa.array([], pa.uint64()),
        "max_ts": pa.array([], pa.int64()),
        "win_rank": pa.array([], pa.int32()),
        "extra": pa.array([], pa.int64()),
    }
)


def _partial_arrays(t: pa.Table):
    """The (doc_id, cnt, max_ts, rank) columns of a loser-partials table."""
    return (
        t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64),
        t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["max_ts"].to_numpy(zero_copy_only=False).astype(np.int64),
        t["rank"].to_numpy(zero_copy_only=False).astype(np.int32),
    )


def _partials_table(ids, cnt, ts, rank) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.uint64()),
            "cnt": pa.array(cnt, pa.int64()),
            "max_ts": pa.array(ts, pa.int64()),
            "rank": pa.array(rank, pa.int32()),
        }
    )


def _winner_per_doc(ids, cnt, ts, rank):
    """Group (doc_id, cnt, ts, rank) rows by doc_id -> (doc_id, cnt sum,
    winning ts, winning rank), one entry per distinct doc_id, ascending.

    Winner = max (ts, rank) pair; lexsort keeps the pair intact (a plain
    per-column max would combine one row's ts with another's rank)."""
    order = np.lexsort((rank, ts, ids))
    sids = ids[order]
    first = np.ones(len(sids), dtype=bool)
    first[1:] = sids[1:] != sids[:-1]
    last = np.append(first[1:], len(sids) > 0)  # each doc's winning row
    cnt_sum = np.bincount(np.cumsum(first) - 1, weights=cnt[order])
    return sids[first], cnt_sum.astype(np.int64), ts[order][last], rank[order][last]


def _reduce_loser_partials(t: pa.Table) -> pa.Table:
    """Loser partial rows -> one winner row per dup url."""
    ids, cnt, ts, rank = _winner_per_doc(*_partial_arrays(t))
    dup = cnt > 1
    return pa.table(
        {
            "doc_id": pa.array(ids[dup], pa.uint64()),
            "max_ts": pa.array(ts[dup], pa.int64()),
            "win_rank": pa.array(rank[dup], pa.int32()),
            "extra": pa.array(cnt[dup] - 1, pa.int64()),
        }
    )


def _combine_loser_block(t: pa.Table) -> pa.Table:
    """Distributed combine over a SORTED block of loser partials: merge
    per-doc partials, then drop cnt==1 docs EXCEPT the block's first and
    last doc_id — after a range sort a url can only straddle ADJACENT
    blocks, so every potentially cross-block doc survives to the tiny
    driver-side finalize while the unique-url bulk (the overwhelming
    majority at web scale) is filtered on the cluster."""
    if t.num_rows == 0:
        return t
    ids, cnt, ts, rank = _winner_per_doc(*_partial_arrays(t))
    keep = (cnt > 1) | (ids == ids[0]) | (ids == ids[-1])
    return _partials_table(ids[keep], cnt[keep], ts[keep], rank[keep])


# inputs above this size reduce the loser partials on the cluster (range
# sort + boundary-safe combine) instead of the driver
_LOSERS_DISTRIBUTED_BYTES = 4 * 1024**3


def _compute_losers_from_input(
    files: list[str], rank_of_path: dict[str, int], input_filter=None
) -> pa.Table:
    """Find urls crawled more than once; return (doc_id, max_ts, win_rank,
    extra) where (max_ts, win_rank) identifies the unique winning row.

    Column-pruned read of (url, warc_ts) only; per-batch pre-aggregation to
    one (doc_id, cnt, max_ts, rank) row per distinct url per batch.  Small
    inputs finalize the partials driver-side (rows ~= |distinct urls|);
    above _LOSERS_DISTRIBUTED_BYTES the partials are range-sorted by doc_id
    and combined per block on the cluster, with only duplicate candidates
    and block-boundary docs reaching the driver — O(#dups + blocks) driver
    memory at any corpus size.
    """

    def batch_agg(t: pa.Table) -> pa.Table:
        ids = doc_ids_of_urls(t.column("url").to_pylist())
        ts = t.column("warc_ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        paths = t.column("path")
        de = paths.combine_chunks() if isinstance(paths, pa.ChunkedArray) else paths
        de = de.dictionary_encode()
        if isinstance(de, pa.ChunkedArray):
            de = de.combine_chunks()
        rank_of = np.array(
            [rank_of_path[p] for p in de.dictionary.to_pylist()], dtype=np.int32
        )
        ranks = rank_of[de.indices.to_numpy(zero_copy_only=False)]
        return _partials_table(
            *_winner_per_doc(ids, np.ones(len(ids), np.int64), ts, ranks)
        )

    ds = rd.read_parquet(
        files, columns=["url", "warc_ts"], include_paths=True, filter=input_filter
    )
    parts = ds.map_batches(
        batch_agg, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    est_bytes = sum(os.path.getsize(f) for f in files)
    if est_bytes > _LOSERS_DISTRIBUTED_BYTES:
        parts = parts.sort("doc_id").map_batches(
            _combine_loser_block, batch_format="pyarrow", batch_size=None
        )
    tables = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in parts.iter_batches(batch_format="pyarrow", batch_size=None)
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _EMPTY_LOSERS
    return _reduce_loser_partials(pa.concat_tables(tables))
