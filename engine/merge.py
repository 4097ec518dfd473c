"""Lucene-style index merge: combine independently built indexes into one.

The reference grows one index incrementally (NOT-EXISTS anti-join ingest,
/root/reference/ec2/parse_arxiv_papers/__main__.py:167-175); at fleet scale
the natural unit is instead an independent, resumable index per crawl
snapshot (or per shard — engine/serve.py build_sharded), consolidated later.
`merge_indexes` is that consolidation: S source index directories become one
index that is rank- and score-identical to a fresh `build_index` over the
union of their inputs — WITHOUT re-reading, re-extracting or re-tokenizing
any page whose dedup outcome is unchanged.

Design (all Ray-Data-first machinery is reused, none duplicated):

1.  Every source partition's extracted/, partials/ and docmeta/ pid dirs are
    the engine's own checkpointed exchange units — content-complete and
    position-independent (partials row groups are keyed by the GLOBAL
    term-bucket-group hash, docmeta row groups by the GLOBAL doc_id-interval
    range; neither depends on which index wrote them).  The merge GRAFTS
    them into the new index dir by hardlink (a metadata operation; on a
    shared cluster store, a rename/link) and records manifest entries under
    the merged lineage fingerprints.
2.  Cross-source recrawl dedup: one zero-cpu Ray task per doc_id range reads
    only (doc_id, warc_ts) from every source's range row groups (footer-KV
    indexed, no shuffle, no corpus-scale driver state) and reports doc_ids
    surviving in >= 2 sources plus the survivors of every known-duplicate
    url.  Partitions whose survivor set changes (their copy now LOSES to a
    newer crawl in another source) are simply NOT grafted — build_index
    re-extracts exactly those from their raw inputs with the merged loser
    set.  Everything else is proven unchanged and grafted.
3.  The merged keep-latest loser table is derived WITHOUT rescanning raw
    input when sources share no urls (each source's win_ranks are remapped
    into the union's file-rank space); with cross-source recrawls it is
    recomputed by the build's own column-pruned (url, warc_ts) scan —
    bit-identical to what a fresh build computes, so later incremental
    builds into the merged dir resume cleanly.
4.  One `build_index` call finishes the job: its losers phase is already
    checkpointed, grafted partitions validate against their recorded
    fingerprints and skip, dup-affected partitions re-extract, and the
    stats + segments phases run over the union — the segments reduce
    (read partials, recount df exactly, rewrite one docno-sorted chunk
    per term) IS the Lucene merge's read-postings/write-postings
    cost, already partitioned per term-bucket group with no all-to-all.

Scale shape: driver state is O(sources x partitions + dup residue); data
movement is one pass over the partials (unavoidable — the merged postings
must be rewritten) plus docmeta-range metadata reads.  Nothing corpus-scale
is broadcast or materialized.

Correctness contract (tests/test_merge.py): merged top-k doc_ids and BM25
scores are float64-bitwise-identical to a fresh build over the union, for
plain, positional, recrawl-overlapping and shard-built sources; the merged
losers.parquet is value-identical to a fresh build's, so the lineage
fingerprints agree.

Limits (declared): sources must share analyzer / extract chain / positions
flag / input filter (validated against their recorded fingerprints — a
mismatch raises); merging a strict SUBSET of a build_sharded layout raises
if a duplicate url's winning crawl lives outside the merged sources (the
survivor-set guard below) — merge all shards together, which is exact.
Tombstones are unioned: a url deleted in any source stays deleted (the same
"tombstones survive compaction" rule as engine/build.py delete_docs).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from .analyze import DEFAULT_ANALYZER, AnalyzerConfig
from .build import (
    FORMAT_VERSION,
    _EMPTY_LOSERS,
    _compute_losers_from_input,
    _extract_tag,
    _filter_tag,
    _hash_analyzer,
    _loser_content_fp,
    build_index,
)
from .checkpoint import BuildManifest, fingerprint_files
from .schema import NUM_BUCKET_GROUPS  # the exchange key grafts depend on


class _Source:
    """Loaded metadata of one source index (manifest, losers, layout)."""

    def __init__(self, idx: int, path: str):
        self.idx = idx
        self.path = os.path.abspath(path)
        man = BuildManifest(self.path)
        cfg = man.data.get("config", {})
        if cfg.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"merge_indexes: {path} has format_version "
                f"{cfg.get('format_version')!r}, need {FORMAT_VERSION}"
            )
        assignment: dict[str, str] = cfg.get("assignment") or {}
        if not assignment:
            raise ValueError(f"merge_indexes: {path} has no recorded inputs")
        self.parts: dict[str, list[str]] = {}
        for f, pid in assignment.items():
            self.parts.setdefault(pid, []).append(f)
        self.parts = {pid: sorted(fs) for pid, fs in self.parts.items()}
        self.records = man.data.get("partitions", {})
        for pid in self.parts:
            rec = self.records.get(pid, {}).get("phase", {})
            if "extract" not in rec or "postings" not in rec:
                raise ValueError(
                    f"merge_indexes: {path} partition {pid} has no completed "
                    "extract+postings checkpoint (unfinished source build)"
                )
        lp = os.path.join(self.path, "losers.parquet")
        self.losers = pq.read_table(lp) if os.path.exists(lp) else _EMPTY_LOSERS
        self.loser_fp = _loser_content_fp(
            self.losers["doc_id"].to_numpy(zero_copy_only=False),
            self.losers["max_ts"].to_numpy(zero_copy_only=False),
            self.losers["win_rank"].to_numpy(zero_copy_only=False),
        )
        # the file list the loser win_ranks index (wider than this index's
        # own inputs for shard builds — engine/build.py records it)
        self.loser_src = cfg.get("loser_src_extra") or sorted(assignment)
        tp = os.path.join(self.path, "tombstones.parquet")
        self.tombstones = pq.read_table(tp) if os.path.exists(tp) else None


@ray.remote(num_cpus=0)
def _scan_range(entries: list, candidates: np.ndarray):
    """One doc_id-interval range: read (doc_id, warc_ts) from each source's
    range row groups; return (doc_id, src, pid, ts) rows for doc_ids present
    in >= 2 distinct sources (cross-source recrawls) or in `candidates`
    (known-duplicate urls whose merged winner must be located).

    Ranges partition the doc_id space, so cross-source duplicates are
    range-local — per-task memory is bounded by the range's doc count and
    the driver sees only dup-residue-scale rows."""
    ids_l, ts_l, src_l, pid_l = [], [], [], []
    for path, rgs, src, pid in entries:
        f = pq.ParquetFile(path)
        t = f.read_row_groups(rgs, columns=["doc_id", "warc_ts"])
        if t.num_rows == 0:
            continue
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ts = t["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ids_l.append(ids)
        ts_l.append(ts.astype(np.int64))
        src_l.append(np.full(ids.size, src, dtype=np.int32))
        pid_l.append(np.full(ids.size, pid, dtype=object))
    empty = (
        np.empty(0, np.uint64), np.empty(0, np.int32),
        np.empty(0, object), np.empty(0, np.int64),
    )
    if not ids_l:
        return empty
    ids = np.concatenate(ids_l)
    ts = np.concatenate(ts_l)
    src = np.concatenate(src_l)
    pid = np.concatenate(pid_l)
    # collapse exact-duplicate rows (a row split across Ray blocks of one
    # input file can appear twice WITHIN a pid — engine/build.py stats note)
    order = np.lexsort((src, ids))
    ids, ts, src, pid = ids[order], ts[order], src[order], pid[order]
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = (ids[1:] != ids[:-1]) | (src[1:] != src[:-1])
    ids, ts, src, pid = ids[keep], ts[keep], src[keep], pid[keep]
    # cross-source dups: doc_id groups spanning >= 2 rows (per-source unique
    # now, so group size == distinct sources)
    boundary = np.ones(ids.size, dtype=bool)
    boundary[1:] = ids[1:] != ids[:-1]
    group = np.cumsum(boundary) - 1
    sizes = np.bincount(group)
    is_dup = sizes[group] > 1
    in_cand = np.zeros(ids.size, dtype=bool)
    if candidates.size:
        pos = np.minimum(np.searchsorted(candidates, ids), candidates.size - 1)
        in_cand = candidates[pos] == ids
    m = is_dup | in_cand
    return ids[m], src[m], pid[m], ts[m]


def _scan_docmeta(sources: list[_Source], candidates: np.ndarray):
    """Fan the per-range survivor scan across the cluster; returns sorted
    parallel arrays (doc_id, src, pid, ts) of dup-residue scale."""
    dr_entries: dict[int, list] = {}
    for s in sources:
        root = os.path.join(s.path, "docmeta")
        if not os.path.isdir(root):
            continue
        for d in sorted(os.listdir(root)):
            if not d.startswith("pid="):
                continue
            pid = d[4:]
            pdir = os.path.join(root, d)
            for f in sorted(os.listdir(pdir)):
                if not f.endswith(".parquet"):
                    continue
                path = os.path.join(pdir, f)
                kv = pq.read_metadata(path).metadata or {}
                for rg, dr in enumerate(json.loads(kv.get(b"drs", b"[]"))):
                    dr_entries.setdefault(dr, []).append((path, [rg], s.idx, pid))
    # coalesce row groups per (path, src, pid) within a range
    futs = []
    cand_ref = ray.put(np.asarray(candidates, dtype=np.uint64))
    for dr in sorted(dr_entries):
        merged: dict[tuple, list[int]] = {}
        for path, rgs, src, pid in dr_entries[dr]:
            merged.setdefault((path, src, pid), []).extend(rgs)
        ents = [(p, sorted(rgs), src, pid) for (p, src, pid), rgs in sorted(merged.items())]
        futs.append(_scan_range.remote(ents, cand_ref))
    res = ray.get(futs)
    if not res:
        return (np.empty(0, np.uint64), np.empty(0, np.int32),
                np.empty(0, object), np.empty(0, np.int64))
    ids = np.concatenate([r[0] for r in res])
    src = np.concatenate([r[1] for r in res])
    pid = np.concatenate([r[2] for r in res])
    ts = np.concatenate([r[3] for r in res])
    order = np.argsort(ids, kind="stable")
    return ids[order], src[order], pid[order], ts[order]


def _survivor_plan(
    exp_ids: np.ndarray, exp_ts: np.ndarray, in_merged: np.ndarray,
    sc_ids: np.ndarray, sc_ts: np.ndarray, sc_src: np.ndarray,
    sc_pid: np.ndarray,
) -> set[tuple[int, str]]:
    """The survivor guard over every duplicate url at once.  ``exp_ids``
    (sorted, unique) are the duplicate urls' doc_ids with ``exp_ts`` their
    expected winning timestamps, ``in_merged`` marks those the merged loser
    table holds; (sc_ids sorted, sc_ts, sc_src, sc_pid) are the surviving
    copies the sources' docmeta holds.  Raises ValueError when there are
    no surviving copies at all, else for the first doc_id (in doc_id
    order) with no surviving copy, a copy newer than its winner, or no
    copy at its winning timestamp.  Otherwise returns the (source,
    partition) pairs that must re-extract: those holding a losing copy of
    a doc the merged table filters (every copy, when the winning
    timestamp is tied)."""
    if not sc_ids.size:
        raise ValueError(
            "merge_indexes: loser tables are non-empty but no source docmeta "
            "rows were found for their doc_ids (merging a subset of a "
            "sharded build?); merge all shards together"
        )
    lo = np.searchsorted(sc_ids, exp_ids, side="left")
    n = np.searchsorted(sc_ids, exp_ids, side="right") - lo
    # the surviving copies of every duplicate, grouped by doc in doc order
    doc = np.repeat(np.arange(exp_ids.size), n)
    row = lo[doc] + np.arange(doc.size) - (np.cumsum(n) - n)[doc]
    ts = sc_ts[row]
    newer = np.bincount(doc[ts > exp_ts[doc]], minlength=exp_ids.size) > 0
    winners = ts == exp_ts[doc]
    n_win = np.bincount(doc[winners], minlength=exp_ids.size)
    bad = (n == 0) | newer | (n_win == 0)
    if bad.any():
        j = int(np.argmax(bad))
        if n[j] == 0:
            raise ValueError(
                f"merge_indexes: duplicate url doc_id={int(exp_ids[j])} "
                "has no surviving copy in any source — its winning crawl "
                "is outside the merged sources (merging a subset of a "
                "sharded build?); merge all shards together"
            )
        if newer[j]:
            raise ValueError(
                f"merge_indexes: doc_id={int(exp_ids[j])} survives with a "
                "newer crawl than any loser table's winner — source and "
                "loser lineage are inconsistent"
            )
        raise ValueError(
            f"merge_indexes: duplicate url doc_id={int(exp_ids[j])} "
            "has no surviving copy at its winning timestamp (merging "
            "a subset of a sharded build?); merge all shards together"
        )
    # a doc the merged table filters (a sole copy in the union grafts as
    # is): its losing copies re-extract, every copy on a tied winner
    losing = in_merged[doc] & (~winners | (n_win[doc] != 1))
    return set(zip(sc_src[row[losing]].tolist(),
                   map(str, sc_pid[row[losing]].tolist())))


def _remap_losers(sources: list[_Source], union_rank: dict[str, int]):
    """Derive the merged loser table from the sources' tables by remapping
    each win_rank into the union's file-rank space — exact when sources
    share no urls (their dup sets are independent).  Returns None when a
    rank is unmappable or two sources disagree on an entry (caller falls
    back to the recompute-from-input path)."""
    tables = []
    for s in sources:
        if s.losers.num_rows == 0:
            continue
        try:
            rank_map = np.array(
                [union_rank[f] for f in s.loser_src], dtype=np.int32
            )
        except KeyError:
            return None  # ranks index files outside the union (shard subset)
        wr = s.losers["win_rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        if wr.size and (wr.min() < 0 or wr.max() >= rank_map.size):
            return None
        i = s.losers.schema.get_field_index("win_rank")
        tables.append(
            s.losers.set_column(
                i, "win_rank", pa.array(rank_map[wr], pa.int32())
            )
        )
    if not tables:
        return _EMPTY_LOSERS
    t = pa.concat_tables(tables)
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ts = t["max_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    wr = t["win_rank"].to_numpy(zero_copy_only=False).astype(np.int32)
    ex = t["extra"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((wr, ts, ids))
    ids, ts, wr, ex = ids[order], ts[order], wr[order], ex[order]
    keep = np.ones(ids.size, dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    if not keep.all():
        # same doc_id in two sources' tables: identical rows (shard builds
        # share ONE global loser table) dedup; disagreement means the
        # sources saw different copy sets — not derivable, recompute
        dup_pos = np.nonzero(~keep)[0]
        same = (
            (ts[dup_pos] == ts[dup_pos - 1])
            & (wr[dup_pos] == wr[dup_pos - 1])
            & (ex[dup_pos] == ex[dup_pos - 1])
        )
        if not same.all():
            return None
    ids, ts, wr, ex = ids[keep], ts[keep], wr[keep], ex[keep]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.uint64()),
            "max_ts": pa.array(ts, pa.int64()),
            "win_rank": pa.array(wr, pa.int32()),
            "extra": pa.array(ex, pa.int64()),
        }
    )


def _link_tree(src_dir: str, dst_dir: str) -> None:
    """Hardlink-graft a checkpointed dir (copy fallback, idempotent)."""
    os.makedirs(dst_dir, exist_ok=True)
    for name in os.listdir(src_dir):
        s = os.path.join(src_dir, name)
        d = os.path.join(dst_dir, name)
        if os.path.isdir(s):
            _link_tree(s, d)
        elif not os.path.exists(d):
            try:
                os.link(s, d)
            except OSError:
                shutil.copy2(s, d)


def merge_indexes(
    source_dirs: list[str],
    index_dir: str,
    *,
    analyzer: AnalyzerConfig = DEFAULT_ANALYZER,
    input_kind: str = "pages",
    store_positions: bool = False,
    extract_chain: tuple[str, ...] | None = None,
    extract_timeout_s: float | None = None,
    input_filter=None,
    **build_kwargs,
) -> dict:
    """Merge independently built index dirs into ``index_dir``; returns the
    finishing build's metrics plus merge accounting.

    The keyword args must match how the SOURCES were built — each source
    partition's recorded lineage fingerprint is revalidated against them
    (and against the source's raw input files, which must still exist), so
    an analyzer / positions / extract-chain mismatch or a stale source
    raises instead of silently mixing incompatible postings.
    """
    if len(source_dirs) < 1:
        raise ValueError("merge_indexes: need at least one source")
    for bad in ("num_partitions", "loser_files", "precomputed_losers"):
        if bad in build_kwargs:
            raise ValueError(
                f"merge_indexes: {bad} is owned by the merge (the merged "
                "layout keeps the sources' partitions and loser lineage)"
            )
    index_dir = os.path.abspath(index_dir)
    sources = [_Source(i, p) for i, p in enumerate(source_dirs)]
    if any(s.path == index_dir for s in sources):
        raise ValueError("merge_indexes: index_dir must not be a source")

    # ---- validate sources against the given build args -------------------
    x_tag = _extract_tag(extract_chain, extract_timeout_s)
    filt_tag = _filter_tag(input_filter)
    a_hash = _hash_analyzer(analyzer)
    p_tag = "+P1" if store_positions else ""
    seen_files: dict[str, str] = {}
    base_fp: dict[tuple[int, str], str] = {}
    for s in sources:
        for pid, files in s.parts.items():
            for f in files:
                if f in seen_files:
                    raise ValueError(
                        f"merge_indexes: input file {f} appears in both "
                        f"{seen_files[f]} and {s.path}"
                    )
                seen_files[f] = s.path
            base = fingerprint_files(files)
            base_fp[(s.idx, pid)] = base
            exp_ext = base + "+L" + s.loser_fp + x_tag + filt_tag
            exp_post = exp_ext + "+A" + a_hash + f"+G{NUM_BUCKET_GROUPS}" + p_tag
            rec = s.records[pid]["phase"]
            if rec["extract"]["fingerprint"] != exp_ext:
                raise ValueError(
                    f"merge_indexes: {s.path} partition {pid} extract lineage "
                    "does not match the given args (stale source inputs, or a "
                    "different extract chain / filter)"
                )
            if rec["postings"]["fingerprint"] != exp_post:
                raise ValueError(
                    f"merge_indexes: {s.path} partition {pid} postings lineage "
                    "does not match the given args (different analyzer / "
                    "positions flag)"
                )

    union_files = sorted(seen_files)
    union_rank = {f: i for i, f in enumerate(union_files)}

    # ---- cross-source dedup analysis --------------------------------------
    candidates = np.unique(
        np.concatenate(
            [
                s.losers["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                for s in sources
            ]
            + [np.empty(0, np.uint64)]
        )
    )
    sc_ids, sc_src, sc_pid, sc_ts = _scan_docmeta(sources, candidates)
    boundary = np.ones(sc_ids.size, dtype=bool)
    if sc_ids.size:
        boundary[1:] = sc_ids[1:] != sc_ids[:-1]
    group = np.cumsum(boundary) - 1 if sc_ids.size else np.empty(0, np.int64)
    n_src_per_doc = np.zeros(int(group[-1]) + 1 if sc_ids.size else 0, np.int64)
    if sc_ids.size:
        np.add.at(n_src_per_doc, group, 1)
    cross_dup = sc_ids.size > 0 and bool((n_src_per_doc > 1).any())

    if input_kind != "pages":
        if cross_dup:
            dup = sc_ids[n_src_per_doc[group] > 1]
            raise ValueError(
                "merge_indexes: documents-kind sources share doc_ids "
                f"(e.g. {int(dup[0])}); documents merges require disjoint ids"
            )
        losers_tbl, losers_mode = _EMPTY_LOSERS, "none"
    elif cross_dup:
        # exact merged loser set = the build's own column-pruned scan over
        # the union (bit-identical to a fresh build's losers phase)
        losers_tbl = _compute_losers_from_input(
            union_files, union_rank, input_filter=input_filter
        )
        losers_mode = "recomputed"
    else:
        losers_tbl, losers_mode = _remap_losers(sources, union_rank), "remapped"
        if losers_tbl is None:
            losers_tbl = _compute_losers_from_input(
                union_files, union_rank, input_filter=input_filter
            )
            losers_mode = "recomputed"

    # ---- survivor guard + re-extraction plan ------------------------------
    # Expected winner per duplicate url = the max winning timestamp any
    # SOURCE or the merged table records for it.  A source built against a
    # wider corpus (shard builds: loser_src_extra wider than its own files)
    # may have filtered a copy whose winner lives OUTSIDE the merged
    # sources; the merged index would then silently diverge from a fresh
    # build over the union — so every expected winner must be present as a
    # survivor at its winning timestamp, else raise (conservative: also
    # raises when the union holds no copy at all, which is why subsets of a
    # sharded build must merge all shards together).  Partitions holding
    # now-losing (or ts-tied) survivors re-extract from raw input with the
    # merged loser set.
    reextract: set[tuple[int, str]] = set()
    l_ids = losers_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    l_ts = losers_tbl["max_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
    exp_ids = np.concatenate(
        [l_ids]
        + [
            s.losers["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            for s in sources
        ]
    )
    exp_ts = np.concatenate(
        [l_ts]
        + [
            s.losers["max_ts"].to_numpy(zero_copy_only=False).astype(np.int64)
            for s in sources
        ]
    )
    if exp_ids.size:
        order = np.lexsort((exp_ts, exp_ids))
        exp_ids, exp_ts = exp_ids[order], exp_ts[order]
        last = np.ones(exp_ids.size, dtype=bool)
        last[:-1] = exp_ids[1:] != exp_ids[:-1]
        exp_ids, exp_ts = exp_ids[last], exp_ts[last]  # max ts per doc
    if exp_ids.size:
        in_merged = np.zeros(exp_ids.size, dtype=bool)
        if l_ids.size:
            lsort = np.sort(l_ids)
            p = np.minimum(np.searchsorted(lsort, exp_ids), lsort.size - 1)
            in_merged = lsort[p] == exp_ids
        reextract = _survivor_plan(
            exp_ids, exp_ts, in_merged, sc_ids, sc_ts, sc_src, sc_pid
        )

    # ---- assemble the merged dir ------------------------------------------
    src_list = [s.path for s in sources]
    if os.path.exists(os.path.join(index_dir, "manifest.json")):
        prev = BuildManifest(index_dir)
        if prev.data.get("config", {}).get("merged_from") != src_list:
            shutil.rmtree(index_dir)
    os.makedirs(index_dir, exist_ok=True)
    man = BuildManifest(index_dir)
    cfg = man.data.setdefault("config", {})
    cfg["format_version"] = FORMAT_VERSION
    cfg["merged_from"] = src_list

    new_lfp = _loser_content_fp(
        losers_tbl["doc_id"].to_numpy(zero_copy_only=False),
        losers_tbl["max_ts"].to_numpy(zero_copy_only=False),
        losers_tbl["win_rank"].to_numpy(zero_copy_only=False),
    )
    assignment: dict[str, str] = {}
    n_grafted = 0
    npid_i = 0
    for s in sources:
        for pid in sorted(s.parts):
            npid = f"{npid_i:05d}"
            npid_i += 1
            for f in s.parts[pid]:
                assignment[f] = npid
            if (s.idx, pid) in reextract:
                for sub in ("extracted", "partials", "docmeta"):
                    shutil.rmtree(
                        os.path.join(index_dir, sub, f"pid={npid}"),
                        ignore_errors=True,
                    )
                for f in s.parts[pid]:
                    if not os.path.exists(f):
                        raise ValueError(
                            f"merge_indexes: partition {pid} of {s.path} must "
                            f"re-extract (recrawl dedup) but its input {f} "
                            "no longer exists"
                        )
                continue
            for sub in ("extracted", "partials", "docmeta"):
                _link_tree(
                    os.path.join(s.path, sub, f"pid={pid}"),
                    os.path.join(index_dir, sub, f"pid={npid}"),
                )
            base = base_fp[(s.idx, pid)]
            new_ext = base + "+L" + new_lfp + x_tag + filt_tag
            new_post = new_ext + "+A" + a_hash + f"+G{NUM_BUCKET_GROUPS}" + p_tag
            rec = s.records[pid]["phase"]
            man.record_partition(
                npid, "extract", new_ext, s.parts[pid],
                dict(rec["extract"].get("metrics", {})),
            )
            man.record_partition(
                npid, "postings", new_post, [],
                dict(rec["postings"].get("metrics", {})),
            )
            n_grafted += 1
    cfg["assignment"] = assignment
    cfg["assign_num_partitions"] = npid_i
    man.save()

    losers_path = os.path.join(index_dir, "losers.parquet")
    pq.write_table(losers_tbl, losers_path + ".tmp")
    os.replace(losers_path + ".tmp", losers_path)
    man.record_phase(
        "losers",
        "input:" + fingerprint_files(union_files) + filt_tag,
        {
            "dup_urls": losers_tbl.num_rows,
            "dup_extra_rows": int(
                pa.compute.sum(losers_tbl["extra"]).as_py() or 0
            ),
            "merged_from": len(sources),
        },
    )

    # union tombstones: a url deleted in any source stays deleted
    tomb = [s.tombstones for s in sources if s.tombstones is not None]
    if tomb:
        ids = np.unique(
            np.concatenate(
                [t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64) for t in tomb]
            )
        )
        tp = os.path.join(index_dir, "tombstones.parquet")
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.uint64())}), tp + ".tmp"
        )
        os.replace(tp + ".tmp", tp)

    # ---- finish: stats + segments (+ re-extraction) via the normal build --
    metrics = build_index(
        union_files,
        index_dir,
        num_partitions=npid_i,
        analyzer=analyzer,
        input_kind=input_kind,
        store_positions=store_positions,
        extract_chain=extract_chain,
        extract_timeout_s=extract_timeout_s,
        input_filter=input_filter,
        **build_kwargs,
    )
    metrics["merged_sources"] = len(sources)
    metrics["grafted_partitions"] = n_grafted
    metrics["reextracted_partitions"] = len(reextract)
    metrics["cross_dup_docs"] = int((n_src_per_doc > 1).sum()) if sc_ids.size else 0
    metrics["losers_mode"] = losers_mode
    return metrics
