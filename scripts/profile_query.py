"""Profile BM25 query latency over the persisted 1.5M bench index.

    python scripts/profile_query.py [index_dir] [--cold]

    python scripts/profile_query.py [index_dir] --bool

    python scripts/profile_query.py [index_dir] --paths [--queries FILE] [--save FILE]

    python scripts/profile_query.py --fit FILE [FILE ...]

Default (warm): p50/p95 over the 73-query conformance set after a warming
pass, plus a breakdown of the slowest queries (term count, total postings,
filtered).  The warm and ``--cold`` modes run each conformance query as
specified, with its lang / crawl-time filters and rerank prior.
``--cold``: every query on a fresh IndexReader (nothing cached),
printing p50/p95 and the segment row groups and compressed bytes each query
reads.  ``--bool``: BOOL_QUERIES boolean phrase queries (phrases sampled
from the doc store, so they match) run twice on one reader, the first pass
starting with empty caches; per pass p50/p95, the doc-store row groups
read per query (the row-group cache's misses), that cache's hit rate, and
the phrase-verify ms per query (doc-store fetch plus phrase check).
``--paths``: for each query of two sets, the conformance set (or the JSON
lines of ``--queries``, one query dict per line) and UNIFORM_QUERIES
queries of 2-4 terms drawn uniformly from the index's lexicon, the warm
time of every exact scoring path on the arguments `_dispatch` gets (best
of PATH_REPEATS), the path `_dispatch` picks, and per set the summed time
of the picks over the summed per-query best.  ``--save`` writes those
records as JSON lines; ``--fit`` refits the cost model's coefficients
(`engine.query._COST_COEFS`) from saved records and prints the ratio each
saved set would get under them.
"""
import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from unittest import mock

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from engine import query, synth
from engine.analyze import tokenize
from engine.query import IndexReader
from engine.segments import RowGroup

# --bool query count: on a 200k-doc index whose doc store exceeds the
# reader's row-group cache each query takes ~0.5 s
BOOL_QUERIES = 40
UNIFORM_QUERIES = 150
PATH_REPEATS = 7
# --fit uses the queries whose filters keep at least this share of the docs:
# the cost model does not see the mask, so it is fitted where the mask does
# not change the work
FIT_MIN_ALIVE = 0.8


def search(reader: IndexReader, q: dict) -> list:
    """One query dict with its filters and rerank prior."""
    return reader.search(
        q["query_text"], k=q["k"], lang_filter=q.get("lang_filter"),
        ts_min=q.get("ts_min"), ts_max=q.get("ts_max"),
        url_contains=q.get("url_contains"),
        prior_weight=q.get("prior_weight") or 0.0,
    )


def cold(index_dir: str, qtbl: list[dict]) -> None:
    """One fresh reader per query; row groups and bytes come from the
    segment files' footers for each row group the reader had to read.  Doc
    metadata loads before the clock starts: it is paid once per reader,
    not per query."""
    lat, rgs, nbytes = [], [], []
    for q in qtbl:
        reader = IndexReader(index_dir)
        reads = []
        real = reader._bucket_rows

        def counted(key, _real=real, _reader=reader, _reads=reads):
            if key not in _reader._bucket_tables:
                _reads.append(key)
            return _real(key)

        reader._bucket_rows = counted
        reader._load_docmeta()
        t0 = time.perf_counter()
        search(reader, q)
        lat.append((time.perf_counter() - t0) * 1e3)
        size = 0
        for bg, rg in reads:
            md = reader._segment_file(bg).metadata.row_group(rg)
            size += sum(
                md.column(j).total_compressed_size
                for j in range(md.num_columns)
                # a list column's leaf path is "<name>.list.element"
                if md.column(j).path_in_schema.split(".")[0] in RowGroup.COLUMNS
            )
        rgs.append(len(reads))
        nbytes.append(size)
    lat = np.array(lat)
    print(f"cold n={lat.size} p50={np.percentile(lat, 50):.2f}ms "
          f"p95={np.percentile(lat, 95):.2f}ms "
          f"row_groups/query={np.mean(rgs):.2f} "
          f"bytes/query={np.mean(nbytes):.0f}")


def bool_queries(index_dir: str, n: int, seed: int = 3) -> list[str]:
    """`n` boolean queries over phrases taken from doc-store texts (read
    straight from the files, so no reader cache is warmed): a 2- or
    3-token phrase with a head term, a +must, a -not or a -"not phrase"."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    files = sorted(pads.dataset(os.path.join(index_dir, "extracted")).files)
    h = synth.HEAD_TERMS
    out: list[str] = []
    while len(out) < n:
        pf = pq.ParquetFile(files[int(rng.integers(len(files)))])
        rg = pf.read_row_group(int(rng.integers(pf.num_row_groups)), columns=["text"])
        toks = tokenize(rg["text"][int(rng.integers(rg.num_rows))].as_py())
        if len(toks) < 8:
            continue
        i = int(rng.integers(len(toks) - 3))
        a, b, c = toks[i : i + 3]
        x, y = (str(t) for t in rng.choice(h, 2, replace=False))
        out.append([
            f'"{a} {b}" {x}',
            f'+{x} "{a} {b}" -{y}',
            f'"{a} {b} {c}"',
            f'{x} "{a} {b}" -"{b} {x}"',
        ][len(out) % 4])
    return out


def boolean(index_dir: str) -> None:
    import pyarrow.parquet as pq

    reader = IndexReader(index_dir)
    stats = {"looked": 0, "verify_s": 0.0}
    reads: list[int] = []  # row groups decoded from doc-store files

    def counted(name):
        real = getattr(pq.ParquetFile, name)

        def wrapper(self, rgs, *a, **kw):  # list.append: safe from threads
            if id(self) in docstore:
                reads.append(len(rgs) if isinstance(rgs, list) else 1)
            return real(self, rgs, *a, **kw)
        setattr(pq.ParquetFile, name, wrapper)

    rows = reader._docstore_rows

    def looked(rgi, columns):
        stats["looked"] += len(rgi)
        return rows(rgi, columns)

    def timed(fn):
        def wrapper(*a, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                stats["verify_s"] += time.perf_counter() - t0
        return wrapper

    reader._docstore_rg_index()
    docstore = {id(pf) for pf in reader._ds_files.values()}
    counted("read_row_group")
    counted("read_row_groups")
    reader._docstore_rows = looked
    reader.fetch_docs = timed(reader.fetch_docs)
    reader._phrases_ok_batch = timed(reader._phrases_ok_batch)
    reader._load_docmeta()
    qs = bool_queries(index_dir, BOOL_QUERIES)
    print(f"bool n={len(qs)} docstore cache cap="
          f"{reader._ds_rows.cap / 2**20:.0f} MiB", flush=True)
    for name in ("first", "second"):
        stats.update(looked=0, verify_s=0.0)
        reads.clear()
        lat = []
        for q in qs:
            t0 = time.perf_counter()
            reader.search_boolean(q, k=10)
            lat.append((time.perf_counter() - t0) * 1e3)
        lat = np.array(lat)
        print(f"  {name} pass: p50={np.percentile(lat, 50):.2f}ms "
              f"p95={np.percentile(lat, 95):.2f}ms "
              f"docstore_row_groups_read/query={sum(reads) / lat.size:.2f} "
              f"hit_rate={1 - sum(reads) / max(1, stats['looked']):.3f} "
              f"verify_ms/query={stats['verify_s'] * 1e3 / lat.size:.2f} "
              f"cached={reader._ds_rows.weight / 2**20:.1f}MiB", flush=True)


def _best_us(fn) -> tuple[float, list]:
    best, out = math.inf, None
    for _ in range(PATH_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6, out


def _path_times(reader: IndexReader, runs, pool: int, mask) -> dict[str, float]:
    """Warm µs of every exact path on one `_dispatch` call's arguments; all
    must return the same ranked list.  "maxscore_pruned" is MaxScore with
    its dense fallback disabled, the timing its cost is fitted to."""
    if len(runs) == 1:
        calls = {
            "single_term": lambda: reader._single_term(runs[0], pool, mask),
            "flat": lambda: reader._single_term(runs[0], pool, mask, prune=False),
        }
    else:
        calls = {p: (lambda p=p: getattr(reader, "_" + p)(runs, pool, mask))
                 for p in ("vectorized", "sparse", "maxscore")}
    times, answers = {}, []
    for path, fn in calls.items():
        times[path], top = _best_us(fn)
        answers.append(top)
    if len(runs) > 1:
        never_dense = {"vectorized": (math.inf,) * len(query._COST_COEFS["vectorized"])}
        with mock.patch.dict(query._COST_COEFS, never_dense):
            times["maxscore_pruned"], top = _best_us(calls["maxscore"])
        answers.append(top)
    if any(a != answers[0] for a in answers):
        raise RuntimeError(f"scoring paths disagree: {sorted(times)}")
    return times


def _summary(name: str, recs: list[dict], pick_of) -> None:
    best = sum(min(r["times_us"][p] for p in _exact(r)) for r in recs)
    picked = sum(r["times_us"][pick_of(r)] for r in recs)
    picks = Counter(pick_of(r) for r in recs)
    print(f"{name}: n={len(recs)} best={best / len(recs):.1f}us/query "
          f"picked={picked / len(recs):.1f}us/query ratio={picked / best:.3f} "
          f"picks={dict(picks)}", flush=True)


def _exact(rec: dict) -> list[str]:
    return [p for p in rec["times_us"] if p != "maxscore_pruned"]


def paths(index_dir: str, queries_file: str | None, save: str | None) -> None:
    reader = IndexReader(index_dir)
    if queries_file:
        with open(queries_file) as f:
            conformance = [json.loads(line) for line in f if line.strip()]
    else:
        conformance = synth.gen_queries_table(73).to_pylist()
    rng = np.random.default_rng(5)
    vocab = reader._lex.terms
    uniform = [
        {"query_text": " ".join(vocab[rng.choice(vocab.size, int(rng.integers(2, 5)),
                                                 replace=False)]), "k": 10}
        for _ in range(UNIFORM_QUERIES)
    ]
    calls = []
    dispatch = reader._dispatch

    def captured(runs, pool, mask):
        calls.append((runs, pool, mask))
        return dispatch(runs, pool, mask)

    reader._dispatch = captured
    records = []
    for name, qs in (("conformance", conformance), ("uniform", uniform)):
        recs = []
        for q in qs:
            search(reader, q)  # warm: load every run the query reads
            calls.clear()
            search(reader, q)
            runs, pool, mask = calls[0]
            if not runs or not pool:
                continue
            sizes = [int(r.docnos.size) for _t, _w, r in runs]
            rec = {"set": name, "query": q["query_text"], "d": reader._docno_count,
                   "sizes": sizes, "k": pool,
                   "mask": 1.0 if mask is None else float(mask.mean()),
                   "times_us": _path_times(reader, runs, pool, mask),
                   "pick": reader._plan(runs, pool)}
            recs.append(rec)
            best = min(_exact(rec), key=rec["times_us"].get)
            times = " ".join(f"{k}={v:.0f}" for k, v in rec["times_us"].items())
            print(f"  {name} sizes={sizes} k={pool} pick={rec['pick']} "
                  f"best={best} {times}", flush=True)
        _summary(name, recs, lambda r: r["pick"])
        records += recs
    if save:
        with open(save, "w") as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")


def _shape(rec: dict) -> tuple[int, int, int, int]:
    """(t, p, k, e) of a saved record, the cost features' inputs after d."""
    t, p, e = query._plan_shape(rec["sizes"], rec["k"])
    return t, p, rec["k"], e


def fit(files: list[str]) -> None:
    """Non-negative least squares, weighted to relative error, of each
    path's timings on its `_COST_FEATURES` (MaxScore on its pruned-branch
    timing); prints the coefficient table and each saved set's ratio."""
    recs = []
    for path in files:
        with open(path) as f:
            recs += [dict(json.loads(line), file=path) for line in f if line.strip()]
    coefs = {}
    for path, feats in query._COST_FEATURES.items():
        col = "maxscore_pruned" if path == "maxscore" else path
        rows = [r for r in recs if col in r["times_us"] and r["mask"] >= FIT_MIN_ALIVE]
        a = np.array([feats(r["d"], *_shape(r)) for r in rows], float)
        y = np.array([r["times_us"][col] for r in rows])
        a, yw = a / y[:, None], np.ones_like(y)
        active = list(range(a.shape[1]))
        while True:  # drop the most negative coefficient until none is
            x = np.zeros(a.shape[1])
            x[active] = np.linalg.lstsq(a[:, active], yw, rcond=None)[0]
            if x.min() >= 0:
                break
            active.remove(int(np.argmin(x)))
        coefs[path] = tuple(float(f"{c:.3g}") for c in x)
        err = np.median(np.abs(a @ x - 1.0))
        print(f"{path:12s} n={len(rows):4d} coefs={coefs[path]} "
              f"median_rel_err={err:.3f}")
    with mock.patch.dict(query._COST_COEFS, coefs):
        for path, name in sorted({(r["file"], r["set"]) for r in recs}):
            rs = [r for r in recs if r["file"] == path and r["set"] == name]
            _summary(f"{path} {name}", rs,
                     lambda r: query._plan(r["d"], r["sizes"], r["k"]))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("index_dir", nargs="?", default="/tmp/rayft_iter_idx_1500000")
    ap.add_argument("--cold", action="store_true",
                    help="a fresh reader per query (nothing cached)")
    ap.add_argument("--bool", action="store_true",
                    help="boolean phrase queries: doc-store cache and verify")
    ap.add_argument("--paths", action="store_true",
                    help="time every exact scoring path against _dispatch's pick")
    ap.add_argument("--queries", help="--paths: JSON lines of query dicts "
                    "in place of the conformance set")
    ap.add_argument("--save", help="--paths: write the per-query records here")
    ap.add_argument("--fit", nargs="+", metavar="FILE",
                    help="refit the cost model from saved --paths records")
    args = ap.parse_args()
    index_dir = args.index_dir
    if args.fit:
        fit(args.fit)
        return
    if args.paths:
        paths(index_dir, args.queries, args.save)
        return
    if args.bool:
        boolean(index_dir)
        return
    qtbl = synth.gen_queries_table(73).to_pylist()
    if args.cold:
        cold(index_dir, qtbl)
        return
    reader = IndexReader(index_dir)

    # warm pass
    for q in qtbl:
        search(reader, q)

    rows = []
    for q in qtbl:
        terms = sorted(set(tokenize(q["query_text"], reader.analyzer)))
        postings = sum(reader._df.get(t, 0) for t in terms)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            search(reader, q)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        rows.append((best * 1e3, len(terms), postings, q["query_id"],
                     q["lang_filter"] is not None or q["ts_min"] is not None))
    lat = np.array([r[0] for r in rows])
    print(f"n={len(lat)} p50={np.percentile(lat,50):.2f}ms "
          f"p95={np.percentile(lat,95):.2f}ms max={lat.max():.2f}ms mean={lat.mean():.2f}ms")
    rows.sort(reverse=True)
    print("slowest 12: (ms, n_terms, postings, qid, filtered)")
    for r in rows[:12]:
        print(f"  {r[0]:8.2f}ms terms={r[1]} postings={r[2]:>9} qid={r[3]} filt={r[4]}")


if __name__ == "__main__":
    main()
