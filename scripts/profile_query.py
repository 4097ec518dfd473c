"""Profile BM25 query latency over the persisted 1.5M bench index.

    python scripts/profile_query.py [index_dir] [--cold]

    python scripts/profile_query.py [index_dir] --bool

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
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from engine import synth
from engine.analyze import tokenize
from engine.query import IndexReader
from engine.segments import RowGroup

# --bool query count: on a 200k-doc index whose doc store exceeds the
# reader's row-group cache each query takes ~0.5 s
BOOL_QUERIES = 40


def search(reader: IndexReader, q: dict) -> list:
    """One conformance query with its filters and rerank prior."""
    return reader.search(
        q["query_text"], k=q["k"], lang_filter=q["lang_filter"],
        ts_min=q["ts_min"], ts_max=q["ts_max"],
        prior_weight=q["prior_weight"] or 0.0,
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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("index_dir", nargs="?", default="/tmp/rayft_iter_idx_1500000")
    ap.add_argument("--cold", action="store_true",
                    help="a fresh reader per query (nothing cached)")
    ap.add_argument("--bool", action="store_true",
                    help="boolean phrase queries: doc-store cache and verify")
    args = ap.parse_args()
    index_dir = args.index_dir
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
