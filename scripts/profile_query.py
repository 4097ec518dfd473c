"""Profile BM25 query latency over the persisted 1.5M bench index.

    python scripts/profile_query.py [index_dir] [--cold]

Default (warm): p50/p95 over the 73-query conformance set after a warming
pass, plus a breakdown of the slowest queries (term count, total postings,
filtered).  ``--cold``: every query on a fresh IndexReader (nothing cached),
printing p50/p95 and the segment row groups and compressed bytes each query
reads.
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
        reader.search(q["query_text"], k=q["k"])
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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("index_dir", nargs="?", default="/tmp/rayft_iter_idx_1500000")
    ap.add_argument("--cold", action="store_true",
                    help="a fresh reader per query (nothing cached)")
    args = ap.parse_args()
    index_dir = args.index_dir
    qtbl = synth.gen_queries_table(73).to_pylist()
    if args.cold:
        cold(index_dir, qtbl)
        return
    reader = IndexReader(index_dir)

    # warm pass
    for q in qtbl:
        reader.search(q["query_text"], k=q["k"])

    rows = []
    for q in qtbl:
        terms = sorted(set(tokenize(q["query_text"], reader.analyzer)))
        postings = sum(reader._df.get(t, 0) for t in terms)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            reader.search(q["query_text"], k=q["k"])
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
