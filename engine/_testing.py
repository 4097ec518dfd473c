"""Test helpers: chaos extractors for the extraction sandbox, a direct
reader and a checker of an index's segment layout, and a scoring-path
override for `IndexReader`.

`hang_on_poison` stands in for a parser with a catastrophic-backtracking
input class: any page containing the POISON marker spins forever (only
SIGKILL stops it — exactly the failure mode of a stuck C regex).  Lives in
the engine package (not tests/) so Ray worker processes and forked sidecars
can import it by path.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .extract import extract_text
from .schema import term_bucket
from .segments import file_token

POISON = b"<!--graft:poison-->"


def hang_on_poison(html_bytes: bytes | None) -> str:
    if html_bytes and POISON in html_bytes:
        while True:  # uninterruptible busy loop, like runaway backtracking
            pass
    return extract_text(html_bytes)


def raise_on_poison(html_bytes: bytes | None) -> str:
    if html_bytes and POISON in html_bytes:
        raise ValueError("poisoned page")
    return extract_text(html_bytes)


def segment_rows(index_dir: str) -> pa.Table:
    """Every stored posting chunk of an index, read straight from its files
    (no IndexReader): one row per term with the segment file's columns
    (term, doc_ids, tfs[, positions]) plus ``file``, the segment file's
    path, and ``rg``, the chunk's row group in it.  Rows come in lexicon
    order, and the layout is checked on the way: both files carry the same
    pairing token, every lexicon address must point at a chunk of its own
    term, and every stored chunk must be addressed exactly once."""
    seg_dir = os.path.join(index_dir, "segments")
    tabs = []
    for f in sorted(os.listdir(seg_dir)):
        path = os.path.join(seg_dir, f)
        pf = pq.ParquetFile(path)
        lex_pf = pq.ParquetFile(os.path.join(index_dir, "dfs", f))
        token = file_token(pf)
        assert token is not None and token == file_token(lex_pf), path
        lex = lex_pf.read()
        rg = lex["rg"].to_numpy()
        starts = np.cumsum(
            [0] + [pf.metadata.row_group(i).num_rows for i in range(pf.num_row_groups)]
        )
        at = starts[rg] + lex["row"].to_numpy()
        assert np.array_equal(np.sort(at), np.arange(pf.metadata.num_rows)), path
        t = pf.read().take(pa.array(at))
        assert t["term"].equals(lex["term"]), path
        tabs.append(
            t.append_column("file", pa.array([path] * t.num_rows, pa.string()))
            .append_column("rg", pa.array(rg, pa.int32()))
        )
    if not tabs:
        return pa.table({"term": pa.array([], pa.string()),
                         "file": pa.array([], pa.string()),
                         "rg": pa.array([], pa.int32())})
    return pa.concat_tables(tabs)


def check_chunk_layout(index_dir: str) -> tuple[int, int]:
    """Check an index's segment layout (FORMAT_VERSION 13) straight from
    its files: every term has exactly one lexicon address, at its own chunk
    (`segment_rows`); a hot term (df above stats.json's hot_df_threshold)
    is the only chunk of its row group; the cold terms of a bucket share
    one row group, which holds no other bucket's terms.  Returns (hot
    terms, cold row groups) so a caller can see the check was not empty."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        thr = json.load(f)["hot_df_threshold"]
    t = segment_rows(index_dir)
    dfs = pc.list_value_length(t["doc_ids"]).to_pylist()
    groups: dict[tuple[str, int], list[tuple[str, bool]]] = {}
    for term, df, path, rg in zip(
        t["term"].to_pylist(), dfs, t["file"].to_pylist(), t["rg"].to_pylist()
    ):
        groups.setdefault((path, rg), []).append((term, df > thr))
    n_hot, cold_rg = 0, {}  # (file, bucket) -> the row group of its cold terms
    for (path, rg), members in groups.items():
        if any(hot for _, hot in members):
            assert len(members) == 1, (path, rg, members)
            n_hot += 1
            continue
        buckets = {term_bucket(term) for term, _ in members}
        assert len(buckets) == 1, (path, rg, buckets)
        home = cold_rg.setdefault((path, buckets.pop()), rg)
        assert home == rg, (path, home, rg)
    return n_hot, len(cold_rg)


def force_scorer(reader, path: str) -> None:
    """Send every scoring call of `reader` to one internal path ("maxscore"
    -> `reader._maxscore`, "vectorized" -> `reader._vectorized`) instead of
    the one `_dispatch` picks, so a test can hold that path to the oracle
    on every query shape; "auto" leaves the dispatch as it is."""
    if path == "auto":
        return
    scorer = getattr(reader, "_" + path)

    def dispatch(runs, pool, mask, _total_postings):
        return scorer(runs, pool, mask) if runs and pool else []

    reader._dispatch = dispatch
