"""Test helpers: chaos extractors for the extraction sandbox, and a direct
reader of an index's segment layout.

`hang_on_poison` stands in for a parser with a catastrophic-backtracking
input class: any page containing the POISON marker spins forever (only
SIGKILL stops it — exactly the failure mode of a stuck C regex).  Lives in
the engine package (not tests/) so Ray worker processes and forked sidecars
can import it by path.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .extract import extract_text

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
    (no IndexReader): one row per chunk with the segment file's columns
    (term, salt, doc_ids, tfs[, positions]) plus ``file``, the segment
    file's path.  Rows come in lexicon order — each bucket group's terms, each
    term's chunks in salt order — and the layout is checked on the way:
    every lexicon address must point at a chunk of its own term, and every
    stored chunk must be addressed exactly once."""
    seg_dir = os.path.join(index_dir, "segments")
    tabs = []
    for f in sorted(os.listdir(seg_dir)):
        path = os.path.join(seg_dir, f)
        pf = pq.ParquetFile(path)
        lex = pq.read_table(os.path.join(index_dir, "dfs", f))
        rg, row = lex["rg"].combine_chunks(), lex["row"].combine_chunks()
        starts = np.cumsum(
            [0] + [pf.metadata.row_group(i).num_rows for i in range(pf.num_row_groups)]
        )
        at = (
            starts[pc.list_flatten(rg).to_numpy()]
            + pc.list_flatten(row).to_numpy()
        )
        assert np.array_equal(np.sort(at), np.arange(pf.metadata.num_rows)), path
        t = pf.read().take(pa.array(at))
        owner = lex["term"].take(pc.list_parent_indices(rg))
        assert t["term"].equals(owner), path
        tabs.append(t.append_column("file", pa.array([path] * t.num_rows, pa.string())))
    if not tabs:
        return pa.table({"term": pa.array([], pa.string()),
                         "file": pa.array([], pa.string())})
    return pa.concat_tables(tabs)
