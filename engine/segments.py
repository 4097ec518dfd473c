"""The segment format (FORMAT_VERSION 10): what the build's segments phase
writes per term-bucket group and what IndexReader decodes.

Two files per bucket group:

- ``segments/bg-XXX.parquet``: the group's compressed posting chunks, one
  row per (term, salt) chunk (schema.py SEGMENT_SCHEMA), in (bucket, salt)
  order, one row group per (bucket, salt) group.
- ``dfs/bg-XXX.parquet``: the group's term lexicon (LEXICON_SCHEMA), each
  term's exact df and the (row group, row) address of each of its chunks,
  in salt order.

A query term is one binary search in the lexicon plus one row-group read
per chunk: no scan of its hash bucket, no term dictionary built over a
bucket's rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import codec
from .schema import (
    LEXICON_SCHEMA,
    SEGMENT_POS_SCHEMA,
    SEGMENT_SCHEMA,
)


# ---------------------------------------------------------------------------
# read side: term lexicon and row-group decode (engine/query.py IndexReader)


class SortedTermMap:
    """Dict-protocol (term -> df) view over term-sorted parallel arrays.

    The sharded serving pool broadcasts the corpus-global df table as ONE
    term-sorted Arrow (term, df) table; each shard actor wraps it in this
    map and resolves lookups with np.searchsorted — the round-2 design
    built a vocab-sized Python dict single-threaded on the DRIVER (tens of
    GB at web vocabulary).  Same structure as the reader's own sorted-vocab
    lookup (IndexReader._vocab), so wildcard/autocomplete reuse the arrays.
    """

    __slots__ = ("terms", "dfs")

    def __init__(self, terms: np.ndarray, dfs: np.ndarray):
        self.terms = terms  # sorted, dtype=object (str)
        self.dfs = dfs  # aligned int64

    @classmethod
    def from_arrow(cls, tbl) -> "SortedTermMap":
        terms = tbl["term"].combine_chunks().to_numpy(zero_copy_only=False)
        dfs = (
            tbl["df"].combine_chunks().to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return cls(terms, dfs)

    def get(self, term: str, default: int = 0) -> int:
        i = int(np.searchsorted(self.terms, term))
        if i < self.terms.size and self.terms[i] == term:
            return int(self.dfs[i])
        return default

    def __getitem__(self, term: str) -> int:
        i = int(np.searchsorted(self.terms, term))
        if i < self.terms.size and self.terms[i] == term:
            return int(self.dfs[i])
        raise KeyError(term)

    def __contains__(self, term) -> bool:
        i = int(np.searchsorted(self.terms, term))
        return bool(i < self.terms.size and self.terms[i] == term)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return int(self.terms.size)


class Lexicon(SortedTermMap):
    """The index's own term lexicon: a SortedTermMap (term -> df) that also
    holds, per term, the address of each of its chunks in its bucket
    group's segment file — (row group, row), in salt order.  Loaded once
    from dfs/bg-XXX.parquet (schema.py LEXICON_SCHEMA) as flat arrays: the
    chunks of term i are entries offs[i]:offs[i+1] of rgs/rows."""

    __slots__ = ("offs", "rgs", "rows")

    def __init__(self, terms, dfs, offs, rgs, rows):
        super().__init__(terms, dfs)
        self.offs, self.rgs, self.rows = offs, rgs, rows

    @classmethod
    def from_arrow(cls, tbl) -> "Lexicon":
        base = SortedTermMap.from_arrow(tbl)
        rg = tbl["rg"].combine_chunks()
        row = tbl["row"].combine_chunks()
        return cls(
            base.terms, base.dfs,
            rg.offsets.to_numpy().astype(np.int64),
            rg.values.to_numpy(), row.values.to_numpy(),
        )

    def chunks(self, term: str) -> list[tuple[int, int]]:
        """(row group, row) of each of the term's chunks; [] if absent."""
        i = int(np.searchsorted(self.terms, term))
        if i < self.terms.size and self.terms[i] == term:
            a, b = self.offs[i], self.offs[i + 1]
            return list(zip(self.rgs[a:b].tolist(), self.rows[a:b].tolist()))
        return []


def _binary_cells(col) -> tuple[np.ndarray, memoryview]:
    """A binary column's (offsets, data) buffers: cell i is
    data[offs[i]:offs[i + 1]], a zero-copy slice."""
    arr = col.combine_chunks()
    _validity, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int32, len(arr) + 1, arr.offset * 4)
    return offs, memoryview(data if data is not None else b"")


class RowGroup:
    """One segment row group's scoring columns, each converted once (one
    buffer view per column) so a chunk decodes from slices instead of a
    per-row ``.as_py()`` of every column.  The term column is read too, so
    a reader can check that a lexicon address still names its term."""

    __slots__ = ("terms", "n", "ids", "tfs", "dls", "bl_offs", "bl", "bm")

    COLUMNS = [
        "term", "df_chunk", "doc_ids", "tfs", "doclens",
        "block_last_doc", "block_max_impact",
    ]

    def __init__(self, tbl: pa.Table):
        self.terms = tbl["term"].combine_chunks()
        self.n = tbl["df_chunk"].to_numpy()
        self.ids = _binary_cells(tbl["doc_ids"])
        self.tfs = _binary_cells(tbl["tfs"])
        self.dls = _binary_cells(tbl["doclens"])
        bl = tbl["block_last_doc"].combine_chunks()
        self.bl_offs = bl.offsets.to_numpy()
        self.bl = bl.values.to_numpy()
        # both block lists have one entry per block, so they share offsets
        self.bm = tbl["block_max_impact"].combine_chunks().values.to_numpy()

    def term(self, row: int) -> str | None:
        """The term of chunk ``row``; None past the row group's end."""
        return self.terms[row].as_py() if row < len(self.terms) else None

    def raw(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docnos, tfs, doclens) of one chunk, decoded."""
        n = int(self.n[row])
        ids, tfs, dls = (
            data[offs[row] : offs[row + 1]]
            for offs, data in (self.ids, self.tfs, self.dls)
        )
        return (
            codec.delta_decode(ids, n), codec.ints_decode(tfs, n),
            codec.ints_decode(dls, n),
        )

    def blocks(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(block_last_doc, block_max_impact) of one chunk (copies, so a
        cached chunk does not pin the row group's buffers)."""
        a, b = self.bl_offs[row], self.bl_offs[row + 1]
        return self.bl[a:b].copy(), self.bm[a:b].copy()


# ---------------------------------------------------------------------------
# write side (engine/build.py _MergeBucketGroup)


def write_bucket_group(
    seg_path: str, lex_path: str, vocab: pa.Array, dfs: np.ndarray, groups
) -> int:
    """Compressed chunk tables (compress_group), one per (bucket, salt)
    group in (bucket, salt) order -> the group's segment file, one row
    group each, then its lexicon over ``vocab`` (every term of the group,
    with its exact df).  Returns the number of chunks written."""
    writer = None
    terms, rgs, rows = [], [], []
    for t in groups:
        if writer is None:
            writer = pq.ParquetWriter(
                seg_path, t.schema, use_dictionary=False,
                compression="zstd", compression_level=1,
            )
        writer.write_table(t, row_group_size=max(t.num_rows, 1))
        rgs.append(np.full(t.num_rows, len(rgs), np.int32))
        rows.append(np.arange(t.num_rows, dtype=np.int32))
        terms.extend(t["term"].chunks)
    writer.close()
    # each term's chunk addresses, in write (= salt) order
    codes = pc.index_in(pa.chunked_array(terms, pa.string()), value_set=vocab)
    codes = codes.to_numpy(zero_copy_only=False).astype(np.int64)
    by_term = np.argsort(codes, kind="stable")
    offs = np.concatenate(
        ([0], np.cumsum(np.bincount(codes, minlength=len(vocab))))
    ).astype(np.int32)
    lex = {
        "term": vocab,
        "df": pa.array(dfs, pa.int64()),
        "rg": pa.ListArray.from_arrays(offs, np.concatenate(rgs)[by_term]),
        "row": pa.ListArray.from_arrays(offs, np.concatenate(rows)[by_term]),
    }
    pq.write_table(
        pa.table(lex, schema=LEXICON_SCHEMA), lex_path,
        compression="zstd", compression_level=1,
    )
    return codes.size


def compress_group(
    group: pa.Table, impacts: np.ndarray, dls: np.ndarray, salt: int
) -> pa.Table:
    """Exchange reducer: one (bucket, salt) group (+ its precomputed
    per-posting impacts and doc lengths) -> one compressed chunk row per
    term in the group (SURVEY.md §7.2 step 5).  Impacts drive the exact
    block-max metadata but are NOT stored — the segment carries varint
    doclens and the reader recomputes the identical float64 impacts
    (schema.py SEGMENT_SCHEMA note)."""
    terms = group.column("term")
    de = terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms
    de = de.dictionary_encode()
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary.to_pylist()
    doc_ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    tfs = group.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
    order = np.lexsort((doc_ids, codes))
    codes, doc_ids = codes[order], doc_ids[order]
    tfs, impacts, dls = tfs[order], impacts[order], dls[order]
    row_sel = order  # original row index per output row (positions gather)
    # guard: an exact-duplicate input row split across blocks of one file can
    # emit the same (term, doc) twice; a doc lives in exactly one salt group
    # per term, so the duplicates are adjacent here — keep the first
    if len(codes) > 1:
        uniq = np.ones(len(codes), dtype=bool)
        uniq[1:] = (codes[1:] != codes[:-1]) | (doc_ids[1:] != doc_ids[:-1])
        if not uniq.all():
            codes, doc_ids = codes[uniq], doc_ids[uniq]
            tfs, impacts, dls = tfs[uniq], impacts[uniq], dls[uniq]
            row_sel = row_sel[uniq]
    with_pos = "positions" in group.column_names
    if with_pos:
        pos_col = group.column("positions")
        if isinstance(pos_col, pa.ChunkedArray):
            pos_col = pos_col.combine_chunks()
        pos_col = pos_col.take(pa.array(row_sel, pa.int64()))
        pos_offsets = pos_col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        pos_offsets = pos_offsets - pos_offsets[0]  # flatten() trims any slice
        pos_flat = pos_col.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
    bounds = np.nonzero(np.diff(codes))[0] + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(codes)]))
    rows = {k: [] for k in (
        "term", "df_chunk", "doc_ids", "tfs", "doclens",
        "block_last_doc", "block_max_impact", "positions",
    )}
    for s0, e0 in zip(starts, ends):
        ids_t = doc_ids[s0:e0]
        imp_t = impacts[s0:e0]
        block_last, block_max = codec.block_metadata(ids_t, imp_t)
        rows["term"].append(vocab[codes[s0]])
        rows["df_chunk"].append(e0 - s0)
        rows["doc_ids"].append(codec.delta_encode(ids_t))
        rows["tfs"].append(codec.ints_encode(tfs[s0:e0].astype(np.uint64)))
        rows["doclens"].append(codec.ints_encode(dls[s0:e0].astype(np.uint64)))
        rows["block_last_doc"].append(block_last.tolist())
        rows["block_max_impact"].append(block_max.tolist())
        if with_pos:
            flat = pos_flat[pos_offsets[s0] : pos_offsets[e0]]
            lens = np.diff(pos_offsets[s0 : e0 + 1])
            rows["positions"].append(
                codec.poslist_encode(flat.astype(np.uint64), lens)
            )
    n = len(rows["term"])
    cols = {
        "term": pa.array(rows["term"], pa.string()),
        "salt": pa.array([salt] * n, pa.int32()),
        "df_chunk": pa.array(rows["df_chunk"], pa.int64()),
        "doc_ids": pa.array(rows["doc_ids"], pa.binary()),
        "tfs": pa.array(rows["tfs"], pa.binary()),
        "doclens": pa.array(rows["doclens"], pa.binary()),
        "block_last_doc": pa.array(rows["block_last_doc"], pa.list_(pa.uint64())),
        "block_max_impact": pa.array(rows["block_max_impact"], pa.list_(pa.float64())),
    }
    if with_pos:
        cols["positions"] = pa.array(rows["positions"], pa.binary())
    return pa.table(cols, schema=SEGMENT_POS_SCHEMA if with_pos else SEGMENT_SCHEMA)
