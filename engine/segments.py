"""The segment format (FORMAT_VERSION 11): what the build's segments phase
writes per term-bucket group and what IndexReader reads.

Two files per bucket group:

- ``segments/bg-XXX.parquet``: the group's posting chunks, one row per
  (term, salt) chunk (schema.py SEGMENT_SCHEMA), in (bucket, salt) order,
  one row group per (bucket, salt) group.  Docnos, tfs and positions are
  native Parquet list columns whose leaves are DELTA_BINARY_PACKED (zstd on
  top), so Parquet stores the docno gaps and decodes them in C++ inside
  ``read_row_group``: a loaded row group is already a set of numpy views.
- ``dfs/bg-XXX.parquet``: the group's term lexicon (LEXICON_SCHEMA), each
  term's exact df and the (row group, row) address of each of its chunks,
  in salt order.

A query term is one binary search in the lexicon plus one row-group read
per chunk: no scan of its hash bucket, no term dictionary built over a
bucket's rows.  Doc lengths and block-max metadata are not stored: the
reader gathers doclens from its docmeta table and derives the blocks from
the loaded chunk (codec.block_metadata).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .schema import (
    LEXICON_SCHEMA,
    SEGMENT_POS_SCHEMA,
    SEGMENT_SCHEMA,
)

# the list columns of a segment file; each one's leaf is delta-encoded
_LIST_COLUMNS = ("doc_ids", "tfs", "positions")


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


def _array(col) -> pa.Array:
    """A column as one array (a row group's column is one chunk, taken
    as is)."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _list_cells(col) -> tuple[np.ndarray, np.ndarray]:
    """A list column's (offsets, values): cell i is
    values[offs[i]:offs[i + 1]], a zero-copy numpy view."""
    arr = _array(col)
    return arr.offsets.to_numpy(), arr.values.to_numpy()


class RowGroup:
    """One segment row group, read once: one offsets array shared by the
    aligned doc_ids/tfs lists plus a numpy view of each column's values,
    so a chunk is two slices.  The term column is read too, so a reader
    can check that a lexicon address still names its term; ``positions``
    is read only when asked for (phrase queries)."""

    __slots__ = ("terms", "offs", "ids", "tfs", "pos")

    COLUMNS = ["term", "doc_ids", "tfs"]

    def __init__(self, tbl: pa.Table):
        self.terms = _array(tbl["term"])
        self.offs, self.ids = _list_cells(tbl["doc_ids"])
        self.tfs = _list_cells(tbl["tfs"])[1]
        self.pos = (
            _list_cells(tbl["positions"])
            if "positions" in tbl.column_names else None
        )

    def term(self, row: int) -> str | None:
        """The term of chunk ``row``; None past the row group's end."""
        return self.terms[row].as_py() if row < len(self.terms) else None

    def raw(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(docnos uint64, tfs uint32) of one chunk (copies, so a cached
        chunk does not pin the row group's buffers)."""
        a, b = self.offs[row], self.offs[row + 1]
        return self.ids[a:b].copy(), self.tfs[a:b].copy()

    def positions(self, row: int) -> np.ndarray:
        """One chunk's flat positions, each posting's back to back (a view;
        a positional row group only)."""
        offs, vals = self.pos
        return vals[offs[row] : offs[row + 1]]


# ---------------------------------------------------------------------------
# write side (engine/build.py _MergeBucketGroup)


def write_bucket_group(
    seg_path: str, lex_path: str, vocab: pa.Array, dfs: np.ndarray, groups
) -> int:
    """Chunk tables (compress_group), one per (bucket, salt) group in
    (bucket, salt) order -> the group's segment file, one row group each,
    then its lexicon over ``vocab`` (every term of the group, with its exact
    df).  Returns the number of chunks written."""
    writer = None
    terms, rgs, rows = [], [], []
    for t in groups:
        if writer is None:
            writer = pq.ParquetWriter(
                seg_path, t.schema, use_dictionary=False,
                compression="zstd", compression_level=1,
                # keyed by the LEAF path: keyed by "doc_ids", pyarrow
                # silently writes PLAIN
                column_encoding={
                    f"{c}.list.element": "DELTA_BINARY_PACKED"
                    for c in t.column_names if c in _LIST_COLUMNS
                },
                write_statistics=["term"],
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


def compress_group(group: pa.Table, salt: int) -> pa.Table:
    """Exchange reducer: one (bucket, salt) group of postings (term, docno,
    tf[, positions]), sorted by (term, docno) with no duplicate (term, doc)
    row -> one chunk row per term (SURVEY.md §7.2 step 5).  The posting
    columns become list cells over the same values; Parquet's delta
    encoding does the compression at write time."""
    terms = _array(group.column("term"))
    n = len(terms)
    new_term = np.ones(n, dtype=bool)
    if n > 1:
        new_term[1:] = pc.not_equal(terms[1:], terms[:-1]).to_numpy(
            zero_copy_only=False
        )
    starts = np.flatnonzero(new_term)
    offs = pa.array(np.append(starts, n).astype(np.int32))
    cols = {
        "term": terms.take(pa.array(starts)),
        "salt": pa.array(np.full(starts.size, salt, np.int32)),
        "doc_ids": pa.ListArray.from_arrays(
            offs, _array(group.column("doc_id")).cast(pa.uint64())
        ),
        "tfs": pa.ListArray.from_arrays(
            offs, _array(group.column("tf")).cast(pa.uint32())
        ),
    }
    if "positions" in group.column_names:
        # per-chunk boundaries of the flat positions = the posting
        # boundaries at each term's first posting
        pos = _array(group.column("positions"))
        pos_offs = pos.offsets.to_numpy()
        cols["positions"] = pa.ListArray.from_arrays(
            pa.array(pos_offs[offs.to_numpy()] - pos_offs[0]),
            pc.list_flatten(pos).cast(pa.uint32()),
        )
        return pa.table(cols, schema=SEGMENT_POS_SCHEMA)
    return pa.table(cols, schema=SEGMENT_SCHEMA)
