"""The segment format (FORMAT_VERSION 13): what the build's segments phase
writes per term-bucket group and what IndexReader reads.

Two files per bucket group:

- ``segments/bg-XXX.parquet``: the group's posting chunks, one docno-sorted
  chunk per term (schema.py SEGMENT_SCHEMA).  Each hot term is a row group
  of its own; the cold terms of a bucket share one.  Docnos, tfs and
  positions are native Parquet list columns whose leaves are
  DELTA_BINARY_PACKED (LZ4 on top, no column statistics), so Parquet
  stores the docno gaps and decodes them in C++ inside the row-group read:
  a loaded row group is already a set of numpy views.  Scoring reads the
  ``doc_ids`` and ``tfs`` columns only; ``term`` is there for tools that
  read the files directly.
- ``dfs/bg-XXX.parquet``: the group's term lexicon (LEXICON_SCHEMA), each
  term's exact df and the (row group, row) address of its chunk.

Both footers carry the same pairing token (key-value metadata under
PAIRING_KEY, derived from the build's lineage and the group number), so a
reader checks once per file, when it opens a segment file, that the
addresses it loaded belong to that file.

A query term is one binary search in the lexicon plus one row-group read:
no scan of its hash bucket, no term dictionary built over a bucket's rows.
Doc lengths and block-max metadata are not stored: the reader gathers
doclens from its docmeta table and derives the blocks from the loaded
chunk (codec.block_metadata).
"""

from __future__ import annotations

import hashlib
import os

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

# a list column's int32 offsets address at most this many postings per row
# group; a row group past it would need large_list columns
MAX_ROW_GROUP_POSTINGS = 2**31 - 1

# footer key-value key of the token a segment file and its lexicon share
PAIRING_KEY = b"pairing"

# Parquet leaf index of each segment column (each has exactly one leaf)
_LEAF = {name: i for i, name in enumerate(SEGMENT_POS_SCHEMA.names)}


def pairing_token(lineage: str, bg: int) -> bytes:
    """The token bucket group ``bg``'s segment file and lexicon both carry:
    a hash of the segments phase's lineage fingerprint and the group."""
    return hashlib.blake2b(
        f"{lineage}/bg{bg}".encode(), digest_size=16
    ).hexdigest().encode()


def file_token(pf: pq.ParquetFile) -> bytes | None:
    """The pairing token in a Parquet file's footer; None if it has none."""
    return (pf.metadata.metadata or {}).get(PAIRING_KEY)


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
    holds, per term, the address of its chunk in its bucket group's segment
    file — (row group, row) — and, per bucket group, the pairing token its
    lexicon file carries.  Loaded once from dfs/bg-XXX.parquet (schema.py
    LEXICON_SCHEMA) as arrays aligned with the terms."""

    __slots__ = ("rgs", "rows", "tokens")

    def __init__(self, terms, dfs, rgs, rows, tokens=None):
        super().__init__(terms, dfs)
        self.rgs, self.rows = rgs, rows
        self.tokens: dict[int, bytes | None] = tokens or {}

    @classmethod
    def from_arrow(cls, tbl, tokens=None) -> "Lexicon":
        base = SortedTermMap.from_arrow(tbl)
        return cls(
            base.terms, base.dfs,
            tbl["rg"].to_numpy(), tbl["row"].to_numpy(), tokens,
        )

    @classmethod
    def load(cls, dfs_dir: str) -> "Lexicon":
        """Every lexicon file of an index, term-sorted.  Each file is read
        through one ParquetFile, so a group's rows and its token come from
        the same file."""
        tbls, tokens = [], {}
        for name in sorted(os.listdir(dfs_dir)):
            if not name.endswith(".parquet"):
                continue
            pf = pq.ParquetFile(os.path.join(dfs_dir, name))
            tbls.append(pf.read(use_threads=False))
            if name.startswith("bg-"):
                tokens[int(name[3:-8])] = file_token(pf)
        return cls.from_arrow(pa.concat_tables(tbls).sort_by("term"), tokens)

    def chunk(self, term: str) -> tuple[int, int] | None:
        """(row group, row) of the term's chunk; None if absent."""
        i = int(np.searchsorted(self.terms, term))
        if i < self.terms.size and self.terms[i] == term:
            return int(self.rgs[i]), int(self.rows[i])
        return None


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
    so a chunk is two slices.  ``positions`` is read only when asked for
    (phrase queries)."""

    __slots__ = ("offs", "ids", "tfs", "pos")

    COLUMNS = ["doc_ids", "tfs"]

    def __init__(self, pf: pq.ParquetFile, rg: int, positions: bool = False):
        cols = self.COLUMNS + ["positions"] if positions else self.COLUMNS
        tbl = pf.reader.read_row_group(
            rg, column_indices=[_LEAF[c] for c in cols], use_threads=False
        )
        self.offs, self.ids = _list_cells(tbl.column(0))
        self.tfs = _array(tbl.column(1)).values.to_numpy()
        self.pos = _list_cells(tbl.column(2)) if positions else None

    def raw(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(docnos uint64, tfs uint32) of one chunk (copies, so a cached
        chunk does not pin the row group's buffers)."""
        a, b = self.offs[row], self.offs[row + 1]
        return self.ids[a:b].copy(), self.tfs[a:b].copy()

    def positions(self, row: int) -> np.ndarray:
        """One chunk's flat positions, each posting's back to back (a view;
        read with ``positions=True`` only)."""
        offs, vals = self.pos
        return vals[offs[row] : offs[row + 1]]


# ---------------------------------------------------------------------------
# write side (engine/build.py _MergeBucketGroup)


def write_bucket_group(
    seg_path: str, lex_path: str, vocab: pa.Array, dfs: np.ndarray, groups,
    token: bytes,
) -> None:
    """Chunk tables (compress_group), one per row group -> the group's
    segment file, one row group each, then its lexicon over ``vocab``
    (every term of the group, with its exact df and the address of its one
    chunk).  Both footers carry ``token`` (pairing_token) under
    PAIRING_KEY."""
    kv = {PAIRING_KEY: token}
    writer = None
    terms, rgs, rows = [], [], []
    for t in groups:
        if writer is None:
            # pyarrow 16's writer cannot add footer metadata after the
            # first row group: the token rides the schema it opens with
            writer = pq.ParquetWriter(
                seg_path, t.schema.with_metadata(kv), use_dictionary=False,
                compression="lz4",
                # keyed by the LEAF path: keyed by "doc_ids", pyarrow
                # silently writes PLAIN
                column_encoding={
                    f"{c}.list.element": "DELTA_BINARY_PACKED"
                    for c in t.column_names if c in _LIST_COLUMNS
                },
                write_statistics=False,
            )
        writer.write_table(t, row_group_size=max(t.num_rows, 1))
        rgs.append(np.full(t.num_rows, len(rgs), np.int32))
        rows.append(np.arange(t.num_rows, dtype=np.int32))
        terms.extend(t["term"].chunks)
    writer.close()
    # each vocab term's chunk address
    codes = pc.index_in(pa.chunked_array(terms, pa.string()), value_set=vocab)
    codes = codes.to_numpy(zero_copy_only=False).astype(np.int64)
    if not np.array_equal(np.sort(codes), np.arange(len(vocab))):
        raise ValueError(f"{seg_path}: not one chunk per vocab term")
    by_term = np.argsort(codes)
    lex = {
        "term": vocab,
        "df": pa.array(dfs, pa.int64()),
        "rg": pa.array(np.concatenate(rgs)[by_term], pa.int32()),
        "row": pa.array(np.concatenate(rows)[by_term], pa.int32()),
    }
    pq.write_table(
        pa.table(lex, schema=LEXICON_SCHEMA.with_metadata(kv)), lex_path,
        compression="zstd", compression_level=1,
    )


def compress_group(group: pa.Table) -> pa.Table:
    """Exchange reducer: one row group's postings (term, docno,
    tf[, positions]), sorted by (term, docno) with no duplicate (term, doc)
    row -> one chunk row per term (SURVEY.md §7.2 step 5).  The posting
    columns become list cells over the same values; Parquet's delta
    encoding does the compression at write time.  Raises ValueError past
    MAX_ROW_GROUP_POSTINGS postings (the positions come in as one
    list<int32> array, whose own int32 offsets already bound them)."""
    terms = _array(group.column("term"))
    n = len(terms)
    if n > MAX_ROW_GROUP_POSTINGS:
        raise ValueError(
            f"a segment row group of {n} postings is past the "
            f"{MAX_ROW_GROUP_POSTINGS} that int32 list offsets address"
        )
    new_term = np.ones(n, dtype=bool)
    if n > 1:
        new_term[1:] = pc.not_equal(terms[1:], terms[:-1]).to_numpy(
            zero_copy_only=False
        )
    starts = np.flatnonzero(new_term)
    offs = pa.array(np.append(starts, n).astype(np.int32))
    cols = {
        "term": terms.take(pa.array(starts)),
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
