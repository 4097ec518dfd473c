"""Arrow schemas + constants for the engine's logical tables.

Data model per SURVEY.md §1.2: one ray.data.Dataset per logical table, blocks
are pyarrow Tables.  The input `pages` table has exactly the shape of
BASELINE.json's input_hint; the reference's relational model
(/root/reference/rds_schema.sql:1-58) maps onto these per the correspondence
table in SURVEY.md §1.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

# ---------------------------------------------------------------------------
# BM25 parameters (fixed; FIXTURES.md §3)
K1 = 1.2
B = 0.75

# postings are cut into blocks of this many entries for block-max metadata
BLOCK_SIZE = 128

# term-hash buckets: a bucket's chunks sit together in its bucket group's
# segment file (row groups never span two buckets).  Also the unit of reduce
# granularity in the merge shuffle: more buckets = smaller, better-balanced
# reduce groups (round 1 used 32 and the segments phase bottlenecked on ~32
# fat cold-term groups — one task per core, stragglers, no scaling headroom)
NUM_TERM_BUCKETS = 128

# a term whose df exceeds this fraction of N is "hot" and gets a segment row
# group of its own, so reading it reads no other term (SURVEY.md §4 "Skew")
HOT_TERM_DF_FRACTION = 0.03

# reduce-task granularity of the build's filesystem exchange: each partials
# file carries one row group per term-bucket group (bg = bucket % this), and
# the segments phase runs one independent reduce task per group, each reading
# only its own row groups.  Fixed (not cpu-derived) so the on-disk layout and
# the lineage fingerprints are identical across cluster sizes; 64 gives >=2
# reduce tasks per core up to 32 cores.
NUM_BUCKET_GROUPS = 64

# doc_id-range partitions of the docmeta table: each docmeta file carries one
# row group per range (dr = doc_id >> DOC_RANGE_SHIFT, recorded in the footer
# KV "drs"), so merge_indexes' survivor scan (engine/merge.py _scan_docmeta)
# fans out one task per range, and the stats phase records per-range distinct
# doc counts (stats.json "doc_range_bases", whose last entry sizes the
# reader's dense-docno space).  Ranges are INTERVALS of the (uniform
# url-hash) doc_id space, not hash-modulo classes, so the doc_id-sorted docno
# order visits them in turn: a doc's docno is range_base[its range] + its
# rank within the range.  Fixed for layout/lineage stability (a change is a
# format bump: it is baked into the tokenize wave's footer-KV range layout).
NUM_DOC_RANGES = 32
DOC_RANGE_SHIFT = 64 - (NUM_DOC_RANGES.bit_length() - 1)

PAGES_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# extracted: url -> text (byte-identical contract) + doc identity/metadata
EXTRACTED_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.uint64()),
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("text", pa.string()),
    ]
)

# docmeta: per-document metadata used by query-time filters + doc-store join
DOCMETA_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.uint64()),
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("lang", pa.string()),
        pa.field("doclen", pa.int64()),
    ]
)

# partial postings emitted per input partition (pre-aggregated map-side:
# one row per (term, doc) — the A5 per-group-reduce pattern of SURVEY.md §2.5).
# doclen lives in docmeta (one row per doc), not here (one row per posting):
# duplicating it per posting cost ~0.6 GB of write+read per 1.5M docs.
PARTIAL_POSTINGS_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        pa.field("doc_id", pa.uint64()),
        pa.field("tf", pa.int32()),
    ]
)

# positional variant (build_index(store_positions=True)): per-(term, doc)
# ascending token positions in the ANALYZED stream ride the posting rows so
# phrase queries resolve adjacency from the index instead of re-reading and
# re-tokenizing doc text (the verify fallback).  Lens == tf, so the segment
# side stores only the flat positions.
PARTIAL_POSTINGS_POS_SCHEMA = PARTIAL_POSTINGS_SCHEMA.append(
    pa.field("positions", pa.list_(pa.int32()))
)

# bump when the on-disk layout or scoring-relevant semantics change
# v8: segments store varint doclens instead of raw-float64 impacts
# v9: postings delta-encode dense docnos (rank in the doc_id-sorted docmeta
#     table) instead of raw 64-bit url-hash doc_ids, and docmeta ranges are
#     doc_id INTERVALS (>> DOC_RANGE_SHIFT) instead of hash-modulo classes
#     so the docno assignment stays decomposable per range (notes below)
# v10: one segment file per bucket group (segments/bg-XXX.parquet) instead
#     of one per (bucket, salt), addressed through the term lexicon that
#     dfs/bg-XXX.parquet carries (LEXICON_SCHEMA)
# v11: postings are native Parquet list columns (DELTA_BINARY_PACKED leaves,
#     decoded by Parquet itself inside the row-group read) instead of
#     varint/PFor binary cells; the doclens, block_last_doc,
#     block_max_impact and df_chunk columns are gone (derived at load)
# v12: one docno-sorted chunk per term (hot terms are no longer split by
#     doc_id % 8 salts): each hot term is a row group of its own, a bucket's
#     cold terms share one, and the lexicon holds one address per term
# v13: segment columns are LZ4 with no column statistics (the lexicon stays
#     zstd), and a segment file and its lexicon carry the same pairing token
#     in their footers, checked once per file instead of per chunk
FORMAT_VERSION = 13

# posting chunks — one row per term.  A bucket group's chunks share one
# file, one row group per hot term and one per bucket for its cold terms,
# so a point read of a term reads its own row group.  Scoring reads
# ``doc_ids`` and ``tfs`` only; ``term`` is stored for tools that read the
# files directly.  No column carries statistics.
SEGMENT_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        # ascending dense DOCNOS — each doc's rank in the doc_id-sorted
        # docmeta table — not raw 64-bit url-hash doc_ids: Parquet's delta
        # encoding stores gaps of ~N/df instead of ~2^64/df.  The docno
        # space is shared with the reader's cached docmeta order, so filter
        # masks index directly (mask[docno]), doclens gather from docmeta
        # (the float64 BM25 impact is recomputed at chunk load with the
        # build's exact op order, query.py _load_chunks) and the top-k maps
        # back to doc_ids with one array gather; ranks are monotone in
        # doc_id, so the (score DESC, doc_id ASC) tie-break is unchanged.
        # Block-max metadata is derived from the loaded chunk
        # (codec.block_metadata), not stored.
        pa.field("doc_ids", pa.list_(pa.uint64())),
        pa.field("tfs", pa.list_(pa.uint32())),  # aligned with doc_ids
    ]
)

# positional segments: each chunk's per-posting position lists back to back,
# ascending within a posting (the tfs column carries the split lengths)
SEGMENT_POS_SCHEMA = SEGMENT_SCHEMA.append(
    pa.field("positions", pa.list_(pa.uint32()))
)

# the term lexicon, one file per bucket group (dfs/bg-XXX.parquet): each
# term's exact df plus the address of its chunk in that group's segment
# file — (row group, row within it).  The reader loads it term-sorted once,
# so a term's postings are one binary search plus one row-group read, with
# no scan of the term's bucket.
LEXICON_SCHEMA = pa.schema(
    [
        pa.field("term", pa.string()),
        pa.field("df", pa.int64()),
        pa.field("rg", pa.int32()),
        pa.field("row", pa.int32()),
    ]
)


def ts_to_us(v) -> int | None:
    """Timestamp-like -> int64 microseconds since epoch, timezone-independent.

    datetime.timestamp() interprets naive datetimes in the HOST's local zone,
    which would shift filter windows on non-UTC machines; stored warc_ts
    values are naive-UTC int64 microseconds, so both sides of every
    comparison must use the same wall-clock arithmetic.
    """
    if v is None:
        return None
    if isinstance(v, (int, np.integer)):
        return int(v)
    import datetime as _dt

    if isinstance(v, _dt.datetime):
        if v.tzinfo is not None:
            v = v.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        return (v - _dt.datetime(1970, 1, 1)) // _dt.timedelta(microseconds=1)
    return int(v)


def doc_id_of_url(url: str) -> int:
    """Stable 63-bit docID from the url (FIXTURES.md §3).

    blake2b(url)[:8] masked to 63 bits so the value survives int64 systems
    (DuckDB, pandas) unchanged.  Hash-based stable IDs need no global
    coordination at 10^12-doc scale (SURVEY.md §7.3c); delta-varint still
    compresses because mean delta shrinks as the corpus grows.
    """
    h = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "big") & 0x7FFF_FFFF_FFFF_FFFF


def doc_ids_of_urls(urls) -> np.ndarray:
    """Vectorized-ish batch version (hashing is the per-row loop; cheap)."""
    return np.fromiter(
        (doc_id_of_url(u) for u in urls), dtype=np.uint64, count=len(urls)
    )


def term_bucket(term: str, num_buckets: int = NUM_TERM_BUCKETS) -> int:
    """Deterministic term -> hash bucket; its bucket group (bucket %
    NUM_BUCKET_GROUPS) names the term's segment and lexicon files."""
    h = hashlib.blake2b(term.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(h, "big") % num_buckets
