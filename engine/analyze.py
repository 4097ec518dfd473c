"""Analyzer: tokenization spec + the vectorized actor-pool implementation.

Tokenization spec (single source of truth, shared by the engine, the oracle
and the DuckDB oracle SQL):

    lowercase the text, then tokens are maximal runs of ``[a-z0-9]+`` (ASCII).

The spec is ASCII-only so the Arrow/RE2 path (`pc.utf8_lower` +
`pc.split_pattern_regex`) and the Python path (`re.findall`) agree, and so
DuckDB's `regexp_split_to_array` can express the same tokenizer for the
correctness oracle.  "Lowercase" means the per-code-point simple mapping of
`utf8_lower` and DuckDB's `lower`.  Python's `str.lower` differs on exactly
one code point (checked over all of Unicode by
tests/test_analyze.py): U+0130 'İ' becomes "i" + U+0307, which would split
the token, so the Python side maps it to 'I' first (`py_lower`).

`Tokenizer` is the stateful stage of SURVEY.md §2.3 (T1 analog): a callable
class used as `map_batches(Tokenizer, concurrency=N, batch_format="pyarrow")`
— config/pattern state built once per actor in __init__, per-batch work fully
vectorized (token strings never surface as Python objects; term identity
stays inside an Arrow dictionary).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_PATTERN = "[a-z0-9]+"
SPLIT_PATTERN = "[^a-z0-9]+"

_PY_TOKEN_RE = re.compile(TOKEN_PATTERN)


@dataclass(frozen=True)
class AnalyzerConfig:
    """User-extension surface (SURVEY.md §2.10): declarative analyzer config
    (the reference's prompt-file/registry pattern,
    ec2/generate_slogans/__main__.py:41-53).  The default config keeps every
    token so the conformance corpus stays byte-for-byte comparable."""

    stopwords: frozenset[str] = field(default_factory=frozenset)
    min_len: int = 1

    def to_json(self) -> dict:
        return {"stopwords": sorted(self.stopwords), "min_len": self.min_len}

    @classmethod
    def from_json(cls, d: dict | None) -> "AnalyzerConfig":
        if not d:
            return cls()
        return cls(
            stopwords=frozenset(d.get("stopwords", ())),
            min_len=int(d.get("min_len", 1)),
        )


DEFAULT_ANALYZER = AnalyzerConfig()


def py_lower(text: str) -> str:
    """`str.lower` with U+0130 mapped as `pc.utf8_lower` maps it (to "i",
    not "i" + U+0307); the same length as `text` in code points."""
    return text.replace("\u0130", "I").lower()


def tokenize(text: str, cfg: AnalyzerConfig = DEFAULT_ANALYZER) -> list[str]:
    """Reference (oracle-side) tokenizer. Must match Tokenizer exactly."""
    toks = _PY_TOKEN_RE.findall(py_lower(text))
    if cfg.min_len > 1 or cfg.stopwords:
        toks = [
            t for t in toks if len(t) >= cfg.min_len and t not in cfg.stopwords
        ]
    return toks


def tokenize_counts_arrow(
    texts: pa.ChunkedArray | pa.Array,
    cfg: AnalyzerConfig = DEFAULT_ANALYZER,
) -> tuple[np.ndarray, pa.Array, np.ndarray, np.ndarray]:
    """Vectorized per-doc term counting.

    Returns (doc_idx, terms, tfs, doclens): one (doc_idx, term, tf) triple per
    distinct (doc, term) pair (terms as an Arrow string array — no Python
    string per token), plus token count per input doc.
    """
    n_docs = len(texts)
    empty = (
        np.empty(0, np.int64),
        pa.array([], pa.string()),
        np.empty(0, np.int32),
        np.zeros(n_docs, np.int32),
    )
    if n_docs == 0:
        return empty
    lower = pc.utf8_lower(texts)
    lists = pc.split_pattern_regex(lower, pattern=SPLIT_PATTERN)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lists.flatten()
    parents = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    if len(flat) == 0:
        return empty
    de = flat.dictionary_encode()
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary
    # the split leaves "" tokens at string boundaries; drop that dict code,
    # plus any analyzer-filtered codes (stopwords / min_len) — all decided
    # once per dictionary entry, then applied vectorized over the codes
    drop = np.zeros(len(vocab), dtype=bool)
    empty_code = pc.index(vocab, "").as_py()
    if empty_code >= 0:
        drop[empty_code] = True
    if cfg.min_len > 1:
        lens = pc.utf8_length(vocab).to_numpy(zero_copy_only=False)
        drop |= lens < cfg.min_len
    if cfg.stopwords:
        is_stop = pc.is_in(
            vocab, value_set=pa.array(sorted(cfg.stopwords))
        ).to_numpy(zero_copy_only=False)
        drop |= is_stop
    if drop.any():
        keep = ~drop[codes]
        codes = codes[keep]
        parents = parents[keep]
    doclens = np.bincount(parents, minlength=n_docs).astype(np.int32)
    if codes.size == 0:
        return empty[0], empty[1], empty[2], doclens
    nv = len(vocab)
    key = parents * nv + codes
    ukey, counts = np.unique(key, return_counts=True)
    doc_idx = ukey // nv
    term_idx = ukey % nv
    terms = vocab.take(pa.array(term_idx, pa.int64()))
    return doc_idx, terms, counts.astype(np.int32), doclens


def tokenize_positions_arrow(
    texts: pa.ChunkedArray | pa.Array,
    cfg: AnalyzerConfig = DEFAULT_ANALYZER,
) -> tuple[np.ndarray, pa.Array, np.ndarray, np.ndarray, pa.ListArray]:
    """tokenize_counts_arrow + per-(doc, term) token positions.

    Positions index into the ANALYZED token stream (post stopword/min_len
    filtering), matching `tokenize()`'s output list — phrase adjacency is
    defined on that stream on both the index and the verify/oracle sides.
    Returns the counts tuple plus a list<int32> array of ascending positions
    aligned with the (doc_idx, term, tf) rows.
    """
    n_docs = len(texts)
    empty_pos = pa.ListArray.from_arrays(
        pa.array([0], pa.int32()), pa.array([], pa.int32())
    ).slice(0, 0)
    if n_docs == 0:
        return (
            np.empty(0, np.int64), pa.array([], pa.string()),
            np.empty(0, np.int32), np.zeros(0, np.int32), empty_pos,
        )
    lower = pc.utf8_lower(texts)
    lists = pc.split_pattern_regex(lower, pattern=SPLIT_PATTERN)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lists.flatten()
    parents = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    if len(flat) == 0:
        return (
            np.empty(0, np.int64), pa.array([], pa.string()),
            np.empty(0, np.int32), np.zeros(n_docs, np.int32), empty_pos,
        )
    de = flat.dictionary_encode()
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary
    drop = np.zeros(len(vocab), dtype=bool)
    empty_code = pc.index(vocab, "").as_py()
    if empty_code >= 0:
        drop[empty_code] = True
    if cfg.min_len > 1:
        lens = pc.utf8_length(vocab).to_numpy(zero_copy_only=False)
        drop |= lens < cfg.min_len
    if cfg.stopwords:
        is_stop = pc.is_in(
            vocab, value_set=pa.array(sorted(cfg.stopwords))
        ).to_numpy(zero_copy_only=False)
        drop |= is_stop
    if drop.any():
        keep = ~drop[codes]
        codes = codes[keep]
        parents = parents[keep]
    doclens = np.bincount(parents, minlength=n_docs).astype(np.int32)
    if codes.size == 0:
        return (
            np.empty(0, np.int64), pa.array([], pa.string()),
            np.empty(0, np.int32), doclens, empty_pos,
        )
    # position of each kept token within its doc's analyzed stream
    doc_starts = np.concatenate(([0], np.cumsum(doclens)))[:-1].astype(np.int64)
    pos_in_doc = np.arange(parents.size, dtype=np.int64) - doc_starts[parents]
    nv = len(vocab)
    key = parents * nv + codes
    order = np.argsort(key, kind="stable")  # stable: positions stay ascending
    skey = key[order]
    bounds = np.nonzero(np.diff(skey))[0] + 1
    starts = np.concatenate(([0], bounds))
    counts = np.diff(np.concatenate((starts, [skey.size])))
    ukey = skey[starts]
    doc_idx = ukey // nv
    term_idx = ukey % nv
    terms = vocab.take(pa.array(term_idx, pa.int64()))
    positions = pa.ListArray.from_arrays(
        pa.array(np.concatenate(([0], np.cumsum(counts))), pa.int32()),
        pa.array(pos_in_doc[order].astype(np.int32), pa.int32()),
    )
    return doc_idx, terms, counts.astype(np.int32), doclens, positions


def token_array_stream(
    texts: pa.ChunkedArray | pa.Array,
    cfg: AnalyzerConfig = DEFAULT_ANALYZER,
) -> tuple[pa.Array, np.ndarray]:
    """Batch texts -> (flat Arrow token-string array, doc index per token),
    in document order, post analyzer filtering.  One regex split + one
    filter; the shared front half of ngram_from_stream (operators that need
    several n-gram orders per batch tokenize once and window per order)."""
    n_docs = len(texts)
    empty = (pa.array([], pa.string()), np.empty(0, np.int64))
    if n_docs == 0:
        return empty
    lower = pc.utf8_lower(texts)
    lists = pc.split_pattern_regex(lower, pattern=SPLIT_PATTERN)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lists.flatten()
    if len(flat) == 0:
        return empty
    parents = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offsets))
    # drop "" split artifacts and analyzer-filtered tokens BEFORE windowing
    # so n-grams are formed over the analyzed token stream
    keep = pc.not_equal(flat, "")
    if cfg.min_len > 1:
        keep = pc.and_(keep, pc.greater_equal(pc.utf8_length(flat), cfg.min_len))
    if cfg.stopwords:
        keep = pc.and_(
            keep,
            pc.invert(pc.is_in(flat, value_set=pa.array(sorted(cfg.stopwords)))),
        )
    keep_np = keep.to_numpy(zero_copy_only=False)
    if not keep_np.all():
        flat = flat.filter(pa.array(keep_np))
        parents = parents[keep_np]
    return flat, parents


def ngram_from_stream(
    flat: pa.Array, parents: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """(token stream from token_array_stream, n) -> n-gram occurrence stream
    (codes, gram-parents, vocab); see ngram_stream_arrow."""
    if n < 1:
        raise ValueError("n must be >= 1")
    empty = (
        np.empty(0, np.int64),
        np.empty(0, np.int64),
        pa.array([], pa.string()),
    )
    m = len(flat)
    if m < n:
        return empty
    if n == 1:
        grams = flat
        gparents = parents
        same_doc = np.ones(m, dtype=bool)
    else:
        w = m - n + 1
        grams = pc.binary_join_element_wise(
            *[flat.slice(i, w) for i in range(n)], " "
        )
        gparents = parents[:w]
        same_doc = parents[: w] == parents[n - 1 :]
    de = grams.dictionary_encode()
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return codes[same_doc], gparents[same_doc], de.dictionary


def ngram_stream_arrow(
    texts: pa.ChunkedArray | pa.Array,
    n: int,
    cfg: AnalyzerConfig = DEFAULT_ANALYZER,
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Ordered token-n-gram occurrence stream for a batch of texts.

    Returns (codes, parents, vocab): one dictionary code + doc index per
    n-gram OCCURRENCE (document order), with `vocab` the batch's distinct
    space-joined n-gram strings.  Exact string n-grams (not hashes), so
    operators built on it (decontamination, repetition scores) stay
    bit-comparable to a DuckDB oracle that forms the same n-grams with
    `array_to_string(toks[i:i+n-1], ' ')`.  Fully vectorized: one regex
    split, one filter, n zero-copy slices joined element-wise, one
    dictionary encode — no Python loop over tokens.
    """
    return ngram_from_stream(*token_array_stream(texts, cfg), n)


class Tokenizer:
    """Actor-pool stage: extracted batch -> partial postings batch.

    Emits one row per (term, doc) — already the final per-doc granularity, so
    this is the map-side pre-aggregation of SURVEY.md §7.2 step 4 (no
    per-token rows ever hit the shuffle).
    """

    def __init__(
        self,
        cfg: AnalyzerConfig = DEFAULT_ANALYZER,
        with_positions: bool = False,
    ) -> None:
        # analyzer state built once per actor (RE2 pattern compilation warms
        # on first call; do it here, not per batch)
        self.cfg = cfg
        self.with_positions = with_positions
        pc.split_pattern_regex(pa.array(["warm up 1"]), pattern=SPLIT_PATTERN)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if self.with_positions:
            doc_idx, terms, tfs, doclens, positions = tokenize_positions_arrow(
                batch.column("text"), self.cfg
            )
        else:
            doc_idx, terms, tfs, doclens = tokenize_counts_arrow(
                batch.column("text"), self.cfg
            )
        cols = {
            "term": terms.cast(pa.string()),
            "doc_id": pa.array(doc_ids[doc_idx], pa.uint64()),
            "tf": pa.array(tfs, pa.int32()),
            "doclen": pa.array(doclens[doc_idx], pa.int32()),
        }
        if self.with_positions:
            cols["positions"] = positions
        return pa.table(cols)


