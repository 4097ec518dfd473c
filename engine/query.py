"""Query engine: exact BM25 top-k over the compressed segments.

The engine analog of the reference's query path
(/root/reference/streamlit_app.py:165-399): encode query -> compile metadata
filters -> ranked top-k with bounded candidate pool -> optional two-stage
rerank (:317-364) -> doc-store join for display fields.

Determinism contract (must match engine/oracle.py exactly):
- idf = np.log((N - df + 0.5) / (df + 0.5) + 1.0)
- score(doc) = sum over matching terms, in ascending lexicographic term
  order, of idf * impact (impacts precomputed float64 at build)
- tie-break (score DESC, doc_id ASC)

Scoring paths: `IndexReader._dispatch` estimates the cost of each exact
path from the query's shape (`_plan`: the dense docno-space size, each
run's posting count, the term count and the pool size) and takes the
cheapest.  One term: `_single_term`, stopping early on per-block impact
maxima, or its flat exit, one masked top-k over the whole run.  Several
terms: dense accumulation (`_vectorized`), sparse accumulation over the
postings alone (`_sparse`), or vectorized MaxScore (`_maxscore`, Turtle &
Flood 1995), which falls back to `_vectorized` when the terms it must
enumerate cost more than the dense scan.  The build stores each term as
one docno-sorted chunk, so every scorer walks one posting list per term.

`IndexReader` is the stateful query-side cache (SURVEY.md §2.3 T6): stats,
df table and doc metadata load once and are reused across queries — in a
serving deployment this class is the per-actor state of a query actor pool.
"""

from __future__ import annotations

import json
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet  # noqa: F401  (enables pa.parquet.*)

from . import codec
from .analyze import DEFAULT_ANALYZER, AnalyzerConfig, tokenize
from .schema import (
    BLOCK_SIZE,
    EXTRACTED_SCHEMA,
    FORMAT_VERSION,
    NUM_BUCKET_GROUPS,
    term_bucket,
    ts_to_us,
)
from .segments import Lexicon, RowGroup, SortedTermMap, file_token


# ----------------------------------------------------------------------
# Boolean query language (fulltext surface beyond the reference's implicit
# OR-of-terms: the reference's query box, streamlit_app.py:165-205, feeds the
# raw string to the embedder; our BM25 engine adds the classic operators)
#
#   window agg          ->  should-terms (BM25 disjunction, >=1 must match)
#   +join               ->  must-term   (required; still scores)
#   -scan               ->  must-not    (excluded; never scores)
#   "hash join"         ->  phrase      (tokens required ADJACENT, in order;
#                                        its terms also score like should)
#   -"slow query"       ->  not-phrase  (docs with the adjacent sequence drop)
#
# Semantics: candidates = docs matching >=1 scoring term, AND all must /
# phrase terms, AND none of the must-not terms, AND every phrase adjacency,
# AND no not-phrase adjacency.  Score = plain BM25 over the unique scoring
# terms (should + must + phrase terms) in ascending lexicographic order, so
# scores are bitwise-identical to an unadorned query over the same terms.

#   "slow query"~2      ->  proximity: consecutive phrase terms may be up
#                           to 1+slop positions apart (per-gap slop;
#                           slop=0 is the exact phrase), still in order
_PHRASE_RE = re.compile(r'([+-]?)"([^"]*)"(?:~(\d+))?')


@dataclass(frozen=True)
class BoolQuery:
    should: tuple[str, ...]
    must: tuple[str, ...]
    must_not: tuple[str, ...]
    phrases: tuple[tuple[str, ...], ...]
    not_phrases: tuple[tuple[str, ...], ...]
    # per-phrase slop (aligned with phrases / not_phrases; 0 = exact
    # adjacency): consecutive terms may sit up to 1+slop positions apart,
    # in order — `"slow query"~2` allows two intervening tokens per gap
    phrase_slops: tuple[int, ...] = ()
    not_phrase_slops: tuple[int, ...] = ()
    # wildcard operands (`data*`): the stored string is the prefix; each
    # expands against the index vocabulary at query time.  A must-prefix
    # group requires >=1 expansion present (unlike plain must terms, which
    # are each required); a not-prefix excludes docs with ANY expansion.
    should_prefix: tuple[str, ...] = ()
    must_prefix: tuple[str, ...] = ()
    must_not_prefix: tuple[str, ...] = ()

    @property
    def scoring_terms(self) -> list[str]:
        ts = set(self.should) | set(self.must)
        for p in self.phrases:
            ts.update(p)
        return sorted(ts)

    @property
    def required_terms(self) -> list[str]:
        ts = set(self.must)
        for p in self.phrases:
            ts.update(p)
        return sorted(ts)


# wildcard expansion budget: deterministic (df DESC, term ASC) cap, mirrored
# by the SQL oracle's ORDER BY df DESC, tk LIMIT — a one-letter prefix on a
# web vocabulary would otherwise expand to millions of scoring terms
MAX_PREFIX_EXPANSIONS = 64


def parse_query(text: str, analyzer: AnalyzerConfig = DEFAULT_ANALYZER) -> BoolQuery:
    """Parse the +/-/"..." operators, tokenizing every operand with the
    index analyzer (so `+Window,` matches the indexed token `window`).

    A quoted phrase that analyzes to a single token folds into must /
    must_not (adjacency of one token is just presence); an operand that
    analyzes to nothing (stopword, punctuation) is dropped.
    """
    phrases: list[tuple[str, ...]] = []
    not_phrases: list[tuple[str, ...]] = []
    should: list[str] = []
    must: list[str] = []
    must_not: list[str] = []

    phrase_slops: list[int] = []
    not_phrase_slops: list[int] = []

    def _take_phrase(m: re.Match) -> str:
        toks = tuple(tokenize(m.group(2), analyzer))
        neg = m.group(1) == "-"
        slop = int(m.group(3) or 0)
        if len(toks) == 1:
            (must_not if neg else must).append(toks[0])
        elif toks:
            (not_phrases if neg else phrases).append(toks)
            (not_phrase_slops if neg else phrase_slops).append(slop)
        return " "

    should_px: list[str] = []
    must_px: list[str] = []
    must_not_px: list[str] = []
    rest = _PHRASE_RE.sub(_take_phrase, text)
    for raw in rest.split():
        sign = ""
        if raw[0] in "+-":
            sign, raw = raw[0], raw[1:]
        wildcard = raw.endswith("*")
        toks = tokenize(raw.rstrip("*"), analyzer)
        if not toks:
            continue
        if wildcard and len(toks) == 1:
            dst = (
                must_px if sign == "+"
                else must_not_px if sign == "-" else should_px
            )
            dst.append(toks[0])
            continue
        dst = must if sign == "+" else must_not if sign == "-" else should
        dst.extend(toks)
    return BoolQuery(
        tuple(should), tuple(must), tuple(must_not),
        tuple(phrases), tuple(not_phrases),
        tuple(phrase_slops), tuple(not_phrase_slops),
        tuple(should_px), tuple(must_px), tuple(must_not_px),
    )


def contains_sequence(
    toks: list[str], phrase: tuple[str, ...], slop: int = 0
) -> bool:
    """True iff `phrase` occurs in `toks` in order with each consecutive
    pair at most 1+slop positions apart (slop=0: contiguous run)."""
    m = len(phrase)
    if m == 0:
        return True
    if m == 1:
        return phrase[0] in toks
    if slop == 0:
        first = phrase[0]
        want = list(phrase)
        n = len(toks)
        i = 0
        while True:
            try:
                i = toks.index(first, i, n - m + 1)
            except ValueError:
                return False
            if toks[i : i + m] == want:
                return True
            i += 1
    surv = {i for i, t in enumerate(toks) if t == phrase[0]}
    for t in phrase[1:]:
        if not surv:
            return False
        surv = {
            j
            for j, x in enumerate(toks)
            if x == t and any(j - d in surv for d in range(1, slop + 2))
        }
    return bool(surv)


# bytes of decoded doc-store row groups one reader keeps (their Arrow
# buffers), for the phrase verify of text-verify indexes; a 3000-doc store
# decodes to ~4 MB, a 200k-doc one to ~280 MB
DOCSTORE_CACHE_BYTES = 64 << 20
# one process-wide pool for reading uncached doc-store files in parallel;
# its threads start on first use and are shared by every IndexReader
_DOCSTORE_THREADS = ThreadPoolExecutor(
    min(8, os.cpu_count() or 1), thread_name_prefix="docstore"
)


class _LRU(dict):
    """Minimal LRU map: a serving actor holds one IndexReader for its whole
    lifetime, so per-term/bucket caches must be bounded or a diverse query
    stream grows them without limit (ADVICE round 1).  ``cap`` bounds the
    summed ``weigh(value)`` (default: the entry count); the newest entry
    always stays, even when it alone is over ``cap``."""

    def __init__(self, cap: int, weigh=None):
        super().__init__()
        self.cap = cap
        self._weigh = weigh or (lambda _val: 1)
        self._weights: dict = {}  # key -> weigh(value), taken at insert
        self.weight = 0

    def __getitem__(self, key):
        val = super().pop(key)  # re-insert -> most recently used
        super().__setitem__(key, val)
        return val

    def get(self, key, default=None):
        if key in self:
            return self[key]
        return default

    def __setitem__(self, key, val):
        if key in self:
            super().pop(key)
            self.weight -= self._weights.pop(key)
        super().__setitem__(key, val)
        self._weights[key] = w = self._weigh(val)
        self.weight += w
        while self.weight > self.cap and len(self) > 1:
            old = next(iter(self))
            super().pop(old)
            self.weight -= self._weights.pop(old)


class _Run(NamedTuple):
    """One term's postings as a single docno-sorted run: docnos (int64, =
    docmeta positions), impacts (float64, idf excluded), the per-block max
    impact (codec.block_metadata over the run) and the run's max impact."""

    docnos: np.ndarray
    impacts: np.ndarray
    block_max: np.ndarray
    max_impact: float


_EMPTY_RUN = _Run(np.empty(0, np.int64), np.empty(0), np.empty(0), 0.0)
# `_token_positions` of a term the index lacks: no posting, offsets [0]
_NO_POSITIONS = (np.empty(0, np.uint64), np.zeros(1, np.int64), np.empty(0, np.int32))


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Exact top-k of aligned (docno, score) arrays under (score DESC,
    docno ASC): everything at or above the k-th score, then a lexsort of
    that (small) tie-closed set."""
    kk = min(k, ids.size)
    cut = scores >= -np.partition(-scores, kk - 1)[kk - 1]
    cids, csc = ids[cut], scores[cut]
    order = np.lexsort((cids, -csc))[:kk]
    return [(int(d), float(s)) for d, s in zip(cids[order], csc[order])]


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


def _lg(x: float) -> float:
    return math.log2(max(x, 2.0))


# Cost model of the exact scoring paths: each path's estimated time (µs) is
# its coefficients times its features, from what is known before scoring:
# d, the dense docno-space size (`_docno_count`); t, the number of runs; p,
# their summed posting count; k, the pool size; e, the postings MaxScore
# enumerates as candidates.  A posting scattered into or probed in a
# d-sized array costs more as the array outgrows the cpu caches, hence
# p * lg(d).  Non-negative least squares on relative error over per-path
# timings of a 3k-doc and a 200k-doc index on 1 cpu (`scripts/
# profile_query.py --paths --save`, refit with `--fit`); only the order of
# the estimates matters.
_COST_FEATURES = {
    "single_term": lambda d, t, p, k, e: (1.0, p, min(p, k)),
    "flat": lambda d, t, p, k, e: (1.0, p),
    "vectorized": lambda d, t, p, k, e: (1.0, t, d, p * _lg(d)),
    "sparse": lambda d, t, p, k, e: (1.0, t, p * _lg(p)),
    "maxscore": lambda d, t, p, k, e: (1.0, t, p * _lg(d), e * _lg(e)),
}
_COST_COEFS = {
    "single_term": (21.0, 0.000425, 2.81),
    "flat": (2.0, 0.00675),
    "vectorized": (11.9, 1.72, 0.000466, 0.0011),
    "sparse": (21.5, 1.95, 0.00232),
    "maxscore": (39.0, 7.19, 6.2e-05, 0.0019),
}


def _cost(path: str, d: int, t: int, p: int, k: int, e: int) -> float:
    feats = _COST_FEATURES[path](d, t, p, k, e)
    return sum(c * f for c, f in zip(_COST_COEFS[path], feats))


def _plan_shape(sizes: list[int], k: int) -> tuple[int, int, int]:
    """(t, p, e) of a query whose runs hold `sizes` postings.  MaxScore's
    candidates are estimated as every run but the longest (the lowest
    idf, so the first left out of the essential set), unless no other run
    holds k postings to bound the k-th score with."""
    t, p = len(sizes), sum(sizes)
    if t < 2:
        return t, p, p
    rest = sorted(sizes)
    return t, p, (p - rest[-1] if rest[-2] >= k else p)


def _plan(d: int, sizes: list[int], k: int) -> str:
    """The exact path with the lowest estimated cost for a query with runs
    of `sizes` postings over a docno space of `d`: "single_term" (block-max)
    or "flat" for one run, else "vectorized", "sparse" or "maxscore"."""
    t, p, e = _plan_shape(sizes, k)
    paths = ("single_term", "flat") if t == 1 else ("vectorized", "sparse", "maxscore")
    return min(paths, key=lambda path: _cost(path, d, t, p, k, e))


class IndexReader:
    """Query-side state of one index directory.

    On-disk layout read here (FORMAT_VERSION 13): ``stats.json``;
    ``dfs/bg-XXX.parquet``, the term lexicon of each of the
    NUM_BUCKET_GROUPS bucket groups (term, df and its chunk's (row group,
    row) address); ``segments/bg-XXX.parquet``, that group's posting
    chunks, one per term (docnos and tfs as delta-encoded Parquet list
    columns); ``docmeta/`` and ``extracted/`` (doc metadata, doclens
    included, and the doc store).  The lexicon loads term-sorted at open; a
    term's postings are then one binary search plus one row-group read, from
    a ParquetFile whose footer is read, and whose pairing token is checked
    against its lexicon's, once per reader, and are cached as one
    docno-sorted run per term (`_load_chunks`).
    """

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        if self.stats.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"{index_dir}: stats.json predates FORMAT_VERSION "
                f"{FORMAT_VERSION} (segment files paired with their lexicon); "
                "rebuild the index"
            )
        self.n_docs = self.stats["n_docs"]
        self.avgdl = self.stats["avgdl"]
        self.has_positions = bool(self.stats.get("positions", False))
        self.analyzer = AnalyzerConfig.from_json(self.stats.get("analyzer"))
        # term-sorted arrays + searchsorted (SortedTermMap), not a Python
        # dict: ~40% less memory at vocab scale, a C-speed load, and the
        # same structure the sharded serving pool broadcasts.  _df is what
        # scoring uses (a sharded pool swaps in the corpus-global table);
        # _lex always addresses this index's own segment files.
        self._lex = Lexicon.load(os.path.join(index_dir, "dfs"))
        self._df: SortedTermMap = self._lex
        self._seg_files: dict[int, pa.parquet.ParquetFile] = {}
        self._extracted = pads.dataset(os.path.join(index_dir, "extracted"))
        self._docmeta = None  # (sorted doc_ids, lang codes, ts, doclens, langs)
        self._doc_norm = None  # per-doc BM25 length normalization, with docmeta
        self._docmeta_order = None
        self._urls = None  # docmeta urls, loaded lazily for url filters
        self._chunk_cache: _LRU = _LRU(cap=4096)  # term -> posting _Run
        # (bucket group, row group) -> RowGroup
        self._bucket_tables: _LRU = _LRU(cap=64)
        self._tpos_cache: _LRU = _LRU(cap=512)  # term -> decoded token positions
        # dense-docno space size = total distinct docmeta rows INCLUDING
        # tombstoned docs (stats phase prefix sums; == len(docmeta) once
        # loaded).  Sizes the dense score/presence arrays without forcing a
        # docmeta load on filterless queries.
        self._docno_count = int(self.stats["doc_range_bases"][-1])
        self._del_idx = None  # lazy SymSpell delete index (suggest())
        # doc store: row-group doc_id intervals, the files opened once per
        # reader, and decoded row groups, (path, row group) -> Table
        self._ds_rg = None
        self._ds_files: dict[str, pa.parquet.ParquetFile] = {}
        self._ds_rows: _LRU = _LRU(
            cap=DOCSTORE_CACHE_BYTES, weigh=pa.Table.get_total_buffer_size
        )
        self._url_mask_cache: _LRU = _LRU(cap=64)  # url pattern -> doc mask
        self._tomb_loaded = False  # tombstone alive-mask, loaded lazily
        self._tomb_alive: np.ndarray | None = None
        # maxscore scratch: candidate membership (bool) and candidate rank
        # (int32) over docmeta positions, allocated once per reader and
        # wiped per query in O(|candidates|)
        self._cand_mask_buf: np.ndarray | None = None
        self._cand_rank_buf: np.ndarray | None = None

    # ------------------------------------------------------------------
    def idf(self, term: str) -> float:
        return self._idf(self._df.get(term, 0))

    def _idf(self, df: int) -> float:
        return float(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0))

    def df(self, term: str) -> int:
        return int(self._df.get(term, 0))

    def _vocab(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted term array, aligned df array) — shared by wildcard
        expansion and autocomplete."""
        return self._df.terms, self._df.dfs

    def complete(self, prefix: str, k: int = 8) -> list[str]:
        """Autocomplete: the top-k indexed terms starting with `prefix`,
        ranked (df DESC, term ASC) — a binary-searched range over the
        sorted vocab (O(log V + range)), same structure as _expand_prefix."""
        _check_k(k)
        vocab, dfs = self._vocab()
        lo = int(np.searchsorted(vocab, prefix))
        hi = int(np.searchsorted(vocab, prefix + "\U0010ffff"))
        terms, d = vocab[lo:hi], dfs[lo:hi]
        order = np.lexsort((terms, -d))[:k]
        return terms[order].tolist()

    def _expand_prefix(self, prefix: str) -> list[str]:
        """Indexed terms starting with `prefix`, capped deterministically at
        MAX_PREFIX_EXPANSIONS by (df DESC, term ASC) — the SQL oracle
        mirrors the cap with ORDER BY df DESC, tk LIMIT.  The vocabulary
        scan is a binary-searched range over the term-sorted df table (at
        web vocab that table is the partitioned dfs/ parquet, still
        term-range-prunable)."""
        vocab, dfs = self._vocab()
        lo = int(np.searchsorted(vocab, prefix))
        hi = int(np.searchsorted(vocab, prefix + "\U0010ffff"))
        terms, d = vocab[lo:hi], dfs[lo:hi]
        if terms.size > MAX_PREFIX_EXPANSIONS:
            keep = np.lexsort((terms, -d))[:MAX_PREFIX_EXPANSIONS]
            terms = terms[keep]
        return sorted(terms.tolist())

    def explain(
        self, query_text: str, doc_id: int
    ) -> list[tuple[str, int, int, float, float]]:
        """Score explanation (the Lucene Explanation analog): for one
        (query, doc) pair, the per-term breakdown [(term, tf, df, idf,
        contribution)], terms absent from the doc omitted.  Uses the exact
        scorer arithmetic (same dtype/op order/constants), so the
        contributions sum to the served score bitwise; costs one raw
        postings decode per query term (merged into one docno-sorted run)."""
        k1 = float(self.stats["k1"])
        b = float(self.stats["b"])
        avgdl = self.avgdl
        self._load_docmeta()
        ids = self._docmeta[0]
        pos = int(np.searchsorted(ids, np.uint64(doc_id)))
        if pos >= ids.size or int(ids[pos]) != int(np.uint64(doc_id)):
            return []
        out = []
        for term in sorted(set(tokenize(query_text, self.analyzer))):
            docs, tfs, dls = self._term_postings_raw(term)
            j = int(np.searchsorted(docs, pos))
            if j >= docs.size or docs[j] != pos:
                continue
            df = int(self._df.get(term, 0))
            idf = self._idf(df)
            tf, dl = float(tfs[j]), float(dls[j])
            contrib = idf * (tf * (k1 + 1.0) / (tf + k1 * ((1.0 - b) + (b * dl) / avgdl)))
            out.append((term, int(tf), df, idf, contrib))
        return out

    def regex_expand(self, pattern: str) -> list[str]:
        """Indexed terms fully matching `pattern` (Lucene RegexpQuery
        analog), capped deterministically at MAX_PREFIX_EXPANSIONS by
        (df DESC, term ASC) — the same cap rule as wildcard expansion, and
        the SQL oracle mirrors it with regexp_full_match + ORDER BY df
        DESC, tk LIMIT.  The scan walks the in-memory term-sorted
        vocabulary (at web vocab: the partitioned dfs/ parquet, prunable
        to a literal-prefix term range when the pattern has one)."""
        rx = re.compile(pattern)
        vocab, dfs = self._vocab()
        hit = np.fromiter(
            (rx.fullmatch(t) is not None for t in vocab), bool, count=vocab.size
        )
        terms, d = vocab[hit], dfs[hit]
        if terms.size > MAX_PREFIX_EXPANSIONS:
            keep = np.lexsort((terms, -d))[:MAX_PREFIX_EXPANSIONS]
            terms = terms[keep]
        return sorted(terms.tolist())

    # ------------------------------------------------------------------
    def _delete_index(self) -> dict[str, list[str]]:
        """SymSpell-style candidate index: every single-character deletion of
        every vocabulary term -> the terms it came from.  Built lazily once
        per reader (vocab-memory size class, like the df map); at web vocab
        this is a per-index-family build artifact over the dfs/ partitions
        rather than an in-process dict — same scale note as _expand_prefix."""
        if getattr(self, "_del_idx", None) is None:
            idx: dict[str, list[str]] = {}
            for t in self._df:
                for i in range(len(t)):
                    idx.setdefault(t[:i] + t[i + 1 :], []).append(t)
            self._del_idx = idx
        return self._del_idx

    @staticmethod
    def _lev_le1(a: str, b: str) -> int | None:
        """Exact plain-Levenshtein distance if <= 1, else None.  Used to
        verify delete-index candidates: the delete-intersection criterion
        admits transpositions ("ab"/"ba"), which plain Levenshtein (and the
        oracle's levenshtein()) counts as 2."""
        if a == b:
            return 0
        la, lb = len(a), len(b)
        if abs(la - lb) > 1:
            return None
        if la == lb:
            return 1 if sum(1 for x, y in zip(a, b) if x != y) == 1 else None
        if la < lb:
            a, b, la, lb = b, a, lb, la
        i = 0
        while i < lb and a[i] == b[i]:
            i += 1
        return 1 if a[i + 1 :] == b[i:] else None

    def suggest(self, term: str) -> tuple[str, int, int] | None:
        """Did-you-mean: the vocabulary term within plain Levenshtein
        distance 1 of `term`, chosen by (distance ASC, df DESC, term ASC).
        Returns (suggestion, dist, df) or None.

        Candidate generation is SymSpell (Garbe): a term within distance 1
        must satisfy q==t, t in deletes1(q), q in deletes1(t), or
        deletes1(q) n deletes1(t) != {} — so lookups against the delete
        index cover substitutions/insertions/deletions without scanning the
        vocabulary; each candidate is then verified exactly."""
        didx = self._delete_index()
        cands: set[str] = set()
        if term in self._df:
            cands.add(term)
        dels = [term[:i] + term[i + 1 :] for i in range(len(term))]
        for d in dels:
            if d in self._df:  # deleting a char of q yields a vocab term
                cands.add(d)
            cands.update(didx.get(d, ()))  # substitution / same-delete
        cands.update(didx.get(term, ()))  # q is a delete of a vocab term
        best = None
        for c in cands:
            dist = self._lev_le1(term, c)
            if dist is None:
                continue
            key = (dist, -self._df[c], c)
            if best is None or key < best[0]:
                best = (key, c, dist)
        if best is None:
            return None
        return best[1], best[2], int(self._df[best[1]])

    def fuzzy_expand(self, term: str) -> list[str]:
        """Fuzzy-query expansion: ALL vocabulary terms within plain
        Levenshtein distance 1 of `term` (including `term` itself when
        indexed), term-sorted.  Same SymSpell candidate generation as
        suggest() — delete-index lookups, never a vocabulary scan — but
        keeps every verified candidate instead of the single best (the
        Lucene FuzzyQuery~1 rewrite set)."""
        didx = self._delete_index()
        cands: set[str] = set()
        if term in self._df:
            cands.add(term)
        dels = [term[:i] + term[i + 1 :] for i in range(len(term))]
        for d in dels:
            if d in self._df:
                cands.add(d)
            cands.update(didx.get(d, ()))
        cands.update(didx.get(term, ()))
        return sorted(c for c in cands if self._lev_le1(term, c) is not None)

    def match_count(self, query_text: str) -> int:
        """Total-hits count: |union of the query terms' postings| — the
        result-count a search UI shows next to page 1, deleted docs
        excluded.  Costs the same postings decode the scorer pays (cached
        runs), no scoring."""
        ids = [
            self._load_chunks(t).docnos
            for t in set(tokenize(query_text, self.analyzer))
        ]
        if not ids:
            return 0
        hits = np.unique(np.concatenate(ids))
        alive = self._tombstone_mask()
        return int(hits.size if alive is None else alive[hits].sum())

    def _term_postings_raw(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_nos, tfs, doclens) for one analyzed term's docno-sorted
        chunk, UNDECORATED — the raw columns the impact formula consumes,
        for scorers whose saturation must run on a COMBINED tf
        (SynonymQuery) rather than per-term impacts."""
        hit = self._chunk_row(term)
        if hit is None:
            e = np.empty(0, np.int64)
            return e, np.empty(0, np.float64), np.empty(0, np.float64)
        self._load_docmeta()
        ids, tfs = hit[0].raw(hit[1])
        ids = ids.view(np.int64)
        return ids, tfs.astype(np.float64), self._docmeta[3][ids].astype(np.float64)

    def search_synonyms(
        self, groups: list[list[str]], k: int = 10
    ) -> list[tuple[int, float]]:
        """BM25 top-k under Lucene-SynonymQuery semantics: each GROUP of
        analyzed terms scores as one pseudo-term whose tf is the SUM of the
        member tfs in a doc and whose df is the size of the UNION of the
        member postings — so "merge" and "join" registered as synonyms rank
        a doc mentioning either (or both, with combined saturation) under
        one IDF, instead of double-counting two independent terms.  Exact
        same impact arithmetic (dtype, op order, constants) as the scorer;
        returns [(doc_id, score)], (score DESC, doc_id) tie-broken."""
        _check_k(k)
        k1 = float(self.stats["k1"])
        b = float(self.stats["b"])
        avgdl = self.avgdl
        docs_l: list[np.ndarray] = []
        imps_l: list[np.ndarray] = []
        for group in groups:
            ids_l, tf_l, dl_l = [], [], []
            for term in sorted(set(group)):
                i, t, d = self._term_postings_raw(term)
                if i.size:
                    ids_l.append(i)
                    tf_l.append(t)
                    dl_l.append(d)
            if not ids_l:
                continue
            ids = np.concatenate(ids_l)
            tfs = np.concatenate(tf_l)
            dls = np.concatenate(dl_l)
            u, inv = np.unique(ids, return_inverse=True)
            gtf = np.zeros(u.size, np.float64)
            np.add.at(gtf, inv, tfs)
            gdl = np.zeros(u.size, np.float64)
            gdl[inv] = dls  # doclen is a doc property: identical per member
            idf = self._idf(u.size)
            imps_l.append(
                idf * (gtf * (k1 + 1.0) / (gtf + k1 * ((1.0 - b) + (b * gdl) / avgdl)))
            )
            docs_l.append(u)
        if not docs_l:
            return []
        alive = self._tombstone_mask()
        docs = np.concatenate(docs_l)
        imps = np.concatenate(imps_l)
        u, inv = np.unique(docs, return_inverse=True)
        score = np.zeros(u.size, np.float64)
        np.add.at(score, inv, imps)
        if alive is not None:
            keep = alive[u]
            u, score = u[keep], score[keep]
        order = np.lexsort((u, -np.round(score, 6)))[:k]
        return self._docnos_to_ids([(int(u[i]), float(score[i])) for i in order])

    def term_occurrences(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-doc occurrence summary of one analyzed term straight off the
        positional postings: (doc_ids, tfs, first_pos, last_pos), all int64,
        positions 0-based analyzed-stream occurrence indices.  The KWIC /
        concordance primitive — one positions-column decode (LRU-cached),
        no doc-store fetch, no scoring pass.  Requires a
        ``store_positions=True`` index."""
        if not self.has_positions:
            raise ValueError("term_occurrences needs a positional index")
        self._load_docmeta()
        meta_ids = self._docmeta[0]
        ids, offs, flat = self._token_positions(term)
        return (
            meta_ids[ids.astype(np.int64)].astype(np.int64),
            np.diff(offs),
            flat[offs[:-1]].astype(np.int64),
            flat[offs[1:] - 1].astype(np.int64),
        )

    def _segment_file(self, bg: int) -> pa.parquet.ParquetFile:
        """The bucket group's segment file, opened once per reader (its
        footer is parsed once; later row-group reads go straight to the
        column chunks).  Its pairing token must be the one the group's
        lexicon carried when this reader loaded it: a rebuild of the
        directory since then (or one killed between its renames of dfs/
        and segments/) moves chunks, and decoding another term's chunk
        would return wrong answers without an error.  A file opened once
        keeps its inode, so later reads answer from that same snapshot."""
        pf = self._seg_files.get(bg)
        if pf is None:
            path = os.path.join(self.index_dir, "segments", f"bg-{bg:03d}.parquet")
            try:
                pf = pa.parquet.ParquetFile(path)
            except FileNotFoundError:
                self._changed()
            token = file_token(pf)
            if token is None or token != self._lex.tokens.get(bg):
                self._changed()
            self._seg_files[bg] = pf
        return pf

    def _bucket_rows(self, key: tuple[int, int]) -> RowGroup:
        """The scoring columns of one segment row group, key = (bucket
        group, row group); LRU-cached.  The single segment-read entry point
        of scoring: positions (phrase queries) are never read here."""
        cached = self._bucket_tables.get(key)
        if cached is None:
            cached = RowGroup(self._segment_file(key[0]), key[1])
            self._bucket_tables[key] = cached
        return cached

    def _chunk_row(
        self, term: str, positions: bool = False
    ) -> tuple[RowGroup, int] | None:
        """(row group, row) of the term's chunk, read through this index's
        own lexicon; None if the index lacks the term.  The scoring columns
        come through the cached `_bucket_rows`; with ``positions`` (phrase
        queries) the row group is read uncached, positions included."""
        addr = self._lex.chunk(term)
        if addr is None:
            return None
        bg = term_bucket(term) % NUM_BUCKET_GROUPS
        g = (
            RowGroup(self._segment_file(bg), addr[0], positions=True)
            if positions else self._bucket_rows((bg, addr[0]))
        )
        return g, addr[1]

    def _changed(self):
        raise RuntimeError(
            f"{self.index_dir}: index changed under this reader (its lexicon "
            "no longer matches the segment files); reopen it, or rerun the "
            "build if one was interrupted"
        )

    def _load_chunks(self, term: str) -> _Run:
        """A term's postings as ONE docno-sorted `_Run` (its one stored
        chunk), cached per term.  A term with no chunk in this index loads
        as an empty run.

        Impacts are computed here from the stored tfs and each doc's length
        normalization (`_doc_norm`, gathered by docno) with the oracle's
        exact arithmetic (dtype, op order, constants), so scores stay
        float64-bitwise-identical; the block-max metadata is derived from
        them over the run (codec.block_metadata).  Neither is stored
        (schema.py SEGMENT_SCHEMA)."""
        run = self._chunk_cache.get(term)
        if run is not None:
            return run
        hit = self._chunk_row(term)
        run = _EMPTY_RUN
        if hit is not None:
            self._load_docmeta()
            ids, tfs = hit[0].raw(hit[1])
            ids = ids.view(np.int64)
            tfs = tfs.astype(np.float64)
            # tf * (k1 + 1) / (tf + norm): the oracle's expression, its
            # doc-only term gathered from _doc_norm
            den = self._doc_norm[ids]
            den += tfs
            impacts = tfs * (float(self.stats["k1"]) + 1.0)
            impacts /= den
            bmax = codec.block_metadata(ids, impacts)
            run = _Run(ids, impacts, bmax, float(bmax.max(initial=0.0)))
        self._chunk_cache[term] = run
        return run

    def _load_docmeta(self) -> None:
        """Load the compact per-doc metadata table emitted by the build's
        postings phase (docmeta/: doc_id, warc_ts, lang, doclen — exactly one
        row per indexed doc, already loser-deduped).  Never re-reads doc text
        or posting rows (round 1 scanned extracted/ for filters and ALL of
        partials/ for the rerank doclen prior)."""
        if self._docmeta is not None:
            return
        t = pads.dataset(os.path.join(self.index_dir, "docmeta")).to_table(
            columns=["doc_id", "warc_ts", "lang", "doclen"]
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        ts = t["warc_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dls = t["doclen"].to_numpy(zero_copy_only=False).astype(np.int64)
        lang = t["lang"].to_pylist()
        langs = sorted(set(lang))
        lang_code = {l: i for i, l in enumerate(langs)}
        codes = np.fromiter((lang_code[l] for l in lang), dtype=np.int32, count=len(lang))
        order = np.argsort(ids, kind="stable")
        # keep-first per doc_id: an exact-duplicate input row split across
        # Ray blocks of one file leaves two docmeta rows (identical values);
        # postings are deduped at merge, so the query-side table must hold
        # exactly one row per doc or position maps drift
        sids = ids[order]
        if sids.size > 1:
            keep = np.ones(sids.size, dtype=bool)
            keep[1:] = sids[1:] != sids[:-1]
            if not keep.all():
                order = order[keep]
        self._docmeta_order = order
        self._docmeta = (ids[order], codes[order], ts[order], dls[order], langs)
        # each doc's BM25 length normalization, k1 * ((1 - b) + b * doclen /
        # avgdl), in the oracle's op order: the doc-only term of every impact
        k1 = float(self.stats["k1"])
        b = float(self.stats["b"])
        self._doc_norm = k1 * ((1.0 - b) + (b * dls[order].astype(np.float64)) / self.avgdl)
        # the deduped sorted order IS the dense-docno space the build's
        # segments encode (stats doc_range_bases) — a mismatch would mean
        # silently mis-keyed postings, so fail loudly instead
        if order.size != self._docno_count:
            raise ValueError(
                f"docmeta rows ({order.size}) != docno space "
                f"({self._docno_count}) — stats.json and docmeta/ disagree"
            )

    def _load_urls(self) -> pa.Array:
        """Docmeta urls aligned to the sorted docmeta order (lazy: the url
        column is only paid for by queries that actually filter on it)."""
        if self._urls is None:
            self._load_docmeta()
            t = pads.dataset(os.path.join(self.index_dir, "docmeta")).to_table(
                columns=["url"]
            )
            urls = t["url"].combine_chunks()
            self._urls = urls.take(pa.array(self._docmeta_order, pa.int64()))
        return self._urls

    def _tombstone_mask(self) -> np.ndarray | None:
        """Docmeta-aligned ALIVE mask from <index_dir>/tombstones.parquet
        (None when the index has no tombstones — the common case pays one
        os.path check).  Deleted docs (engine/build.py delete_docs) vanish
        from every query path immediately because this composes into the
        same mask as the metadata filters; global stats (n_docs/avgdl/df ->
        idf) stay as-built until the next build_index run over the dir
        compacts the tombstones out of the segments."""
        if self._tomb_loaded:
            return self._tomb_alive
        self._tomb_loaded = True
        path = os.path.join(self.index_dir, "tombstones.parquet")
        if os.path.exists(path):
            t = pa.parquet.read_table(path)
            dead = np.unique(
                t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            )
            if dead.size:
                self._load_docmeta()
                ids = self._docmeta[0]
                pos = np.minimum(np.searchsorted(dead, ids), dead.size - 1)
                alive = dead[pos] != ids
                if not alive.all():
                    self._tomb_alive = alive
        return self._tomb_alive

    def _filter_mask(
        self, lang_filter, ts_min, ts_max, url_contains=None, doc_ids_filter=None
    ) -> np.ndarray | None:
        """Compile the metadata predicate into a docmeta-aligned bool mask
        (SURVEY.md §2.8: the reference's lang/date/ILIKE/id-set filter
        families, streamlit_app.py:175-243).

        At sandbox scale doc metadata is a cached in-memory column; at 10^12
        docs this becomes a partitioned filter bitmap keyed by docID range —
        probing stays identical either way.  Without filters the result is
        the reader's cached tombstone mask itself: callers never modify it
        in place.
        """
        alive = self._tombstone_mask()
        ts_min, ts_max = ts_to_us(ts_min), ts_to_us(ts_max)
        if (
            lang_filter is None and ts_min is None and ts_max is None
            and url_contains is None and doc_ids_filter is None
        ):
            return alive
        self._load_docmeta()
        ids, lang_codes, ts, _dls, langs = self._docmeta
        mask = np.ones(ids.size, dtype=bool) if alive is None else alive.copy()
        if lang_filter is not None:
            want = langs.index(lang_filter) if lang_filter in langs else -2
            mask &= lang_codes == want
        if ts_min is not None:
            mask &= ts >= ts_min
        if ts_max is not None:
            mask &= ts <= ts_max
        if url_contains is not None:
            key = url_contains.lower()
            m = self._url_mask_cache.get(key)
            if m is None:
                m = pc.match_substring(
                    self._load_urls(), url_contains, ignore_case=True
                ).to_numpy(zero_copy_only=False)
                self._url_mask_cache[key] = m
            mask &= m
        if doc_ids_filter is not None:
            probe = np.unique(np.asarray(list(doc_ids_filter), dtype=np.uint64))
            if probe.size:
                pos = np.minimum(np.searchsorted(probe, ids), probe.size - 1)
                mask &= probe[pos] == ids
            else:
                mask &= False
        return mask

    # ------------------------------------------------------------------
    def search(
        self,
        query_text: str,
        k: int = 10,
        lang_filter: str | None = None,
        ts_min: int | None = None,
        ts_max: int | None = None,
        url_contains: str | None = None,
        doc_ids_filter=None,
        prior_weight: float = 0.0,
    ) -> list[tuple[int, float]]:
        """BM25 top-k -> [(doc_id, score)], best first, rank- and
        float64-identical to OracleIndex.search; `_dispatch` picks the
        scoring path (see the module docstring).  ``k`` must be >= 0.

        Filters (the reference's families, streamlit_app.py:175-243):
        ``lang_filter`` exact lang; ``ts_min``/``ts_max`` crawl-time window
        (int64 us or datetime); ``url_contains`` case-insensitive substring
        (ILIKE '%x%'); ``doc_ids_filter`` an id allow-set (semi-join).
        """
        _check_k(k)
        terms = sorted(set(tokenize(query_text, self.analyzer)))
        runs = self._gather_chunks(terms)
        pool = max(50, 10 * k) if prior_weight > 0.0 else k
        mask = self._filter_mask(
            lang_filter, ts_min, ts_max, url_contains, doc_ids_filter
        )
        top = self._dispatch(runs, pool, mask)
        if prior_weight > 0.0:
            top = self._rerank(top, prior_weight)
        return self._docnos_to_ids(top[:k])

    def _docnos_to_ids(
        self, pool: list[tuple[int, float]]
    ) -> list[tuple[int, float]]:
        """Internal (docno, score) -> public (doc_id, score): one gather off
        the cached doc_id-sorted docmeta column, paid only for the <=k rows
        that leave the reader.  (At 10^12 docs per shard this becomes a
        range-pruned docmeta read via stats' doc_range_bases — docno-to-range
        is one binary search — but the reader already caches docmeta for
        filters, so the in-memory column is the serving-scale path.)"""
        if not pool:
            return pool
        self._load_docmeta()
        ids = self._docmeta[0]
        return [(int(ids[d]), s) for d, s in pool]

    def _gather_chunks(self, terms) -> list[tuple[str, float, _Run]]:
        """(term, idf, cached run) for each term of a sorted unique term
        list that has postings here."""
        runs: list[tuple[str, float, _Run]] = []
        for t in terms:
            df = self._df.get(t, 0)
            if df <= 0:
                continue
            run = self._load_chunks(t)
            if run.docnos.size:
                runs.append((t, self._idf(df), run))
        return runs

    def _plan(self, runs, pool: int) -> str:
        """The path `_dispatch` takes for these runs (module `_plan`)."""
        return _plan(self._docno_count, [r.docnos.size for _t, _w, r in runs], pool)

    def _dispatch(self, runs, pool: int, mask) -> list[tuple[int, float]]:
        """Score on the exact path the cost model (`_plan`) estimates
        cheapest; shared by search, search_boolean and the serving pools.
        Every path returns the same ranked list of (docno, score); callers
        map docnos to doc_ids at the API boundary.  The (score DESC, docno
        ASC) tie-break equals the oracle's (score DESC, doc_id ASC): docnos
        are doc_id ranks, hence monotone.

        The estimate reads the dense docno-space size (`_docno_count`), not
        `n_docs`: that is what the dense arrays span, and a doc shard's
        `n_docs` is the corpus-global count."""
        if not runs or pool == 0:
            return []
        path = self._plan(runs, pool)
        if path in ("single_term", "flat"):
            return self._single_term(runs[0], pool, mask, prune=path == "single_term")
        return getattr(self, "_" + path)(runs, pool, mask)

    def search_boolean(
        self,
        query_text: str,
        k: int = 10,
        lang_filter: str | None = None,
        ts_min: int | None = None,
        ts_max: int | None = None,
        url_contains: str | None = None,
        doc_ids_filter=None,
    ) -> list[tuple[int, float]]:
        """Boolean-operator BM25 top-k (see `parse_query` for the syntax);
        ``k`` must be >= 0.

        Execution shape:
        - must / must-not terms compile into the SAME docmeta-aligned bool
          mask the metadata filters use (presence scatter off the cached
          posting->position maps) — candidate generation then prunes them
          for free in every scoring path.
          At 10^12 docs the mask becomes the partitioned filter bitmap of
          `_filter_mask`; per-shard n_docs stays bounded under doc-sharded
          serving (engine/serve.py), so the dense bool array is per-shard.
        - phrases run match-then-verify: rank by BM25 over the phrase's
          terms (adjacency is impossible without all terms present — the
          presence mask already enforces that), then verify adjacency
          against the doc store for the top pool only, growing the pool
          geometrically until k survivors or candidates are exhausted.
          Each round is one `fetch_docs` of the pool (doc-store row groups
          decode once per reader and stay in a byte-bounded LRU) and one
          `_phrases_ok_batch` over its texts: a regex scan per phrase,
          O(pool * doclen) in C++, never touching docs outside the ranked
          pool.  On an index built with ``store_positions=True``
          verification instead intersects the per-posting position lists
          (O(pool * tf) decode + merge, no doc-store read) — the scale
          path for phrase-heavy workloads.
        """
        _check_k(k)
        bq = parse_query(query_text, self.analyzer)
        required = bq.required_terms
        if any(self._df.get(t, 0) <= 0 for t in required):
            return []
        # wildcard expansion (deterministic df-capped; see _expand_prefix)
        exp_should: list[str] = []
        must_groups: list[list[str]] = []
        exp_not: list[str] = []
        for p in bq.should_prefix:
            exp_should.extend(self._expand_prefix(p))
        for p in bq.must_prefix:
            g = self._expand_prefix(p)
            if not g:
                return []  # required group with zero expansions
            must_groups.append(g)
        for p in bq.must_not_prefix:
            exp_not.extend(self._expand_prefix(p))
        scoring = sorted(
            set(bq.scoring_terms)
            | set(exp_should)
            | {t for g in must_groups for t in g}
        )
        if not scoring:
            return []  # pure-negative query: nothing to rank
        mask = self._filter_mask(
            lang_filter, ts_min, ts_max, url_contains, doc_ids_filter
        )
        excluded = sorted(set(bq.must_not) | set(exp_not))
        if required or excluded or must_groups:
            n = self._docno_count
            # refined in place below: a copy, never the reader's cached
            # tombstone mask
            mask = np.ones(n, dtype=bool) if mask is None else mask.copy()
            # each required term, and each must-prefix group: >=1 member
            # present (union, then AND)
            for g in [[t] for t in required] + must_groups:
                pres = np.zeros(n, dtype=bool)
                for t in g:
                    pres[self._load_chunks(t).docnos] = True
                mask &= pres
            for t in excluded:
                mask[self._load_chunks(t).docnos] = False
            if not mask.any():
                return []
        runs = self._gather_chunks(scoring)
        if not runs:
            return []
        if not bq.phrases and not bq.not_phrases:
            return self._docnos_to_ids(
                self._dispatch(runs, k, mask)[:k]
            )
        verified: dict[int, bool] = {}  # keyed by docno

        def _verify_batch(docs: list[int]) -> None:
            unseen = [d for d in docs if d not in verified]
            if not unseen:
                return
            if self.has_positions:
                # positional index: adjacency straight off the posting
                # chunks — no doc-store read, no re-tokenize, vectorized
                # over the whole batch (position chunks are docno-keyed,
                # same id space as the candidates)
                ok = self._phrases_ok_positional_many(unseen, bq)
                for d, o in zip(unseen, ok):
                    verified[d] = bool(o)
            else:
                # the doc store is doc_id-keyed: map the batch's docnos out
                self._load_docmeta()
                meta_ids = self._docmeta[0]
                by_docid = {int(meta_ids[d]): d for d in unseen}
                tbl = self.fetch_docs(list(by_docid), columns=["doc_id", "text"])
                ok = self._phrases_ok_batch(tbl["text"], bq)
                for did, o in zip(tbl["doc_id"].to_pylist(), ok):
                    verified[by_docid[int(did)]] = bool(o)
                for d in unseen:  # doc-store miss counts as failed verify
                    verified.setdefault(d, False)

        # candidate count is bounded by the required-term presence masks
        # (every phrase term is required).  On a positional index a failed
        # first round jumps straight to that bound and verifies lazily in
        # rank order — per-doc verification is a cheap position-list merge,
        # so the head of the ranked list usually settles k without touching
        # the tail.  On a text-verify index a round's pool spreads over
        # most doc-store row groups, so each round verifies in ONE batched
        # fetch (decoded row groups are cached per reader, and the batch is
        # checked by one regex pass per phrase) and the pool grows
        # geometrically to keep the number of rounds logarithmic.
        bound = int(mask.sum()) if (required or must_groups) else None
        pool = max(50, 4 * k)
        while True:
            top = self._dispatch(runs, pool, mask)
            out: list[tuple[int, float]] = []
            if self.has_positions:
                # batched-vectorized, GEOMETRIC steps: each _verify_batch
                # pays a fixed per-phrase-term cost (searchsorted over the
                # term's whole chunk ids), so fixed-size bites made a
                # sparse-match phrase scan the index bound/step times
                # (measured 26 passes -> 41-53 ms on 3-term head-term
                # phrases, BENCH_r04's bool_query_pos_p95).  Growing the
                # bite 4x keeps the early exit for head-of-list matches
                # while bounding sparse matches at O(log) passes.
                step = max(256, 4 * k)
                i = 0
                while i < len(top) and len(out) < k:
                    chunk = top[i : i + step]
                    _verify_batch([d for d, _ in chunk])
                    out.extend((d, s) for d, s in chunk if verified.get(d))
                    i += step
                    step *= 4
            else:
                _verify_batch([d for d, _ in top])
                out = [(d, s) for d, s in top if verified.get(d)]
            if len(out) >= k or len(top) < pool or pool == bound:
                return self._docnos_to_ids(out[:k])
            if self.has_positions and bound is not None:
                pool = bound
            else:
                pool = min(pool * 4, bound) if bound is not None else pool * 4

    def _phrases_ok(self, text: str, bq: BoolQuery) -> bool:
        toks = tokenize(text, self.analyzer)
        slops = bq.phrase_slops or (0,) * len(bq.phrases)
        nslops = bq.not_phrase_slops or (0,) * len(bq.not_phrases)
        return all(
            contains_sequence(toks, p, s) for p, s in zip(bq.phrases, slops)
        ) and not any(
            contains_sequence(toks, p, s)
            for p, s in zip(bq.not_phrases, nslops)
        )

    def _phrases_ok_batch(self, texts, bq: BoolQuery) -> np.ndarray:
        """`_phrases_ok` over a string array (null = empty text), as a bool
        array.  Under an analyzer that keeps every token, a phrase
        (t1, ..., tm) with slop 0 is in a text's token stream iff the
        lowered text matches
        ``(?:^|[^a-z0-9])t1[^a-z0-9]+t2...tm(?:[^a-z0-9]|$)`` (tokens are
        the maximal [a-z0-9] runs between separators), so the batch takes
        one `utf8_lower` and one RE2 scan per phrase.  Stopwords and
        `min_len` define adjacency on the filtered stream, and slop allows
        gaps: those take the token path."""
        cfg = self.analyzer
        if (
            cfg.stopwords or cfg.min_len > 1
            or any(bq.phrase_slops) or any(bq.not_phrase_slops)
        ):
            return np.array(
                [self._phrases_ok(t or "", bq) for t in texts.to_pylist()],
                dtype=bool,
            )
        lower = pc.utf8_lower(texts)

        def found(phrase: tuple[str, ...]) -> np.ndarray:
            pattern = (
                "(?:^|[^a-z0-9])"
                + "[^a-z0-9]+".join(re.escape(t) for t in phrase)
                + "(?:[^a-z0-9]|$)"
            )
            hit = pc.match_substring_regex(lower, pattern=pattern)
            return pc.fill_null(hit, False).to_numpy(zero_copy_only=False)

        ok = np.ones(len(texts), dtype=bool)
        for p in bq.phrases:
            ok &= found(p)
        for p in bq.not_phrases:
            ok &= ~found(p)
        return ok

    # ---- positional phrase evaluation (store_positions=True indexes) -----
    def _token_positions(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(docnos, posting offsets, flat positions) of a term's one
        docno-sorted chunk, empty when the index lacks it.  Read from the
        segment files' positions column on demand (scoring reads never load
        it), LRU-cached per term."""
        data = self._tpos_cache.get(term)
        if data is None:
            # a bucket group with no terms has no segment file: open it
            # only for a term the lexicon holds
            hit = self._chunk_row(term, positions=True)
            data = _NO_POSITIONS
            if hit is not None:
                g, row = hit
                ids, lens = g.raw(row)
                offs = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
                data = (ids, offs, g.positions(row).astype(np.int32))
            self._tpos_cache[term] = data
        return data

    def _positions_of(self, term: str, doc: int) -> np.ndarray:
        """Ascending analyzed-stream positions of `term` in `doc` (empty if
        the doc lacks the term).  `doc` is a public doc_id; position chunks
        are docno-keyed, so map through the docmeta order first."""
        self._load_docmeta()
        meta_ids = self._docmeta[0]
        p = int(np.searchsorted(meta_ids, np.uint64(doc)))
        if p >= meta_ids.size or meta_ids[p] != np.uint64(doc):
            return np.empty(0, np.int32)
        d64 = np.uint64(p)
        ids, offs, flat = self._token_positions(term)
        i = int(np.searchsorted(ids, d64))
        if i < ids.size and ids[i] == d64:
            return flat[offs[i] : offs[i + 1]]
        return np.empty(0, np.int32)

    def _term_positions_for_docs(
        self, term: str, docs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather `term`'s positions for every doc in `docs` at once ->
        (doc-index-in-docs repeated per position, flat positions)."""
        ids, offs, flat = self._token_positions(term)
        if ids.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        idx_c = np.minimum(np.searchsorted(ids, docs), ids.size - 1)
        found = ids[idx_c] == docs
        fidx = idx_c[found]
        starts = offs[fidx]
        ls = offs[fidx + 1] - starts
        cum = np.concatenate(([0], np.cumsum(ls)))[:-1]
        gather = (
            np.arange(int(ls.sum()), dtype=np.int64)
            - np.repeat(cum, ls)
            + np.repeat(starts, ls)
        )
        drep = np.repeat(np.flatnonzero(found), ls)
        return drep, flat[gather].astype(np.int64)

    def _phrase_present_many(
        self, docs: np.ndarray, phrase: tuple[str, ...], slop: int = 0
    ) -> np.ndarray:
        """Vectorized in-order proximity over a candidate batch: survivors
        after step i are (doc, position) keys ending a matched prefix; term
        i+1's positions pass when a survivor sits 1..1+slop before them in
        the same doc (two sorted-key range probes — no per-doc Python
        loop).  slop=0 is exact phrase adjacency."""
        SHIFT = np.int64(32)
        drep, vals = self._term_positions_for_docs(phrase[0], docs)
        keys = np.sort((drep << SHIFT) | vals)
        for t in phrase[1:]:
            if keys.size == 0:
                break
            drep, vals = self._term_positions_for_docs(t, docs)
            usable = vals >= 1  # position 0 cannot continue a chain
            drep, vals = drep[usable], vals[usable]
            lo_key = (drep << SHIFT) | np.maximum(vals - 1 - slop, 0)
            hi_key = (drep << SHIFT) | (vals - 1)
            lo = np.searchsorted(keys, lo_key, side="left")
            hi = np.searchsorted(keys, hi_key, side="right")
            okc = hi > lo
            keys = np.sort((drep[okc] << SHIFT) | vals[okc])
        res = np.zeros(docs.size, dtype=bool)
        if keys.size:
            res[np.unique(keys >> SHIFT).astype(np.int64)] = True
        return res

    def _phrases_ok_positional_many(
        self, docs: list[int], bq: BoolQuery
    ) -> np.ndarray:
        arr = np.asarray(docs, dtype=np.uint64)
        ok = np.ones(arr.size, dtype=bool)
        slops = bq.phrase_slops or (0,) * len(bq.phrases)
        nslops = bq.not_phrase_slops or (0,) * len(bq.not_phrases)
        for p, s in zip(bq.phrases, slops):
            if not ok.any():
                return ok
            ok &= self._phrase_present_many(arr, p, s)
        for p, s in zip(bq.not_phrases, nslops):
            if not ok.any():
                return ok
            ok &= ~self._phrase_present_many(arr, p, s)
        return ok

    def _single_term(
        self, tr, k: int, mask: np.ndarray | None, prune: bool = True
    ) -> list[tuple[int, float]]:
        """Exact top-k for a one-term query via block-max pruning, or, with
        ``prune=False``, one masked top-k over the whole run (cheaper on a
        run too short for its blocks to be worth ordering).

        Blocks (the per-128-posting impact maxima, idf excluded) are visited in
        descending max-impact order; the scan stops once k mask-surviving
        postings are in hand whose k-th best impact is >= the next unvisited
        block's max — every unvisited posting then scores STRICTLY below the
        k-th result, so it can neither displace nor tie (ties break on
        doc_id, but require equal scores).  On Zipf-head terms this touches
        O(k) blocks instead of the full O(df) posting list.  Scores are the
        bitwise-identical idf * impact float64 product of the exhaustive
        paths."""
        _t, w, run = tr
        ids, impacts, bms = run.docnos, run.impacts, run.block_max
        if not prune:
            sc = w * impacts
            if mask is not None:
                keep = mask[ids]
                ids, sc = ids[keep], sc[keep]
            return _top_k(ids, sc, k) if ids.size else []
        order = np.argsort(-bms, kind="stable")
        lanes = np.arange(BLOCK_SIZE, dtype=np.int64)
        g_ids: list[np.ndarray] = []
        g_sc: list[np.ndarray] = []
        n_got = 0
        i = 0
        slab = max(1, (k + BLOCK_SIZE - 1) // BLOCK_SIZE + 1)
        while i < order.size:
            # the postings of the next `slab` blocks (the last block of the
            # run may be short)
            p = (order[i : i + slab, None] * BLOCK_SIZE + lanes).ravel()
            p = p[p < ids.size]
            bi, bsc = ids[p], w * impacts[p]
            if mask is not None:
                keep = mask[bi]
                bi, bsc = bi[keep], bsc[keep]
            g_ids.append(bi)
            g_sc.append(bsc)
            n_got += bi.size
            i += slab
            slab *= 2  # geometric: O(log) python rounds even on full scans
            if n_got >= k and i < order.size:
                sc_all = np.concatenate(g_sc)
                kth = -np.partition(-sc_all, k - 1)[k - 1]
                # strict: an unvisited posting with score == kth could still
                # win the (score DESC, doc_id ASC) tie-break
                if kth > w * float(bms[order[i]]):
                    break
        if n_got == 0:
            return []
        return _top_k(np.concatenate(g_ids), np.concatenate(g_sc), k)

    def _sparse(
        self, runs, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Sparse exact scoring: gather the matching postings' docnos,
        rank them against the (unique) candidate set, then scatter-add
        each term's idf*impact contributions IN ASCENDING TERM ORDER.  A
        doc's contributions then add in the identical left-to-right
        sequence the dense path applies (term by term, starting from
        +0.0), so scores are bitwise equal — a reduceat over per-doc runs
        is NOT (ufunc.reduce associates pairwise: c1+(c2+c3) vs
        ((0+c1)+c2)+c3 differs by an ULP)."""
        pos_l, sc_l = [], []
        for _t, w, run in runs:  # runs is term-sorted
            pos, sc = run.docnos, w * run.impacts
            if mask is not None:
                keep = mask[pos]
                pos, sc = pos[keep], sc[keep]
            pos_l.append(pos)
            sc_l.append(sc)
        pos = np.concatenate(pos_l)
        if pos.size == 0:
            return []
        upos, inv = np.unique(pos, return_inverse=True)
        scores = np.zeros(upos.size, dtype=np.float64)
        off = 0
        for sc_part in sc_l:  # term-ascending: oracle FP addition order
            # docnos are unique within a run, so the scatter-add is a
            # plain assignment-accumulate per doc
            scores[inv[off : off + sc_part.size]] += sc_part
            off += sc_part.size
        return _top_k(upos, scores, k)

    def _maxscore(
        self, runs, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Vectorized MaxScore (Turtle & Flood 1995 term-at-a-time pruning,
        re-expressed as numpy set algebra) — exact, oracle-identical.

        1. theta0: a PROVED lower bound on the final k-th best score — the
           k-th largest single-term contribution (idf * impact, mask
           applied) of any query term.  >= k docs carry a full score at or
           above it, so no doc scoring strictly below theta0 can reach the
           top k even on ties.
        2. Essential terms: sort terms by ascending score upper bound
           (idf * the run's max impact); the longest prefix whose
           cumulative bound stays strictly below theta0 is non-essential —
           a doc matching ONLY those terms scores < theta0.  On web corpora
           the Zipf-head terms (df ~ n_docs, tiny idf) land in that prefix,
           so candidate generation skips their million-entry posting lists.
        3. Candidates: union of the essential terms' postings (masked) —
           or, when the cost model (`_cost`) puts that union above the
           dense scan, `_vectorized` instead.
        4. Exact scoring: every term's contributions are gathered onto the
           candidate array, accumulating in ascending lexicographic term
           order starting from +0.0 — the identical FP addition sequence as
           the dense path / oracle.
        """
        ubs = np.array([w * run.max_impact for _t, w, run in runs])
        sizes = np.array([run.docnos.size for _t, _w, run in runs])
        # --- theta0 (ub-descending; a term whose ub <= theta cannot raise it)
        theta = -np.inf
        for i in np.argsort(-ubs, kind="stable"):
            if ubs[i] <= theta:
                break
            _t, w, run = runs[i]
            sc = w * run.impacts
            if mask is not None:
                sc = sc[mask[run.docnos]]
            if sc.size >= k:
                theta = max(theta, float(-np.partition(-sc, k - 1)[k - 1]))
        # --- essential set
        asc = np.argsort(ubs, kind="stable")
        csum = np.cumsum(ubs[asc])
        n_noness = int(np.searchsorted(csum, theta, side="left"))
        essential = asc[n_noness:]
        # the dense scan beats the candidate union's sort and random probes
        # once the essential postings approach the docno space
        nd = self._docno_count
        t, p, e = len(runs), int(sizes.sum()), int(sizes[essential].sum())
        if _cost("maxscore", nd, t, p, k, e) > _cost("vectorized", nd, t, p, k, e):
            return self._vectorized(runs, k, mask)
        # --- candidate union (essential postings only, masked before the
        # sort, so a selective filter shrinks it)
        ess = [runs[i][2].docnos for i in essential]
        if mask is not None:
            ess = [d[mask[d]] for d in ess]
        cand = np.unique(np.concatenate(ess))
        if cand.size == 0:
            return []
        # --- exact scores over candidates, oracle FP order.  Candidate
        # membership/rank are O(1) probes into per-reader n_docs-sized
        # buffers (1 byte + 4 bytes per doc, cache-resident at serving
        # scale, wiped in O(|candidates|) after the query) — measurably
        # ~4x faster than per-chunk binary search at 1.5M docs.
        if self._cand_mask_buf is None or self._cand_mask_buf.size != nd:
            self._cand_mask_buf = np.zeros(nd, dtype=bool)
            self._cand_rank_buf = np.empty(nd, dtype=np.int32)
        cmask, crank = self._cand_mask_buf, self._cand_rank_buf
        cmask[cand] = True
        crank[cand] = np.arange(cand.size, dtype=np.int32)
        scores = np.zeros(cand.size, dtype=np.float64)
        try:
            for _t, w, run in runs:  # runs is term-sorted
                sel = cmask[run.docnos]
                scores[crank[run.docnos[sel]]] += w * run.impacts[sel]
        finally:
            cmask[cand] = False
        return _top_k(cand, scores, k)

    def _vectorized(
        self, runs, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Exhaustive vectorized scoring, oracle-identical float64 results.

        Scores accumulate into a dense array indexed by docno (each doc's
        position in the sorted global doc table).  Terms are accumulated in
        ascending lexicographic order and each doc appears once per term's
        run, so every doc's score is the same FP addition sequence the
        oracle performs."""
        scores = np.zeros(self._docno_count, dtype=np.float64)
        touched = np.zeros(self._docno_count, dtype=bool)
        for _t, w, run in runs:  # runs is term-sorted
            scores[run.docnos] += w * run.impacts  # unique docnos within a run
            touched[run.docnos] = True
        if mask is not None:
            touched &= mask
        cand = np.nonzero(touched)[0]
        if cand.size == 0:
            return []
        return _top_k(cand, scores[cand], k)

    def _rerank(self, pool: list[tuple[int, float]], prior_weight: float):
        """Two-stage rerank (reference: streamlit_app.py:317-364 analog):
        score + prior_weight * ln(1 + doclen).  The doclen prior comes from
        the compact docmeta table (round 1 re-read doc_id/doclen from EVERY
        partials row — ~148M rows at 1.5M docs — onto one machine)."""
        if not pool:
            return pool
        self._load_docmeta()
        # pool entries are docnos = docmeta positions: one gather, one log1p
        # (bitwise equal to the oracle's per-doc scalar np.log1p)
        docnos = np.fromiter((d for d, _ in pool), np.int64, len(pool))
        prior = prior_weight * np.log1p(self._docmeta[3][docnos])
        rescored = [(d, s + float(p)) for (d, s), p in zip(pool, prior)]
        rescored.sort(key=lambda kv: (-kv[1], kv[0]))
        return rescored

    # ------------------------------------------------------------------
    def _docstore_rg_index(self):
        """(keys, mins, maxs, sizes): every doc-store row group as a (path,
        row group) key with its doc_id [min, max] from the footer
        statistics and its decoded size, built once per reader.  Each file
        is opened here once and its handle kept for every later read, so a
        footer is parsed once per reader.  fetch_docs prunes with these
        intervals directly because the dataset scanner evaluates an isin
        filter only AFTER decoding each row group, which makes every point
        lookup a full doc-store scan."""
        if self._ds_rg is None:
            keys: list[tuple[str, int]] = []
            mins: list[int] = []
            maxs: list[int] = []
            sizes: list[int] = []
            for path in self._extracted.files:
                pf = self._ds_files[path] = pa.parquet.ParquetFile(path)
                col = pf.schema_arrow.get_field_index("doc_id")
                for i in range(pf.num_row_groups):
                    md = pf.metadata.row_group(i)
                    st = md.column(col).statistics
                    if st is not None and st.has_min_max:
                        mins.append(int(st.min))
                        maxs.append(int(st.max))
                    else:  # no stats: never prune this row group
                        mins.append(0)
                        maxs.append(2**64 - 1)
                    keys.append((path, i))
                    sizes.append(md.total_byte_size)
            self._ds_rg = (
                keys,
                np.asarray(mins, dtype=np.uint64),
                np.asarray(maxs, dtype=np.uint64),
                np.asarray(sizes, dtype=np.int64),
            )
        return self._ds_rg

    def _docstore_rows(self, rgi, columns: list[str]) -> list[pa.Table]:
        """The doc-store read entry point: `columns` of the row groups at
        positions `rgi` of `_docstore_rg_index`, in that order.  A row
        group decodes whole (all five columns) once and stays in a
        byte-bounded LRU (DOCSTORE_CACHE_BYTES): a serving reader's verify
        rounds and display fetches revisit the same row groups across
        queries.  Uncached row groups of several files are read on
        `_DOCSTORE_THREADS`, one task per file (a ParquetFile is never
        shared between threads; only this thread touches the cache).  When
        the uncached row groups alone would overflow the cache the read is
        a scan: it decodes just `columns` of every row group, past the
        cache, and leaves the cached ones in place.  Only a doc store larger
        than the cache takes it (every doc-store part spans the whole doc_id
        range, so each probe lands in a row group of every part), and there
        it keeps the uncached read's speed without raising the hit rate."""
        keys, _, _, sizes = self._docstore_rg_index()
        out = {keys[i]: self._ds_rows[keys[i]] for i in rgi if keys[i] in self._ds_rows}
        missed = [i for i in rgi if keys[i] not in out]
        scan = int(sizes[missed].sum()) > DOCSTORE_CACHE_BYTES
        by_file: dict[str, list[int]] = {}
        for i in rgi if scan else missed:
            by_file.setdefault(keys[i][0], []).append(keys[i][1])

        def read(item: tuple[str, list[int]]) -> list[pa.Table]:
            path, rgs = item
            pf = self._ds_files[path]
            if scan:
                return [pf.read_row_groups(rgs, columns=columns, use_threads=False)]
            return [pf.read_row_group(rg, use_threads=False) for rg in rgs]

        if len(by_file) > 1:
            parts = list(_DOCSTORE_THREADS.map(read, by_file.items()))
        else:
            parts = [read(item) for item in by_file.items()]
        if scan:
            return [t for tabs in parts for t in tabs]
        for (path, rgs), tabs in zip(by_file.items(), parts):
            for rg, t in zip(rgs, tabs):
                out[(path, rg)] = self._ds_rows[(path, rg)] = t
        return [out[keys[i]].select(columns) for i in rgi]

    def fetch_docs(self, doc_ids: list[int], columns=None) -> pa.Table:
        """Doc-store lookup after top-k (SURVEY.md §2.4 J2 analog):
        broadcast-semi-join of the tiny k-set against the extracted table,
        reading (through `_docstore_rows`) only the row groups whose doc_id
        range can hold a probe (the build sorts each doc-store part by
        doc_id into small row groups precisely so these intervals stay
        narrow).  Rows come in doc-store order; duplicate (loser) url rows
        sharing a doc_id keep the max-warc_ts row, and the result is then
        doc_id sorted."""
        cols = list(columns or EXTRACTED_SCHEMA.names)
        probes = np.unique(np.asarray(doc_ids, dtype=np.uint64))
        if probes.size == 0:
            return self._extracted.schema.empty_table().select(cols)
        _, mins, maxs, _ = self._docstore_rg_index()
        pos = np.searchsorted(probes, mins)
        hit = (pos < probes.size) & (probes[np.minimum(pos, probes.size - 1)] <= maxs)
        if not hit.any():
            return self._extracted.schema.empty_table().select(cols)
        read_cols = list(dict.fromkeys(["doc_id", "warc_ts", *cols]))
        tbl = pa.concat_tables(self._docstore_rows(np.nonzero(hit)[0], read_cols))
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        p = np.searchsorted(probes, ids)
        keep = probes[np.minimum(p, probes.size - 1)] == ids
        tbl, ids = tbl.filter(pa.array(keep)), ids[keep]
        # duplicate (loser) url rows share doc_id: keep max warc_ts row
        if np.unique(ids).size < ids.size:
            tbl = tbl.sort_by([("doc_id", "ascending"), ("warc_ts", "ascending")])
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            keep = np.ones(len(ids), dtype=bool)
            keep[:-1] = ids[:-1] != ids[1:]
            tbl = tbl.filter(pa.array(keep))
        return tbl.select(cols)

    def topk_table(self, queries: pa.Table) -> pa.Table:
        """Run the fixed query set -> expected_topk-shaped table
        (query_id, rank, url, doc_id, score)."""
        qid_out, rank_out, did_out, score_out = [], [], [], []
        for q in queries.to_pylist():
            res = self.search(
                q["query_text"],
                k=q["k"],
                lang_filter=q.get("lang_filter"),
                ts_min=ts_to_us(q.get("ts_min")),
                ts_max=ts_to_us(q.get("ts_max")),
                url_contains=q.get("url_contains"),
                doc_ids_filter=q.get("doc_ids_filter"),
                prior_weight=q.get("prior_weight") or 0.0,
            )
            for r, (did, score) in enumerate(res, start=1):
                qid_out.append(q["query_id"])
                rank_out.append(r)
                did_out.append(did)
                score_out.append(score)
        url_tbl = self.fetch_docs(sorted(set(did_out)), columns=["doc_id", "url", "warc_ts"])
        url_of = dict(zip(url_tbl["doc_id"].to_pylist(), url_tbl["url"].to_pylist()))
        return pa.table(
            {
                "query_id": pa.array(qid_out, pa.int64()),
                "rank": pa.array(rank_out, pa.int32()),
                "url": pa.array([url_of.get(d) for d in did_out], pa.string()),
                "doc_id": pa.array(did_out, pa.uint64()),
                "score": pa.array(score_out, pa.float64()),
            }
        )
