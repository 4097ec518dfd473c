"""Query engine: Block-Max WAND BM25 top-k over the compressed segments.

The engine analog of the reference's query path
(/root/reference/streamlit_app.py:165-399): encode query -> compile metadata
filters -> ranked top-k with bounded candidate pool -> optional two-stage
rerank (:317-364) -> doc-store join for display fields.

Determinism contract (must match engine/oracle.py exactly):
- idf = np.log((N - df + 0.5) / (df + 0.5) + 1.0)
- score(doc) = sum over matching terms, in ascending lexicographic term
  order, of idf * impact (impacts precomputed float64 at build)
- tie-break (score DESC, doc_id ASC)

Block-Max WAND (Ding & Suel, SIGIR 2011 "Faster top-k document retrieval
using block-max indexes"): candidate pivoting on per-term score upper bounds,
refined by per-block maxima, with a bounded min-heap.  Salted chunks of a hot
term are treated as independent cursors — each doc lives in exactly one chunk
per term, so bounds and scores stay exact.

`IndexReader` is the stateful query-side cache (SURVEY.md §2.3 T6): stats,
df table and doc metadata load once and are reused across queries — in a
serving deployment this class is the per-actor state of a query actor pool.
"""

from __future__ import annotations

import heapq
import json
import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet  # noqa: F401  (enables pa.parquet.*)

from . import codec
from .analyze import DEFAULT_ANALYZER, AnalyzerConfig, tokenize
from .schema import FORMAT_VERSION, NUM_BUCKET_GROUPS, term_bucket, ts_to_us
from .segments import Lexicon, RowGroup, SortedTermMap


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


class _LRU(dict):
    """Minimal LRU map: a serving actor holds one IndexReader for its whole
    lifetime, so per-term/bucket caches must be bounded or a diverse query
    stream grows them without limit (ADVICE round 1)."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

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
        super().__setitem__(key, val)
        while len(self) > self.cap:
            super().pop(next(iter(self)))


class _Cursor:
    __slots__ = ("term", "idf", "ids", "impacts", "block_last", "block_max", "ptr", "ub")

    def __init__(self, term, idf, ids, impacts, block_last, block_max):
        self.term = term
        self.idf = idf
        self.ids = ids
        self.impacts = impacts
        self.block_last = block_last
        self.block_max = block_max
        self.ptr = 0
        self.ub = idf * float(block_max.max()) if block_max.size else 0.0

    def doc(self) -> int:
        return int(self.ids[self.ptr])

    def exhausted(self) -> bool:
        return self.ptr >= self.ids.size

    def seek(self, target: int) -> None:
        """Advance to first posting with doc_id >= target."""
        self.ptr += int(
            np.searchsorted(self.ids[self.ptr :], np.uint64(target), side="left")
        )

    def block_ub(self, doc: int) -> float:
        """idf * max impact of the block containing `doc` (exact upper bound)."""
        b = int(np.searchsorted(self.block_last, np.uint64(doc), side="left"))
        if b >= self.block_max.size:
            return 0.0
        return self.idf * float(self.block_max[b])

    def block_end(self, doc: int) -> int:
        b = int(np.searchsorted(self.block_last, np.uint64(doc), side="left"))
        if b >= self.block_last.size:
            return 1 << 62
        return int(self.block_last[b])


class IndexReader:
    """Query-side state of one index directory.

    On-disk layout read here (FORMAT_VERSION 11): ``stats.json``;
    ``dfs/bg-XXX.parquet``, the term lexicon of each of the
    NUM_BUCKET_GROUPS bucket groups (term, df and each chunk's (row group,
    row) address); ``segments/bg-XXX.parquet``, that group's posting
    chunks (docnos and tfs as delta-encoded Parquet list columns);
    ``docmeta/`` and ``extracted/`` (doc metadata, doclens included, and
    the doc store).  The lexicon loads term-sorted at open; a term's postings
    are then one binary search plus one row-group read per chunk, from a
    ParquetFile whose footer is read once per reader.
    """

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            self.stats = json.load(f)
        if self.stats.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"{index_dir}: stats.json predates FORMAT_VERSION "
                f"{FORMAT_VERSION} (native Parquet posting columns); "
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
        lex_tbl = pads.dataset(os.path.join(index_dir, "dfs")).to_table()
        self._lex = Lexicon.from_arrow(lex_tbl.sort_by("term"))
        self._df: SortedTermMap = self._lex
        self._seg_files: dict[int, pa.parquet.ParquetFile] = {}
        self._extracted = pads.dataset(os.path.join(index_dir, "extracted"))
        self._docmeta = None  # (sorted doc_ids, lang codes, ts, doclens, langs)
        self._docmeta_order = None
        self._urls = None  # docmeta urls, loaded lazily for url filters
        self._chunk_cache: _LRU = _LRU(cap=4096)  # term -> decoded chunks
        # (bucket group, row group) -> RowGroup
        self._bucket_tables: _LRU = _LRU(cap=64)
        self._tpos_cache: _LRU = _LRU(cap=512)  # term -> decoded token positions
        # dense-docno space size = total distinct docmeta rows INCLUDING
        # tombstoned docs (stats phase prefix sums; == len(docmeta) once
        # loaded).  Sizes the dense score/presence arrays without forcing a
        # docmeta load on filterless queries.
        self._docno_count = int(self.stats["doc_range_bases"][-1])
        self._del_idx = None  # lazy SymSpell delete index (suggest())
        self._ds_rg = None  # doc-store row-group interval index (fetch_docs)
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
        df = self._df.get(term, 0)
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
        postings decode per query term (cached chunks)."""
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
            if docs.size == 0:
                continue
            # salted chunks concatenate unsorted across salts: O(df) probe
            hit = np.nonzero(docs == pos)[0]
            if hit.size == 0:
                continue
            j = int(hit[0])
            df = int(self._df.get(term, 0))
            idf = float(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0))
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
        result-count a search UI shows next to page 1.  Costs the same
        postings decode the scorer pays (cached chunks), no scoring."""
        ids: list[np.ndarray] = []
        for term in set(tokenize(query_text, self.analyzer)):
            for chunk in self._load_chunks(term):
                ids.append(chunk[0])
        if not ids:
            return 0
        return int(np.unique(np.concatenate(ids)).size)

    def _term_postings_raw(
        self, term: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_nos, tfs, doclens) for one analyzed term, concatenated over
        its (salted) chunks, UNDECORATED — the raw columns the impact
        formula consumes, for scorers whose saturation must run on a
        COMBINED tf (SynonymQuery) rather than per-term impacts."""
        rows = self._chunk_rows(term)
        if not rows:
            e = np.empty(0, np.int64)
            return e, np.empty(0, np.float64), np.empty(0, np.float64)
        self._load_docmeta()
        parts = [g.raw(row) for g, row in rows]
        ids = np.concatenate([p[0] for p in parts]).astype(np.int64)
        tfs = np.concatenate([p[1] for p in parts]).astype(np.float64)
        return ids, tfs, self._docmeta[3][ids].astype(np.float64)

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
            df = u.size
            idf = float(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0))
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
        empty = np.empty(0, np.int64)
        out = [empty, empty, empty, empty]
        rows = []
        for ids, offs, flat in self._token_positions(term):
            if ids.size == 0:
                continue
            lens = np.diff(offs)
            rows.append(
                (
                    meta_ids[ids.astype(np.int64)].astype(np.int64),
                    lens.astype(np.int64),
                    flat[offs[:-1]].astype(np.int64),
                    flat[offs[1:] - 1].astype(np.int64),
                )
            )
        if not rows:
            return tuple(out)
        return tuple(np.concatenate(parts) for parts in zip(*rows))

    def _segment_file(self, bg: int) -> pa.parquet.ParquetFile:
        """The bucket group's segment file, opened once per reader (its
        footer is parsed once; later row-group reads go straight to the
        column chunks)."""
        pf = self._seg_files.get(bg)
        if pf is None:
            pf = self._seg_files[bg] = pa.parquet.ParquetFile(
                os.path.join(self.index_dir, "segments", f"bg-{bg:03d}.parquet")
            )
        return pf

    def _read_row_group(self, bg: int, rg: int, columns: list[str]) -> pa.Table:
        pf = self._segment_file(bg)
        if rg >= pf.num_row_groups:
            self._changed()
        return pf.read_row_group(rg, columns=columns, use_threads=False)

    def _bucket_rows(self, key: tuple[int, int]) -> RowGroup:
        """The scoring columns of one segment row group, key = (bucket
        group, row group); LRU-cached.  The single segment-read entry point
        of scoring: positions (phrase queries) are never read here."""
        cached = self._bucket_tables.get(key)
        if cached is None:
            cached = RowGroup(self._read_row_group(*key, RowGroup.COLUMNS))
            self._bucket_tables[key] = cached
        return cached

    def _chunk_rows(self, term: str) -> list[tuple[RowGroup, int]]:
        """(row group, row) of each of the term's chunks, salt order, read
        through this index's own lexicon.  Each address is checked against
        the term stored at it: a rebuild of the directory after this reader
        loaded its lexicon moves chunks, and decoding another term's chunk
        would return wrong answers without an error."""
        bg = term_bucket(term) % NUM_BUCKET_GROUPS
        out = []
        for rg, row in self._lex.chunks(term):
            g = self._bucket_rows((bg, rg))
            if g.term(row) != term:
                self._changed()
            out.append((g, row))
        return out

    def _changed(self):
        raise RuntimeError(
            f"{self.index_dir}: index changed under this reader (its lexicon "
            "no longer matches the segment files); reopen it, or rerun the "
            "build if one was interrupted"
        )

    def _load_chunks(self, term: str) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """All chunks (salted) for a term as (docnos, impacts,
        block_last_doc, block_max_impact); cached.

        Impacts are computed here from the stored tfs and the docmeta
        doclens (gathered by docno) with the oracle's exact arithmetic
        (dtype, op order, constants), so scores stay float64-bitwise-
        identical; the block-max metadata is derived from them
        (codec.block_metadata).  Neither is stored (schema.py
        SEGMENT_SCHEMA).  Cached per term: warm-query latency is
        unchanged."""
        if term in self._chunk_cache:
            return self._chunk_cache[term]
        k1 = float(self.stats["k1"])
        b = float(self.stats["b"])
        avgdl = self.avgdl
        chunks = []
        rows = self._chunk_rows(term)
        if rows:
            self._load_docmeta()
        for g, row in rows:
            ids, tfs = g.raw(row)
            tfs = tfs.astype(np.float64)
            dls = self._docmeta[3][ids.view(np.int64)].astype(np.float64)
            impacts = tfs * (k1 + 1.0) / (tfs + k1 * ((1.0 - b) + (b * dls) / avgdl))
            chunks.append((ids, impacts, *codec.block_metadata(ids, impacts)))
        self._chunk_cache[term] = chunks
        return chunks

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
        probing stays identical either way.
        """
        alive = self._tombstone_mask()
        ts_min, ts_max = ts_to_us(ts_min), ts_to_us(ts_max)
        if (
            lang_filter is None and ts_min is None and ts_max is None
            and url_contains is None and doc_ids_filter is None
        ):
            # copy: callers (search_boolean) refine the mask in place
            return alive.copy() if alive is not None else None
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

    def _allowed_fn(self, mask: np.ndarray | None):
        """Per-candidate probe over the compiled mask (BMW path).  Candidates
        are docnos (= docmeta positions), so the probe is one array index —
        v8 paid a binary search over the sorted doc_id table per candidate."""
        if mask is None:
            return None

        def allowed(doc: int) -> bool:
            return bool(mask[doc])

        return allowed

    # vectorized path is used when the candidate postings fit this budget
    # (cost is O(n_docs + postings) with a dense f64 score array); beyond it
    # Block-Max WAND's skipping wins and bounds memory to O(k + cursors)
    VECTORIZED_POSTINGS_LIMIT = 20_000_000

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
        method: str = "auto",
    ) -> list[tuple[int, float]]:
        """BM25 top-k -> [(doc_id, score)], best first. Rank-identical to
        OracleIndex.search with either method:

        - "bmw": Block-Max WAND document-at-a-time with a bounded heap —
          the scale path (skips whole blocks; memory ~ O(k + cursors)).
        - "vectorized": exhaustive term-at-a-time in numpy with the SAME
          per-doc summation order as the oracle — faster when the candidate
          set fits in memory (common for selective queries).
        - "maxscore": vectorized MaxScore — a provable score floor from the
          most selective term prunes head terms out of candidate generation;
          exact scores then accumulate over the candidate union only.
        - "auto": single-term O(df) path, sparse accumulation for selective
          multi-term queries, maxscore otherwise (it self-falls-back to the
          dense scan when nothing prunes).

        Filters (the reference's families, streamlit_app.py:175-243):
        ``lang_filter`` exact lang; ``ts_min``/``ts_max`` crawl-time window
        (int64 us or datetime); ``url_contains`` case-insensitive substring
        (ILIKE '%x%'); ``doc_ids_filter`` an id allow-set (semi-join).
        """
        terms = sorted(set(tokenize(query_text, self.analyzer)))
        term_chunks, total_postings = self._gather_chunks(terms)
        pool = max(50, 10 * k) if prior_weight > 0.0 else k
        mask = self._filter_mask(
            lang_filter, ts_min, ts_max, url_contains, doc_ids_filter
        )
        top = self._dispatch(term_chunks, pool, mask, method, total_postings)
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

    def _gather_chunks(self, terms) -> tuple[list[tuple[str, float, list]], int]:
        """Decode (cached) posting chunks for a sorted unique term list."""
        term_chunks: list[tuple[str, float, list]] = []
        total_postings = 0
        for t in terms:
            if self._df.get(t, 0) <= 0:
                continue
            w = self.idf(t)
            chunks = [c for c in self._load_chunks(t) if c[0].size]
            if chunks:
                term_chunks.append((t, w, chunks))
                total_postings += sum(c[0].size for c in chunks)
        return term_chunks, total_postings

    def _dispatch(
        self, term_chunks, pool: int, mask, method: str, total_postings: int
    ) -> list[tuple[int, float]]:
        """Route to the cheapest exact scoring path (shared by search and
        search_boolean — every path returns the same ranked list of
        (docno, score); callers map docnos to doc_ids at the API boundary).
        The (score DESC, docno ASC) tie-break equals the oracle's
        (score DESC, doc_id ASC): docnos are doc_id ranks, hence monotone."""
        if not term_chunks:
            return []
        use_vec = method == "vectorized" or (
            method == "auto" and total_postings <= self.VECTORIZED_POSTINGS_LIMIT
        )
        if method == "auto" and len(term_chunks) == 1:
            # single-term query: exact top-k straight off the term's own
            # impacts — O(df) work and memory, no dense n_docs array and no
            # document-at-a-time pivoting (which degenerates on head terms:
            # nothing prunes when every doc matches the only term)
            return self._single_term(term_chunks[0], pool, mask)
        if method == "auto" and total_postings * 4 <= self.n_docs:
            # selective multi-term query: sparse accumulation over the
            # candidate postings only (sort + reduceat) — O(p log p) for p
            # postings instead of allocating and scanning O(n_docs) dense
            # arrays; float64-identical to the dense path (same per-doc
            # term-order summation)
            return self._sparse(term_chunks, pool, mask)
        if method in ("auto", "maxscore"):
            # multi-term with a head term: MaxScore pruning keeps the work
            # proportional to the SELECTIVE terms' postings instead of the
            # head term's (the dense scan is O(n_docs + total_postings)
            # per query no matter how selective the query is)
            return self._maxscore(term_chunks, pool, mask)
        if use_vec:
            return self._vectorized(term_chunks, pool, mask)
        cursors = [
            _Cursor(t, w, ids, impacts, bl, bm)
            for t, w, chunks in term_chunks
            for ids, impacts, bl, bm in chunks
        ]
        return self._bmw(cursors, pool, self._allowed_fn(mask))

    def search_boolean(
        self,
        query_text: str,
        k: int = 10,
        lang_filter: str | None = None,
        ts_min: int | None = None,
        ts_max: int | None = None,
        url_contains: str | None = None,
        doc_ids_filter=None,
        method: str = "auto",
    ) -> list[tuple[int, float]]:
        """Boolean-operator BM25 top-k (see `parse_query` for the syntax).

        Execution shape:
        - must / must-not terms compile into the SAME docmeta-aligned bool
          mask the metadata filters use (presence scatter off the cached
          posting->position maps) — candidate generation then prunes them
          for free in every scoring path, including BMW block skipping.
          At 10^12 docs the mask becomes the partitioned filter bitmap of
          `_filter_mask`; per-shard n_docs stays bounded under doc-sharded
          serving (engine/serve.py), so the dense bool array is per-shard.
        - phrases run match-then-verify: rank by BM25 over the phrase's
          terms (adjacency is impossible without all terms present — the
          presence mask already enforces that), then verify adjacency
          against the doc store for the top pool only, growing the pool
          geometrically until k survivors or candidates are exhausted.
          Verification cost is O(pool * doclen) per deepening round and
          never touches docs outside the ranked pool.  On an index built
          with ``store_positions=True`` verification instead intersects
          the per-posting position lists (O(pool * tf) decode + merge,
          no doc-store read) — the scale path for phrase-heavy workloads.
        """
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
            if mask is None:
                mask = np.ones(n, dtype=bool)
            for t in required:
                pres = np.zeros(n, dtype=bool)
                for ci, (ids, _imp, _bl, _bm) in enumerate(self._load_chunks(t)):
                    pres[self._chunk_positions(t, ci, ids)] = True
                mask &= pres
            for g in must_groups:  # >=1 member present (union, then AND)
                pres = np.zeros(n, dtype=bool)
                for t in g:
                    for ci, (ids, _imp, _bl, _bm) in enumerate(
                        self._load_chunks(t)
                    ):
                        pres[self._chunk_positions(t, ci, ids)] = True
                mask &= pres
            for t in excluded:
                for ci, (ids, _imp, _bl, _bm) in enumerate(self._load_chunks(t)):
                    mask[self._chunk_positions(t, ci, ids)] = False
            if not mask.any():
                return []
        term_chunks, total_postings = self._gather_chunks(scoring)
        if not term_chunks:
            return []
        if not bq.phrases and not bq.not_phrases:
            return self._docnos_to_ids(
                self._dispatch(term_chunks, k, mask, method, total_postings)[:k]
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
                tbl = self.fetch_docs(
                    list(by_docid), columns=["doc_id", "warc_ts", "text"]
                )
                for did, txt in zip(
                    tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()
                ):
                    verified[by_docid[int(did)]] = self._phrases_ok(txt, bq)
                for d in unseen:  # doc-store miss counts as failed verify
                    verified.setdefault(d, False)

        # candidate count is bounded by the required-term presence masks
        # (every phrase term is required).  On a positional index a failed
        # first round jumps straight to that bound and verifies lazily in
        # rank order — per-doc verification is a cheap position-list merge,
        # so the head of the ranked list usually settles k without touching
        # the tail.  On a text-verify index each fetch_docs call scans the
        # doc store, so rounds verify in ONE batched fetch and the pool
        # grows geometrically to keep the number of scans logarithmic.
        bound = int(mask.sum()) if (required or must_groups) else None
        pool = max(50, 4 * k)
        while True:
            top = self._dispatch(term_chunks, pool, mask, method, total_postings)
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

    # ---- positional phrase evaluation (store_positions=True indexes) -----
    def _token_positions(self, term: str):
        """Decoded per-chunk (doc_ids, posting offsets, flat positions) for a
        term — read from the segment files' positions column on demand
        (scoring reads never load it), LRU-cached per term."""
        data = self._tpos_cache.get(term)
        if data is None:
            bg = term_bucket(term) % NUM_BUCKET_GROUPS
            data = []
            for rg, row in self._lex.chunks(term):
                # a bucket group with no terms has no segment file: open it
                # only for a term the lexicon holds
                g = RowGroup(self._read_row_group(
                    bg, rg, RowGroup.COLUMNS + ["positions"]
                ))
                if g.term(row) != term:
                    self._changed()
                ids, lens = g.raw(row)
                offs = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
                data.append((ids, offs, g.positions(row).astype(np.int32)))
            if len(data) > 1:
                # merge a hot term's salted chunks into ONE sorted run once
                # at decode time (cached): phrase verification probes every
                # chunk per batch, so 8 salt chunks made each verify pass
                # pay 8 searchsorteds per term — the dominant cost of
                # BENCH_r04's bool_query_pos p95 (sparse-match phrases)
                ids = np.concatenate([d[0] for d in data])
                run_lens = np.concatenate([np.diff(d[1]) for d in data])
                flat_all = np.concatenate([d[2] for d in data])
                bases = np.cumsum([0] + [d[2].size for d in data[:-1]])
                run_starts = np.concatenate(
                    [d[1][:-1] + b for d, b in zip(data, bases)]
                )
                order = np.argsort(ids, kind="stable")
                ids_s = ids[order]
                lens_s = run_lens[order]
                starts_s = run_starts[order]
                offs_s = np.concatenate(([0], np.cumsum(lens_s)))
                total = int(offs_s[-1])
                gather = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(offs_s[:-1], lens_s)
                    + np.repeat(starts_s, lens_s)
                )
                data = [(ids_s, offs_s, flat_all[gather])]
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
        for ids, offs, flat in self._token_positions(term):
            i = int(np.searchsorted(ids, d64))
            if i < ids.size and ids[i] == d64:
                return flat[offs[i] : offs[i + 1]]
        return np.empty(0, np.int32)

    def _term_positions_for_docs(
        self, term: str, docs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather `term`'s positions for every doc in `docs` at once ->
        (doc-index-in-docs repeated per position, flat positions)."""
        drep_l, vals_l = [], []
        cand_idx = np.arange(docs.size, dtype=np.int64)
        for ids, offs, flat in self._token_positions(term):
            if ids.size == 0:
                continue
            idx = np.searchsorted(ids, docs)
            idx_c = np.minimum(idx, ids.size - 1)
            found = ids[idx_c] == docs
            if not found.any():
                continue
            fidx = idx_c[found]
            starts = offs[fidx]
            ls = offs[fidx + 1] - starts
            total = int(ls.sum())
            cum = np.concatenate(([0], np.cumsum(ls)))[:-1]
            gather = (
                np.arange(total, dtype=np.int64)
                - np.repeat(cum, ls)
                + np.repeat(starts, ls)
            )
            drep_l.append(np.repeat(cand_idx[found], ls))
            vals_l.append(flat[gather].astype(np.int64))
        if not drep_l:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(drep_l), np.concatenate(vals_l)

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

    def _chunk_positions(self, term: str, chunk_i: int, ids: np.ndarray) -> np.ndarray:
        """Positions of a chunk's docs within the global sorted doc table.

        FORMAT_VERSION 9 segments store dense docnos — each doc's rank in
        the doc_id-sorted docmeta order — so a chunk's ids ARE its docmeta
        positions: the per-(term, chunk) searchsorted + position cache of
        v8 (the expensive part of a cold query, plus 4 B/posting of cached
        int32 per reader) is gone entirely."""
        return ids.view(np.int64)

    def _single_term(
        self, tc, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Exact top-k for a one-term query via block-max pruning.

        Blocks (the BMW per-128-posting maxima, idf excluded) are visited in
        descending max-impact order; the scan stops once k mask-surviving
        postings are in hand whose k-th best impact is >= the next unvisited
        block's max — every unvisited posting then scores STRICTLY below the
        k-th result, so it can neither displace nor tie (ties break on
        doc_id, but require equal scores).  On Zipf-head terms this touches
        O(k) blocks instead of the full O(df) posting list.  Scores are the
        bitwise-identical idf * impact float64 product of the exhaustive
        paths."""
        from .schema import BLOCK_SIZE

        t, w, chunks = tc
        bms, cis, bstarts = [], [], []
        for ci, (ids, impacts, _bl, bm) in enumerate(chunks):
            if bm.size == 0:
                continue
            bms.append(bm)
            cis.append(np.full(bm.size, ci, dtype=np.int32))
            bstarts.append(np.arange(bm.size, dtype=np.int64) * BLOCK_SIZE)
        if not bms:
            return []
        bms = np.concatenate(bms)
        cis = np.concatenate(cis)
        bstarts = np.concatenate(bstarts)
        order = np.argsort(-bms, kind="stable")
        g_ids: list[np.ndarray] = []
        g_sc: list[np.ndarray] = []
        n_got = 0
        i = 0
        slab = max(1, (k + BLOCK_SIZE - 1) // BLOCK_SIZE + 1)
        while i < order.size:
            for b in order[i : i + slab]:
                ci = int(cis[b])
                s0 = int(bstarts[b])
                ids, impacts, _, _ = chunks[ci]
                e0 = min(s0 + BLOCK_SIZE, ids.size)
                bi, bsc = ids[s0:e0], w * impacts[s0:e0]
                if mask is not None:
                    keep = mask[self._chunk_positions(t, ci, ids)[s0:e0]]
                    bi, bsc = bi[keep], bsc[keep]
                if bi.size:
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
        ids = np.concatenate(g_ids)
        sc = np.concatenate(g_sc)
        kk = min(k, ids.size)
        thr = -np.partition(-sc, kk - 1)[kk - 1]
        cut = sc >= thr  # tie-closed candidate set, then exact ordering
        cids, csc = ids[cut], sc[cut]
        order = np.lexsort((cids, -csc))[:kk]
        return [(int(d), float(s)) for d, s in zip(cids[order], csc[order])]

    def _sparse(
        self, term_chunks, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Sparse exact scoring: gather the matching postings' docmeta
        positions, rank them against the (unique) candidate set, then
        scatter-add each (term, chunk)'s idf*impact contributions IN
        ASCENDING TERM ORDER.  A doc's contributions then add in the
        identical left-to-right sequence the dense path applies (term by
        term, starting from +0.0), so scores are bitwise equal — a
        reduceat over per-doc runs is NOT (ufunc.reduce associates
        pairwise: c1+(c2+c3) vs ((0+c1)+c2)+c3 differs by an ULP)."""
        pos_l, sc_l = [], []
        for t, w, chunks in term_chunks:  # term_chunks is term-sorted
            for ci, (ids, impacts, _, _) in enumerate(chunks):
                pos = self._chunk_positions(t, ci, ids)
                sc = w * impacts
                if mask is not None:
                    keep = mask[pos]
                    pos, sc = pos[keep], sc[keep]
                pos_l.append(pos)
                sc_l.append(sc)
        if not pos_l:
            return []
        pos = np.concatenate(pos_l)
        if pos.size == 0:
            return []
        upos, inv = np.unique(pos, return_inverse=True)
        scores = np.zeros(upos.size, dtype=np.float64)
        off = 0
        for sc_part in sc_l:  # term-ascending: oracle FP addition order
            # positions are unique within a chunk, so the scatter-add is a
            # plain assignment-accumulate per doc
            scores[inv[off : off + sc_part.size]] += sc_part
            off += sc_part.size
        ids = upos  # positions ARE docnos; doc_id mapping happens at the API
        kk = min(k, ids.size)
        thr = -np.partition(-scores, kk - 1)[kk - 1]
        cut = scores >= thr
        cids, csc = ids[cut], scores[cut]
        order = np.lexsort((cids, -csc))[:kk]
        return [(int(d), float(s)) for d, s in zip(cids[order], csc[order])]

    # when the essential-term candidate union approaches the corpus size the
    # dense scatter (O(n_docs + postings), sequential writes) beats per-term
    # binary search (O(chunks * u log df)); fall back past this fraction
    _MAXSCORE_DENSE_FRACTION = 4

    def _maxscore(
        self, term_chunks, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Vectorized MaxScore (Turtle & Flood 1995 term-at-a-time pruning,
        re-expressed as numpy set algebra) — exact, oracle-identical.

        1. theta0: a PROVED lower bound on the final k-th best score — the
           k-th largest single-term contribution (idf * impact, mask
           applied) of any query term.  >= k docs carry a full score at or
           above it, so no doc scoring strictly below theta0 can reach the
           top k even on ties.
        2. Essential terms: sort terms by ascending score upper bound
           (idf * max block impact); the longest prefix whose cumulative
           bound stays strictly below theta0 is non-essential — a doc
           matching ONLY those terms scores < theta0.  On web corpora the
           Zipf-head terms (df ~ n_docs, tiny idf) land in that prefix, so
           candidate generation skips their million-entry posting lists.
        3. Candidates: union of the essential terms' postings (masked).
        4. Exact scoring: every term's contributions are gathered onto the
           sorted candidate array via binary search, accumulating in
           ascending lexicographic term order starting from +0.0 — the
           identical FP addition sequence as the dense path / oracle.
        """
        if not term_chunks:
            return []
        n = len(term_chunks)
        ubs = np.zeros(n, dtype=np.float64)
        sizes = np.zeros(n, dtype=np.int64)
        for i, (t, w, chunks) in enumerate(term_chunks):
            m = 0.0
            for _ids, _imp, _bl, bm in chunks:
                if bm.size:
                    m = max(m, float(bm.max()))
            ubs[i] = w * m
            sizes[i] = sum(c[0].size for c in chunks)
        # --- theta0 (ub-descending; a term whose ub <= theta cannot raise it)
        theta = -np.inf
        for i in np.argsort(-ubs, kind="stable"):
            if ubs[i] <= theta:
                break
            t, w, chunks = term_chunks[i]
            parts = []
            for ci, (ids, impacts, _, _) in enumerate(chunks):
                sc = w * impacts
                if mask is not None:
                    sc = sc[mask[self._chunk_positions(t, ci, ids)]]
                if sc.size:
                    parts.append(sc)
            if not parts:
                continue
            sc = parts[0] if len(parts) == 1 else np.concatenate(parts)
            if sc.size >= k:
                theta = max(theta, float(-np.partition(-sc, k - 1)[k - 1]))
        # --- essential set
        asc = np.argsort(ubs, kind="stable")
        csum = np.cumsum(ubs[asc])
        n_noness = int(np.searchsorted(csum, theta, side="left"))
        essential = asc[n_noness:]
        if (
            int(sizes[essential].sum()) * self._MAXSCORE_DENSE_FRACTION
            > self.n_docs
        ):
            return self._vectorized(term_chunks, k, mask)
        # --- candidate union (essential postings only, masked)
        cand_parts = []
        for i in np.sort(essential):
            t, _w, chunks = term_chunks[i]
            for ci, (ids, _imp, _, _) in enumerate(chunks):
                cand_parts.append(self._chunk_positions(t, ci, ids))
        cand = np.unique(np.concatenate(cand_parts)) if cand_parts else np.empty(0, np.int64)
        if mask is not None and cand.size:
            cand = cand[mask[cand]]
        if cand.size == 0:
            return []
        # --- exact scores over candidates, oracle FP order.  Candidate
        # membership/rank are O(1) probes into per-reader n_docs-sized
        # buffers (1 byte + 4 bytes per doc, cache-resident at serving
        # scale, wiped in O(|candidates|) after the query) — measurably
        # ~4x faster than per-chunk binary search at 1.5M docs.
        nd = self._docno_count
        if self._cand_mask_buf is None or self._cand_mask_buf.size != nd:
            self._cand_mask_buf = np.zeros(nd, dtype=bool)
            self._cand_rank_buf = np.empty(nd, dtype=np.int32)
        cmask, crank = self._cand_mask_buf, self._cand_rank_buf
        cmask[cand] = True
        crank[cand] = np.arange(cand.size, dtype=np.int32)
        scores = np.zeros(cand.size, dtype=np.float64)
        try:
            for t, w, chunks in term_chunks:  # term_chunks is term-sorted
                for ci, (ids, impacts, _, _) in enumerate(chunks):
                    pos = self._chunk_positions(t, ci, ids)
                    if pos.size == 0:
                        continue
                    sel = cmask[pos]
                    scores[crank[pos[sel]]] += w * impacts[sel]
        finally:
            cmask[cand] = False
        ids = cand  # candidates ARE docnos; doc_id mapping happens at the API
        kk = min(k, ids.size)
        thr = -np.partition(-scores, kk - 1)[kk - 1]
        cut = scores >= thr
        cids, csc = ids[cut], scores[cut]
        order = np.lexsort((cids, -csc))[:kk]
        return [(int(d), float(s)) for d, s in zip(cids[order], csc[order])]

    def _vectorized(
        self, term_chunks, k: int, mask: np.ndarray | None
    ) -> list[tuple[int, float]]:
        """Exhaustive vectorized scoring, oracle-identical float64 results.

        Scores accumulate into a dense array indexed by each doc's position
        in the sorted global doc table.  Terms are accumulated in ascending
        lexicographic order and each doc appears in exactly one chunk per
        term, so every doc's score is the same FP addition sequence the
        oracle performs."""
        if not term_chunks:
            return []
        scores = np.zeros(self._docno_count, dtype=np.float64)
        touched = np.zeros(self._docno_count, dtype=bool)
        for t, w, chunks in term_chunks:  # term_chunks is term-sorted
            for ci, (ids, impacts, _, _) in enumerate(chunks):
                pos = self._chunk_positions(t, ci, ids)
                scores[pos] += w * impacts  # unique positions within a chunk
                touched[pos] = True
        if mask is not None:
            touched &= mask
        cand = np.nonzero(touched)[0]
        if cand.size == 0:
            return []
        kk = min(k, cand.size)
        cscores = scores[cand]
        # exact top-k under (score DESC, doc_id ASC): take everything at or
        # above the kk-th score, then lexsort that (small) tie-closed set
        thr = -np.partition(-cscores, kk - 1)[kk - 1]
        top = cand[cscores >= thr]
        tscores = scores[top]
        tids = top  # docnos; doc_id mapping happens at the API boundary
        order = np.lexsort((tids, -tscores))[:kk]
        return [(int(d), float(s)) for d, s in zip(tids[order], tscores[order])]

    def _bmw(self, cursors: list[_Cursor], k: int, allowed) -> list[tuple[int, float]]:
        """Block-Max WAND with a bounded min-heap of size k."""
        heap: list[tuple[float, int, int]] = []  # (score, -doc_id, doc_id)

        def theta() -> tuple[float, int]:
            if len(heap) < k:
                return (-np.inf, 0)
            return (heap[0][0], heap[0][1])

        cursors = [c for c in cursors if not c.exhausted()]
        while cursors:
            cursors.sort(key=lambda c: c.doc())
            th, _ = theta()
            # find pivot: first prefix whose summed term upper bounds can win
            acc = 0.0
            pivot_idx = -1
            # pivot when the bound can beat the floor — or exactly tie it
            # (a tying doc can still win on the (score, doc_id) tie-break)
            for i, c in enumerate(cursors):
                acc += c.ub
                if acc >= th:
                    pivot_idx = i
                    break
            if pivot_idx < 0:
                break  # nothing left can beat the heap floor
            pivot_doc = cursors[pivot_idx].doc()
            if cursors[0].doc() == pivot_doc:
                # extend to every cursor currently sitting on pivot_doc —
                # they all contribute to its score and its upper bound
                q = pivot_idx
                while q + 1 < len(cursors) and cursors[q + 1].doc() == pivot_doc:
                    q += 1
                # block-max refinement: exact per-block bounds at pivot_doc
                block_acc = 0.0
                for c in cursors[: q + 1]:
                    block_acc += c.block_ub(pivot_doc)
                if block_acc < th:  # strict: a tie could win on doc_id
                    # skip within current blocks, but never past the next
                    # cursor's doc (it would add score we haven't bounded)
                    d_prime = min(c.block_end(pivot_doc) for c in cursors[: q + 1])
                    if q + 1 < len(cursors):
                        d_prime = min(d_prime, cursors[q + 1].doc() - 1)
                    target = max(d_prime + 1, pivot_doc + 1)
                    for c in cursors[: q + 1]:
                        c.seek(target)
                else:
                    # fully evaluate pivot_doc
                    if allowed is None or allowed(pivot_doc):
                        contribs = []
                        for c in cursors:
                            if c.doc() > pivot_doc:
                                break
                            if c.doc() == pivot_doc:
                                contribs.append(
                                    (c.term, c.idf * float(c.impacts[c.ptr]))
                                )
                        contribs.sort(key=lambda x: x[0])
                        score = 0.0
                        for _, v in contribs:
                            score += v
                        entry = (score, -pivot_doc, pivot_doc)
                        if len(heap) < k:
                            heapq.heappush(heap, entry)
                        elif (entry[0], entry[1]) > (heap[0][0], heap[0][1]):
                            heapq.heapreplace(heap, entry)
                    for c in cursors:
                        if c.doc() == pivot_doc:
                            c.ptr += 1
                        elif c.doc() > pivot_doc:
                            break
            else:
                # advance the highest-ub cursor that is strictly before the
                # pivot doc (guaranteed progress; cursors at the pivot stay)
                behind = [i for i in range(pivot_idx + 1) if cursors[i].doc() < pivot_doc]
                pre = max(behind, key=lambda i: cursors[i].ub)
                cursors[pre].seek(pivot_doc)
            cursors = [c for c in cursors if not c.exhausted()]
        out = sorted(heap, key=lambda e: (-e[0], e[2]))
        return [(doc, score) for score, _, doc in out]

    def _rerank(self, pool: list[tuple[int, float]], prior_weight: float):
        """Two-stage rerank (reference: streamlit_app.py:317-364 analog):
        score + prior_weight * ln(1 + doclen).  The doclen prior comes from
        the compact docmeta table (round 1 re-read doc_id/doclen from EVERY
        partials row — ~148M rows at 1.5M docs — onto one machine)."""
        if not pool:
            return pool
        self._load_docmeta()
        dls = self._docmeta[3]
        rescored = [
            # pool entries are docnos = docmeta positions: direct gather
            (d, s + prior_weight * float(np.log1p(int(dls[d]))))
            for d, s in pool
        ]
        rescored.sort(key=lambda kv: (-kv[1], kv[0]))
        return rescored

    # ------------------------------------------------------------------
    def _docstore_rg_index(self):
        """Row-group doc_id [min, max] intervals of every doc-store file
        (one footer read per file, cached) — fetch_docs prunes with these
        directly because the dataset scanner evaluates an isin filter
        only AFTER decoding each row group, which makes every point lookup
        a full doc-store scan."""
        if self._ds_rg is None:
            import pyarrow.parquet as pq

            paths: list[str] = []
            rgs: list[int] = []
            mins: list[int] = []
            maxs: list[int] = []
            for path in self._extracted.files:
                md = pq.read_metadata(path)
                for i in range(md.num_row_groups):
                    rgmd = md.row_group(i)
                    st = None
                    for j in range(rgmd.num_columns):
                        c = rgmd.column(j)
                        if c.path_in_schema == "doc_id":
                            st = c.statistics
                            break
                    if st is not None and st.has_min_max:
                        mins.append(int(st.min))
                        maxs.append(int(st.max))
                    else:  # no stats: never prune this row group
                        mins.append(0)
                        maxs.append(2**64 - 1)
                    paths.append(path)
                    rgs.append(i)
            self._ds_rg = (
                paths,
                np.asarray(rgs, dtype=np.int64),
                np.asarray(mins, dtype=np.uint64),
                np.asarray(maxs, dtype=np.uint64),
            )
        return self._ds_rg

    def fetch_docs(self, doc_ids: list[int], columns=None) -> pa.Table:
        """Doc-store lookup after top-k (SURVEY.md §2.4 J2 analog):
        broadcast-semi-join of the tiny k-set against the extracted table,
        reading only the row groups whose doc_id range can hold a probe
        (the build sorts each doc-store part by doc_id into small row
        groups precisely so these intervals stay narrow)."""
        if not doc_ids:
            cols = columns or ["doc_id", "url", "warc_ts", "lang", "text"]
            return self._extracted.schema.empty_table().select(cols)
        import pyarrow.parquet as pq

        probes = np.unique(np.asarray(doc_ids, dtype=np.uint64))
        paths, rgs, mins, maxs = self._docstore_rg_index()
        pos = np.searchsorted(probes, mins)
        hit = (pos < probes.size) & (
            probes[np.minimum(pos, probes.size - 1)] <= maxs
        )
        read_cols = columns
        if columns is not None and "doc_id" not in columns:
            read_cols = ["doc_id"] + list(columns)
        by_path: dict[str, list[int]] = {}
        for i in np.nonzero(hit)[0]:
            by_path.setdefault(paths[i], []).append(int(rgs[i]))
        def _read(item):
            path, rgl = item
            return pq.ParquetFile(path).read_row_groups(
                rgl, columns=read_cols, use_threads=False
            )
        if len(by_path) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(8, len(by_path))) as ex:
                tabs = list(ex.map(_read, by_path.items()))
        else:
            tabs = [_read(it) for it in by_path.items()]
        if tabs:
            tbl = pa.concat_tables(tabs)
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            p = np.searchsorted(probes, ids)
            keep = probes[np.minimum(p, probes.size - 1)] == ids
            tbl = tbl.filter(pa.array(keep))
            if read_cols is not columns and columns is not None:
                tbl = tbl.select(columns)
        else:
            cols = columns or ["doc_id", "url", "warc_ts", "lang", "text"]
            return self._extracted.schema.empty_table().select(cols)
        # duplicate (loser) url rows share doc_id: keep max warc_ts row
        if "warc_ts" in tbl.column_names and tbl.num_rows > len(doc_ids):
            tbl = tbl.sort_by([("doc_id", "ascending"), ("warc_ts", "ascending")])
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            keep = np.ones(len(ids), dtype=bool)
            keep[:-1] = ids[:-1] != ids[1:]
            tbl = tbl.filter(pa.array(keep))
        return tbl

    def topk_table(self, queries: pa.Table, method: str = "auto") -> pa.Table:
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
                method=method,
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
