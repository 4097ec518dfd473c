"""Full-engine BM25 search over the relational `documents` table.

This is the flagship pipeline run through the driver's correctness gate: the
whole index build (extract-adapter -> tokenize actor pool -> term-bucket
exchange -> compressed segments) plus exact BM25 top-k, with a
pure-SQL BM25 oracle on the same table (tokenizer spec and BM25 formula
mirrored term-for-term; scores compared at 6 decimals because summation
order differs between a distributed engine and a sequential SQL engine).
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa

from ..analyze import tokenize
from ..build import build_index
from ..query import IndexReader
from ..schema import B, K1
from .keyed import I64, STR, collect, frame

DOC_QUERIES = [
    "window agg partition",
    "hash join table",
    "slow query scan",
    "customer order line",
    "spark data column batch",
]
K = 10

_HIT_DTYPES = {"query_id": "int64", "rank": "int64", "doc_id": "int64",
               "score_r6": "float64"}


_reader_cache: dict[str, IndexReader] = {}
_pool_cache: dict = {}


def _pool_for(sf_dir: str):
    """Serving-path twin of _index_for: a QueryPool of warm actors over the
    SAME index, cached per sf_dir.  The gated facets / more-like-this
    entries run their searches through this pool, so the driver correctness
    gate exercises the distributed serving path (engine/serve.py) — not a
    driver-side reader — while staying rank-identical by construction
    (QueryPool actors answer with the same IndexReader)."""
    from ..serve import QueryPool

    key = os.path.abspath(sf_dir)
    p = _pool_cache.get(key)
    if p is None:
        reader = _index_for(key)  # builds/locates the index once
        # small pool, fractional cpus: serving is latency-bound and the
        # 4-cpu test session must not overcommit
        p = QueryPool(reader.index_dir, num_actors=2, num_cpus=0.25)
        _pool_cache[key] = p
    return p


def _index_dir_for(sf_dir: str) -> str:
    """Content-addressed on-disk location of the documents index for
    ``sf_dir`` (bench deletes it to force a cold build timing)."""
    key = os.path.abspath(sf_dir)
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"{key}:{os.path.getsize(src)}:p1".encode(), digest_size=8
    ).hexdigest()
    return os.path.join(tempfile.gettempdir(), f"rayft_docidx_{tag}")


def _index_for(sf_dir: str) -> IndexReader:
    """Build (once per sf_dir per process) the documents index under /tmp."""
    key = os.path.abspath(sf_dir)
    if key in _reader_cache:
        return _reader_cache[key]
    src = os.path.join(sf_dir, "documents.parquet")
    index_dir = _index_dir_for(sf_dir)
    # positional: the boolean gate's phrase queries then run adjacency off
    # the index (the scale path) while the SQL oracle checks the results
    build_index(
        src, index_dir, num_partitions=2, input_kind="documents",
        tokenize_batch_size=256, store_positions=True,
    )
    reader = IndexReader(index_dir)
    _reader_cache[key] = reader
    return reader


def bm25_docs_topk(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Top-k BM25 per fixed query -> (query_id, rank, doc_id, score_r6).

    Retrieves 2k by exact score, then re-ranks by (round(score,6) DESC,
    doc_id ASC) so the boundary matches the SQL oracle's rounded ordering.
    """
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        res = reader.search(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


AUTOCOMPLETE_PREFIXES = ["s", "c", "b", "w", "xyz"]
AUTOCOMPLETE_K = 8


def docs_autocomplete(sf_dir: str, k: int = AUTOCOMPLETE_K) -> pd.DataFrame:
    """Query autocomplete: top-k vocabulary completions per prefix by
    (df DESC, term ASC) -> (prefix, rank, term, df); prefixes with no
    completions emit no rows.

    Engine path is the reader's binary-searched sorted-vocab range (the
    wildcard-expansion structure, so autocomplete costs O(log V + k));
    the oracle is LIKE over the df table with the same ordering."""
    reader = _index_for(sf_dir)
    rows = []
    for p in AUTOCOMPLETE_PREFIXES:
        for rank, term in enumerate(reader.complete(p, k=k), 1):
            rows.append((p, rank, term, reader.df(term)))
    return frame(
        rows, {"prefix": "object", "rank": "int64", "term": "object", "df": "int64"}
    )


def _autocomplete_sql() -> str:
    vals = ", ".join(f"('{p}')" for p in AUTOCOMPLETE_PREFIXES)
    return f"""
WITH prefixes(prefix) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk FROM tok GROUP BY doc_id, tk),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
ranked AS (
  SELECT p.prefix, d.tk AS term, CAST(d.df AS BIGINT) AS df,
         row_number() OVER (PARTITION BY p.prefix
                            ORDER BY d.df DESC, d.tk) AS rank
  FROM prefixes p JOIN df d ON d.tk LIKE p.prefix || '%'
)
SELECT prefix, rank, term, df FROM ranked WHERE rank <= {AUTOCOMPLETE_K}
"""


AUTOCOMPLETE_SQL = _autocomplete_sql()


MLT_DOC_IDS = [3, 57, 101]
MLT_KEYWORDS = 5


def docs_more_like_this(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Related-document search: for each probe doc, take its top-5 TF-IDF
    keywords (round-6 tf*ln(n/df), ties term ASC — the keywords_tfidf rule)
    as a BM25 query, exclude the probe itself, return the rounded top-k ->
    (probe_doc, rank, doc_id, score_r6).

    Engine path: doc-store point lookup (row-group-pruned fetch_docs) for
    the probe texts, keyword selection off the reader's in-memory df map,
    then the ordinary BM25 top-k; the oracle recomputes both stages in one
    SQL chain."""
    import math
    from collections import Counter

    reader = _index_for(sf_dir)
    docs_tbl = reader.fetch_docs(MLT_DOC_IDS, columns=["doc_id", "text"])
    texts = {
        int(np.int64(np.uint64(d))): t
        for d, t in zip(docs_tbl["doc_id"].to_pylist(), docs_tbl["text"].to_pylist())
    }
    n = reader.n_docs
    queries = []
    for pid in MLT_DOC_IDS:
        # a probe missing from the corpus has no keywords, so no related docs
        tf = Counter(tokenize(texts.get(pid, "")))
        scored = sorted(
            ((round(c * math.log(n / reader.df(t)), 6), t) for t, c in tf.items()),
            key=lambda x: (-x[0], x[1]),
        )
        kw = [t for _, t in scored[:MLT_KEYWORDS]]
        queries.append({"query_text": " ".join(kw), "k": 2 * (k + 1)})
    # keyword DERIVATION is query construction (reader-side df lookups);
    # the searches themselves go through the serving pool
    results = _pool_for(sf_dir).search_many(queries)
    rows = []
    for pid, res in zip(MLT_DOC_IDS, results):
        res = [
            (int(np.int64(np.uint64(d))), round(s, 6))
            for d, s in res
            if int(np.int64(np.uint64(d))) != pid
        ]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((pid, rank, did, s))
    return frame(rows, {"probe_doc": "int64", "rank": "int64", "doc_id": "int64",
                        "score_r6": "float64"})


def _mlt_chain() -> str:
    """The MLT scoring chain up through its `ranked` CTE (all ranks, no
    bound) — shared by MORE_LIKE_THIS_SQL and the hybrid-RRF oracle, which
    appends its own CTEs to the same WITH list."""
    vals = ", ".join(f"({d})" for d in MLT_DOC_IDS)
    return f"""
WITH probes(probe_doc) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
kw_scored AS (
  SELECT p.probe_doc, tf.tk AS term,
         round(tf.tf * ln(s.n * 1.0 / df.df), 6) AS kscore
  FROM probes p
  JOIN tf ON tf.doc_id = p.probe_doc
  JOIN df ON df.tk = tf.tk
  CROSS JOIN stats s
),
kw AS (
  SELECT probe_doc, term FROM (
    SELECT probe_doc, term,
           row_number() OVER (PARTITION BY probe_doc
                              ORDER BY kscore DESC, term) AS rn
    FROM kw_scored
  ) WHERE rn <= {MLT_KEYWORDS}
),
contrib AS (
  SELECT kw.probe_doc, tf.doc_id,
         ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM kw
  JOIN tf ON tf.tk = kw.term
  JOIN df ON df.tk = kw.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  WHERE tf.doc_id <> kw.probe_doc
),
scores AS (
  SELECT probe_doc, doc_id, sum(c) AS score FROM contrib
  GROUP BY probe_doc, doc_id
),
ranked AS (
  SELECT probe_doc, doc_id, round(score, 6) AS score_r6,
         row_number() OVER (PARTITION BY probe_doc
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)"""


def _mlt_sql() -> str:
    return (
        _mlt_chain()
        + f"\nSELECT probe_doc, rank, doc_id, score_r6 FROM ranked"
        + f" WHERE rank <= {K}\n"
    )


MORE_LIKE_THIS_SQL = _mlt_sql()


MISSPELLED_TERMS = [
    "scann",     # scan + trailing insertion
    "querry",    # query + doubled letter
    "windo",     # window - deletion
    "batc",      # batch - deletion
    "joinn",     # join + insertion
    "xolumn",    # column with one substitution
    "agg",       # exact vocabulary hit (dist 0)
    "zzzzzzz",   # nothing within distance 1: dropped from the output
]


def docs_spell_suggest(sf_dir: str) -> pd.DataFrame:
    """Did-you-mean over the index vocabulary: for each (misspelled) query
    term, the vocab term within plain Levenshtein distance <= 1, chosen by
    (dist ASC, df DESC, term ASC) -> (qterm, suggestion, dist, df); terms
    with no near-neighbor emit no row.

    Engine path is IndexReader.suggest (SymSpell delete-index candidates +
    exact verify — never a vocabulary scan per query); the oracle is a
    DuckDB levenshtein() cross-filter over the same df table."""
    reader = _index_for(sf_dir)
    rows = []
    for qt in MISSPELLED_TERMS:
        got = reader.suggest(qt)
        if got is not None:
            sugg, dist, df = got
            rows.append((qt, sugg, dist, df))
    return frame(rows, {"qterm": "object", "suggestion": "object", "dist": "int64",
                        "df": "int64"})


def _spell_sql() -> str:
    vals = ", ".join(f"('{t}')" for t in MISSPELLED_TERMS)
    return f"""
WITH qterms(qterm) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk FROM tok GROUP BY doc_id, tk),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
cand AS (
  SELECT q.qterm, d.tk AS suggestion,
         CAST(levenshtein(q.qterm, d.tk) AS BIGINT) AS dist,
         CAST(d.df AS BIGINT) AS df
  FROM qterms q JOIN df d ON levenshtein(q.qterm, d.tk) <= 1
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY qterm
                               ORDER BY dist, df DESC, suggestion) AS rn
  FROM cand
)
SELECT qterm, suggestion, dist, df FROM ranked WHERE rn = 1
"""


SPELL_SUGGEST_SQL = _spell_sql()


FACET_POOL = 25
FACET_COLS = ("lang", "source")


def bm25_docs_facets(sf_dir: str, pool: int = FACET_POOL) -> pd.DataFrame:
    """Faceted search: per query, metadata-value counts over the BM25
    top-`pool` result set -> (query_id, facet, value, n_docs).

    The search-engine sidebar aggregation (count per language / source over
    the matching pool).  The pool is ranked by (round(score,6) DESC, doc_id)
    exactly like bm25_docs_topk so the membership boundary is deterministic;
    facet values come from a column-pruned, isin-filtered read of the
    documents table (pool-scale rows reach the driver, never the corpus)."""
    # all queries fan across the serving pool in one scatter-gather
    results = _pool_for(sf_dir).search_many(
        [{"query_text": q, "k": 2 * pool} for q in DOC_QUERIES]
    )
    pools: list[tuple[int, int]] = []  # (query_id, doc_id)
    for qid, res in enumerate(results):
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        pools.extend((qid, did) for did, _ in res[:pool])
    import pyarrow.compute as pc
    import ray.data as rd

    wanted = pa.array(sorted({d for _, d in pools}), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["doc_id"], value_set=wanted))

    meta = collect(
        rd.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", *FACET_COLS],
        ).map_batches(pick, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema({"doc_id": I64, **{c: STR for c in FACET_COLS}}),
    )
    pool_df = frame(pools, {"query_id": "int64", "doc_id": "int64"})
    joined = pool_df.merge(meta, on="doc_id", how="left")
    outs = []
    for col in FACET_COLS:
        g = joined.groupby(["query_id", col], as_index=False).size()
        g.columns = ["query_id", "value", "n_docs"]
        g.insert(1, "facet", col)
        outs.append(g)
    out = pd.concat(outs, ignore_index=True)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out[["query_id", "facet", "value", "n_docs"]]


def _facets_sql() -> str:
    pooled = _bm25_docs_sql(k=FACET_POOL)
    branches = " UNION ALL ".join(
        f"SELECT p.query_id, '{col}' AS facet, d.{col} AS value, "
        f"CAST(count(*) AS BIGINT) AS n_docs "
        f"FROM pool p JOIN documents d USING (doc_id) GROUP BY p.query_id, d.{col}"
        for col in FACET_COLS
    )
    return f"WITH pool AS ({pooled}) {branches}"


BOOL_DOC_QUERIES = [
    "window +agg -scan",
    '"hash join" table',
    'customer -"slow query"',
    "+order +line part",
    '"window agg" -batch',
    'spark "table scan merge"',  # rare tri-phrase: exercises pool deepening
]


def bm25_docs_boolean(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Boolean-operator BM25 top-k (engine/query.py parse_query syntax:
    +must, -not, "phrase") -> (query_id, rank, doc_id, score_r6), gated
    against a pure-SQL oracle that mirrors the eligibility rules with
    contains() over space-joined normalized tokens."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(BOOL_DOC_QUERIES):
        res = reader.search_boolean(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


def _bool_docs_sql(query_set: list[str]) -> str:
    """The boolean/wildcard oracle: BM25 scores over each query's scoring
    terms (identical CTE chain to BM25_DOCS_SQL) filtered by per-query
    eligibility — term presence / absence / phrase adjacency checked with
    contains() on ' '-padded normalized token text (the exact token space
    the engine's analyzer produces), and wildcard prefixes expanded against
    the df table with the engine's (df DESC, term ASC) LIMIT cap."""
    from ..query import MAX_PREFIX_EXPANSIONS, parse_query

    values, px_ctes, q_selects, elig_selects = [], [], [], []

    def _px(qid: int, j: int, prefix: str) -> str:
        name = f"px{qid}_{j}"
        px_ctes.append(
            f"{name} AS (SELECT tk FROM df WHERE tk LIKE '{prefix}%' "
            f"ORDER BY df DESC, tk LIMIT {MAX_PREFIX_EXPANSIONS})"
        )
        return name

    for qid, qtext in enumerate(query_set):
        bq = parse_query(qtext)
        for term in bq.scoring_terms:
            values.append(f"({qid}, '{term}')")
        conds = []
        j = 0
        for t in bq.required_terms:
            conds.append(f"contains(n.ntext, ' {t} ')")
        for t in sorted(set(bq.must_not)):
            conds.append(f"NOT contains(n.ntext, ' {t} ')")
        def _phrase_cond(p: tuple, s: int) -> str:
            if s == 0:
                return f"contains(n.ntext, ' {' '.join(p)} ')"
            # per-gap slop: up to s intervening tokens between consecutive
            # terms, in order — tokens in ntext are single-space separated
            pat = " " + p[0] + "".join(
                f"( [a-z0-9]+){{0,{s}}} {t}" for t in p[1:]
            ) + " "
            return f"regexp_matches(n.ntext, '{pat}')"

        slops = bq.phrase_slops or (0,) * len(bq.phrases)
        nslops = bq.not_phrase_slops or (0,) * len(bq.not_phrases)
        for p, s in zip(bq.phrases, slops):
            conds.append(_phrase_cond(p, s))
        for p, s in zip(bq.not_phrases, nslops):
            conds.append(f"NOT {_phrase_cond(p, s)}")
        for prefix in bq.should_prefix:
            name = _px(qid, j, prefix); j += 1
            q_selects.append(
                f"SELECT {qid} AS query_id, tk AS term FROM {name}"
            )
        for prefix in bq.must_prefix:
            name = _px(qid, j, prefix); j += 1
            q_selects.append(
                f"SELECT {qid} AS query_id, tk AS term FROM {name}"
            )
            conds.append(
                "EXISTS (SELECT 1 FROM tf t2 WHERE t2.doc_id = n.doc_id "
                f"AND t2.tk IN (SELECT tk FROM {name}))"
            )
        for prefix in bq.must_not_prefix:
            name = _px(qid, j, prefix); j += 1
            conds.append(
                "NOT EXISTS (SELECT 1 FROM tf t2 WHERE t2.doc_id = n.doc_id "
                f"AND t2.tk IN (SELECT tk FROM {name}))"
            )
        where = " AND ".join(conds) if conds else "TRUE"
        elig_selects.append(
            f"SELECT {qid} AS query_id, n.doc_id FROM norm n WHERE {where}"
        )
    q_parts = []
    if values:
        q_parts.append(
            "SELECT * FROM (VALUES " + ", ".join(values)
            + ") AS v(query_id, term)"
        )
    q_parts.extend(q_selects)
    queries_cte = "\n  UNION ".join(q_parts)  # UNION: dedupe literal+expansion
    px_block = ("," + ",\n".join(px_ctes)) if px_ctes else ""
    elig = "\n  UNION ALL ".join(elig_selects)
    return f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
norm AS (
  SELECT doc_id,
         ' ' || array_to_string(
                 list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                             x -> x <> ''), ' ') || ' ' AS ntext
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0 / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk){px_block},
queries AS (
  {queries_cte}
),
elig AS (
  {elig}
),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM queries q
  JOIN tf ON tf.tk = q.term
  JOIN df ON df.tk = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY query_id, doc_id),
ranked AS (
  SELECT s.query_id, s.doc_id, round(s.score, 6) AS score_r6,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.score, 6) DESC, s.doc_id) AS rank
  FROM scores s
  JOIN elig e ON e.query_id = s.query_id AND e.doc_id = s.doc_id
)
SELECT query_id, rank, doc_id, score_r6 FROM ranked WHERE rank <= {K}
"""


def _bm25_docs_sql(where: str = "", k: int = K) -> str:
    """`where` filters the corpus FIRST (e.g. the tombstone-survivor set for
    the delete+compaction gate): n/avgdl/df/tf are all computed over the
    filtered corpus, exactly matching a compacted index.  `k` sets the
    per-query pool depth (the facets gate pools deeper than the top-k
    gate)."""
    values = []
    for qid, qtext in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(qtext))):
            values.append(f"({qid}, '{term}')")
    vals = ", ".join(values)
    return f"""
WITH queries(query_id, term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents {where}
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents {where}) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents {where}) AS avgdl
),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM queries q
  JOIN tf ON tf.tk = q.term
  JOIN df ON df.tk = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY query_id, doc_id),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score_r6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id, rank, doc_id, score_r6 FROM ranked WHERE rank <= {k}
"""


PROX_DOC_QUERIES = [
    '"hash join"~1 table',
    'customer "slow query"~2',
    '"window agg"~2 -batch',
    '"order line part"~2',
    'spark -"hash join"~1',
    '"table scan merge"~3',
]


def bm25_docs_proximity(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Proximity queries (`"a b"~N`: in-order, up to N intervening tokens
    per gap) -> (query_id, rank, doc_id, score_r6); the SQL oracle mirrors
    the window with a bounded-repetition regex over normalized tokens."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(PROX_DOC_QUERIES):
        res = reader.search_boolean(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


WILDCARD_DOC_QUERIES = [
    "wind* table",
    "+cust* order",
    "s* join",
    "hash -jo*",
    "pa* +agg",
    'quer* "order line"',
]


def bm25_docs_wildcard(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Wildcard/prefix queries (`data*` expands against the index
    vocabulary, df-capped) -> (query_id, rank, doc_id, score_r6)."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(WILDCARD_DOC_QUERIES):
        res = reader.search_boolean(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


# deterministic victim rule for the delete+compaction gate (SQL-expressible)
DELETE_MOD = 97


def _deleted_index_for(sf_dir: str) -> IndexReader:
    """Index over `documents` with every doc_id ≡ 0 (mod DELETE_MOD)
    tombstoned (engine/build.py delete_docs) and then COMPACTED by a second
    build_index run over the same dir — stats+segments-only rerun with
    n/avgdl/df recomputed over the survivors.  The SQL oracle applies the
    same rule as a WHERE over the corpus, so a hash match proves the whole
    delete lifecycle, not just query-time masking."""
    from ..build import delete_docs

    key = os.path.abspath(sf_dir) + ":del"
    if key in _reader_cache:
        return _reader_cache[key]
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"{key}:{os.path.getsize(src)}:d1".encode(), digest_size=8
    ).hexdigest()
    index_dir = os.path.join(tempfile.gettempdir(), f"rayft_docdel_{tag}")
    kw = dict(num_partitions=2, input_kind="documents", tokenize_batch_size=256)
    build_index(src, index_dir, **kw)
    import pyarrow.parquet as pq

    ids = pq.read_table(src, columns=["doc_id"])["doc_id"].to_numpy()
    delete_docs(index_dir, doc_ids=ids[ids % DELETE_MOD == 0].tolist())
    build_index(src, index_dir, **kw)  # compaction (idempotent on rerun)
    reader = IndexReader(index_dir)
    _reader_cache[key] = reader
    return reader


def _merged_index_for(sf_dir: str) -> IndexReader:
    """Index over `documents` built as TWO independent half-corpus indexes
    consolidated by engine/merge.py merge_indexes — the Lucene-style segment
    merge lifecycle (independent snapshot builds -> one serving index).  The
    row split here is only fixture construction (simulating two separately
    ingested corpora); the merge itself grafts both sources' checkpointed
    partitions and re-runs the stats+segments reduce, so a hash match
    against BM25_DOCS_SQL proves the merged index scores exactly like a
    fresh build over the whole table."""
    from ..merge import merge_indexes

    key = os.path.abspath(sf_dir) + ":merged"
    if key in _reader_cache:
        return _reader_cache[key]
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"{key}:{os.path.getsize(src)}:m1".encode(), digest_size=8
    ).hexdigest()
    root = os.path.join(tempfile.gettempdir(), f"rayft_docmrg_{tag}")
    os.makedirs(root, exist_ok=True)
    import pyarrow.parquet as pq

    halves = [os.path.join(root, f"half-{s}.parquet") for s in "ab"]
    if not all(os.path.exists(h) for h in halves):
        t = pq.read_table(src)  # gate-scale fixture split, not the operator
        mid = t.num_rows // 2
        for h, part in zip(halves, (t.slice(0, mid), t.slice(mid))):
            pq.write_table(part, h + ".tmp")
            os.replace(h + ".tmp", h)
    kw = dict(num_partitions=1, input_kind="documents", tokenize_batch_size=256)
    srcs = []
    for h in halves:
        d = h[: -len(".parquet")] + ".idx"
        build_index(h, d, **kw)
        srcs.append(d)
    merged = os.path.join(root, "merged")
    merge_indexes(
        srcs, merged, input_kind="documents", tokenize_batch_size=256
    )
    reader = IndexReader(merged)
    _reader_cache[key] = reader
    return reader


def docs_merged_topk(sf_dir: str, k: int = K) -> pd.DataFrame:
    """bm25_docs_topk over an index produced by merge_indexes from two
    independently built half-corpus indexes — same fixed query set, same
    whole-corpus BM25 oracle (rank/score identity proves the merge)."""
    reader = _merged_index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        res = reader.search(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


def bm25_docs_after_delete(sf_dir: str, k: int = K) -> pd.DataFrame:
    """bm25_docs_topk over the tombstoned+compacted index — same fixed
    query set, oracle = BM25 SQL over the surviving corpus."""
    reader = _deleted_index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        res = reader.search(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


# ---------------------------------------------------------------------------
# Fuzzy search: each (possibly misspelled) query term expands to EVERY vocab
# term within plain Levenshtein distance 1 (Lucene FuzzyQuery~1 rewrite);
# the expanded union scores as a plain multi-term BM25 OR query.
FUZZY_DOC_QUERIES = [
    "windo agg",          # deletion: windo -> window/windows/...
    "hashh joinn",        # insertions on both terms
    "querry scann",       # doubled letters
    "xolumn batc",        # substitution + deletion
    "zzzzzzz table",      # one unexpandable term: the other still matches
]


def bm25_docs_fuzzy(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Fuzzy top-k -> (query_id, rank, doc_id, score_r6): per query, the
    DEDUPED union of every term's distance-<=1 expansions (so a vocab term
    reachable from two query terms contributes once) scored as a BM25 OR
    query.  Engine path: IndexReader.fuzzy_expand (SymSpell delete-index
    candidates + exact verify, never a vocabulary scan) feeding the
    ordinary BM25 top-k; the oracle mirrors the expansion with a
    DISTINCT levenshtein()<=1 join against the same df table."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(FUZZY_DOC_QUERIES):
        expanded: set[str] = set()
        for term in tokenize(qtext):
            expanded.update(reader.fuzzy_expand(term))
        if not expanded:
            continue
        res = reader.search(" ".join(sorted(expanded)), k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


def _fuzzy_docs_sql(k: int = K) -> str:
    vals = ", ".join(
        f"({qid}, '{t}')"
        for qid, q in enumerate(FUZZY_DOC_QUERIES)
        for t in q.split()
    )
    return f"""
WITH qterms(query_id, qterm) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
expanded AS (
  SELECT DISTINCT q.query_id, d.tk AS term
  FROM qterms q JOIN df d ON levenshtein(q.qterm, d.tk) <= 1
),
contrib AS (
  SELECT e.query_id, tf.doc_id,
         ln((s.n - df.df + 0.5) / (df.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM expanded e
  JOIN tf ON tf.tk = e.term
  JOIN df ON df.tk = e.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score_r6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id, rank, doc_id, score_r6 FROM ranked WHERE rank <= {k}
"""


FUZZY_DOCS_SQL = _fuzzy_docs_sql()


# ---------------------------------------------------------------------------
# Search-after pagination: the deep-paging pattern for search results — a
# (score_r6, doc_id) keyset cursor instead of OFFSET, so page N costs the
# same index walk as page 1 and is stable under concurrent inserts.
SEARCH_AFTER_PAGE = 10
SEARCH_AFTER_PAGES = 3


def docs_search_after(sf_dir: str, page_size: int = SEARCH_AFTER_PAGE,
                      pages: int = SEARCH_AFTER_PAGES) -> pd.DataFrame:
    """Pages 1..`pages` of each fixed query's BM25 ranking, fetched page by
    page through a (score_r6 DESC, doc_id ASC) search-after cursor ->
    (query_id, page, rank, doc_id, score_r6).  Each page re-runs the top-k
    search with a deepened k and KEEPS ONLY rows strictly after the cursor
    — the Elasticsearch search_after contract — so the gate proves cursor
    filtering reconstructs the exact global ranking with no overlaps or
    gaps; queries with fewer matches exhaust early and emit short pages."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        cursor: tuple[float, int] | None = None
        rank = 0
        for page in range(1, pages + 1):
            res = reader.search(qtext, k=2 * page_size * (page + 1))
            res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
            res.sort(key=lambda t: (-t[1], t[0]))
            if cursor is not None:
                res = [
                    (d, s) for d, s in res
                    if (-s, d) > (-cursor[0], cursor[1])
                ]
            got = res[:page_size]
            if not got:
                break
            for did, s in got:
                rank += 1
                rows.append((qid, page, rank, did, s))
            cursor = (got[-1][1], got[-1][0])
    return frame(rows, {"query_id": "int64", "page": "int64", "rank": "int64",
                        "doc_id": "int64", "score_r6": "float64"})


def _search_after_sql() -> str:
    n = SEARCH_AFTER_PAGE * SEARCH_AFTER_PAGES
    ranked = _bm25_docs_sql(k=n)
    return f"""
WITH r AS ({ranked})
SELECT query_id,
       CAST((rank - 1) // {SEARCH_AFTER_PAGE} + 1 AS BIGINT) AS page,
       rank, doc_id, score_r6
FROM r
"""


SEARCH_AFTER_SQL = _search_after_sql()


BM25_DOCS_SQL = _bm25_docs_sql()
# merged-index entry scores the WHOLE corpus, so the oracle is identical
MERGED_DOCS_SQL = _bm25_docs_sql()
FACETS_DOCS_SQL = _facets_sql()
DELETED_DOCS_SQL = _bm25_docs_sql(
    where=f"WHERE doc_id % {DELETE_MOD} <> 0"
)
BOOL_DOCS_SQL = _bool_docs_sql(BOOL_DOC_QUERIES)
WILDCARD_DOCS_SQL = _bool_docs_sql(WILDCARD_DOC_QUERIES)
PROX_DOCS_SQL = _bool_docs_sql(PROX_DOC_QUERIES)


# ---------------------------------------------------------------------------
RRF_C = 60  # the canonical reciprocal-rank-fusion constant (Cormack 2009)
RRF_POOL = 20  # candidates taken from each retriever before fusion


def docs_hybrid_rrf(sf_dir: str, k: int = K) -> pd.DataFrame:
    """Hybrid retrieval with reciprocal-rank fusion: for each MLT probe doc,
    fuse (a) the sparse BM25 more-like-this ranking and (b) the dense
    cosine-kNN ranking over the embeddings table, by
    rrf = sum over lists of 1/(RRF_C + rank), top-k by (rrf DESC, doc_id).
    The modern two-tower retrieval pattern (Cormack et al. 2009 fusion;
    the reference serves the same combination as separate keyword and
    embedding searches over one corpus, streamlit_app.py search modes).

    Scale shape: both retrievers are the ALREADY-DISTRIBUTED gated kernels
    (`docs_more_like_this` through the serving pool, `ann.knn_topk`'s
    broadcast-query actor pool with self-exclusion); fusion touches only
    the two result lists (probes x RRF_POOL rows each) in pandas on the
    driver — result-scale, independent of corpus size."""
    from .ann import knn_topk

    sparse = docs_more_like_this(sf_dir, k=RRF_POOL).rename(
        columns={"rank": "srank"}
    )[["probe_doc", "doc_id", "srank"]]
    dense = knn_topk(
        sf_dir, k=RRF_POOL, query_ids=tuple(MLT_DOC_IDS), exclude_self=True
    ).rename(
        columns={"query_id": "probe_doc", "vec_id": "doc_id", "rank": "drank"}
    )[["probe_doc", "doc_id", "drank"]]
    m = sparse.merge(dense, on=["probe_doc", "doc_id"], how="outer")
    rs = m["srank"].to_numpy(np.float64)
    rd = m["drank"].to_numpy(np.float64)
    contrib = np.where(np.isnan(rs), 0.0, 1.0 / (RRF_C + rs)) + np.where(
        np.isnan(rd), 0.0, 1.0 / (RRF_C + rd)
    )
    m["rrf_r6"] = np.round(contrib, 6)
    m = m.sort_values(
        ["probe_doc", "rrf_r6", "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    m["rank"] = m.groupby("probe_doc", sort=False).cumcount() + 1
    m = m[m["rank"] <= k]
    out = m[["probe_doc", "rank", "doc_id", "rrf_r6"]].reset_index(drop=True)
    return out.astype(
        {"probe_doc": np.int64, "rank": np.int64, "doc_id": np.int64}
    )


def _hybrid_rrf_sql() -> str:
    ids = ", ".join(str(d) for d in MLT_DOC_IDS)
    return (
        _mlt_chain()
        + f""",
sparse AS (
  SELECT probe_doc, doc_id, rank AS srank FROM ranked
  WHERE rank <= {RRF_POOL}
),
dq AS (
  SELECT vec_id AS probe_doc, embedding AS qe FROM embeddings
  WHERE vec_id IN ({ids})
),
dsims AS (
  SELECT dq.probe_doc, e.vec_id AS doc_id,
         round(list_cosine_similarity(CAST(dq.qe AS DOUBLE[]),
                                      CAST(e.embedding AS DOUBLE[])), 6)
           AS sim_r
  FROM dq CROSS JOIN embeddings e
  WHERE e.vec_id <> dq.probe_doc
),
dense AS (
  SELECT probe_doc, doc_id, drank FROM (
    SELECT probe_doc, doc_id,
           row_number() OVER (PARTITION BY probe_doc
                              ORDER BY sim_r DESC, doc_id) AS drank
    FROM dsims
  ) WHERE drank <= {RRF_POOL}
),
fused AS (
  SELECT coalesce(s.probe_doc, d.probe_doc) AS probe_doc,
         coalesce(s.doc_id, d.doc_id) AS doc_id,
         round(coalesce(1.0 / ({RRF_C} + s.srank), 0)
               + coalesce(1.0 / ({RRF_C} + d.drank), 0), 6) AS rrf_r6
  FROM sparse s
  FULL OUTER JOIN dense d
    ON s.probe_doc = d.probe_doc AND s.doc_id = d.doc_id
),
frank AS (
  SELECT probe_doc, doc_id, rrf_r6,
         row_number() OVER (PARTITION BY probe_doc
                            ORDER BY rrf_r6 DESC, doc_id) AS rank
  FROM fused
)
SELECT probe_doc, rank, doc_id, rrf_r6 FROM frank WHERE rank <= {K}
"""
    )


HYBRID_RRF_SQL = _hybrid_rrf_sql()


# ---------------------------------------------------------------------------
# Analyzer-extension gate: the same BM25 top-k under a CUSTOM analyzer
# (stopword list + min token length) — the §2.10 extension surface proved
# through the SQL hash, not just pytest.
STOP_WORDS = ("the", "a", "and", "of", "to", "in", "is", "for")
STOP_MIN_LEN = 2


def _stopword_index_for(sf_dir: str) -> IndexReader:
    from ..analyze import AnalyzerConfig

    key = os.path.abspath(sf_dir) + ":stop"
    if key in _reader_cache:
        return _reader_cache[key]
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"{key}:{os.path.getsize(src)}:s1".encode(), digest_size=8
    ).hexdigest()
    index_dir = os.path.join(tempfile.gettempdir(), f"rayft_docstop_{tag}")
    build_index(
        src, index_dir, num_partitions=2, input_kind="documents",
        tokenize_batch_size=256,
        analyzer=AnalyzerConfig(
            stopwords=frozenset(STOP_WORDS), min_len=STOP_MIN_LEN
        ),
    )
    reader = IndexReader(index_dir)
    _reader_cache[key] = reader
    return reader


def bm25_docs_stopword(sf_dir: str, k: int = K) -> pd.DataFrame:
    """bm25_docs_topk under the stopword/min-length analyzer (the analyzer
    travels WITH the index: build_index persists the config and the reader
    tokenizes queries with it) — stopworded/short query terms contribute
    nothing, doclens and df shrink, so every score differs from the
    default-analyzer index; the oracle applies the same filter in its
    token CTE."""
    reader = _stopword_index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        res = reader.search(qtext, k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


def _stopword_docs_sql(k: int = K) -> str:
    stop = ", ".join(f"'{w}'" for w in STOP_WORDS)
    base = _bm25_docs_sql(k=k)
    # inject the analyzer filter into the token CTE: same split, then the
    # stoplist + min-length gates the engine's AnalyzerConfig applies
    old = "x -> x <> ''"
    assert old in base
    return base.replace(
        old,
        f"x -> x <> '' AND length(x) >= {STOP_MIN_LEN} AND x NOT IN ({stop})",
    )


STOPWORD_DOCS_SQL = _stopword_docs_sql()


# ---------------------------------------------------------------------------
# Total-hits counts — the "About N results" number a search UI shows.


def docs_match_counts(sf_dir: str) -> pd.DataFrame:
    """(query_id, n_matches): |union of the query terms' postings| per
    fixed query — same cached postings decode the scorer pays, no
    scoring pass; the oracle counts DISTINCT matching docs over the
    token CTE."""
    reader = _index_for(sf_dir)
    out = pd.DataFrame(
        {
            "query_id": np.arange(len(DOC_QUERIES), dtype=np.int64),
            "n_matches": np.array(
                [reader.match_count(q) for q in DOC_QUERIES], np.int64
            ),
        }
    )
    return out[out["n_matches"] > 0].reset_index(drop=True)  # SQL inner join


def _match_counts_sql() -> str:
    vals = ", ".join(
        f"({qid}, '{t}')"
        for qid, q in enumerate(DOC_QUERIES)
        for t in q.split()
    )
    return f"""
WITH queries(query_id, term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
)
SELECT q.query_id, CAST(count(DISTINCT t.doc_id) AS BIGINT) AS n_matches
FROM queries q JOIN tok t ON t.tk = q.term
GROUP BY q.query_id ORDER BY q.query_id
"""


MATCH_COUNTS_SQL = _match_counts_sql()

# ---------------------------------------------------------------------------
# Term occurrences off the positional postings — the KWIC / concordance
# primitive: per matching doc, how often and where a term occurs.

OCCURRENCE_TERMS = ["window", "batch", "partition", "zzznosuchterm"]


def docs_term_occurrences(sf_dir: str) -> pd.DataFrame:
    """(term, doc_id, tf, first_pos, last_pos) for each probe term over the
    positional documents index: counts and 0-based analyzed-stream first /
    last occurrence positions, straight off ONE positions-column decode per
    term (`IndexReader.term_occurrences`) — no doc-store fetch, no scoring
    pass, and the absent-term probe emits no rows.  This gates the
    positional posting layout itself (delta-encoded position lists, one
    chunk per term) through the SQL hash: the oracle recomputes positions from
    the token stream with generate_series.  Reference analog: the
    occurrence/offset data its Postgres full-text columns carry
    (rds_schema.sql tsvector positions)."""
    reader = _index_for(sf_dir)
    frames = []
    for term in OCCURRENCE_TERMS:
        ids, tfs, first, last = reader.term_occurrences(term)
        frames.append(
            pd.DataFrame(
                {
                    "term": np.repeat(term, ids.size),
                    "doc_id": ids,
                    "tf": tfs,
                    "first_pos": first,
                    "last_pos": last,
                }
            )
        )
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values(["term", "doc_id"]).reset_index(drop=True)


def _term_occurrences_sql() -> str:
    vals = ", ".join(f"('{t}')" for t in OCCURRENCE_TERMS)
    return f"""
WITH probe(term) AS (VALUES {vals}),
tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
pos AS (
  SELECT doc_id, unnest(generate_series(1, len(toks))) AS i, toks
  FROM tok
)
SELECT p.term, pos.doc_id, CAST(count(*) AS BIGINT) AS tf,
       CAST(min(pos.i) - 1 AS BIGINT) AS first_pos,
       CAST(max(pos.i) - 1 AS BIGINT) AS last_pos
FROM pos JOIN probe p ON pos.toks[pos.i] = p.term
GROUP BY p.term, pos.doc_id
ORDER BY p.term, pos.doc_id
"""


TERM_OCCURRENCES_SQL = _term_occurrences_sql()


# ---------------------------------------------------------------------------
# Synonym query expansion — Lucene-SynonymQuery semantics: a registered
# synonym group scores as ONE pseudo-term (summed tf, union df) so members
# share a single IDF instead of double-counting.  Reference analog: the
# reference's slogan rewrite serves the same goal (matching alternate
# phrasings of one concept) on the embedding side; this is the lexical
# twin every search engine ships as a synonym filter.

SYN_DOC_QUERIES = [
    [["hash"], ["join", "merge"]],
    [["scan"], ["table", "row"]],
    [["window"], ["agg", "group"]],
]


def bm25_docs_synonyms(sf_dir: str, k: int = K) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r6): BM25 top-k where each bracketed
    group of the query is a synonym set scored with combined saturation
    (tf' = sum of member tfs, df' = |union of member postings|).  Runs on
    the same index/serving path as every other query entry; the synonym
    scorer is IndexReader.search_synonyms (raw tf/doclen postings decode +
    one combined impact pass per group)."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, groups in enumerate(SYN_DOC_QUERIES):
        for rank, (doc_id, score) in enumerate(
            reader.search_synonyms(groups, k=k), start=1
        ):
            rows.append((qid, rank, doc_id, round(score, 6)))
    return frame(rows, _HIT_DTYPES)


def _synonyms_sql(k: int = K) -> str:
    vals = []
    for qid, groups in enumerate(SYN_DOC_QUERIES):
        for gid, group in enumerate(groups):
            for term in sorted(set(group)):
                vals.append(f"({qid}, {gid}, '{term}')")
    return f"""
WITH syn(query_id, gid, term) AS (VALUES {", ".join(vals)}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl
),
-- SynonymQuery: per (query, group, doc) the member tfs SUM before
-- saturation, and the group's df is the union of member postings
gtf AS (
  SELECT s.query_id, s.gid, tf.doc_id, CAST(sum(tf.tf) AS DOUBLE) AS tf
  FROM syn s JOIN tf ON tf.tk = s.term
  GROUP BY 1, 2, 3
),
gdf AS (SELECT query_id, gid, count(*) AS df FROM gtf GROUP BY 1, 2),
contrib AS (
  SELECT g.query_id, g.doc_id,
         ln((s.n - d.df + 0.5) / (d.df + 0.5) + 1)
           * (g.tf * ({K1} + 1.0)
              / (g.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl))) AS c
  FROM gtf g
  JOIN gdf d ON d.query_id = g.query_id AND d.gid = g.gid
  JOIN dl ON dl.doc_id = g.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score_r6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id, rank, doc_id, score_r6 FROM ranked WHERE rank <= {k}
"""


SYNONYM_DOCS_SQL = _synonyms_sql()


# ---------------------------------------------------------------------------
# Index-integrity observability — vocabulary df histogram read from the
# INDEX's dfs store and gated against a corpus-derived SQL oracle: the hash
# match proves the index's entire vocabulary and every document frequency
# equal the tokenized corpus's ground truth (a structural check no scoring
# gate gives, since top-k only ever touches the query terms).


def index_df_histogram(sf_dir: str) -> pd.DataFrame:
    """(df_bucket, n_terms, max_df): log2-bucketed document-frequency
    histogram of the index vocabulary.  Buckets use floor(log2(df + 0.5))
    — df + 0.5 is never a power of two, so the floor has no float boundary
    in either engine.  Scale shape: the dfs store streams as a Ray dataset
    (vocab-scale, never driver-side as one table); per-batch bucket
    partials reduce to <= 64 rows."""
    import ray.data as rd

    reader = _index_for(sf_dir)
    ds = rd.read_parquet(os.path.join(reader.index_dir, "dfs"), columns=["df"])

    def partial(t: pa.Table) -> pa.Table:
        df = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        bucket = np.floor(np.log2(df + 0.5)).astype(np.int64)
        tt = pa.table(
            {
                "df_bucket": pa.array(bucket, pa.int64()),
                "n_terms": pa.array(np.ones(bucket.size, np.int64)),
                "max_df": t["df"].cast(pa.int64()),
            }
        )
        g = tt.group_by("df_bucket").aggregate([("n_terms", "sum"), ("max_df", "max")])
        return g.rename_columns(["df_bucket", "n_terms", "max_df"])

    from ray.data.aggregate import Max, Sum

    out = collect(  # <= 64 buckets
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("df_bucket")
        .aggregate(Sum("n_terms", alias_name="n_terms"),
                   Max("max_df", alias_name="max_df")),
        pa.schema({"df_bucket": I64, "n_terms": I64, "max_df": I64}),
    )
    return out.sort_values("df_bucket").reset_index(drop=True)[
        ["df_bucket", "n_terms", "max_df"]
    ]


INDEX_DF_HISTOGRAM_SQL = """
WITH tok AS (
  SELECT DISTINCT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
df AS (SELECT tk, count(*) AS df FROM tok GROUP BY tk)
SELECT CAST(floor(log2(df + 0.5)) AS BIGINT) AS df_bucket,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(max(df) AS BIGINT) AS max_df
FROM df GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Regex term queries — Lucene RegexpQuery analog: a regular expression
# expands against the index vocabulary (df-capped, same rule as wildcard)
# and the expansion scores as a BM25 OR.

REGEX_DOC_QUERIES = [
    "(join|merge)",
    "ta.le",
    "s(can|ort)",
    "wind.*",
]


def bm25_docs_regex(sf_dir: str, k: int = K) -> pd.DataFrame:
    """(query_id, rank, doc_id, score_r6): BM25 top-k where each query is
    a REGEX over the vocabulary (IndexReader.regex_expand: full-match,
    capped (df DESC, term ASC) like wildcard).  Patterns stick to the
    portable subset (classes, alternation, quantifiers) so Python re and
    DuckDB's RE2 agree."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, pattern in enumerate(REGEX_DOC_QUERIES):
        terms = reader.regex_expand(pattern)
        if not terms:
            continue
        # 2k by exact score, then the oracle's (round6 DESC, doc_id) order
        res = reader.search(" ".join(terms), k=2 * k)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        for rank, (did, s) in enumerate(res[:k], 1):
            rows.append((qid, rank, did, s))
    return frame(rows, _HIT_DTYPES)


def _regex_docs_sql(k: int = K) -> str:
    from ..query import MAX_PREFIX_EXPANSIONS

    px_ctes, q_unions = [], []
    for qid, pattern in enumerate(REGEX_DOC_QUERIES):
        px_ctes.append(
            f"rx{qid} AS (SELECT tk FROM dfv "
            f"WHERE regexp_full_match(tk, '{pattern}') "
            f"ORDER BY df DESC, tk LIMIT {MAX_PREFIX_EXPANSIONS})"
        )
        q_unions.append(f"SELECT {qid} AS query_id, tk AS term FROM rx{qid}")
    return f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
dfv AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl
),
{", ".join(px_ctes)},
queries AS ({" UNION ALL ".join(q_unions)}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ln((s.n - d.df + 0.5) / (d.df + 0.5) + 1)
           * tf.tf * ({K1} + 1.0)
           / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl)) AS c
  FROM queries q
  JOIN tf ON tf.tk = q.term
  JOIN dfv d ON d.tk = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
scores AS (SELECT query_id, doc_id, sum(c) AS score FROM contrib GROUP BY 1, 2),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score_r6,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id, rank, doc_id, score_r6 FROM ranked WHERE rank <= {k}
"""


REGEX_DOCS_SQL = _regex_docs_sql()


# ---------------------------------------------------------------------------
# Score explanation — the Lucene Explanation analog through the SQL gate:
# for each query's TOP-1 document, the per-term (tf, df, idf, contribution)
# breakdown, proving the engine's served score decomposes exactly as the
# corpus-derived BM25 algebra says it should.


def docs_score_explain(sf_dir: str) -> pd.DataFrame:
    """(query_id, doc_id, term, tf, df, idf_r6, contrib_r6): per-term
    score breakdown of each DOC_QUERIES query's rank-1 document
    (IndexReader.explain: raw postings probe + the scorer's exact
    arithmetic).  The oracle recomputes the same breakdown from raw text,
    so a hash match proves served scores decompose term-by-term into the
    documented BM25 algebra — the debugging surface every search engine
    ships as "explain"."""
    reader = _index_for(sf_dir)
    rows = []
    for qid, qtext in enumerate(DOC_QUERIES):
        res = reader.search(qtext, k=2)
        res = [(int(np.int64(np.uint64(d))), round(s, 6)) for d, s in res]
        res.sort(key=lambda t: (-t[1], t[0]))
        if not res:
            continue
        top_doc = res[0][0]
        for term, tf, df, idf, contrib in reader.explain(qtext, top_doc):
            rows.append(
                (qid, top_doc, term, tf, df, round(idf, 6), round(contrib, 6))
            )
    return frame(rows, {"query_id": "int64", "doc_id": "int64", "term": "object",
                        "tf": "int64", "df": "int64", "idf_r6": "float64",
                        "contrib_r6": "float64"})


def _score_explain_sql() -> str:
    values = []
    for qid, qtext in enumerate(DOC_QUERIES):
        for term in sorted(set(tokenize(qtext))):
            values.append(f"({qid}, '{term}')")
    return f"""
WITH queries(query_id, term) AS (VALUES {", ".join(values)}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n,
         (SELECT sum(dl) FROM dl) * 1.0
           / (SELECT count(*) FROM documents) AS avgdl
),
dfv AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
contrib AS (
  SELECT q.query_id, tf.doc_id, q.term, tf.tf, dfv.df,
         ln((s.n - dfv.df + 0.5) / (dfv.df + 0.5) + 1) AS idf,
         ln((s.n - dfv.df + 0.5) / (dfv.df + 0.5) + 1)
           * (tf.tf * ({K1} + 1.0)
              / (tf.tf + {K1} * ((1.0 - {B}) + ({B} * dl.dl) / s.avgdl))) AS c
  FROM queries q
  JOIN tf ON tf.tk = q.term
  JOIN dfv ON dfv.tk = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(sum(c), 6) DESC, doc_id) AS rank
  FROM contrib GROUP BY query_id, doc_id
)
SELECT c.query_id, c.doc_id, c.term, CAST(c.tf AS BIGINT) AS tf,
       CAST(c.df AS BIGINT) AS df, round(c.idf, 6) AS idf_r6,
       round(c.c, 6) AS contrib_r6
FROM contrib c
JOIN ranked r ON r.query_id = c.query_id AND r.doc_id = c.doc_id
WHERE r.rank = 1
ORDER BY c.query_id, c.term
"""


SCORE_EXPLAIN_SQL = _score_explain_sql()
