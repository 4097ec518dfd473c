"""Text-analysis operators over `documents` (training-data pipeline staples).

All vectorized pyarrow inside map_batches; the tokenizer is the engine's
single tokenization spec (engine/analyze.py) so the DuckDB oracle can express
the same token rule with regexp_split_to_array.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..analyze import (
    SPLIT_PATTERN,
    ngram_from_stream,
    token_array_stream,
    tokenize,
    tokenize_counts_arrow,
)
from .keyed import F64, I64, STR, by_key, collect, typed


def _read_docs(sf_dir: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# ---------------------------------------------------------------------------
def token_counts(sf_dir: str):
    """Per-doc token + char counts (M25/A10 analog: tokenizable-text stats)."""

    def fn(t: pa.Table) -> pa.Table:
        _, _, _, doclens = tokenize_counts_arrow(t["text"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(doclens.astype(np.int64), pa.int64()),
                "n_chars": pc.utf8_length(t["text"]).cast(pa.int64()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


TOKEN_COUNTS_SQL = """
SELECT doc_id,
       len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                       x -> x <> '')) AS n_tokens,
       length(text) AS n_chars
FROM documents
"""


# ---------------------------------------------------------------------------
_STOPWORDS = ("the", "a", "and", "of", "to")


def quality_scores(sf_dir: str):
    """Quality heuristics: punct ratio, stopword ratio, avg token length."""

    def fn(t: pa.Table) -> pa.Table:
        texts = t["text"]
        lower = pc.utf8_lower(texts)
        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.float64)
        non_word = pc.utf8_length(
            pc.replace_substring_regex(lower, pattern="[a-z0-9 ]", replacement="")
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        token_chars = pc.utf8_length(
            pc.replace_substring_regex(lower, pattern="[^a-z0-9]", replacement="")
        ).to_numpy(zero_copy_only=False).astype(np.float64)
        doc_idx, terms, tfs, doclens = tokenize_counts_arrow(texts)
        n_tokens = doclens.astype(np.float64)
        stop_tf = np.zeros(len(texts), dtype=np.float64)
        is_stop = pc.is_in(terms, value_set=pa.array(_STOPWORDS)).to_numpy(
            zero_copy_only=False
        )
        np.add.at(stop_tf, doc_idx[is_stop], tfs[is_stop].astype(np.float64))
        safe_chars = np.maximum(n_chars, 1.0)
        safe_tokens = np.maximum(n_tokens, 1.0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "punct_ratio": pa.array(np.round(non_word / safe_chars, 6), pa.float64()),
                "stop_ratio": pa.array(np.round(stop_tf / safe_tokens, 6), pa.float64()),
                "avg_token_len": pa.array(
                    np.round(token_chars / safe_tokens, 6), pa.float64()
                ),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


QUALITY_SCORES_SQL = """
WITH base AS (
  SELECT doc_id, text, lower(text) AS lt,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
)
SELECT doc_id,
  round(length(regexp_replace(lt, '[a-z0-9 ]', '', 'g')) * 1.0
        / greatest(length(text), 1), 6) AS punct_ratio,
  round(len(list_filter(toks, x -> list_contains(['the','a','and','of','to'], x))) * 1.0
        / greatest(len(toks), 1), 6) AS stop_ratio,
  round(length(regexp_replace(lt, '[^a-z0-9]', '', 'g')) * 1.0
        / greatest(len(toks), 1), 6) AS avg_token_len
FROM base
"""


# ---------------------------------------------------------------------------
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "is", "in", "that", "it", "for", "with"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "zu", "den"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "dans", "pour", "que"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "por", "para", "con"},
    "zh": set(),  # no ascii markers; falls back to "unknown"
}


class LangId:
    """Heuristic language ID (actor-pool stage; marker tables built once).

    Stopword-profile classifier: argmax over per-language marker-token hit
    counts (tf-weighted), ties broken by ascending language code, 'unknown'
    when nothing matches.  Vectorized: one tokenize_counts_arrow pass, one
    is_in per language over the batch's (doc, term) pairs (round-1 kernel
    looped per token).  SQL-expressible, so it is oracle-checked (the same
    argmax as a window function in LANG_ID_SQL).
    """

    def __init__(self):
        self.langs = sorted(k for k, v in _LANG_MARKERS.items() if v)
        self.marker_arrays = {
            k: pa.array(sorted(_LANG_MARKERS[k])) for k in self.langs
        }

    def __call__(self, t: pa.Table) -> pa.Table:
        n_docs = len(t)
        doc_idx, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        # hits[lang][doc] = total tf of that lang's marker tokens in doc
        hits = np.zeros((len(self.langs), n_docs), dtype=np.int64)
        for li, lang in enumerate(self.langs):
            is_m = pc.is_in(terms, value_set=self.marker_arrays[lang]).to_numpy(
                zero_copy_only=False
            )
            np.add.at(hits[li], doc_idx[is_m], tfs[is_m].astype(np.int64))
        best_li = np.argmax(hits, axis=0)  # first max wins == asc lang order
        best_hits = hits[best_li, np.arange(n_docs)]
        preds = np.where(
            best_hits > 0, np.array(self.langs, dtype=object)[best_li], "unknown"
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "pred_lang": pa.array(preds.tolist(), pa.string()),
            }
        )


def lang_id(sf_dir: str):
    return _read_docs(sf_dir, columns=["doc_id", "text", "lang"]).map_batches(
        LangId, batch_format="pyarrow", concurrency=(1, 4), zero_copy_batch=True
    )


def _lang_id_sql() -> str:
    member_rows = ", ".join(
        f"('{lang}', '{tok}')"
        for lang in sorted(k for k, v in _LANG_MARKERS.items() if v)
        for tok in sorted(_LANG_MARKERS[lang])
    )
    return f"""
WITH markers(mlang, tok) AS (VALUES {member_rows}),
tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
hits AS (
  SELECT t.doc_id, m.mlang, count(*) AS h
  FROM tok t JOIN markers m ON t.tk = m.tok
  GROUP BY t.doc_id, m.mlang
),
best AS (
  SELECT doc_id, mlang, h,
         row_number() OVER (PARTITION BY doc_id ORDER BY h DESC, mlang ASC) AS rn
  FROM hits
)
SELECT d.doc_id, d.lang,
       coalesce(b.mlang, 'unknown') AS pred_lang
FROM documents d
LEFT JOIN best b ON b.doc_id = d.doc_id AND b.rn = 1
"""


LANG_ID_SQL = _lang_id_sql()


# ---------------------------------------------------------------------------
_FP_WINDOW = 4
_FP_K = 5  # k-gram chars
_FP_BASE = np.uint64(1099511628211)  # FNV-ish odd multiplier


def _winnow_batch(texts) -> list[np.ndarray]:
    """Winnowing document fingerprints (Schleimer et al., SIGMOD 2003) for a
    whole batch: rolling polynomial hashes of char k-grams, min per sliding
    window, per-doc sorted unique.  Fully vectorized — the token-character
    stream comes from one Arrow regex pass, k-gram hashes are 5 shifted
    numpy slices over the flat byte array, window minima one
    sliding_window_view per doc (round-1 kernel ran blake2b per character
    position in Python)."""
    cleaned = pc.replace_substring_regex(
        pc.utf8_lower(texts), pattern="[^a-z0-9]", replacement=""
    )  # == "".join(tokenize(text)) under the engine analyzer spec
    if isinstance(cleaned, pa.ChunkedArray):
        cleaned = cleaned.combine_chunks()
    n_docs = len(cleaned)
    lens = pc.binary_length(cleaned).to_numpy(zero_copy_only=False).astype(np.int64)
    offs = np.zeros(n_docs + 1, np.int64)
    np.cumsum(lens, out=offs[1:])
    off_buf = np.frombuffer(cleaned.buffers()[1], dtype=np.int32)
    start = int(off_buf[cleaned.offset])
    end = int(off_buf[cleaned.offset + n_docs])
    data = (
        np.frombuffer(cleaned.buffers()[2], dtype=np.uint8, count=end)[start:]
        if end > start
        else np.empty(0, np.uint8)
    )
    n = data.size
    h = np.empty(0, np.uint64)
    if n >= _FP_K:
        d = data.astype(np.uint64)
        with np.errstate(over="ignore"):
            h = d[: n - _FP_K + 1].copy()
            for j in range(1, _FP_K):
                h = h * _FP_BASE + d[j : n - _FP_K + 1 + j]
        h >>= np.uint64(1)  # int64-safe
    out = []
    sw = np.lib.stride_tricks.sliding_window_view
    for i in range(n_docs):
        lo, hi = int(offs[i]), int(offs[i + 1])
        if hi - lo < _FP_K:
            out.append(np.empty(0, np.int64))
            continue
        hd = h[lo : hi - _FP_K + 1]
        w = min(_FP_WINDOW, hd.size)
        mins = sw(hd, w).min(axis=1)
        out.append(np.unique(mins).astype(np.int64))
    return out


def fingerprints(sf_dir: str):
    """Per-doc winnowing fingerprint summary (rows-only check)."""

    def fn(t: pa.Table) -> pa.Table:
        fps_per_doc = _winnow_batch(t["text"])
        n = np.array([f.size for f in fps_per_doc], dtype=np.int64)
        lo = np.array([f[0] if f.size else 0 for f in fps_per_doc], dtype=np.int64)
        hi = np.array([f[-1] if f.size else 0 for f in fps_per_doc], dtype=np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_fingerprints": pa.array(n, pa.int64()),
                "min_fp": pa.array(lo, pa.int64()),
                "max_fp": pa.array(hi, pa.int64()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# PII redaction: the scrub stage every training-data pipeline runs before
# tokenization.  Both Arrow (`replace_substring_regex`) and DuckDB
# (`regexp_replace(..., 'g')`) execute RE2, so one pattern string is the
# single source of truth for both sides.  The synthetic corpus contains no
# PII, so the operator deterministically injects a contact line per doc
# (same `||` expression in the SQL oracle) and the thing under test is the
# redactor itself: patterns, ordering (emails before bare digit runs — an
# address's local part may contain digits), and the redaction counts.
_PII_RULES = (
    # (pattern, replacement) applied in order
    (r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b\d{7,}\b", "<NUM>"),
)


def redact_pii(sf_dir: str):
    def fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        ids_s = ids.cast(pa.string())
        octet = pc.cast(pc.subtract(ids, pc.multiply(pc.divide(ids, 256), 256)), pa.string())
        text = pc.binary_join_element_wise(
            t["text"], " contact user", ids_s, "@mail.example.com ip 10.0.",
            octet, ".7 ref 90210", ids_s, "55", "",
        )
        n = pa.array(np.zeros(len(t), dtype=np.int64), pa.int64())
        for pat, repl in _PII_RULES:
            n = pc.add(n, pc.count_substring_regex(text, pat).cast(pa.int64()))
            text = pc.replace_substring_regex(text, pat, repl)
        return pa.table(
            {"doc_id": ids, "text_clean": text, "n_redacted": n}
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Global heavy hitters: the "what does this corpus talk about" staple of a
# training-data pipeline (vocabulary audits, stopword discovery, boilerplate
# spotting).  Exact path + a mergeable Misra-Gries sketch as the
# bounded-memory scale path.
_TOP_TERMS_N = 50


def top_terms(sf_dir: str, n_out: int = _TOP_TERMS_N):
    """Exact global top-N terms by document frequency (tie: term ASC).

    Scale shape: the reduce key (term) is vocab-cardinality, so the combine
    is map-side partial df/tf per batch -> ONE coarse shuffle on a term-hash
    partition key -> one vectorized pandas groupby + LOCAL top-N per
    partition -> driver merge of only P*N rows (independent of corpus and
    vocab size; a term's rows all land in one partition, so per-partition
    top-N is globally safe)."""

    def partials(t: pa.Table) -> pa.Table:
        _, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        tt = pa.table({"term": terms, "tf": pa.array(tfs.astype(np.int64))})
        g = tt.group_by("term").aggregate([("tf", "sum"), ("tf", "count")])
        return pa.table(
            {
                "term": g["term"],
                "df_part": g["tf_count"].cast(pa.int64()),
                "tf_part": g["tf_sum"],
            }
        )

    def top_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("term", sort=False, as_index=False).agg(
            df=("df_part", "sum"), tf_total=("tf_part", "sum")
        )
        return agg.sort_values(
            ["df", "term"], ascending=[False, True], kind="mergesort"
        ).head(n_out)

    schema = pa.schema({"term": STR, "df": I64, "tf_total": I64})
    out = collect(by_key(  # <= N_PARTS * n_out rows
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", top_of_partition, schema,
    ), schema)
    out = out.sort_values(
        ["df", "term"], ascending=[False, True], kind="mergesort"
    ).head(n_out).reset_index(drop=True)
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    return out


TOP_TERMS_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
agg AS (
  SELECT tk AS term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS tf_total
  FROM tf GROUP BY tk
),
ranked AS (
  SELECT row_number() OVER (ORDER BY df DESC, term) AS rank,
         term, df, tf_total
  FROM agg
)
SELECT rank, term, df, tf_total FROM ranked WHERE rank <= {_TOP_TERMS_N}
"""


_MG_K = 256


def _mg_summary_batch(t: pa.Table, k: int) -> pa.Table:
    """One batch -> its MG(k) summary plus a term="" token-total marker row
    (module-level so the empty-summary edge is unit-testable)."""
    _, terms, tfs, doclens = tokenize_counts_arrow(t["text"])
    n_tokens = int(doclens.astype(np.int64).sum())
    tt = pa.table({"term": terms, "tf": pa.array(tfs.astype(np.int64))})
    g = tt.group_by("term").aggregate([("tf", "sum")])
    cnt = g["tf_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    gterms = g["term"]
    if cnt.size > k:
        thresh = np.partition(cnt, cnt.size - k - 1)[cnt.size - k - 1]
        cnt = cnt - thresh
        keep = cnt > 0
        gterms = gterms.combine_chunks().filter(pa.array(keep)) if isinstance(
            gterms, pa.ChunkedArray
        ) else gterms.filter(pa.array(keep))
        cnt = cnt[keep]
    # the batch's token total rides a dedicated term="" marker row
    # (est=0), emitted even when the truncated summary is EMPTY (a batch
    # of all-equal counts > k truncates to nothing) — dropping it would
    # lose that batch's share of N and break est <= true <= est+err_ub
    if isinstance(gterms, pa.ChunkedArray):
        gterms = gterms.combine_chunks()
    terms_out = pa.concat_arrays([gterms, pa.array([""], gterms.type)])
    est_out = np.concatenate([cnt, np.zeros(1, np.int64)])
    ntok_col = np.zeros(est_out.size, np.int64)
    ntok_col[-1] = n_tokens
    return pa.table(
        {
            "term": terms_out,
            "est": pa.array(est_out, pa.int64()),
            "n_tokens": pa.array(ntok_col, pa.int64()),
        }
    )


def top_terms_sketch(sf_dir: str, k: int = _MG_K, n_out: int = _TOP_TERMS_N):
    """Misra-Gries heavy hitters over total term frequency (rows-only entry;
    the error bound is pytest-asserted against exact counts).

    Each batch emits an MG(k) summary (<= k rows, vectorized: one Arrow
    group-sum then one argpartition); summaries are merged associatively
    (sum same-term counts, subtract the (k+1)-th largest, drop <= 0 —
    Agarwal et al., "Mergeable Summaries", PODS 2012).  The per-term
    summation runs as a coarse term-hash-partition reduce on the cluster
    (summing before truncating is the tightest valid merge order), so the
    driver sees only the DEDUPED candidate terms plus per-partition token
    totals — not n_blocks * k rows — and applies the single final
    truncation.  Every estimate satisfies est <= true <= est + err_ub with
    err_ub = (N - M)/(k+1) (N = total tokens, M = retained mass)."""

    def mg_of_batch(t: pa.Table) -> pa.Table:
        return _mg_summary_batch(t, k)

    def sum_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("term", sort=False, as_index=False)["est"].sum()
        # the partition's share of N rides one marker row (term="")
        out.loc[len(out)] = ["", 0]
        ntok = np.zeros(len(out), np.int64)
        ntok[-1] = int(g["n_tokens"].sum())
        out["n_tokens"] = ntok
        return out

    schema = pa.schema({"term": STR, "est": I64, "n_tokens": I64})
    pdf = collect(by_key(  # deduped candidate terms + one marker row per partition
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(mg_of_batch, batch_format="pyarrow", zero_copy_batch=True),
        "term", sum_of_partition, schema,
    ), schema)
    n_total = int(pdf["n_tokens"].sum())
    merged = pdf[pdf["term"] != ""][["term", "est"]].reset_index(drop=True)
    cnt = merged["est"].to_numpy()
    if cnt.size > k:
        thresh = np.partition(cnt, cnt.size - k - 1)[cnt.size - k - 1]
        merged["est"] = cnt - thresh
        merged = merged[merged["est"] > 0]
    retained = int(merged["est"].sum())
    err_ub = (n_total - retained) // (k + 1) + 1
    out = merged.rename(columns={"est": "est_tf"}).sort_values(
        ["est_tf", "term"], ascending=[False, True], kind="mergesort"
    ).head(n_out).reset_index(drop=True)
    out["err_ub"] = np.int64(err_ub)
    return out


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction: top keywords per document — the classic
# "describe each doc by its most distinctive terms" stage (tagging, topic
# sampling, index-time boosting).
_KEYWORDS_TOP = 3


# vocab rows the driver will collect + broadcast (same size class as the
# IndexReader's per-shard df map; ~24 B/row => ~0.5 GB at the default)
_KW_BCAST_BUDGET_ROWS = 20_000_000


def keywords_tfidf(
    sf_dir: str,
    top: int = _KEYWORDS_TOP,
    df_broadcast_budget_rows: int = _KW_BCAST_BUDGET_ROWS,
):
    """Per-doc top-k terms by tf*ln(n_docs/df), ties broken by term ASC.

    Adaptive, q3-style: pass (1) is the same vocab-scale df aggregate as
    top_terms (coarse term-hash partitions, vectorized combine).  Under the
    row budget the df table is collected once and broadcast via ray.put and
    pass (2) is one streaming corpus pass (per-batch Arrow index_in lookup,
    vectorized score + per-doc top-k).  ABOVE the budget nothing
    vocab-scale ever reaches the driver: (doc,term,tf) rows and (term,df)
    rows ride the SAME coarse term-hash partitions (a union, one shuffle),
    scores are merged per partition, and a second coarse shuffle on a
    doc-hash key finishes the per-doc top-k — both shuffles are
    P-way(coarse), never per-key."""
    import ray

    def df_partials(t: pa.Table) -> pa.Table:
        _, terms, _, _ = tokenize_counts_arrow(t["text"])
        tt = pa.table({"term": terms, "one": pa.array(np.ones(len(terms), np.int64))})
        g = tt.group_by("term").aggregate([("one", "sum")])
        return pa.table({"term": g["term"], "df_part": g["one_sum"]})

    def df_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", sort=False, as_index=False).agg(
            df=("df_part", "sum")
        )

    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    n_docs = docs.count()
    schema = pa.schema({"term": STR, "df": I64})
    df_ds = by_key(  # vocab-scale by construction; executed exactly once
        docs.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", df_of_partition, schema,
    ).materialize()
    if df_ds.count() > df_broadcast_budget_rows:
        return _keywords_tfidf_distributed(docs, df_ds, n_docs, top)
    df_tbl = typed(collect(df_ds, schema), schema)
    vocab = df_tbl["term"].combine_chunks()
    dfs = df_tbl["df"].to_numpy(zero_copy_only=False).astype(np.float64)
    bcast = ray.put((vocab, dfs))

    def score_batch(t: pa.Table) -> pa.Table:
        v, d = ray.get(bcast)
        doc_idx, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        pos = pc.index_in(terms, value_set=v).to_numpy(zero_copy_only=False)
        idf = np.log(float(n_docs) / d[pos.astype(np.int64)])
        score = np.round(tfs.astype(np.float64) * idf, 6)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        pdf = pd.DataFrame(
            {
                "doc_id": ids[doc_idx],
                "term": terms.to_pandas(),
                "tfidf_r6": score,
            }
        )
        pdf = pdf.sort_values(
            ["doc_id", "tfidf_r6", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        pdf["rank"] = pdf.groupby("doc_id", sort=False).cumcount() + 1
        pdf = pdf[pdf["rank"] <= top]
        return pa.Table.from_pandas(
            pdf[["doc_id", "rank", "term", "tfidf_r6"]], preserve_index=False
        )

    return docs.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)


def _tf_rows(t: pa.Table) -> pa.Table:
    """(term, doc_id, val = tf) rows of a docs batch: the doc side of the
    distributed paths' term-keyed union."""
    doc_idx, terms, tfs, _ = tokenize_counts_arrow(t["text"])
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "term": terms.cast(pa.string()),
            "doc_id": pa.array(ids[doc_idx].astype(np.int64), pa.int64()),
            "val": pa.array(tfs.astype(np.int64), pa.int64()),
        }
    )


def _stat_rows(col: str):
    """(term, doc_id = -1, val = col) rows of a vocab table: the statistic
    side of the distributed paths' term-keyed union."""

    def rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "term": t["term"].cast(pa.string()),
                "doc_id": pa.array(np.full(len(t), -1, np.int64), pa.int64()),
                "val": t[col].cast(pa.int64()),
            }
        )

    return rows


def _keywords_tfidf_distributed(docs, df_ds, n_docs: int, top: int):
    """Above-budget tfidf path: nothing vocab-scale on the driver.

    (doc,term,tf) rows and (term,df) rows share one union dataset keyed by
    term; a per-partition pandas merge scores every (doc,term); a second
    keyed shuffle on doc_id finishes the per-doc top-k.  df rows are tagged
    with doc_id = -1 (doc ids in the corpus are non-negative)."""
    union = docs.map_batches(
        _tf_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(df_ds.map_batches(_stat_rows("df"), batch_format="pyarrow"))

    def merge_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        dfm = g[g["doc_id"] < 0][["term", "val"]].rename(columns={"val": "df"})
        tfm = g[g["doc_id"] >= 0]
        m = tfm.merge(dfm, on="term", how="inner")
        score = np.round(
            m["val"].to_numpy(np.float64)
            * np.log(float(n_docs) / m["df"].to_numpy(np.float64)),
            6,
        )
        return pd.DataFrame(
            {"doc_id": m["doc_id"], "term": m["term"], "tfidf_r6": score}
        )

    def topk_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["doc_id", "tfidf_r6", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        g = g.assign(rank=g.groupby("doc_id", sort=False).cumcount() + 1)
        return g[g["rank"] <= top]

    scored = by_key(
        union, "term", merge_of_partition,
        pa.schema({"doc_id": I64, "term": STR, "tfidf_r6": F64}),
    )
    return by_key(
        scored, "doc_id", topk_of_partition,
        pa.schema({"doc_id": I64, "rank": I64, "term": STR, "tfidf_r6": F64}),
    )


KEYWORDS_TFIDF_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT doc_id, tk, count(*) AS tf FROM tok GROUP BY doc_id, tk),
df AS (SELECT tk, count(*) AS df FROM tf GROUP BY tk),
stats AS (SELECT (SELECT count(*) FROM documents) AS n),
scored AS (
  SELECT tf.doc_id, tf.tk AS term,
         round(tf.tf * ln(s.n * 1.0 / df.df), 6) AS tfidf_r6
  FROM tf JOIN df ON df.tk = tf.tk CROSS JOIN stats s
),
ranked AS (
  SELECT doc_id, term, tfidf_r6,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tfidf_r6 DESC, term) AS rank
  FROM scored
)
SELECT doc_id, rank, term, tfidf_r6 FROM ranked WHERE rank <= {_KEYWORDS_TOP}
"""


# ---------------------------------------------------------------------------
# Gopher-style repetition signals (Rae et al. 2021 §A1.1): the fraction of a
# doc covered by its most frequent 1/2/3-gram.  High values flag boilerplate
# and degenerate repetition — a standard pre-training quality filter.


def repetition_scores(sf_dir: str):
    """Per-doc top-{1,2,3}-gram frequency fractions (round 6; 0.0 when the
    doc has no n-grams of that order).  Exact string n-grams via the shared
    ngram_stream_arrow kernel, so the op is oracle-checked — per-(doc, gram)
    counts and maxima are one np.unique + np.maximum.at per order."""

    def fn(t: pa.Table) -> pa.Table:
        n_rows = len(t)
        out = {"doc_id": t["doc_id"]}
        stream = token_array_stream(t["text"])  # one split for all 3 orders
        for n in (1, 2, 3):
            codes, parents, vocab = ngram_from_stream(*stream, n)
            top = np.zeros(n_rows, np.float64)
            tot = np.bincount(parents, minlength=n_rows).astype(np.float64)
            if codes.size:
                nv = len(vocab)
                key = parents * nv + codes
                ukey, counts = np.unique(key, return_counts=True)
                np.maximum.at(top, ukey // nv, counts.astype(np.float64))
            frac = np.divide(
                top, tot, out=np.zeros(n_rows, np.float64), where=tot > 0
            )
            out[f"top{n}_frac"] = pa.array(np.round(frac, 6), pa.float64())
        return pa.table(out)

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


REPETITION_SCORES_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
uni AS (
  SELECT doc_id, max(c) AS m, sum(c) AS tot FROM (
    SELECT doc_id, tk, count(*) AS c
    FROM (SELECT doc_id, unnest(toks) AS tk FROM tok)
    GROUP BY doc_id, tk
  ) GROUP BY doc_id
),
pos2 AS (
  SELECT doc_id, unnest(generate_series(1, greatest(len(toks)-1, 0))) AS i, toks
  FROM tok
),
big AS (
  SELECT doc_id, max(c) AS m, sum(c) AS tot FROM (
    SELECT doc_id, array_to_string(toks[i:i+1], ' ') AS g, count(*) AS c
    FROM pos2 GROUP BY doc_id, g
  ) GROUP BY doc_id
),
pos3 AS (
  SELECT doc_id, unnest(generate_series(1, greatest(len(toks)-2, 0))) AS i, toks
  FROM tok
),
tri AS (
  SELECT doc_id, max(c) AS m, sum(c) AS tot FROM (
    SELECT doc_id, array_to_string(toks[i:i+2], ' ') AS g, count(*) AS c
    FROM pos3 GROUP BY doc_id, g
  ) GROUP BY doc_id
)
SELECT d.doc_id,
       round(coalesce(u.m * 1.0 / u.tot, 0), 6) AS top1_frac,
       round(coalesce(b.m * 1.0 / b.tot, 0), 6) AS top2_frac,
       round(coalesce(t.m * 1.0 / t.tot, 0), 6) AS top3_frac
FROM documents d
LEFT JOIN uni u USING (doc_id)
LEFT JOIN big b USING (doc_id)
LEFT JOIN tri t USING (doc_id)
"""


REDACT_PII_SQL = r"""
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@mail.example.com ip 10.0.'
              || (doc_id % 256) || '.7 ref 90210' || doc_id || '55' AS text
  FROM documents
),
counted AS (
  SELECT doc_id, text,
         len(regexp_extract_all(text, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}')) AS c1,
         regexp_replace(text, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}', '<EMAIL>', 'g') AS t1
  FROM aug
),
counted2 AS (
  SELECT doc_id, c1,
         len(regexp_extract_all(t1, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c2,
         regexp_replace(t1, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t2
  FROM counted
)
SELECT doc_id,
       regexp_replace(t2, '\b\d{7,}\b', '<NUM>', 'g') AS text_clean,
       CAST(c1 + c2 + len(regexp_extract_all(t2, '\b\d{7,}\b')) AS BIGINT) AS n_redacted
FROM counted2
"""


# ---------------------------------------------------------------------------
# vocab rows the driver will collect + broadcast; same size class / rationale
# as _KW_BCAST_BUDGET_ROWS (keywords_tfidf's df table).
_SURPRISAL_BCAST_BUDGET_ROWS = 20_000_000


def docs_unigram_surprisal(
    sf_dir: str,
    ctf_broadcast_budget_rows: int = _SURPRISAL_BCAST_BUDGET_ROWS,
):
    """Per-doc mean unigram surprisal under the corpus MLE language model:
    mean over tokens of -ln(ctf(t)/N) — the classic LM-perplexity quality
    gate (CCNet-style) with the corpus itself as the model.  Low scores =
    boilerplate-heavy docs; high = rare-token soup; both tails are what a
    curation pass drops.  Reference analog: the quality screens its ingest
    applies before a paper reaches the index
    (ec2/parse_arxiv_papers/__main__.py ingest-time filtering).

    Adaptive like keywords_tfidf: pass (1) aggregates collection term
    frequencies (ctf) on coarse term-hash partitions; under the row budget
    the (term, ctf) table broadcasts once via ray.put and pass (2) is one
    streaming corpus pass.  Above it, (doc,term,tf) rows and (term,ctf)
    rows ride the SAME coarse term-hash partitions (union, one shuffle);
    per-doc PARTIAL surprisal sums re-key on a coarse doc-hash shuffle and
    finish with an exact weighted mean — nothing vocab-scale reaches the
    driver on that path.  Both paths round-6-identical
    (tests/test_ops.py)."""
    import ray

    def ctf_partials(t: pa.Table) -> pa.Table:
        _, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        tt = pa.table(
            {"term": terms, "tf": pa.array(tfs.astype(np.int64), pa.int64())}
        )
        g = tt.group_by("term").aggregate([("tf", "sum")])
        return pa.table({"term": g["term"], "ctf_part": g["tf_sum"]})

    def ctf_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", sort=False, as_index=False).agg(
            ctf=("ctf_part", "sum")
        )

    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    schema = pa.schema({"term": STR, "ctf": I64})
    ctf_ds = by_key(  # vocab-scale by construction; executed exactly once
        docs.map_batches(ctf_partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", ctf_of_partition, schema,
    ).materialize()
    n_tokens = float(ctf_ds.sum("ctf") or 0)
    if ctf_ds.count() > ctf_broadcast_budget_rows:
        return _surprisal_distributed(docs, ctf_ds, n_tokens)
    ctf_tbl = typed(collect(ctf_ds, schema), schema)
    vocab = ctf_tbl["term"].combine_chunks()
    ctfs = ctf_tbl["ctf"].to_numpy(zero_copy_only=False).astype(np.float64)
    bcast = ray.put((vocab, ctfs))

    def score_batch(t: pa.Table) -> pa.Table:
        v, c = ray.get(bcast)
        doc_idx, terms, tfs, doclens = tokenize_counts_arrow(t["text"])
        pos = pc.index_in(terms, value_set=v).to_numpy(zero_copy_only=False)
        s = tfs.astype(np.float64) * np.log(n_tokens / c[pos.astype(np.int64)])
        tot = np.zeros(len(t), np.float64)
        np.add.at(tot, doc_idx, s)
        lens = doclens.astype(np.float64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(doclens.astype(np.int64), pa.int64()),
                "surprisal_r6": pa.array(
                    np.round(tot / np.maximum(lens, 1.0), 6), pa.float64()
                ),
            }
        )

    return docs.map_batches(score_batch, batch_format="pyarrow", zero_copy_batch=True)


def _surprisal_distributed(docs, ctf_ds, n_tokens: float):
    """Above-budget surprisal: keywords_tfidf's union-shuffle shape.  ctf
    rows are tagged doc_id = -1; per term-partition merges emit per-doc
    PARTIAL (sum, token-count) pairs; zero-token marker rows keep empty
    docs present; a doc-keyed shuffle finishes the exact weighted mean."""
    union = docs.map_batches(
        _tf_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(ctf_ds.map_batches(_stat_rows("ctf"), batch_format="pyarrow"))

    def merge_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        cm = g[g["doc_id"] < 0][["term", "val"]].rename(columns={"val": "ctf"})
        tfm = g[g["doc_id"] >= 0]
        m = tfm.merge(cm, on="term", how="inner")
        tfv = m["val"].to_numpy(np.float64)
        s = tfv * np.log(n_tokens / m["ctf"].to_numpy(np.float64))
        return pd.DataFrame(
            {"doc_id": m["doc_id"].to_numpy(np.int64), "s_part": s, "tf_part": tfv}
        ).groupby("doc_id", sort=False, as_index=False).agg(
            s_part=("s_part", "sum"), tf_part=("tf_part", "sum")
        )

    schema = pa.schema({"doc_id": I64, "s_part": F64, "tf_part": F64})

    def marker_rows(t: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(t.num_rows))
        return pa.table([t["doc_id"], zeros, zeros], schema=schema)

    partials = by_key(union, "term", merge_of_partition, schema).union(
        docs.select_columns(["doc_id"]).map_batches(
            marker_rows, batch_format="pyarrow"
        )
    )

    def mean_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False, as_index=False).agg(
            s=("s_part", "sum"), n=("tf_part", "sum")
        )
        lens = out["n"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"],
                "n_tokens": lens.astype(np.int64),
                "surprisal_r6": np.round(
                    out["s"].to_numpy(np.float64) / np.maximum(lens, 1.0), 6
                ),
            }
        )

    return by_key(
        partials, "doc_id", mean_of_partition,
        pa.schema({"doc_id": I64, "n_tokens": I64, "surprisal_r6": F64}),
    )


UNIGRAM_SURPRISAL_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
tf AS (
  SELECT doc_id, tk, count(*) AS tf
  FROM (SELECT doc_id, unnest(toks) AS tk FROM tok)
  GROUP BY doc_id, tk
),
ctf AS (SELECT tk, sum(tf) AS c FROM tf GROUP BY tk),
stats AS (SELECT sum(c) AS n FROM ctf),
per_doc AS (
  SELECT tf.doc_id, sum(tf.tf * ln(s.n * 1.0 / ctf.c)) AS tot,
         sum(tf.tf) AS len
  FROM tf JOIN ctf ON ctf.tk = tf.tk CROSS JOIN stats s
  GROUP BY tf.doc_id
)
SELECT t.doc_id,
       CAST(coalesce(p.len, 0) AS BIGINT) AS n_tokens,
       round(coalesce(p.tot, 0) / greatest(coalesce(p.len, 0), 1), 6)
         AS surprisal_r6
FROM tok t LEFT JOIN per_doc p USING (doc_id)
"""


# ---------------------------------------------------------------------------
_PMI_MIN_COUNT = 5
_PMI_TOP = 100


def docs_pmi_bigrams(
    sf_dir: str, min_count: int = _PMI_MIN_COUNT, n_out: int = _PMI_TOP
):
    """Global top-N bigram collocations by pointwise mutual information:
    pmi = ln((c_ab/M) / ((c_a/N)*(c_b/N))), c_ab >= min_count, ties by
    bigram ASC — the classic phrase-mining pass (Church & Hanks 1990) a
    training-data pipeline runs to build tokenizer merge candidates and
    stop-phrase lists.  Reference analog: the index-side vocabulary
    statistics its search config derives (theorem corpus term tables).

    Scale shape: ONE tokenize pass emits per-batch partial unigram counts
    (keyed by the term) and partial bigram counts (keyed by the first
    token), plus two count-total marker rows per batch (keyed ""); shuffle 1
    finalizes both count tables — a bigram's c_a lands in its own partition
    by construction — applies the min_count gate and re-keys surviving
    bigrams by their second token; shuffle 2 attaches c_b and emits a
    per-partition LOCAL top-N by the oracle's exact (pmi_r6 DESC, bigram)
    key, so the driver merges only P*N candidate rows.  N and M (token /
    bigram totals) come from the two marker rows of the materialized
    shuffle-1 output — no second corpus pass, nothing vocab-scale on the
    driver."""

    # kind: 0 = unigram count, 1 = bigram count, 2 = totals marker
    def partials(t: pa.Table) -> pa.Table:
        flat, parents = token_array_stream(t["text"])
        n_tok = len(flat)
        if n_tok:
            per_doc = np.bincount(parents, minlength=len(t))
            n_big = int(np.maximum(per_doc - 1, 0).sum())
        else:
            n_big = 0
        parts = [
            pa.table(
                {
                    "key": pa.array(["", ""], pa.string()),
                    "kind": pa.array([2, 2], pa.int64()),
                    "gram": pa.array(["n", "m"], pa.string()),
                    "b": pa.array(["", ""], pa.string()),
                    "c": pa.array([n_tok, n_big], pa.int64()),
                }
            )
        ]
        if n_tok:
            ut = pa.table(
                {"term": flat, "one": pa.array(np.ones(n_tok, np.int64))}
            )
            ug = ut.group_by("term").aggregate([("one", "sum")])
            parts.append(
                pa.table(
                    {
                        "key": ug["term"].cast(pa.string()),
                        "kind": pa.array(np.zeros(len(ug), np.int64)),
                        "gram": ug["term"].cast(pa.string()),
                        "b": pa.array([""] * len(ug), pa.string()),
                        "c": ug["one_sum"].cast(pa.int64()),
                    }
                )
            )
        codes, _, vocab = ngram_from_stream(flat, parents, 2)
        if len(codes):
            cnt = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
            halves = pc.split_pattern(vocab, pattern=" ", max_splits=1)
            parts.append(
                pa.table(
                    {
                        "key": pc.list_element(halves, 0).cast(pa.string()),
                        "kind": pa.array(np.ones(len(vocab), np.int64)),
                        "gram": vocab.cast(pa.string()),
                        "b": pc.list_element(halves, 1).cast(pa.string()),
                        "c": pa.array(cnt, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    def finalize_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        # out rows re-keyed for shuffle 2: markers by "", unigrams by the
        # term, surviving bigrams by their second token
        mark = (
            g[g["kind"] == 2]
            .groupby("gram", sort=False, as_index=False)
            .agg(c_ab=("c", "sum"))
        )
        uc = (
            g[g["kind"] == 0]
            .groupby("gram", sort=False, as_index=False)
            .agg(c=("c", "sum"))
        )
        bc = (
            g[g["kind"] == 1]
            .groupby(["gram", "b"], sort=False, as_index=False)
            .agg(c_ab=("c", "sum"))
        )
        bc = bc[bc["c_ab"] >= min_count]
        m = bc.assign(a=bc["gram"].str.split(" ", n=1).str[0]).merge(
            uc.rename(columns={"gram": "a", "c": "c_a"}), on="a", how="inner"
        )
        return pd.concat(
            [
                pd.DataFrame({"key": "", "kind": 2, "gram": mark["gram"], "b": "",
                              "c_ab": mark["c_ab"], "c_a": 0}),
                pd.DataFrame({"key": m["b"], "kind": 1, "gram": m["gram"],
                              "b": m["b"], "c_ab": m["c_ab"], "c_a": m["c_a"]}),
                pd.DataFrame({"key": uc["gram"], "kind": 0, "gram": uc["gram"],
                              "b": "", "c_ab": uc["c"], "c_a": 0}),
            ],
            ignore_index=True,
        )

    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    schema = pa.schema({"key": STR, "kind": I64, "gram": STR, "b": STR,
                        "c_ab": I64, "c_a": I64})
    stage1 = by_key(  # vocab-scale; consumed twice (markers + shuffle 2)
        docs.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "key", finalize_of_partition, schema,
    ).materialize()
    marks = collect(stage1.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 2)), batch_format="pyarrow"
    ), schema)
    totals = dict(zip(marks["gram"], marks["c_ab"]))
    n_tokens = float(totals.get("n", 0) or 1)
    m_bigrams = float(totals.get("m", 0) or 1)

    def topk_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        bc = g[g["kind"] == 1]
        uc = g[g["kind"] == 0][["gram", "c_ab"]].rename(
            columns={"gram": "b", "c_ab": "c_b"}
        )
        m = bc.merge(uc, on="b", how="inner")
        pmi = np.round(
            np.log(
                (m["c_ab"].to_numpy(np.float64) / m_bigrams)
                / (
                    (m["c_a"].to_numpy(np.float64) / n_tokens)
                    * (m["c_b"].to_numpy(np.float64) / n_tokens)
                )
            ),
            6,
        )
        out = pd.DataFrame({"bigram": m["gram"], "c_ab": m["c_ab"], "pmi_r6": pmi})
        return out.sort_values(
            ["pmi_r6", "bigram"], ascending=[False, True], kind="mergesort"
        ).head(n_out)

    schema = pa.schema({"bigram": STR, "c_ab": I64, "pmi_r6": F64})
    cand = collect(  # <= N_PARTS * n_out rows
        by_key(stage1, "key", topk_of_partition, schema), schema
    )
    cand = (
        cand.sort_values(
            ["pmi_r6", "bigram"], ascending=[False, True], kind="mergesort"
        )
        .head(n_out)
        .reset_index(drop=True)
    )
    cand.insert(0, "rank", np.arange(1, len(cand) + 1, dtype=np.int64))
    return cand[["rank", "bigram", "c_ab", "pmi_r6"]]


PMI_BIGRAMS_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT unnest(toks) AS tk FROM tok),
uc AS (SELECT tk, count(*) AS c FROM u GROUP BY tk),
stats AS (
  SELECT (SELECT count(*) FROM u) AS n,
         (SELECT sum(greatest(len(toks) - 1, 0)) FROM tok) AS m
),
pos AS (
  SELECT unnest(generate_series(1, greatest(len(toks) - 1, 0))) AS i, toks
  FROM tok
),
bg AS (
  SELECT toks[i] AS a, toks[i + 1] AS b, count(*) AS c_ab
  FROM pos GROUP BY a, b HAVING count(*) >= {_PMI_MIN_COUNT}
),
scored AS (
  SELECT bg.a || ' ' || bg.b AS bigram, bg.c_ab,
         round(ln((bg.c_ab * 1.0 / s.m)
                  / ((ua.c * 1.0 / s.n) * (ub.c * 1.0 / s.n))), 6) AS pmi_r6
  FROM bg
  JOIN uc ua ON ua.tk = bg.a
  JOIN uc ub ON ub.tk = bg.b
  CROSS JOIN stats s
),
ranked AS (
  SELECT row_number() OVER (ORDER BY pmi_r6 DESC, bigram) AS rank,
         bigram, c_ab, pmi_r6
  FROM scored
)
SELECT rank, bigram, CAST(c_ab AS BIGINT) AS c_ab, pmi_r6
FROM ranked WHERE rank <= {_PMI_TOP}
"""



# ---------------------------------------------------------------------------
# Deterministic messy-unicode suffix appended per doc so the normalizer has
# real work on the (ASCII-clean) synthetic corpus: a combining-accent e
# (NFC-composes to U+00E9), an A with ring (composes to U+00C5), a tab and
# run of spaces.  The SQL oracle appends the identical suffix with chr().
_NORM_AUG_PY = " Café  NÅIVE\tx"


def docs_normalize(sf_dir: str, augment: bool = True):
    """Text canonicalization (the M21-normalizer analog on `documents`):
    Unicode NFC -> lowercase -> collapse [ \\t\\n\\r]+ runs to one space ->
    trim, then fingerprint the canonical form.  The stage every web-text
    pipeline runs before hashing/dedup so byte-different but
    canonically-equal docs collide.  Reference analog: the id/url
    normalizers its ingest applies before keying
    (ec2/parse_arxiv_papers/__main__.py arXiv-id canonicalization).

    Lower/collapse/trim/length are vectorized pyarrow; NFC runs per row via
    unicodedata (pyarrow's utf8_normalize decomposes but does NOT apply
    canonical composition, verified empirically) alongside the per-row md5
    — the same per-doc digest budget as exact_dedup.  Embarrassingly
    parallel — no shuffle.

    ``augment`` (default True, the oracle path) appends the deterministic
    messy-unicode suffix so the normalizer has real work on the ASCII-clean
    synthetic corpus — the SQL twin appends the identical suffix.  Pass
    ``augment=False`` to fingerprint the documents' ACTUAL text (the real
    canonicalization/dedup stage; ADVICE round 4)."""
    import unicodedata

    def fn(t: pa.Table) -> pa.Table:
        if augment:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            aug = pc.binary_join_element_wise(
                t["text"].cast(pa.string()),
                pa.array([_NORM_AUG_PY + str(i % 7) for i in ids], pa.string()),
                "",
            )
        else:
            aug = t["text"].cast(pa.string())
            if isinstance(aug, pa.ChunkedArray):
                aug = aug.combine_chunks()
        norm = pa.array(
            [unicodedata.normalize("NFC", s) for s in aug.to_pylist()],
            pa.string(),
        )
        norm = pc.utf8_lower(norm)
        norm = pc.replace_substring_regex(norm, pattern="[ \t\n\r]+", replacement=" ")
        norm = pc.utf8_trim_whitespace(norm)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "norm_chars": pc.utf8_length(norm).cast(pa.int64()),
                "norm_md5": pa.array(
                    [
                        hashlib.md5(s.encode("utf-8")).hexdigest()
                        for s in norm.to_pylist()
                    ],
                    pa.string(),
                ),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


DOCS_NORMALIZE_SQL = """
WITH aug AS (
  SELECT doc_id,
         text || ' Cafe' || chr(769) || '  NA' || chr(778) || 'IVE'
              || chr(9) || 'x' || CAST(doc_id % 7 AS VARCHAR) AS t
  FROM documents
),
norm AS (
  SELECT doc_id,
         trim(regexp_replace(lower(nfc_normalize(t)),
                             '[ \t\n\r]+', ' ', 'g')) AS n
  FROM aug
)
SELECT doc_id, CAST(length(n) AS BIGINT) AS norm_chars, md5(n) AS norm_md5
FROM norm
"""


# ---------------------------------------------------------------------------
# Tokenizer training primitive: within-word character-pair frequencies —
# the first BPE merge iteration (Sennrich et al. 2016) over the corpus.
_BPE_TOP = 50


def docs_bpe_pair_counts(sf_dir: str, top_n: int = _BPE_TOP):
    """Top-N most frequent adjacent character pairs inside tokens, weighted
    by token occurrence — the merge-candidate table the first iteration of
    BPE tokenizer training computes.  Reference analog: the fixed LaTeX
    tokenization its search applies (SURVEY.md §2.3 analyzer); here the
    corpus-statistics step a pipeline training its OWN tokenizer needs.

    Scale shape (the distributed-BPE word-count compression): each batch is
    first compressed to its DISTINCT tokens with counts (Arrow value_counts
    — the classic word-frequency compaction, ~vocab rows instead of ~token
    occurrences), pairs are expanded VECTORIZED over that small vocab (one
    utf8_slice per character position, bounded by max token length), and
    partial (pair, freq) rows are combined per batch before the global
    groupby — so the shuffle carries at most |char-pair alphabet| (~1.3k
    for [a-z0-9]) rows per block and the driver sees only the result-scale
    pair table.  Tokens are [a-z0-9]+ so codeunits == characters and the
    SQL twin's 1-based string slicing matches exactly."""

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"pair": pa.array([], pa.string()), "freq": pa.array([], pa.int64())}
        )
        flat, _ = token_array_stream(t["text"])
        if len(flat) == 0:
            return empty
        vc = flat.value_counts()
        toks = vc.field("values")
        cnts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        pair_parts, cnt_parts = [], []
        for i in range(int(lens.max()) - 1):
            sel = lens >= i + 2
            if not sel.any():
                break
            sub = toks.filter(pa.array(sel))
            a = pc.utf8_slice_codeunits(sub, start=i, stop=i + 1)
            b = pc.utf8_slice_codeunits(sub, start=i + 1, stop=i + 2)
            joined = pc.binary_join_element_wise(a, b, " ")
            if isinstance(joined, pa.ChunkedArray):
                joined = joined.combine_chunks()
            pair_parts.append(joined)
            cnt_parts.append(cnts[sel])
        if not pair_parts:
            return empty
        batch = pa.table(
            {
                "pair": pa.concat_arrays(pair_parts),
                "freq": pa.array(np.concatenate(cnt_parts), pa.int64()),
            }
        )
        out = batch.group_by("pair").aggregate([("freq", "sum")])
        return out.rename_columns(["pair", "freq"])

    agg = (
        _read_docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("pair")
        .sum("freq")
        .to_pandas()  # <= |char-pair alphabet| rows (~1.3k)
    )
    if "sum(freq)" not in agg.columns:  # empty corpus
        agg = pd.DataFrame({"pair": pd.Series([], dtype="object"),
                            "freq": pd.Series([], dtype="int64")})
    else:
        agg = agg.rename(columns={"sum(freq)": "freq"})
    agg = (
        agg.sort_values(["freq", "pair"], ascending=[False, True], kind="mergesort")
        .head(top_n)
        .reset_index(drop=True)
    )
    agg["freq"] = agg["freq"].astype(np.int64)
    agg.insert(0, "rank", np.arange(1, len(agg) + 1, dtype=np.int64))
    return agg[["rank", "pair", "freq"]]


BPE_PAIR_COUNTS_SQL = f"""
WITH tok AS (
  SELECT list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
u AS (SELECT unnest(toks) AS tk FROM tok),
wc AS (SELECT tk, count(*) AS c FROM u GROUP BY tk),
p AS (
  SELECT tk, c, unnest(generate_series(1, length(tk) - 1)) AS i
  FROM wc WHERE length(tk) >= 2
),
pairs AS (
  SELECT tk[i:i] || ' ' || tk[i+1:i+1] AS pair, sum(c) AS freq
  FROM p GROUP BY pair
),
ranked AS (
  SELECT row_number() OVER (ORDER BY freq DESC, pair) AS rank, pair, freq
  FROM pairs
)
SELECT rank, pair, CAST(freq AS BIGINT) AS freq
FROM ranked WHERE rank <= {_BPE_TOP}
"""


# ---------------------------------------------------------------------------
# CCNet-style perplexity bucketing: head / middle / tail corpus partition by
# LM score, thresholds from a deterministic fixed-rate sample.
_BUCKET_SAMPLE_HEX = "2b"  # md5(doc_id)[:2] < '2b' => 43/256 ~ 16.8% sample


def docs_surprisal_buckets(sf_dir: str):
    """CCNet-style corpus partition (Wenzek et al. 2020): every doc labeled
    head / middle / tail by its LM score relative to tercile thresholds.
    The LM score is the gated `docs_unigram_surprisal` kernel (corpus-MLE
    unigram model, adaptive broadcast/distributed ctf paths); thresholds
    are the ceil(n/3)- and ceil(2n/3)-th smallest (surprisal, doc_id) pairs
    of a DETERMINISTIC md5-prefix sample — exactly how CCNet deploys: the
    percentile cutoffs are computed once on a held-out slice, then applied
    as constants in a streaming pass.

    Scale shape: the scores Dataset materializes once (narrow doc-scale
    rows, object-store resident / spillable) and feeds both consumers; the
    sample is a streaming md5 filter whose RATE is the 100-TB knob (shrink
    it so the collected sample stays task-sized, the same knob as
    docs_stratified_sample); labeling is one vectorized comparison pass
    against two broadcast (value, doc_id) threshold pairs — tie-safe
    because the lexicographic tie-break is part of the rule.  Bucket
    boundaries compare round-6 values, which the surprisal gate already
    proves bitwise-equal to the oracle's."""
    import hashlib

    scores = docs_unigram_surprisal(sf_dir).materialize()

    def sample_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        keep = [
            hashlib.md5(str(i).encode()).hexdigest()[:2] < _BUCKET_SAMPLE_HEX
            for i in ids
        ]
        return t.filter(pa.array(keep, pa.bool_()))

    samp = scores.map_batches(
        sample_batch, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()  # sample-scale by the fixed rate
    if samp.empty:
        # tiny corpus missed by the hash rate: fall back to ALL scores as
        # the threshold sample (still deterministic)
        samp = scores.to_pandas()
    if samp.empty:  # empty corpus: nothing to bucket
        import pandas as _pd

        return _pd.DataFrame(
            {
                "doc_id": _pd.Series([], dtype="int64"),
                "n_tokens": _pd.Series([], dtype="int64"),
                "surprisal_r6": _pd.Series([], dtype="float64"),
                "bucket": _pd.Series([], dtype="object"),
            }
        )
    samp = samp.sort_values(
        ["surprisal_r6", "doc_id"], kind="mergesort"
    ).reset_index(drop=True)
    n_s = len(samp)
    k1 = int(np.ceil(n_s / 3.0))
    k2 = int(np.ceil(2.0 * n_s / 3.0))
    t1 = (float(samp["surprisal_r6"].iat[k1 - 1]), int(samp["doc_id"].iat[k1 - 1]))
    t2 = (float(samp["surprisal_r6"].iat[k2 - 1]), int(samp["doc_id"].iat[k2 - 1]))

    def label(t: pa.Table) -> pa.Table:
        s = t["surprisal_r6"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        le1 = (s < t1[0]) | ((s == t1[0]) & (ids <= t1[1]))
        le2 = (s < t2[0]) | ((s == t2[0]) & (ids <= t2[1]))
        bucket = np.where(le1, "head", np.where(le2, "middle", "tail"))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": t["n_tokens"],
                "surprisal_r6": t["surprisal_r6"],
                "bucket": pa.array(bucket, pa.string()),
            }
        )

    return scores.map_batches(label, batch_format="pyarrow", zero_copy_batch=True)


SURPRISAL_BUCKETS_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
tf AS (
  SELECT doc_id, tk, count(*) AS tf
  FROM (SELECT doc_id, unnest(toks) AS tk FROM tok)
  GROUP BY doc_id, tk
),
ctf AS (SELECT tk, sum(tf) AS c FROM tf GROUP BY tk),
stats AS (SELECT sum(c) AS n FROM ctf),
per_doc AS (
  SELECT tf.doc_id, sum(tf.tf * ln(s.n * 1.0 / ctf.c)) AS tot,
         sum(tf.tf) AS len
  FROM tf JOIN ctf ON ctf.tk = tf.tk CROSS JOIN stats s
  GROUP BY tf.doc_id
),
s AS (
  SELECT t.doc_id,
         CAST(coalesce(p.len, 0) AS BIGINT) AS n_tokens,
         round(coalesce(p.tot, 0) / greatest(coalesce(p.len, 0), 1), 6) AS sr
  FROM tok t LEFT JOIN per_doc p USING (doc_id)
),
samp AS (
  SELECT doc_id, sr,
         row_number() OVER (ORDER BY sr, doc_id) AS rn,
         count(*) OVER () AS n_s
  FROM s
  WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '{_BUCKET_SAMPLE_HEX}'
),
t1 AS (SELECT sr, doc_id FROM samp WHERE rn = CAST(ceil(n_s / 3.0) AS BIGINT)),
t2 AS (SELECT sr, doc_id FROM samp
       WHERE rn = CAST(ceil(2 * n_s / 3.0) AS BIGINT))
SELECT s.doc_id, s.n_tokens, s.sr AS surprisal_r6,
       CASE WHEN s.sr < t1.sr OR (s.sr = t1.sr AND s.doc_id <= t1.doc_id)
              THEN 'head'
            WHEN s.sr < t2.sr OR (s.sr = t2.sr AND s.doc_id <= t2.doc_id)
              THEN 'middle'
            ELSE 'tail' END AS bucket
FROM s CROSS JOIN t1 CROSS JOIN t2
"""


# ---------------------------------------------------------------------------
def docs_ttr(sf_dir: str):
    """Per-doc type-token ratio (lexical diversity): distinct tokens /
    tokens — the classic vocabulary-richness quality feature (low TTR =
    repetitive boilerplate; complements repetition_scores' top-n-gram
    fractions).  One vectorized tokenize-and-count pass (the (doc, term)
    triples from tokenize_counts_arrow give distinct counts by a bincount),
    embarrassingly parallel, no shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        doc_idx, _, _, doclens = tokenize_counts_arrow(t["text"])
        n = len(t)
        n_types = (
            np.bincount(doc_idx, minlength=n).astype(np.int64)
            if len(doc_idx)
            else np.zeros(n, np.int64)
        )
        n_tokens = doclens.astype(np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_types": pa.array(n_types, pa.int64()),
                "ttr_r6": pa.array(
                    np.round(n_types / np.maximum(n_tokens, 1), 6), pa.float64()
                ),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


DOCS_TTR_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
)
SELECT doc_id,
       CAST(len(toks) AS BIGINT) AS n_tokens,
       CAST(len(list_distinct(toks)) AS BIGINT) AS n_types,
       round(len(list_distinct(toks)) * 1.0 / greatest(len(toks), 1), 6)
         AS ttr_r6
FROM tok
"""


# ---------------------------------------------------------------------------
# BPE tokenizer training (Sennrich et al. 2016): the full merge loop on top
# of the gated pair-count primitive.
_BPE_MERGES = 30


def bpe_train_merges(sf_dir: str, n_merges: int = _BPE_MERGES):
    """Learn the first `n_merges` BPE merges over the corpus: the
    word-frequency table reduces DISTRIBUTED (per-batch value_counts
    partials, term groupby — the same compaction as docs_bpe_pair_counts),
    then the merge loop runs driver-side over that table.  Word counts are
    vocab-scale (sublinear in the corpus; every production BPE trainer —
    HF tokenizers, SentencePiece — trains on one machine over exactly this
    table), so the driver-side loop is the documented-small step, not a
    corpus materialization.  Ties break (freq DESC, pair ASC) so training
    is deterministic.  Output: (rank, pair, freq) — merge `rank` joined
    the two space-separated symbols of `pair` with frequency `freq` at the
    time of the merge.  Consistency is pytest-pinned: merge 1 equals the
    gated docs_bpe_pair_counts' top pair."""

    def partial(t: pa.Table) -> pa.Table:
        flat, _ = token_array_stream(t["text"])
        if len(flat) == 0:
            return pa.table(
                {"tok": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
            )
        vc = flat.value_counts()
        return pa.table(
            {
                "tok": vc.field("values"),
                "c": vc.field("counts").cast(pa.int64()),
            }
        )

    import pandas as pd

    wc = (
        _read_docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tok")
        .sum("c")
        .to_pandas()  # vocab-scale (documented-small: the BPE training table)
    )
    if "sum(c)" not in wc.columns:  # empty corpus
        wc = pd.DataFrame({"tok": pd.Series([], dtype="object"),
                           "c": pd.Series([], dtype="int64")})
    else:
        wc = wc.rename(columns={"sum(c)": "c"})
    words = {
        tuple(tok): int(c) for tok, c in zip(wc["tok"], wc["c"]) if len(tok) >= 2
    }
    merges = []
    for rank in range(1, n_merges + 1):
        pairs: dict[tuple[str, str], int] = {}
        for w, c in words.items():
            for i in range(len(w) - 1):
                p = (w[i], w[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), freq = best
        merges.append((rank, f"{a} {b}", freq))
        merged = a + b
        new_words: dict[tuple, int] = {}
        for w, c in words.items():
            out, i = [], 0
            while i < len(w):
                if i + 1 < len(w) and w[i] == a and w[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(w[i])
                    i += 1
            t_ = tuple(out)
            new_words[t_] = new_words.get(t_, 0) + c
        words = new_words
    return pd.DataFrame(
        {
            "rank": pd.array([m[0] for m in merges], dtype="int64"),
            "pair": [m[1] for m in merges],
            "freq": pd.array([m[2] for m in merges], dtype="int64"),
        }
    )


def bpe_encode_docs(sf_dir: str, n_merges: int = _BPE_MERGES):
    """Apply the learned BPE merges: encode every document with the
    `bpe_train_merges` tokenizer and report per-doc piece statistics
    (n_tokens, n_chars, n_pieces, pieces_per_token_r6) — the
    "use the tokenizer you trained" step, and the token-count signal a
    data-mixing pass actually budgets with.

    Scale shape: the merge list (30 rows) broadcasts via ray.put; each
    batch encodes only its DISTINCT tokens (dictionary compaction — the
    same trick as pair counting: encode cost is vocab-bounded, not
    occurrence-bounded) and maps piece counts back through the
    occurrence stream with one take.  Rows-only entry; pytest asserts
    per-token equality with an independent reference application and the
    0-merge == chars identity."""
    import ray

    merges = bpe_train_merges(sf_dir, n_merges)
    merge_list = [tuple(p.split(" ", 1)) for p in merges["pair"]]
    bcast = ray.put(merge_list)

    def encode_token(tok: str, ml: list) -> int:
        syms = list(tok)
        for a, b in ml:
            i, out = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
            if len(syms) == 1:
                break
        return len(syms)

    def fn(t: pa.Table) -> pa.Table:
        ml = ray.get(bcast)
        flat, parents = token_array_stream(t["text"])
        n = len(t)
        n_tokens = (
            np.bincount(parents, minlength=n).astype(np.int64)
            if len(parents)
            else np.zeros(n, np.int64)
        )
        pieces_per_doc = np.zeros(n, np.int64)
        chars_per_doc = np.zeros(n, np.int64)
        if len(flat):
            de = flat.dictionary_encode()
            if isinstance(de, pa.ChunkedArray):
                de = de.combine_chunks()
            codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = de.dictionary.to_pylist()
            vocab_pieces = np.fromiter(
                (encode_token(v, ml) for v in vocab), np.int64, count=len(vocab)
            )
            vocab_chars = np.fromiter(
                (len(v) for v in vocab), np.int64, count=len(vocab)
            )
            np.add.at(pieces_per_doc, parents, vocab_pieces[codes])
            np.add.at(chars_per_doc, parents, vocab_chars[codes])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_chars": pa.array(chars_per_doc, pa.int64()),
                "n_pieces": pa.array(pieces_per_doc, pa.int64()),
                "pieces_per_token_r6": pa.array(
                    np.round(pieces_per_doc / np.maximum(n_tokens, 1), 6),
                    pa.float64(),
                ),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Corpus length histogram — the curation observability staple (choose length
# gates / spot truncation cliffs before committing a filter threshold).
_LEN_BIN = 256


def docs_length_histogram(sf_dir: str):
    """(bin_lo, n_docs, share_r6): corpus histogram of document character
    length in `_LEN_BIN`-wide bins.  Scale shape: per-batch bincount
    partials (bin-grain, bounded by max doc length / bin width, never
    doc-grain), one tiny bin-keyed reduce; shares are computed on the
    result-scale histogram rows.  Column-pruned to the precomputed
    n_chars metadata column — the text never leaves storage."""

    def partial(t: pa.Table) -> pa.Table:
        n = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        bins = n // _LEN_BIN
        cnt = np.bincount(bins)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "bin_lo": pa.array(nz * _LEN_BIN, pa.int64()),
                "n_part": pa.array(cnt[nz], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    hist = (
        _read_docs(sf_dir, columns=["n_chars"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bin_lo")
        .aggregate(Sum("n_part", alias_name="n_docs"))
        .to_pandas()  # histogram-scale: max_len / _LEN_BIN rows
    )
    if hist.empty:  # 0-row corpus: Ray's empty groupby drops the schema
        return pd.DataFrame(
            {
                "bin_lo": pd.Series([], dtype="int64"),
                "n_docs": pd.Series([], dtype="int64"),
                "share_r6": pd.Series([], dtype="float64"),
            }
        )
    total = int(hist["n_docs"].sum())
    hist["share_r6"] = np.round(hist["n_docs"] / max(total, 1), 6)
    return hist.sort_values("bin_lo").reset_index(drop=True)


LENGTH_HISTOGRAM_SQL = f"""
WITH h AS (
  SELECT (n_chars // {_LEN_BIN}) * {_LEN_BIN} AS bin_lo,
         count(*) AS n_docs
  FROM documents GROUP BY 1
)
SELECT bin_lo, n_docs,
       round(n_docs * 1.0 / (SELECT sum(n_docs) FROM h), 6) AS share_r6
FROM h ORDER BY bin_lo
"""


# ---------------------------------------------------------------------------
# Global percent_rank WITHOUT a global sort — the value-grain-CDF trick for
# bounded-cardinality keys (document length percentile of every doc).


def docs_length_percentiles(sf_dir: str):
    """(doc_id, n_chars, pct_rank_r6): each document's exact global length
    percentile (percent_rank = strictly-shorter count / (n-1)).  Scale
    shape: a global window function computed with NO global sort — pass 1
    reduces per-batch value-grain counts (n_chars cardinality is bounded
    by the length gate, hundreds of values at any corpus size) into an
    exact CDF; pass 2 broadcasts the (sorted values, below-counts, n)
    arrays and labels every doc with one searchsorted — both passes
    stream, nothing doc-scale touches the driver."""
    import ray
    from ray.data.aggregate import Sum

    ds1 = _read_docs(sf_dir, columns=["n_chars"])

    def count_partial(t: pa.Table) -> pa.Table:
        v, c = np.unique(
            t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {"val": pa.array(v, pa.int64()), "c": pa.array(c, pa.int64())}
        )

    cdf = collect(  # value-grain: bounded distinct lengths
        ds1.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("val")
        .aggregate(Sum("c", alias_name="c")),
        pa.schema({"val": I64, "c": I64}),
    ).sort_values("val")
    vals = cdf["val"].to_numpy()
    counts = cdf["c"].to_numpy()
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))
    n = int(counts.sum())
    bcast = ray.put((vals, below, n))

    def label(t: pa.Table) -> pa.Table:
        v, b, total = ray.get(bcast)
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(v, x)  # every value occurs in pass 1
        pr = b[pos] / max(total - 1, 1)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "pct_rank_r6": pa.array(np.round(pr, 6), pa.float64()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        label, batch_format="pyarrow", zero_copy_batch=True
    )


LENGTH_PERCENTILES_SQL = """
SELECT doc_id, n_chars,
       round(percent_rank() OVER (ORDER BY n_chars), 6) AS pct_rank_r6
FROM documents
"""


# ---------------------------------------------------------------------------
# Grouped top-N terms — per-language vocabulary heads (the per-corpus-slice
# twin of the global top_terms pass; what a multilingual curation run reads
# to eyeball each language slice's vocabulary).

_LANG_TOP_N = 10


def lang_top_terms(sf_dir: str, n_out: int = _LANG_TOP_N):
    """(lang, rank, term, df, tf_total): exact per-language top-N terms by
    document frequency (tie: term ASC) — grouped top-N over a
    vocab-cardinality reduce.  Scale shape: same as top_terms with lang
    riding along — map-side partial (lang, term) df/tf per batch -> ONE
    coarse term-hash shuffle (a term's rows, hence every (lang, term)
    group, land in one partition) -> one vectorized per-partition
    groupby + LOCAL per-lang top-N -> driver merge of only
    P * n_langs * N rows (independent of corpus and vocab size).
    Reference analog: the per-subject vocabulary statistics its search
    config derives from the theorem corpus."""

    def partials(t: pa.Table) -> pa.Table:
        doc_idx, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        langs = t["lang"].take(pa.array(doc_idx))
        tt = pa.table(
            {"lang": langs, "term": terms,
             "tf": pa.array(tfs.astype(np.int64))}
        )
        g = tt.group_by(["lang", "term"]).aggregate([("tf", "sum"), ("tf", "count")])
        return pa.table(
            {
                "lang": g["lang"],
                "term": g["term"],
                "df_part": g["tf_count"].cast(pa.int64()),
                "tf_part": g["tf_sum"],
            }
        )

    def top_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["lang", "term"], sort=False, as_index=False).agg(
            df=("df_part", "sum"), tf_total=("tf_part", "sum")
        )
        agg = agg.sort_values(
            ["lang", "df", "term"], ascending=[True, False, True],
            kind="mergesort",
        )
        return agg.groupby("lang", sort=False).head(n_out)

    schema = pa.schema({"lang": STR, "term": STR, "df": I64, "tf_total": I64})
    out = collect(by_key(  # <= N_PARTS * n_langs * n_out rows
        _read_docs(sf_dir, columns=["doc_id", "lang", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", top_of_partition, schema,
    ), schema)
    out = out.sort_values(
        ["lang", "df", "term"], ascending=[True, False, True], kind="mergesort"
    )
    out = out.groupby("lang", sort=False).head(n_out).reset_index(drop=True)
    out.insert(
        1,
        "rank",
        out.groupby("lang", sort=False).cumcount().to_numpy(np.int64) + 1,
    )
    return out


LANG_TOP_TERMS_SQL = f"""
WITH tok AS (
  SELECT doc_id, lang,
         unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT lang, doc_id, tk, count(*) AS tf FROM tok GROUP BY lang, doc_id, tk),
agg AS (
  SELECT lang, tk AS term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS tf_total
  FROM tf GROUP BY lang, tk
),
ranked AS (
  SELECT lang,
         row_number() OVER (PARTITION BY lang ORDER BY df DESC, term) AS rank,
         term, df, tf_total
  FROM agg
)
SELECT lang, rank, term, df, tf_total FROM ranked WHERE rank <= {_LANG_TOP_N}
ORDER BY lang, rank
"""


# ---------------------------------------------------------------------------
# Bigram-LM surprisal — the order-2 member next to docs_unigram_surprisal:
# score each document under an add-one-smoothed conditional bigram model
# trained on the corpus itself (the KenLM-style perplexity gate of CCNet /
# Gopher, one order up from the unigram screen).

_BIGRAM_BCAST_BUDGET_ROWS = 20_000_000


def docs_bigram_surprisal(
    sf_dir: str,
    model_broadcast_budget_rows: int = _BIGRAM_BCAST_BUDGET_ROWS,
):
    """Per-doc mean bigram surprisal: mean over adjacent token pairs (a, b)
    of -ln((c_ab + 1) / (c_a + V)) — conditional P(b|a) with add-one
    smoothing, V = distinct-unigram count.  Boilerplate text scores low,
    rare-sequence soup scores high; the order-2 signal catches shuffled /
    concatenated junk the unigram screen cannot.

    Adaptive like docs_unigram_surprisal: pass (1) reduces the model
    (unigram + bigram counts) keyed by gram; under the
    row budget it broadcasts once via ray.put and pass (2) is one
    streaming corpus pass scoring each batch's DISTINCT bigrams then
    scattering per-occurrence sums with one np.add.at.  Above budget,
    per-doc bigram rows and both model tables are keyed by the first
    token (union, one shuffle — a bigram's c_ab AND its c_a land in its
    partition by construction); per-doc partial sums re-key on doc_id and
    finish with an exact weighted mean.  Both paths round-6-identical
    (tests/test_ops.py)."""
    import ray

    # kind: 0 = unigram count (gram = a), 1 = bigram count (gram = "a b")
    def model_partials(t: pa.Table) -> pa.Table:
        flat, parents = token_array_stream(t["text"])
        parts = []
        if len(flat):
            ut = pa.table(
                {"gram": flat, "one": pa.array(np.ones(len(flat), np.int64))}
            )
            ug = ut.group_by("gram").aggregate([("one", "sum")])
            parts.append(
                pa.table(
                    {
                        "kind": pa.array(np.zeros(len(ug), np.int64)),
                        "gram": ug["gram"].cast(pa.string()),
                        "c": ug["one_sum"].cast(pa.int64()),
                    }
                )
            )
        codes, _, vocab = ngram_from_stream(flat, parents, 2)
        if len(codes):
            cnt = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
            parts.append(
                pa.table(
                    {
                        "kind": pa.array(np.ones(len(vocab), np.int64)),
                        "gram": vocab.cast(pa.string()),
                        "c": pa.array(cnt, pa.int64()),
                    }
                )
            )
        if not parts:
            return schema.empty_table()
        return pa.concat_tables(parts)

    def model_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["kind", "gram"], sort=False, as_index=False).agg(
            c=("c", "sum")
        )

    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    schema = pa.schema({"kind": I64, "gram": STR, "c": I64})
    model = by_key(  # vocab-scale by construction; executed exactly once
        docs.map_batches(
            model_partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        "gram", model_of_partition, schema,
    ).materialize()
    n_vocab = float(
        model.map_batches(
            lambda t: pa.table(
                {"v": pa.array([int(pc.sum(
                    pc.cast(pc.equal(t["kind"], 0), pa.int64())
                ).as_py() or 0)], pa.int64())}
            ),
            batch_format="pyarrow",
        ).sum("v")
        or 0
    )
    if model.count() > model_broadcast_budget_rows:
        return _bigram_surprisal_distributed(docs, model, n_vocab)

    mt = typed(collect(model, schema), schema)
    uni = mt.filter(pc.equal(mt["kind"], 0))
    bi = mt.filter(pc.equal(mt["kind"], 1))
    bcast = ray.put(
        (
            uni["gram"].combine_chunks(),
            uni["c"].to_numpy(zero_copy_only=False).astype(np.float64),
            bi["gram"].combine_chunks(),
            bi["c"].to_numpy(zero_copy_only=False).astype(np.float64),
        )
    )

    def score_batch(t: pa.Table) -> pa.Table:
        uv, uc_, bv, bc_ = ray.get(bcast)
        flat, parents = token_array_stream(t["text"])
        codes, gparents, vocab = ngram_from_stream(flat, parents, 2)
        m_doc = np.bincount(gparents, minlength=len(t)).astype(np.float64)
        tot = np.zeros(len(t), np.float64)
        if len(codes):
            pos_b = pc.index_in(vocab, value_set=bv).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            halves = pc.split_pattern(vocab, pattern=" ", max_splits=1)
            pos_a = pc.index_in(
                pc.list_element(halves, 0), value_set=uv
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            # model trained on this corpus: every batch gram is present
            s_g = np.log((uc_[pos_a] + n_vocab) / (bc_[pos_b] + 1.0))
            np.add.at(tot, gparents, s_g[codes])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bigrams": pa.array(m_doc.astype(np.int64), pa.int64()),
                "surprisal2_r6": pa.array(
                    np.round(tot / np.maximum(m_doc, 1.0), 6), pa.float64()
                ),
            }
        )

    return docs.map_batches(
        score_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _bigram_surprisal_distributed(docs, model, n_vocab: float):
    """Above-budget bigram surprisal: docs_unigram_surprisal's union-shuffle
    shape with a two-table model.  All three row kinds key on the first
    token, so one partition holds a bigram's tf rows, its c_ab row AND its
    c_a row; per-doc partials re-key on doc_id with zero-bigram marker rows
    keeping every doc present."""

    def first_token(grams: pa.Array) -> pa.Array:
        return pc.list_element(
            pc.split_pattern(grams, pattern=" ", max_splits=1), 0
        )

    # kind: 0 = c_a model row, 1 = c_ab model row, 2 = per-doc tf row
    rows_schema = pa.schema({"key": STR, "kind": I64, "gram": STR,
                             "doc_id": I64, "val": I64})

    def tf_rows(t: pa.Table) -> pa.Table:
        flat, parents = token_array_stream(t["text"])
        codes, gparents, vocab = ngram_from_stream(flat, parents, 2)
        if not len(codes):
            return rows_schema.empty_table()
        nv = len(vocab)
        combo = gparents * nv + codes
        uniq, cnt = np.unique(combo, return_counts=True)
        di, ci = uniq // nv, uniq % nv
        grams = vocab.take(pa.array(ci))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": first_token(grams).cast(pa.string()),
                "kind": pa.array(np.full(len(uniq), 2, np.int64)),
                "gram": grams.cast(pa.string()),
                "doc_id": pa.array(ids[di].astype(np.int64), pa.int64()),
                "val": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def model_rows(t: pa.Table) -> pa.Table:
        kind = t["kind"].to_numpy(zero_copy_only=False)
        grams = t["gram"].combine_chunks() if isinstance(
            t["gram"], pa.ChunkedArray
        ) else t["gram"]
        keys = pa.concat_arrays(
            [
                first_token(grams.filter(pa.array(kind == 1))),
                grams.filter(pa.array(kind == 0)),
            ]
        ) if len(t) else pa.array([], pa.string())
        # re-key bigram rows by their FIRST token; unigram rows by themselves
        order = np.r_[np.flatnonzero(kind == 1), np.flatnonzero(kind == 0)]
        tt = t.take(pa.array(order))
        return pa.table(
            {
                "key": keys.cast(pa.string()),
                "kind": tt["kind"].cast(pa.int64()),
                "gram": tt["gram"].cast(pa.string()),
                "doc_id": pa.array(np.full(len(tt), -1, np.int64), pa.int64()),
                "val": tt["c"].cast(pa.int64()),
            }
        )

    union = docs.map_batches(
        tf_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(model.map_batches(model_rows, batch_format="pyarrow"))

    def merge_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        ca = g[g["kind"] == 0][["gram", "val"]].rename(
            columns={"gram": "a", "val": "c_a"}
        )
        cab = g[g["kind"] == 1][["gram", "val"]].rename(columns={"val": "c_ab"})
        tfm = g[g["kind"] == 2]
        m = tfm.merge(cab, on="gram", how="inner")
        m = m.assign(a=m["gram"].str.split(" ", n=1).str[0]).merge(
            ca, on="a", how="inner"
        )
        cnt = m["val"].to_numpy(np.float64)
        s = cnt * np.log(
            (m["c_a"].to_numpy(np.float64) + n_vocab)
            / (m["c_ab"].to_numpy(np.float64) + 1.0)
        )
        return pd.DataFrame(
            {
                "doc_id": m["doc_id"].to_numpy(np.int64),
                "s_part": s,
                "m_part": cnt,
            }
        ).groupby("doc_id", sort=False, as_index=False).agg(
            s_part=("s_part", "sum"), m_part=("m_part", "sum")
        )

    schema = pa.schema({"doc_id": I64, "s_part": F64, "m_part": F64})

    def marker_rows(t: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(t.num_rows))
        return pa.table([t["doc_id"], zeros, zeros], schema=schema)

    partials = by_key(union, "key", merge_of_partition, schema).union(
        docs.select_columns(["doc_id"]).map_batches(
            marker_rows, batch_format="pyarrow"
        )
    )

    def mean_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False, as_index=False).agg(
            s=("s_part", "sum"), m=("m_part", "sum")
        )
        m = out["m"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"],
                "n_bigrams": m.astype(np.int64),
                "surprisal2_r6": np.round(
                    out["s"].to_numpy(np.float64) / np.maximum(m, 1.0), 6
                ),
            }
        )

    return by_key(
        partials, "doc_id", mean_of_partition,
        pa.schema({"doc_id": I64, "n_bigrams": I64, "surprisal2_r6": F64}),
    )


BIGRAM_SURPRISAL_SQL = """
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
uc AS (
  SELECT tk, count(*) AS c
  FROM (SELECT unnest(toks) AS tk FROM tok) GROUP BY tk
),
v AS (SELECT count(*) AS v FROM uc),
bgi AS (
  SELECT doc_id, toks[i] AS a, toks[i + 1] AS b
  FROM (SELECT doc_id,
               unnest(generate_series(1, greatest(len(toks) - 1, 0))) AS i,
               toks
        FROM tok)
),
bc AS (SELECT a, b, count(*) AS c_ab FROM bgi GROUP BY a, b),
per_doc AS (
  SELECT bgi.doc_id, count(*) AS m,
         sum(ln((uc.c + v.v * 1.0) / (bc.c_ab + 1.0))) AS tot
  FROM bgi
  JOIN bc ON bc.a = bgi.a AND bc.b = bgi.b
  JOIN uc ON uc.tk = bgi.a
  CROSS JOIN v
  GROUP BY bgi.doc_id
)
SELECT t.doc_id, CAST(coalesce(p.m, 0) AS BIGINT) AS n_bigrams,
       round(coalesce(p.tot, 0) / greatest(coalesce(p.m, 0), 1), 6)
         AS surprisal2_r6
FROM tok t LEFT JOIN per_doc p USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Zipf diagnostics — the OLS slope of log-frequency vs log-rank over the
# vocabulary head (natural text tracks slope ~ -1; far-off corpora are
# boilerplate- or spam-shaped).  The regression-aggregate member next to
# lineitem_price_qty_corr's sufficient-statistics reduce.

_ZIPF_TOP = 1000


def _term_tf_partials(t: pa.Table) -> pa.Table:
    """Batch-local (term, tf_part) collection-frequency partials."""
    _, terms, tfs, _ = tokenize_counts_arrow(t["text"])
    tt = pa.table({"term": terms, "tf": pa.array(tfs.astype(np.int64))})
    return tt.group_by("term").aggregate([("tf", "sum")]).rename_columns(
        ["term", "tf_part"]
    )


def docs_zipf_slope(sf_dir: str, n_top: int = _ZIPF_TOP):
    """One row (n_terms, slope_r6, intercept_r6): OLS of ln(tf_total) on
    ln(rank) over the top-`n_top` terms by collection frequency (tie: term
    ASC).  Scale shape: top_terms' map-side partial counts -> ONE coarse
    term-hash shuffle -> per-partition LOCAL top-N by the (tf, term) key
    (globally safe: a term's rows co-locate) -> the regression runs on the
    driver over the RESULT-scale <= n_top rows with the oracle's exact
    covar_pop/var_pop formula."""

    def top_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("term", sort=False, as_index=False).agg(
            tf=("tf_part", "sum")
        )
        return agg.sort_values(
            ["tf", "term"], ascending=[False, True], kind="mergesort"
        ).head(n_top)

    schema = pa.schema({"term": STR, "tf": I64})
    out = collect(by_key(  # <= N_PARTS * n_top rows
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_term_tf_partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", top_of_partition, schema,
    ), schema)
    out = out.sort_values(
        ["tf", "term"], ascending=[False, True], kind="mergesort"
    ).head(n_top)
    n = len(out)
    if n < 2:
        return pd.DataFrame(
            {"n_terms": pd.Series([n], dtype="int64"),
             "slope_r6": [np.nan], "intercept_r6": [np.nan]}
        )
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(out["tf"].to_numpy(np.float64))
    mx, my = x.mean(), y.mean()
    cov = (x * y).mean() - mx * my
    var = (x * x).mean() - mx * mx
    slope = cov / var
    return pd.DataFrame(
        {
            "n_terms": pd.Series([n], dtype="int64"),
            "slope_r6": [round(float(slope), 6)],
            "intercept_r6": [round(float(my - slope * mx), 6)],
        }
    )


ZIPF_SLOPE_SQL = f"""
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
agg AS (SELECT tk, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY tk),
ranked AS (
  SELECT row_number() OVER (ORDER BY tf DESC, tk) AS rank, tf FROM agg
),
head AS (SELECT ln(rank) AS x, ln(tf) AS y FROM ranked
         WHERE rank <= {_ZIPF_TOP})
SELECT CAST(count(*) AS BIGINT) AS n_terms,
       round(regr_slope(y, x), 6) AS slope_r6,
       round(regr_intercept(y, x), 6) AS intercept_r6
FROM head
"""


# ---------------------------------------------------------------------------
# Hapax legomena ratio — the vocabulary-TAIL health metric pairing with
# docs_zipf_slope's head fit: natural corpora run ~40-60% hapax; scraped
# boilerplate collapses the tail, OCR/spam noise inflates it.


def docs_hapax_ratio(sf_dir: str):
    """One row (n_terms, n_hapax, hapax_ratio_r6): distinct vocabulary
    size, number of terms occurring exactly once corpus-wide, and their
    ratio.  Scale shape: top_terms' map-side partial counts -> ONE coarse
    term-hash shuffle -> each partition reduces its vocabulary slice to
    TWO ints — the driver sums P pairs."""

    def counts_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("term", sort=False, as_index=False).agg(
            tf=("tf_part", "sum")
        )
        return pd.DataFrame(
            {
                "n_terms": np.array([len(agg)], np.int64),
                "n_hapax": np.array(
                    [int((agg["tf"].to_numpy(np.int64) == 1).sum())], np.int64
                ),
            }
        )

    schema = pa.schema({"n_terms": I64, "n_hapax": I64})
    out = collect(by_key(  # <= N_PARTS rows of two ints
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(_term_tf_partials, batch_format="pyarrow", zero_copy_batch=True),
        "term", counts_of_partition, schema,
    ), schema)
    n_terms = int(out["n_terms"].sum())
    n_hapax = int(out["n_hapax"].sum())
    return pd.DataFrame(
        {
            "n_terms": pd.Series([n_terms], dtype="int64"),
            "n_hapax": pd.Series([n_hapax], dtype="int64"),
            # SQL: a ratio over an empty vocabulary is NULL
            "hapax_ratio_r6": [round(n_hapax / n_terms, 6) if n_terms else np.nan],
        }
    )


HAPAX_RATIO_SQL = """
WITH agg AS (
  SELECT tk, count(*) AS tf
  FROM (SELECT unnest(list_filter(regexp_split_to_array(lower(text),
                                                        '[^a-z0-9]+'),
                                  x -> x <> '')) AS tk
        FROM documents)
  GROUP BY tk
)
SELECT CAST(count(*) AS BIGINT) AS n_terms,
       CAST(count(*) FILTER (tf = 1) AS BIGINT) AS n_hapax,
       round(count(*) FILTER (tf = 1) * 1.0 / count(*), 6) AS hapax_ratio_r6
FROM agg
"""


# ---------------------------------------------------------------------------
# Compression-ratio quality signal — the Gopher/MassiveText repetition
# screen: highly compressible text is boilerplate/template spam, nearly
# incompressible text is often encoded junk; both tails get dropped.


def docs_compression_ratio(sf_dir: str, level: int = 6):
    """(doc_id, raw_bytes, zlib_bytes, ratio_r6): per-doc zlib(level)
    compressed size over raw utf-8 size (ratio 0 for empty docs).
    Rows-only op: SQL has no DEFLATE — the pytest oracle recompresses
    sampled docs with the stdlib and checks the tails behave (repeated
    text < 0.5, random-ish text near 1).  Scale shape: embarrassingly
    parallel streaming map; the per-doc zlib call is the same per-value
    C-kernel budget class as the md5 fingerprint ops (exact_dedup,
    docs_normalize) — ~100 MB/s/core, vectorization does not apply to a
    stateful entropy coder."""
    import zlib

    def fn(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        raw = np.fromiter(
            (len(s.encode()) for s in texts), np.int64, count=len(texts)
        )
        comp = np.fromiter(
            (len(zlib.compress(s.encode(), level)) for s in texts),
            np.int64,
            count=len(texts),
        )
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), 0.0)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "raw_bytes": pa.array(raw, pa.int64()),
                "zlib_bytes": pa.array(comp, pa.int64()),
                "ratio_r6": pa.array(np.round(ratio, 6), pa.float64()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Tokenizer health — term-length distribution of the vocabulary (catches
# analyzer regressions: a glued-token bug shows up as a long-length tail,
# an over-aggressive splitter as a pile of 1-char terms).


def docs_term_length_dist(sf_dir: str):
    """(term_len, n_terms, occurrences): per character length, the number
    of distinct vocabulary terms and their total corpus occurrences.
    Scale shape: the hapax plan — map-side (term, tf) partials, ONE
    coarse term-hash shuffle so each term counts distinct-once in its
    partition, then a length-grain (<= max term length) reduce."""

    def lengths_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("term", sort=False, as_index=False).agg(
            tf=("tf_part", "sum")
        )
        ln = agg["term"].str.len().to_numpy(np.int64)
        out = pd.DataFrame({"term_len": ln, "tf": agg["tf"].to_numpy(np.int64)})
        return out.groupby("term_len", as_index=False).agg(
            n_terms=("tf", "size"), occurrences=("tf", "sum")
        )

    from ray.data.aggregate import Sum

    return (
        by_key(
            _read_docs(sf_dir).map_batches(
                _term_tf_partials, batch_format="pyarrow", zero_copy_batch=True
            ),
            "term", lengths_of_partition,
            pa.schema({"term_len": I64, "n_terms": I64, "occurrences": I64}),
        )
        .groupby("term_len")
        .aggregate(Sum("n_terms", alias_name="n_terms"),
                   Sum("occurrences", alias_name="occurrences"))
    )


TERM_LENGTH_DIST_SQL = """
WITH tok AS (
  SELECT unnest(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                            x -> x <> '')) AS tk
  FROM documents
),
tf AS (SELECT tk, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY tk)
SELECT CAST(length(tk) AS BIGINT) AS term_len,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(tf) AS BIGINT) AS occurrences
FROM tf GROUP BY 1 ORDER BY 1
"""
