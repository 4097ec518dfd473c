"""Corpus curation: the end-to-end keep/drop verdict a pre-training data
pipeline applies before tokenization — benchmark decontamination + Gopher
repetition gate + minimum-length gate, composed into ONE streaming pass.
`curate_corpus` writes into a scratch dir and atomically promotes it over
`out_dir`, so a re-run replaces the output wholesale (Ray's write_parquet
filenames carry a per-run UUID — writing in place would strand the previous
run's files and overcount n_kept).

This is the capstone composition of the round-3 text suite: the benchmark
n-gram set is broadcast once (small side by definition), and every signal
(contamination hits, top-bigram fraction, token count) comes from a single
token_array_stream per batch — the corpus is read once, never shuffled, and
the verdict table streams out.  `curate_corpus` additionally writes the
surviving documents as partitioned parquet (Ray's streaming writer: one
file per output block, so a re-run regenerates the directory; for
skip-finished-partitions resume semantics route the output through
engine.build's atomic pid-dir promote instead).

Thresholds (picked against the sf0.01 signal distributions so the split is
non-trivial: ~80% keep):
  keep = (no benchmark 4-gram overlap) AND (top2_frac <= 0.07, ~p90)
         AND (n_tokens >= 16, ~p5)
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..analyze import ngram_from_stream, token_array_stream
from .decontam import _BENCH_MOD, _BENCH_REM, _DECON_N, _bench_mask, benchmark_ngrams
from .keyed import F64, I64, STR, collect

MAX_TOP2_FRAC = 0.07
MIN_TOKENS = 16


def _read_docs(sf_dir: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


def _verdict_batch(t: pa.Table, bench: pa.Array) -> pa.Table:
    """One tokenization -> all three signals + the keep verdict."""
    keep_rows = pc.invert(_bench_mask(t["doc_id"]))
    t = t.filter(keep_rows)
    n_rows = len(t)
    flat, parents = token_array_stream(t["text"])
    n_tokens = (
        np.bincount(parents, minlength=n_rows).astype(np.int64)
        if parents.size
        else np.zeros(n_rows, np.int64)
    )
    # top-bigram fraction (repetition_scores rule, order 2)
    codes2, par2, vocab2 = ngram_from_stream(flat, parents, 2)
    top2 = np.zeros(n_rows, np.float64)
    tot2 = np.bincount(par2, minlength=n_rows).astype(np.float64)
    if codes2.size:
        nv = len(vocab2)
        ukey, counts = np.unique(par2 * nv + codes2, return_counts=True)
        np.maximum.at(top2, ukey // nv, counts.astype(np.float64))
    top2_frac = np.round(
        np.divide(top2, tot2, out=np.zeros(n_rows, np.float64), where=tot2 > 0), 6
    )
    # contamination hits (decontaminate_docs rule, order _DECON_N)
    hits = np.zeros(n_rows, np.int64)
    n_bench = len(bench)
    if n_rows and n_bench:
        codes4, par4, vocab4 = ngram_from_stream(flat, parents, _DECON_N)
        if codes4.size:
            pos = (
                pc.fill_null(pc.index_in(vocab4, value_set=bench), -1)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            bench_idx = pos[codes4]
            valid = bench_idx >= 0
            if valid.any():
                upairs = np.unique(par4[valid] * np.int64(n_bench) + bench_idx[valid])
                np.add.at(hits, (upairs // n_bench).astype(np.int64), 1)
    keep = (hits == 0) & (top2_frac <= MAX_TOP2_FRAC) & (n_tokens >= MIN_TOKENS)
    return pa.table(
        {
            "doc_id": t["doc_id"],
            "n_hits": pa.array(hits, pa.int64()),
            "top2_frac": pa.array(top2_frac, pa.float64()),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "keep": pa.array(keep.astype(np.int64), pa.int64()),
        }
    )


def curate_docs(sf_dir: str):
    """Per non-benchmark doc: contamination hits, top-bigram fraction, token
    count, and the keep verdict -> (doc_id, n_hits, top2_frac, n_tokens,
    keep); gated against a pure-SQL oracle that composes the same three CTE
    chains."""
    bench = benchmark_ngrams(sf_dir, _DECON_N)
    bcast = ray.put(bench)

    def fn(t: pa.Table) -> pa.Table:
        return _verdict_batch(t, ray.get(bcast))

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


def curate_corpus(sf_dir: str, out_dir: str) -> dict:
    """Write the surviving documents (full rows) as partitioned parquet; the
    verdict is recomputed inline (same single pass) so the corpus is still
    read exactly once.  Returns {"n_kept": ..., "n_seen": ...}."""
    bench = benchmark_ngrams(sf_dir, _DECON_N)
    bcast = ray.put(bench)

    def keep_batch(t: pa.Table) -> pa.Table:
        v = _verdict_batch(
            t.select(["doc_id", "text"]), ray.get(bcast)
        )
        kept_ids = v.filter(pc.equal(v["keep"], 1))["doc_id"]
        return t.filter(pc.is_in(t["doc_id"], value_set=kept_ids.combine_chunks()))

    ds = _read_docs(sf_dir).map_batches(
        keep_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    n_seen = _read_docs(sf_dir, columns=["doc_id"]).count()
    # write-then-promote (engine.build's pid-dir pattern): a re-run replaces
    # out_dir atomically instead of mixing two runs' UUID-named part files,
    # and a crashed run leaves the previous output intact
    import shutil

    tmp_dir = f"{out_dir.rstrip(os.sep)}.tmp-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)
    ds.write_parquet(tmp_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp_dir, out_dir)
    import pyarrow.dataset as pads

    n_kept = pads.dataset(out_dir).count_rows()
    return {"n_kept": n_kept, "n_seen": n_seen}


CURATE_DOCS_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
uni AS (SELECT doc_id, len(toks) AS n_tokens FROM tok),
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
pos4 AS (
  SELECT doc_id,
         unnest(generate_series(1, greatest(len(toks) - {_DECON_N - 1}, 0))) AS i,
         toks
  FROM tok
),
ng AS (
  SELECT doc_id, array_to_string(toks[i:i+{_DECON_N - 1}], ' ') AS ng FROM pos4
),
bench AS (
  SELECT DISTINCT ng FROM ng WHERE doc_id % {_BENCH_MOD} = {_BENCH_REM}
),
hits AS (
  SELECT n.doc_id, count(DISTINCT n.ng) AS n_hits
  FROM ng n JOIN bench b USING (ng)
  WHERE n.doc_id % {_BENCH_MOD} <> {_BENCH_REM}
  GROUP BY n.doc_id
),
sig AS (
  SELECT d.doc_id,
         CAST(coalesce(h.n_hits, 0) AS BIGINT) AS n_hits,
         round(coalesce(b.m * 1.0 / b.tot, 0), 6) AS top2_frac,
         CAST(u.n_tokens AS BIGINT) AS n_tokens
  FROM documents d
  JOIN uni u USING (doc_id)
  LEFT JOIN big b USING (doc_id)
  LEFT JOIN hits h USING (doc_id)
  WHERE d.doc_id % {_BENCH_MOD} <> {_BENCH_REM}
)
SELECT doc_id, n_hits, top2_frac, n_tokens,
       CAST(CASE WHEN n_hits = 0 AND top2_frac <= {MAX_TOP2_FRAC}
                  AND n_tokens >= {MIN_TOKENS}
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM sig
"""


# ---------------------------------------------------------------------------
# Stratified sampling: deterministic per-language keep rates (data mixing).
# Rates are config (here: downsample the over-represented langs so the mix
# flattens); the keep decision is a pure function of doc_id, so the sample
# is reproducible, mergeable across runs, and needs no shuffle or state —
# the reference's ORDER BY RANDOM() LIMIT n sampling (ec2/rds/query.py:35-37,
# SURVEY.md K5) re-expressed as the hash-bucket filter a 100-TB pipeline
# needs (a global random sort is an all-to-all shuffle; a hash filter is a
# streaming map).
_STRATA_RATES = {"en": 0.25, "zh": 0.75}  # unlisted langs keep everything


def _rate_hex(rate: float) -> str:
    # md5-prefix threshold: keep iff md5(doc_id)[:4] < this 4-hex string.
    # 'zzzz' compares above every hex digest prefix => keep-all.
    return "zzzz" if rate >= 1.0 else format(int(rate * 65536), "04x")


def docs_stratified_sample(sf_dir: str):
    """Per-language deterministic sample: keep doc iff the first 4 hex chars
    of md5(doc_id) fall under the language's rate threshold.  One streaming
    column-pruned pass, no shuffle; the DuckDB oracle applies the identical
    md5-prefix rule, so the gate checks exact set equality, not statistics."""
    import hashlib

    thr = {lang: _rate_hex(r) for lang, r in _STRATA_RATES.items()}

    def fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        langs = t["lang"].to_pylist()
        keep = [
            hashlib.md5(str(i).encode()).hexdigest()[:4] < thr.get(l, "zzzz")
            for i, l in zip(ids, langs)
        ]
        return t.filter(pa.array(keep, pa.bool_()))

    return _read_docs(sf_dir, columns=["doc_id", "lang"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 4) <
  CASE lang
    WHEN 'en' THEN '{_rate_hex(_STRATA_RATES["en"])}'
    WHEN 'zh' THEN '{_rate_hex(_STRATA_RATES["zh"])}'
    ELSE 'zzzz'
  END
"""


# ---------------------------------------------------------------------------
# Sequence packing: greedy first-fit-in-order of docs into fixed token-budget
# bins — the step that turns a curated corpus into training sequences.
_PACK_BUDGET = 256
_PACK_SHARDS = 4


def docs_pack_sequences(sf_dir: str, budget: int = _PACK_BUDGET,
                        n_shards: int = _PACK_SHARDS):
    """Greedy sequence packing: within each shard (doc_id % n_shards), docs
    are taken in doc_id order and appended to the current bin until the next
    doc would overflow `budget` tokens, which starts a new bin (an oversized
    doc gets a bin of its own).  Packing is inherently sequential *within a
    stream*, so the scale unit is the shard: shards pack independently and
    in parallel (at 100 TB one shard = one input partition), and the only
    per-shard state is (acc, bin) — two integers.  Token counts come from
    the same vectorized tokenize kernel as token_counts, so the DuckDB
    oracle (a recursive CTE replaying the same greedy rule per shard) is
    bit-comparable.  Output: (shard, doc_id, n_tokens, bin_id)."""
    from ..analyze import tokenize_counts_arrow

    def counts(t: pa.Table) -> pa.Table:
        _, _, _, doclens = tokenize_counts_arrow(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(doclens.astype(np.int64), pa.int64()),
                "shard": pa.array(ids % n_shards, pa.int64()),
            }
        )

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        toks = g["n_tokens"].to_numpy()
        bins = np.empty(len(g), dtype=np.int64)
        acc, b = 0, -1
        for i, tk in enumerate(toks):  # O(shard) scalar loop: two ints of
            # state per shard, unavoidable for first-fit-in-order semantics
            if b < 0 or acc + tk > budget:
                b += 1
                acc = int(tk)
            else:
                acc += int(tk)
            bins[i] = b
        out = g[["shard", "doc_id", "n_tokens"]].copy()
        out["bin_id"] = bins
        return out

    return (
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(counts, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .map_groups(pack_shard, batch_format="pandas")
    )


PACK_SEQUENCES_SQL = f"""
WITH RECURSIVE tok AS (
  SELECT doc_id,
         doc_id % {_PACK_SHARDS} AS shard,
         len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS n_tokens,
         row_number() OVER (PARTITION BY doc_id % {_PACK_SHARDS}
                            ORDER BY doc_id) AS rn
  FROM documents
),
pack AS (
  SELECT shard, rn, doc_id, n_tokens,
         n_tokens AS acc, CAST(0 AS BIGINT) AS bin_id
  FROM tok WHERE rn = 1
  UNION ALL
  SELECT t.shard, t.rn, t.doc_id, t.n_tokens,
         CASE WHEN p.acc + t.n_tokens > {_PACK_BUDGET}
              THEN t.n_tokens ELSE p.acc + t.n_tokens END,
         CASE WHEN p.acc + t.n_tokens > {_PACK_BUDGET}
              THEN p.bin_id + 1 ELSE p.bin_id END
  FROM pack p JOIN tok t ON t.shard = p.shard AND t.rn = p.rn + 1
)
SELECT shard, doc_id, n_tokens, bin_id FROM pack
"""


# ---------------------------------------------------------------------------
# Deterministic global shuffle into training shards: the data-ordering step
# between curation and training.
_SHUF_SEED = "shuf1"
_HEX = "0123456789abcdef"


def docs_shuffle_shards(sf_dir: str):
    """Reproducible global permutation of the corpus for training-data
    ordering, WITHOUT ray.data.random_shuffle's all-to-all payload
    materialization: the permutation is computed as pure metadata.

    key   = md5(seed || '-' || doc_id)[:16]   (seeded, so re-runs and
            incremental additions reshuffle deterministically)
    shard = first hex nibble of the key (gate scale: 16 shards; at 100 TB
            use the first k nibbles -> 16^k shards, chosen so one shard's
            (doc_id, key) rows fit a single task -- the exchange carries
            ~24 bytes/doc regardless of payload width)
    pos   = rank of (key, doc_id) within the shard

    One column-pruned streaming pass emits (doc_id, key, shard); one coarse
    shard-keyed shuffle sorts each shard independently.  Training then reads
    shard s in pos order; attaching payloads is a doc_id-keyed join (the
    doc store is doc_id-sorted, so the gather is a merge, not a shuffle).
    The reference's only ordering device is ORDER BY RANDOM() in SQL
    (ec2/rds/query.py:35-37) -- non-reproducible and a full sort; this is
    the hash-shuffle a 100-TB pipeline needs.  The DuckDB oracle applies
    the identical key rule, so the gate checks the exact permutation."""
    import hashlib

    def key_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        keys = [
            hashlib.md5(f"{_SHUF_SEED}-{i}".encode()).hexdigest()[:16]
            for i in ids
        ]
        shards = np.fromiter(
            (_HEX.index(k[0]) for k in keys), dtype=np.int64, count=len(keys)
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "key": pa.array(keys, pa.string()),
                "shard": pa.array(shards, pa.int64()),
            }
        )

    def order_shard(g):
        g = g.sort_values(["key", "doc_id"]).reset_index(drop=True)
        out = g[["doc_id", "shard"]].copy()
        out["pos"] = np.arange(len(g), dtype=np.int64)
        return out

    return (
        _read_docs(sf_dir, columns=["doc_id"])
        .map_batches(key_batch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .map_groups(order_shard, batch_format="pandas")
    )


SHUFFLE_SHARDS_SQL = f"""
WITH keyed AS (
  SELECT doc_id,
         substr(md5('{_SHUF_SEED}-' || CAST(doc_id AS VARCHAR)), 1, 16) AS key
  FROM documents
)
SELECT doc_id,
       CAST(strpos('{_HEX}', substr(key, 1, 1)) - 1 AS BIGINT) AS shard,
       row_number() OVER (PARTITION BY substr(key, 1, 1)
                          ORDER BY key, doc_id) - 1 AS pos
FROM keyed
"""


# ---------------------------------------------------------------------------
# Data-mixing weights: temperature-scaled per-source sampling probabilities.
_MIX_ALPHA = 0.5


def source_mixture_weights(sf_dir: str, alpha: float = _MIX_ALPHA):
    """Per-source token shares -> temperature-scaled sampling weights
    (w_i = share_i^alpha / sum_j share_j^alpha, the multilingual/multi-corpus
    mixing rule of Lample & Conneau 2019 / the Pile): the step that turns
    corpus stats into a training sampling distribution.  Reference analog:
    the per-model document-count stats its dashboard aggregates server-side
    (rds_schema.sql) — here upgraded to the mixing computation a pre-training
    pipeline runs over source metadata.

    Scale shape: token counts are pre-aggregated per source INSIDE each
    map_batches call (Arrow group_by on the batch — a combiner), so the
    global groupby shuffles at most n_sources rows per input block, and the
    weight math runs on the result-scale table (one row per source).  All
    counts are exact int64 sums; the float expression mirrors the SQL twin
    term-for-term so round-6 values hash-match."""
    import pandas as pd

    from ..analyze import tokenize_counts_arrow

    def partial(t: pa.Table) -> pa.Table:
        _, _, _, doclens = tokenize_counts_arrow(t["text"])
        per_doc = pa.table(
            {
                "source": t["source"],
                "n_docs": pa.array(np.ones(len(t), np.int64), pa.int64()),
                "n_tokens": pa.array(doclens.astype(np.int64), pa.int64()),
            }
        )
        out = per_doc.group_by("source").aggregate(
            [("n_docs", "sum"), ("n_tokens", "sum")]
        )
        return out.rename_columns(["source", "n_docs", "n_tokens"])

    agg = (
        _read_docs(sf_dir, columns=["source", "text"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .sum(["n_docs", "n_tokens"])
        .to_pandas()  # result-scale: one row per source
    )
    if "sum(n_tokens)" not in agg.columns or int(agg["sum(n_tokens)"].sum()) == 0:
        # empty corpus (or all-empty docs): no shares to compute
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="object"),
                "n_docs": pd.Series([], dtype="int64"),
                "n_tokens": pd.Series([], dtype="int64"),
                "token_share_r6": pd.Series([], dtype="float64"),
                "weight_r6": pd.Series([], dtype="float64"),
            }
        )
    agg = (
        agg.rename(columns={"sum(n_docs)": "n_docs", "sum(n_tokens)": "n_tokens"})
        .sort_values("source", kind="mergesort")
        .reset_index(drop=True)
    )
    n_tokens = agg["n_tokens"].to_numpy().astype(np.float64)
    total = float(int(agg["n_tokens"].sum()))  # exact integer total
    share = n_tokens / total
    powed = share**alpha
    denom = float(powed.sum())
    return pd.DataFrame(
        {
            "source": agg["source"],
            "n_docs": agg["n_docs"].astype(np.int64),
            "n_tokens": agg["n_tokens"].astype(np.int64),
            "token_share_r6": np.round(share, 6),
            "weight_r6": np.round(powed / denom, 6),
        }
    )


MIXTURE_WEIGHTS_SQL = f"""
WITH tok AS (
  SELECT source,
         len(list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                         x -> x <> '')) AS nt
  FROM documents
),
agg AS (
  SELECT source, count(*) AS n_docs, sum(nt) AS n_tokens
  FROM tok GROUP BY source
),
tot AS (
  SELECT sum(n_tokens) * 1.0 AS t,
         sum(pow(n_tokens * 1.0 / (SELECT sum(n_tokens) FROM agg),
                 {_MIX_ALPHA})) AS denom
  FROM agg
)
SELECT a.source,
       CAST(a.n_docs AS BIGINT) AS n_docs,
       CAST(a.n_tokens AS BIGINT) AS n_tokens,
       round(a.n_tokens * 1.0 / t.t, 6) AS token_share_r6,
       round(pow(a.n_tokens * 1.0 / t.t, {_MIX_ALPHA}) / t.denom, 6)
         AS weight_r6
FROM agg a CROSS JOIN tot t
"""


# ---------------------------------------------------------------------------
# RAG / context-window chunking: sliding token windows with overlap.
_CHUNK_WINDOW = 64
_CHUNK_STRIDE = 48


def docs_chunk_sliding(sf_dir: str, window: int = _CHUNK_WINDOW,
                       stride: int = _CHUNK_STRIDE):
    """Sliding-window chunking: each doc is split into windows of `window`
    tokens starting every `stride` tokens (chunks overlap by window-stride;
    the last chunk is whatever remains past its start).  The step that turns
    a curated corpus into retrieval/context units; zero-token docs emit no
    chunks.  Reference analog: the statement-level splitting its ingest
    applies to papers before indexing (SURVEY.md §2.2 extraction chain).

    Scale shape: embarrassingly parallel — one column-pruned streaming pass,
    no shuffle, chunks never re-cross the exchange.  Tokenization is the
    shared vectorized kernel (one regex split per batch); the only per-row
    work is the md5 chunk fingerprint (the same per-value digest budget as
    exact_dedup — at the gate the fingerprint IS the payload; a real
    pipeline would emit the chunk text column to the writer instead).
    Output: (doc_id, chunk_id, start_tok, n_toks, chunk_md5)."""
    import hashlib

    def fn(t: pa.Table) -> pa.Table:
        flat, parents = token_array_stream(t["text"])
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n = len(t)
        counts = (
            np.bincount(parents, minlength=n).astype(np.int64)
            if len(parents)
            else np.zeros(n, np.int64)
        )
        offs = np.concatenate([[0], np.cumsum(counts)])
        toks = flat.to_pylist()
        out_doc: list[int] = []
        out_cid: list[int] = []
        out_start: list[int] = []
        out_n: list[int] = []
        out_md5: list[str] = []
        for d in range(n):
            length, base = int(counts[d]), int(offs[d])
            for cid, st in enumerate(range(0, length, stride)):
                seg = toks[base + st : base + min(st + window, length)]
                out_doc.append(int(ids[d]))
                out_cid.append(cid)
                out_start.append(st)
                out_n.append(len(seg))
                out_md5.append(
                    hashlib.md5(" ".join(seg).encode("utf-8")).hexdigest()
                )
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "chunk_id": pa.array(out_cid, pa.int64()),
                "start_tok": pa.array(out_start, pa.int64()),
                "n_toks": pa.array(out_n, pa.int64()),
                "chunk_md5": pa.array(out_md5, pa.string()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )


CHUNK_SLIDING_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
starts AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, len(toks) - 1, {_CHUNK_STRIDE}))
           AS start_tok
  FROM tok WHERE len(toks) > 0
)
SELECT doc_id,
       CAST(start_tok // {_CHUNK_STRIDE} AS BIGINT) AS chunk_id,
       CAST(start_tok AS BIGINT) AS start_tok,
       CAST(least({_CHUNK_WINDOW}, len(toks) - start_tok) AS BIGINT)
         AS n_toks,
       md5(array_to_string(
             toks[start_tok + 1 : start_tok + {_CHUNK_WINDOW}], ' '))
         AS chunk_md5
FROM starts
"""


# ---------------------------------------------------------------------------
# DSIR: hashed-n-gram importance weights for target-matched data selection
# (Xie et al. 2023, "Data Selection for Language Models via Importance
# Resampling").  Target slice: lang == 'en' (config stand-in for "docs that
# look like the high-quality target domain").
_DSIR_BUCKETS = 256  # first 2 hex chars of md5(bigram)
_DSIR_TARGET_LANG = "en"


def docs_dsir_weights(sf_dir: str):
    """Per-doc DSIR importance weight: the log-likelihood ratio of the doc's
    hashed-bigram features under a target-slice bag-of-ngrams model vs the
    raw-corpus model,

        llr(d) = sum_{bigram occurrences} ln( p_target(b) / p_raw(b) ),
        p_*(b) = (count_*(b) + 1) / (total_* + 256)   (Laplace smoothing),

    with b = the first two hex chars of md5(bigram) — 256 hash buckets, so
    the feature distributions are fixed-size regardless of corpus scale.
    Docs with no bigram (< 2 tokens) emit no row, matching the SQL join.

    Scale shape — the two-pass DSIR layout: pass 1 streams the corpus once
    and reduces per-batch bucket-count partials (<= 256 rows per block
    through the groupby) to ONE 256-row table; the log-ratio vector is
    broadcast via ray.put; pass 2 streams the corpus again scoring each doc
    with a vectorized bucket lookup (md5 runs once per DISTINCT batch
    bigram — the same per-value digest budget as exact_dedup).  Nothing
    corpus-scale ever reaches the driver."""
    import hashlib

    def _bucket_idx(vocab: pa.Array) -> np.ndarray:
        # md5 per distinct gram; int of the first hex byte = bucket index
        return np.fromiter(
            (
                int(hashlib.md5(g.encode("utf-8")).hexdigest()[:2], 16)
                for g in vocab.to_pylist()
            ),
            dtype=np.int64,
            count=len(vocab),
        )

    def count_partial(t: pa.Table) -> pa.Table:
        flat, parents = token_array_stream(t["text"])
        codes, gparents, vocab = ngram_from_stream(flat, parents, 2)
        if len(codes) == 0:
            return pa.table(
                {
                    "bidx": pa.array([], pa.int64()),
                    "c_raw": pa.array([], pa.int64()),
                    "c_tgt": pa.array([], pa.int64()),
                }
            )
        bidx = _bucket_idx(vocab)[codes]
        is_tgt = (
            pc.equal(t["lang"], _DSIR_TARGET_LANG)
            .to_numpy(zero_copy_only=False)
            .astype(bool)[gparents]
        )
        c_raw = np.bincount(bidx, minlength=_DSIR_BUCKETS)
        c_tgt = np.bincount(bidx[is_tgt], minlength=_DSIR_BUCKETS)
        keep = c_raw > 0
        return pa.table(
            {
                "bidx": pa.array(np.nonzero(keep)[0].astype(np.int64), pa.int64()),
                "c_raw": pa.array(c_raw[keep].astype(np.int64), pa.int64()),
                "c_tgt": pa.array(c_tgt[keep].astype(np.int64), pa.int64()),
            }
        )

    counts = collect(  # <= 256 rows
        _read_docs(sf_dir, columns=["lang", "text"])
        .map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bidx")
        .sum(["c_raw", "c_tgt"]),
        pa.schema({"bidx": I64, "sum(c_raw)": I64, "sum(c_tgt)": I64}),
    )
    c_raw = np.zeros(_DSIR_BUCKETS, np.int64)
    c_tgt = np.zeros(_DSIR_BUCKETS, np.int64)
    c_raw[counts["bidx"].to_numpy()] = counts["sum(c_raw)"].to_numpy()
    c_tgt[counts["bidx"].to_numpy()] = counts["sum(c_tgt)"].to_numpy()
    t_raw = float(int(c_raw.sum()))
    t_tgt = float(int(c_tgt.sum()))
    logratio = np.log(
        ((c_tgt + 1) / (t_tgt + _DSIR_BUCKETS))
        / ((c_raw + 1) / (t_raw + _DSIR_BUCKETS))
    )
    lr_ref = ray.put(logratio)

    def score(t: pa.Table) -> pa.Table:
        lr = ray.get(lr_ref)
        flat, parents = token_array_stream(t["text"])
        codes, gparents, vocab = ngram_from_stream(flat, parents, 2)
        n = len(t)
        nbg = (
            np.bincount(gparents, minlength=n).astype(np.int64)
            if len(gparents)
            else np.zeros(n, np.int64)
        )
        llr = np.zeros(n, np.float64)
        if len(codes):
            np.add.at(llr, gparents, lr[_bucket_idx(vocab)[codes]])
        keep = nbg > 0
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(keep)),
                "n_bigrams": pa.array(nbg[keep], pa.int64()),
                "llr_r6": pa.array(np.round(llr[keep], 6), pa.float64()),
            }
        )

    return _read_docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )


DSIR_WEIGHTS_SQL = f"""
WITH tok AS (
  SELECT doc_id, lang,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
pos AS (
  SELECT doc_id, lang,
         unnest(generate_series(1, greatest(len(toks) - 1, 0))) AS i, toks
  FROM tok
),
bg AS (
  SELECT doc_id, lang,
         substr(md5(toks[i] || ' ' || toks[i+1]), 1, 2) AS b
  FROM pos
),
counts AS (
  SELECT b, count(*) AS c_raw,
         count(*) FILTER (WHERE lang = '{_DSIR_TARGET_LANG}') AS c_tgt
  FROM bg GROUP BY b
),
tot AS (SELECT sum(c_raw) * 1.0 AS t_raw, sum(c_tgt) * 1.0 AS t_tgt FROM counts)
SELECT bg.doc_id,
       CAST(count(*) AS BIGINT) AS n_bigrams,
       round(sum(ln(((c.c_tgt + 1) / (t.t_tgt + {_DSIR_BUCKETS}))
                    / ((c.c_raw + 1) / (t.t_raw + {_DSIR_BUCKETS})))), 6)
         AS llr_r6
FROM bg JOIN counts c ON c.b = bg.b CROSS JOIN tot t
GROUP BY bg.doc_id
"""


# ---------------------------------------------------------------------------
# Curation funnel report: counts + shares per drop reason — the pipeline
# observability table a curation run publishes (how much did each gate cost
# us?).  Reasons are evaluated in fixed precedence so every doc lands in
# exactly one row: contaminated > repetitive > too_short > kept.


def curate_funnel(sf_dir: str):
    """One streaming pass (the same fused verdict kernel as curate_docs —
    benchmark n-grams broadcast once, all three signals from one
    tokenization) reduced map-side to per-batch (reason, n) partials, so
    the global groupby moves at most 4 rows per input block and the driver
    sees the 4-row funnel.  Output: (reason, n, pct_r6).  Reference analog:
    the corpus-stats dashboard its Postgres serves
    (rds_schema.sql aggregate tables) — here derived in-pipeline."""

    bench = benchmark_ngrams(sf_dir, _DECON_N)
    bcast = ray.put(bench)

    def partial(t: pa.Table) -> pa.Table:
        v = _verdict_batch(t, ray.get(bcast))
        hits = v["n_hits"].to_numpy(zero_copy_only=False)
        top2 = v["top2_frac"].to_numpy(zero_copy_only=False)
        ntok = v["n_tokens"].to_numpy(zero_copy_only=False)
        reason = np.where(
            hits > 0,
            "contaminated",
            np.where(
                top2 > MAX_TOP2_FRAC,
                "repetitive",
                np.where(ntok < MIN_TOKENS, "too_short", "kept"),
            ),
        )
        tbl = pa.table(
            {
                "reason": pa.array(reason, pa.string()),
                "n": pa.array(np.ones(len(reason), np.int64), pa.int64()),
            }
        )
        return tbl.group_by("reason").aggregate([("n", "sum")]).rename_columns(
            ["reason", "n"]
        )

    import pandas as pd

    agg = collect(  # <= 4 rows
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("reason")
        .sum("n"),
        pa.schema({"reason": STR, "sum(n)": I64}),
    )
    agg = (
        agg.rename(columns={"sum(n)": "n"})
        .sort_values("reason", kind="mergesort")
        .reset_index(drop=True)
    )
    total = float(int(agg["n"].sum()))
    return pd.DataFrame(
        {
            "reason": agg["reason"],
            "n": agg["n"].astype(np.int64),
            "pct_r6": np.round(agg["n"].to_numpy() / total, 6),
        }
    )


CURATE_FUNNEL_SQL = f"""
WITH verdict AS ({CURATE_DOCS_SQL}),
agg AS (
  SELECT CASE WHEN n_hits > 0 THEN 'contaminated'
              WHEN top2_frac > {MAX_TOP2_FRAC} THEN 'repetitive'
              WHEN n_tokens < {MIN_TOKENS} THEN 'too_short'
              ELSE 'kept' END AS reason,
         count(*) AS n
  FROM verdict GROUP BY reason
),
tot AS (SELECT sum(n) * 1.0 AS t FROM agg)
SELECT reason, CAST(n AS BIGINT) AS n, round(n / t, 6) AS pct_r6
FROM agg CROSS JOIN tot
"""


# ---------------------------------------------------------------------------
# Per-source document caps: the crawl-pipeline "cap pages per domain" rule
# (bound any one source's share of the corpus), deterministic variant.
_SOURCE_CAP = 10


def docs_source_caps(sf_dir: str, cap: int = _SOURCE_CAP):
    """Keep at most `cap` docs per source, chosen by the smallest
    (md5(doc_id), doc_id) keys — a deterministic reservoir, so re-runs and
    incremental additions pick a stable pseudo-random subset per source.

    Scale shape — the partial-top-k combiner (same as top_terms): each
    batch keeps only its own `cap` smallest keys PER SOURCE before the
    exchange, so the source-keyed shuffle carries at most cap rows per
    (batch, source) and the final per-source sort sees
    <= n_batches * cap rows, never the source's full corpus.  Output:
    (source, doc_id, rk)."""
    import hashlib

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        ids = t["doc_id"].to_pylist()
        df = pd.DataFrame(
            {
                "source": t["source"].to_pylist(),
                "doc_id": np.asarray(ids, np.int64),
                "k": [hashlib.md5(str(i).encode()).hexdigest() for i in ids],
            }
        )
        df = df.sort_values(["source", "k", "doc_id"], kind="mergesort")
        return pa.Table.from_pandas(
            df.groupby("source", sort=False).head(cap), preserve_index=False
        )

    def cap_of_source(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["k", "doc_id"], kind="mergesort").head(cap)
        out = g[["source", "doc_id"]].reset_index(drop=True)
        out["rk"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return out

    return (
        _read_docs(sf_dir, columns=["doc_id", "source"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .map_groups(cap_of_source, batch_format="pandas")
    )


SOURCE_CAPS_SQL = f"""
WITH keyed AS (
  SELECT source, doc_id, md5(CAST(doc_id AS VARCHAR)) AS k FROM documents
),
ranked AS (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY k, doc_id) AS rk
  FROM keyed
)
SELECT source, doc_id, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= {_SOURCE_CAP}
"""


# ---------------------------------------------------------------------------
# Capstone composition: curated corpus -> deterministic training shards on
# disk.  The end-to-end export a pre-training run actually consumes: the
# curation verdict (decontam + repetition + length, one fused pass), the
# seeded metadata shuffle, and a per-shard ORDERED parquet writer with
# atomic promote.
_EXPORT_SHARDS = 8


def export_training_shards(sf_dir: str, out_dir: str | None = None,
                           n_shards: int = _EXPORT_SHARDS):
    """Write the curated corpus as `n_shards` training shards, each a
    parquet file sorted by the seeded shuffle key (so training reads shard
    s start-to-finish and sees the deterministic global permutation
    restricted to survivors).  Returns a one-row manifest DataFrame
    (n_seen, n_kept, n_shards).

    Scale shape: ONE streaming read of the corpus (full rows) — the fused
    verdict kernel gates each batch, the md5 shuffle key rides along as
    metadata — then one coarse shard-keyed shuffle; each shard sorts its
    own rows (independent tasks) and writes its own file into a scratch
    dir that atomically replaces `out_dir` (curate_corpus's pid-dir
    promote: re-runs are idempotent, crashes leave the old export
    intact).  At 100 TB shards are the resume unit: n_shards scales as
    16^k and a shard re-export touches only its own key range."""
    import hashlib
    import shutil
    import tempfile

    import pandas as pd
    import pyarrow.parquet as pq

    out_dir = out_dir or os.path.join(tempfile.gettempdir(), "rayft_export_shards")
    bench = benchmark_ngrams(sf_dir, _DECON_N)
    bcast = ray.put(bench)

    def keep_and_key(t: pa.Table) -> pa.Table:
        v = _verdict_batch(t.select(["doc_id", "text"]), ray.get(bcast))
        kept_ids = v.filter(pc.equal(v["keep"], 1))["doc_id"]
        t = t.filter(pc.is_in(t["doc_id"], value_set=kept_ids.combine_chunks()))
        ids = t["doc_id"].to_pylist()
        keys = [
            hashlib.md5(f"{_SHUF_SEED}-{i}".encode()).hexdigest()[:16]
            for i in ids
        ]
        shards = np.fromiter(
            (_HEX.index(k[0]) % n_shards for k in keys),
            dtype=np.int64, count=len(keys),
        )
        t = t.append_column("shuf_key", pa.array(keys, pa.string()))
        return t.append_column("shard", pa.array(shards, pa.int64()))

    tmp_dir = f"{out_dir.rstrip(os.sep)}.tmp-{os.getpid()}"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["shuf_key", "doc_id"], kind="mergesort").reset_index(
            drop=True
        )
        g["pos"] = np.arange(len(g), dtype=np.int64)
        shard = int(g["shard"].iloc[0])
        path = os.path.join(tmp_dir, f"shard-{shard:05d}.parquet")
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), path)
        return pd.DataFrame({"shard": [shard], "n_rows": [len(g)]})

    n_seen = _read_docs(sf_dir, columns=["doc_id"]).count()
    manifest = collect(  # <= n_shards rows
        _read_docs(sf_dir)
        .map_batches(keep_and_key, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("shard")
        .map_groups(write_shard, batch_format="pandas"),
        pa.schema({"shard": I64, "n_rows": I64}),
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp_dir, out_dir)
    return pd.DataFrame(
        {
            "n_seen": pd.array([n_seen], dtype="int64"),
            "n_kept": pd.array([int(manifest["n_rows"].sum())], dtype="int64"),
            "n_shards": pd.array([len(manifest)], dtype="int64"),
        }
    )


# ---------------------------------------------------------------------------
# Exact-k uniform sample — the fixed-budget companion to the rate-based
# docs_stratified_sample: EXACTLY k docs, chosen by deterministic md5 rank
# (a seeded hash is a uniform permutation), so any two runs and any
# partitioning agree on the sample.
_RESERVOIR_K = 64
_RESERVOIR_SEED = "resv1"


def docs_reservoir_sample(sf_dir: str, k: int = _RESERVOIR_K):
    """(doc_id, source, rk): the k docs with the smallest
    md5(doc_id:seed) rank — a deterministic exact-size uniform sample
    (the distributed reservoir).  Scale shape: each batch keeps only its
    local k smallest ranks (partial top-k combiner), so the driver
    merges <= n_blocks x k rows regardless of corpus size; md5 runs on
    the short id string, not the text."""
    import hashlib as _hl

    ds = _read_docs(sf_dir, columns=["doc_id", "source"])

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        rk = [
            _hl.md5(f"{int(d)}:{_RESERVOIR_SEED}".encode()).hexdigest()
            for d in ids
        ]
        tt = t.append_column("rk", pa.array(rk, pa.string()))
        idx = pc.select_k_unstable(
            tt, k=min(k, len(rk)),
            sort_keys=[("rk", "ascending"), ("doc_id", "ascending")],
        )
        return tt.take(idx)

    out = (
        collect(  # <= n_blocks * k rows
            ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True),
            pa.schema({"doc_id": I64, "source": STR, "rk": STR}),
        )
        .sort_values(["rk", "doc_id"])
        .head(k)
        .reset_index(drop=True)
    )
    return out[["doc_id", "source", "rk"]]


RESERVOIR_SAMPLE_SQL = f"""
SELECT doc_id, source, md5(CAST(doc_id AS VARCHAR) || ':{_RESERVOIR_SEED}') AS rk
FROM documents
ORDER BY rk, doc_id
LIMIT {_RESERVOIR_K}
"""


# ---------------------------------------------------------------------------
# Weighted sampling without replacement (Efraimidis-Spirakis A-ES): the
# importance-sampling member next to the uniform reservoir — data mixing
# wants "sample docs proportionally to length/quality weight", exactly once.

_WSAMPLE_K = 32
_WSAMPLE_SEED = 7
_HEX12 = float(1 << 48)  # md5 12-hex-digit prefix space


def docs_weighted_sample(sf_dir: str, k: int = _WSAMPLE_K):
    """(doc_id, n_chars, key_r6): the k docs with the SMALLEST A-ES key
    -ln(u)/w, u = (md5-prefix + 1)/(2^48 + 1), w = max(n_chars, 1) — a
    deterministic exact-k sample where inclusion probability scales with
    doc length (Efraimidis & Spirakis 2006, the distributed weighted
    reservoir).  Scale shape: identical to docs_reservoir_sample — each
    batch keeps its local k smallest keys (partial top-k combiner), the
    driver merges <= n_blocks x k rows; md5 runs on the short id string.
    Key floats follow the oracle's exact expression tree, and the
    (key, doc_id) tie-break makes the cut deterministic."""
    import hashlib as _hl

    ds = _read_docs(sf_dir, columns=["doc_id", "n_chars"])

    def local_topk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        h = np.fromiter(
            (
                int(_hl.md5(f"{int(d)}:{_WSAMPLE_SEED}".encode()).hexdigest()[:12], 16)
                for d in ids
            ),
            np.float64,
            count=ids.size,
        )
        w = np.maximum(
            t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64), 1.0
        )
        key = -np.log((h + 1.0) / (_HEX12 + 1.0)) / w
        tt = t.append_column("key", pa.array(key, pa.float64()))
        idx = pc.select_k_unstable(
            tt, k=min(k, len(ids)),
            sort_keys=[("key", "ascending"), ("doc_id", "ascending")],
        )
        return tt.take(idx)

    out = (
        collect(  # <= n_blocks * k rows
            ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True),
            pa.schema({"doc_id": I64, "n_chars": I64, "key": F64}),
        )
        .sort_values(["key", "doc_id"])
        .head(k)
        .reset_index(drop=True)
    )
    out["key_r6"] = np.round(out["key"].to_numpy(np.float64), 6)
    return out[["doc_id", "n_chars", "key_r6"]]


WEIGHTED_SAMPLE_SQL = f"""
SELECT doc_id, n_chars,
       round(-ln((CAST(concat('0x',
                    substr(md5(CAST(doc_id AS VARCHAR) || ':{_WSAMPLE_SEED}'),
                           1, 12)) AS BIGINT) + 1.0) / ({_HEX12!r} + 1.0))
             / greatest(n_chars, 1), 6) AS key_r6
FROM documents
ORDER BY -ln((CAST(concat('0x',
            substr(md5(CAST(doc_id AS VARCHAR) || ':{_WSAMPLE_SEED}'), 1, 12))
            AS BIGINT) + 1.0) / ({_HEX12!r} + 1.0)) / greatest(n_chars, 1),
         doc_id
LIMIT {_WSAMPLE_K}
"""
