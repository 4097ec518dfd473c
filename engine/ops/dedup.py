"""Deduplication operators over the `documents` table.

The reference only has exact natural-key dedup (UNIQUE(paper_id, name) upsert,
/root/reference/rds_schema.sql:29 + ec2/rds/upsert.py:29-52 — SURVEY.md §2.7
D1); near-dup operators are the large-scale-training-data extensions:

- exact_dedup        content-hash groupby (D1 generalized to content identity)
- ngram_jaccard_pairs exact token-set Jaccard via a shared-token inverted
                      index (oracle-verifiable in SQL; quadratic in group
                      size — the correctness baseline, not the scale path)
- minhash_lsh_pairs  MinHash signatures + banded LSH (the scale path: the
                      shuffle carries one (band, hash, doc) row per band, and
                      only same-bucket docs pair up)
- simhash_pairs      64-bit SimHash + 4-band blocking for hamming <= k
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ..analyze import SPLIT_PATTERN, tokenize, tokenize_counts_arrow
from .keyed import F64, I64, STR, by_key, collect

_MERSENNE = (1 << 61) - 1


def _read_docs(sf_dir: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=columns)


# ---------------------------------------------------------------------------
def exact_dedup(sf_dir: str):
    """Exact content dedup: md5(text) -> (hash, keep_id=min doc_id, n_dups).

    The reduce key (content hash) is corpus-cardinality, so the combine is
    NOT one Ray group per hash (per-group dispatch cost grows with group
    count): map-side partials ride one hash-keyed shuffle (keyed.by_key) and
    one vectorized pandas groupby per partition finishes the reduce."""

    def hash_batch(t: pa.Table) -> pa.Table:
        hs = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        t2 = pa.table({"h": pa.array(hs, pa.string()), "doc_id": t["doc_id"]})
        g = t2.group_by("h").aggregate([("doc_id", "min"), ("doc_id", "count")])
        return g.rename_columns(["h", "keep_part", "n_part"])

    def dedup_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("h", sort=False, as_index=False).agg(
            keep_id=("keep_part", "min"), n_dups=("n_part", "sum")
        )

    return by_key(
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(hash_batch, batch_format="pyarrow", zero_copy_batch=True),
        "h", dedup_of_partition,
        pa.schema({"h": STR, "keep_id": I64, "n_dups": I64}),
    )


EXACT_DEDUP_SQL = """
SELECT md5(text) AS h, min(doc_id) AS keep_id, count(*) AS n_dups
FROM documents GROUP BY md5(text)
"""


# ---------------------------------------------------------------------------
def _shingle_rows(t: pa.Table) -> pa.Table:
    """Distinct (doc_id, tk, n) rows per batch: tk one of the doc's 3-token
    shingles (the joined token-triple string, mirroring the SQL oracle
    exactly), n the doc's shingle-set size (known at emit time — a doc is
    one input row, never split) so Jaccard needs no corpus-scale size
    broadcast later."""
    from ..analyze import ngram_stream_arrow

    codes, parents, vocab = ngram_stream_arrow(t["text"], 3)
    nv = max(len(vocab), 1)
    pairs = np.unique(parents.astype(np.int64) * nv + codes)
    di, ci = pairs // nv, pairs % nv
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "doc_id": pa.array(ids[di], pa.int64()),
            "tk": vocab.take(pa.array(ci)).cast(pa.string()),
            "n": pa.array(np.bincount(di, minlength=len(t))[di], pa.int64()),
        }
    )


def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.8):
    """Exact 3-gram-shingle Jaccard similar pairs (a < b, jaccard >= threshold).

    Plan: distinct (doc, shingle, set-size) rows -> ONE shuffle keyed by
    shingle (a shingle's whole posting co-locates in one partition, so
    global df is visible there) -> per-partition
    vectorized pair generation over ALL its shingle groups at once -> a tiny
    groupby(pair) sums intersection counts; set sizes ride the pair rows, so
    nothing corpus-scale is ever broadcast or driver-collected.  Quadratic in
    shingle-group size, which is why the scale path is minhash_lsh_pairs;
    kept exact here as the DuckDB-verifiable baseline.  Docs with < 3 tokens
    have no shingles and never pair (same in the oracle).

    Hot-shingle cap (the postings hot-term design applied to shingles): a
    shingle shared by more than max(64, 10% of docs) documents is boilerplate
    — it would contribute O(df^2) candidate pairs while carrying no
    discriminative signal — so such groups emit no INTERSECTION rows (set
    sizes still count every shingle; the SQL oracle applies the identical
    HAVING rule).  Dropped-group counts ride a marker row and are logged at
    the final stage.
    """
    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    hot_cap = max(64.0, 0.1 * docs.count())
    return _exact_jaccard_pairs(docs, hot_cap, threshold)


def _exact_jaccard_pairs(
    docs: "rd.Dataset", hot_cap: float, threshold: float, hot=None
):
    """The exact shingle-join Jaccard kernel shared by ngram_jaccard_pairs
    (whole corpus) and ngram_jaccard_prefix (corpus pruned to candidate
    docs).  `hot_cap` is always computed over the FULL corpus by the
    caller.  On the full corpus a group's size is its df, so groups over
    `hot_cap` are the boilerplate; on a pruned corpus the sizes undercount,
    and the caller passes `hot`, the shingles over `hot_cap` on the full
    corpus, which then decides instead — so the boilerplate HAVING rule
    matches the oracle regardless of pruning."""
    hot = None if hot is None else frozenset(hot)
    tok = docs.map_batches(_shingle_rows, batch_format="pyarrow", zero_copy_batch=True)

    def pairs_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """All candidate pairs of ALL shingle groups in one hash partition,
        vectorized: factorize shingles, stable-sort rows by group code, walk
        only the (rare) groups with 2..hot_cap members."""
        codes, uniq = pd.factorize(g["tk"], sort=False)
        order = np.argsort(codes, kind="stable")
        codes_s = codes[order]
        docs_s = g["doc_id"].to_numpy()[order]
        ns_s = g["n"].to_numpy()[order]
        starts = np.nonzero(np.r_[True, codes_s[1:] != codes_s[:-1]])[0]
        ends = np.r_[starts[1:], codes_s.size]
        sizes = ends - starts
        if hot is None:
            is_hot = sizes > hot_cap
        else:
            is_hot = pd.Index(uniq).isin(hot)[codes_s[starts]]
        n_hot = int(is_hot.sum())
        live = (sizes >= 2) & ~is_hot
        out = []
        for s, e in zip(starts[live], ends[live]):
            ids, nn = docs_s[s:e], ns_s[s:e]
            o = np.argsort(ids)
            ids, nn = ids[o], nn[o]
            ai, bi = np.triu_indices(ids.size, k=1)
            out.append((ids[ai], ids[bi], nn[ai], nn[bi]))
        frames = []
        if out:
            a = np.concatenate([x[0] for x in out])
            b = np.concatenate([x[1] for x in out])
            na = np.concatenate([x[2] for x in out])
            nb = np.concatenate([x[3] for x in out])
            df = pd.DataFrame(
                {"a": a, "b": b, "i_part": np.ones(a.size, dtype=np.int64),
                 "na": na, "nb": nb}
            )
            # intra-partition combine: the same pair appears once per shared
            # shingle hashed here; collapse before the cross-partition shuffle
            df = df.groupby(["a", "b"], sort=False, as_index=False).agg(
                i_part=("i_part", "sum"), na=("na", "first"), nb=("nb", "first")
            )
            frames.append(df)
        if n_hot:
            # boilerplate shingles: one marker row -> dropped-count log later
            frames.append(
                pd.DataFrame({"a": [-1], "b": [-1], "i_part": [n_hot],
                              "na": [0], "nb": [0]}).astype("int64")
            )
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()

    def combine_pairs(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["a", "b"], sort=False, as_index=False).agg(
            i=("i_part", "sum"), na=("na", "max"), nb=("nb", "max")
        )

    pairs = by_key(
        tok, "tk", pairs_of_partition,
        pa.schema({"a": I64, "b": I64, "i_part": I64, "na": I64, "nb": I64}),
    )
    inter = by_key(
        pairs, ["a", "b"], combine_pairs,
        pa.schema({"a": I64, "b": I64, "i": I64, "na": I64, "nb": I64}),
    )

    def jaccard_final(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        i = t["i"].to_numpy(zero_copy_only=False).astype(np.float64)
        na = t["na"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t["nb"].to_numpy(zero_copy_only=False).astype(np.float64)
        dropped = a == -1  # hot-shingle marker rows
        if dropped.any():
            import logging

            logging.getLogger(__name__).info(
                "ngram_jaccard_pairs: %d hot shingles (df > %d) dropped "
                "from intersection counting",
                int(i[dropped].sum()), int(hot_cap),
            )
            a, b, i, na, nb = a[~dropped], b[~dropped], i[~dropped], na[~dropped], nb[~dropped]
        j = i / (na + nb - i)
        keep = j >= threshold
        return pa.table(
            {
                "a": pa.array(a[keep], pa.int64()),
                "b": pa.array(b[keep], pa.int64()),
                "jaccard": pa.array(np.round(j[keep], 6), pa.float64()),
            }
        )

    return inter.map_batches(jaccard_final, batch_format="pyarrow")


NGRAM_JACCARD_SQL = """
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
tok AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, greatest(len(toks) - 1, 1)),
                i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])) AS tk
  FROM base
),
sz AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
-- hot-shingle cap: boilerplate shingles (df > max(64, 10% of docs)) are
-- excluded from intersection counting, mirroring the engine exactly
cold AS (
  SELECT tk FROM tok GROUP BY tk
  HAVING count(*) <= greatest(64, 0.1 * (SELECT count(*) FROM documents))
),
inter AS (
  SELECT t1.doc_id AS a, t2.doc_id AS b, count(*) AS i
  FROM tok t1 JOIN tok t2 ON t1.tk = t2.tk AND t1.doc_id < t2.doc_id
  WHERE t1.tk IN (SELECT tk FROM cold)
  GROUP BY t1.doc_id, t2.doc_id
)
SELECT a, b, round(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter
JOIN sz sa ON sa.doc_id = a
JOIN sz sb ON sb.doc_id = b
WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.8
"""


def ngram_jaccard_prefix(
    sf_dir: str, threshold: float = 0.8, pushdown_budget_ids: int = None
):
    """PPJoin-style prefix-filtered exact Jaccard pairs — the scale path for
    EXACT (not approximate) similarity joins, output-identical to
    ngram_jaccard_pairs and gated by the same SQL oracle.

    Prefix filtering (Chaudhuri et al. 2006; Xiao et al. 2008 "PPJoin",
    public literature): under ANY fixed global order on shingles, two sets
    with Jaccard >= t must share at least one element inside both of their
    prefixes of length |S| - ceil(t*|S|) + 1 (rarest-first ordering is only
    an optimization; we use a fixed hash order so no global-df pass is
    needed).  So the candidate join touches only ~(1-t) of each doc's
    shingle rows, plus a length filter (min(n) >= t*max(n)) that kills
    cross-size pairs before they materialize.

    Plan: shingle rows annotated map-side with a per-doc prefix flag (the
    prefix is a property of the doc's own set — no shuffle needed to mark
    it) -> candidate pairs from PREFIX rows only via one shingle-keyed
    shuffle -> distinct candidates -> the candidate doc_id
    set prunes the corpus read by predicate pushdown (adaptive: over
    `pushdown_budget_ids` the pruning is skipped and the kernel degrades to
    the exact whole-corpus join rather than building a corpus-scale driver
    list, the minhash_lsh_pairs budget design) -> the shared exact kernel
    (_exact_jaccard_pairs) verifies real Jaccard over candidate docs only.
    Completeness: every oracle pair has oracle-jaccard <= true-jaccard, so
    >= t implies both docs are candidates; non-candidate pairs of candidate
    docs are killed by the kernel's own >= t filter.  The boilerplate
    HAVING rule is unchanged: hot_cap is computed over the FULL corpus, the
    candidate shuffle carries every shingle row (prefix rows flagged) so
    each partition sees its shingles' full-corpus df, and the pruned
    kernel drops the shingles hot on the full corpus, not the ones over
    hot_cap among the candidate docs.  Hot shingles also seed no
    candidates: a pair at oracle Jaccard >= t shares >= t*max(n) cold
    shingles, and the first of them in the global order lies in both
    prefixes, so candidates from cold prefix shingles stay complete.

    Crossover (measured, BENCH round 5): at sf0.1 (100k docs, ~0.03% dup
    rate) this path was ~2x SLOWER than the exact join (3.4 s vs 1.6 s) —
    stage A tokenizes the corpus a second time, so the prefix pass only
    pays off once pair ENUMERATION dominates tokenization.  That is exactly the
    100-TB-shaped regime (shared-shingle groups grow with corpus size;
    non-candidate docs then never enter the quadratic kernel), and the
    regime where the exact join is the published baseline against which
    PPJoin reports its wins; at low dup rates and toy scale, use
    ngram_jaccard_pairs directly."""
    if pushdown_budget_ids is None:
        pushdown_budget_ids = _PUSHDOWN_BUDGET_IDS
    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    hot_cap = max(64.0, 0.1 * docs.count())

    def prefix_rows(t: pa.Table) -> pa.Table:
        """_shingle_rows plus `pre`, the flag of each doc's PREFIX: its
        shingle set sorted by (hash, shingle) — the same global order in
        every task — truncated to n - ceil(t*n) + 1 entries."""
        d = _shingle_rows(t).to_pandas()
        d["h"] = pd.util.hash_array(d["tk"].to_numpy())
        d = d.sort_values(["doc_id", "h", "tk"])
        n = d["n"].to_numpy()
        p = n - np.ceil(threshold * n - 1e-9).astype(np.int64) + 1
        d["pre"] = d.groupby("doc_id", sort=False).cumcount().to_numpy() < p
        return pa.Table.from_pandas(d.drop(columns="h"), preserve_index=False)

    def cand_of_partition(g: pd.DataFrame) -> pa.Table:
        """Pairs co-occurring on a cold prefix shingle, with the Jaccard
        length filter applied vectorized before the distinct, plus one
        (a = b = -1, tk) row per hot shingle (all rows of a shingle are in
        this partition, so its group size is its full-corpus df).  Pair
        rows carry tk = ""."""
        codes, uniq = pd.factorize(g["tk"], sort=False)
        order = np.argsort(codes, kind="stable")
        codes_s = codes[order]
        starts = np.nonzero(np.r_[True, codes_s[1:] != codes_s[:-1]])[0]
        sizes = np.diff(np.r_[starts, codes_s.size])
        is_hot = sizes > hot_cap
        hot_tk = uniq[codes_s[starts[is_hot]]]
        keep = g["pre"].to_numpy()[order] & ~np.repeat(is_hot, sizes)
        codes_s = codes_s[keep]
        docs_s = g["doc_id"].to_numpy()[order][keep]
        ns_s = g["n"].to_numpy()[order][keep]
        starts = np.nonzero(np.r_[True, codes_s[1:] != codes_s[:-1]])[0]
        ends = np.r_[starts[1:], codes_s.size]
        a_parts, b_parts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            ids, nn = docs_s[s:e], ns_s[s:e]
            o = np.argsort(ids)
            ids, nn = ids[o], nn[o]
            ai, bi = np.triu_indices(ids.size, k=1)
            na, nb = nn[ai], nn[bi]
            ok = np.minimum(na, nb) >= threshold * np.maximum(na, nb)
            if ok.any():
                a_parts.append(ids[ai][ok])
                b_parts.append(ids[bi][ok])
        pairs = pd.DataFrame(
            {"a": np.concatenate(a_parts), "b": np.concatenate(b_parts)}
        ).drop_duplicates()
        hot = np.full(hot_tk.size, -1, dtype=np.int64)
        return pd.DataFrame({
            "a": np.r_[hot, pairs["a"].to_numpy()],
            "b": np.r_[hot, pairs["b"].to_numpy()],
            "tk": [*hot_tk, *[""] * len(pairs)],
        })

    schema = pa.schema({"a": I64, "b": I64, "tk": STR})
    cands = by_key(  # a pair can co-occur on several prefix shingles
        by_key(
            docs.map_batches(prefix_rows, batch_format="pyarrow", zero_copy_batch=True),
            "tk", cand_of_partition, schema,
        ),
        ["a", "b"], lambda g: g.drop_duplicates(["a", "b", "tk"]), schema,
    ).materialize()
    hot = [
        r["tk"]
        for r in cands.map_batches(
            lambda t: t.filter(pc.less(t["a"], 0)).select(["tk"]),
            batch_format="pyarrow",
        ).take_all()
    ]

    n_cands = cands.count() - len(hot)
    if n_cands == 0:
        # prefix filtering is complete: zero candidates proves zero pairs
        return rd.from_arrow(
            pa.schema({"a": I64, "b": I64, "jaccard": F64}).empty_table()
        )
    if 2 * n_cands > pushdown_budget_ids:
        return _exact_jaccard_pairs(docs, hot_cap, threshold)
    c = collect(cands, schema)
    cand_ids = np.setdiff1d(np.union1d(c["a"], c["b"]), [-1]).tolist()
    pruned = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pc.field("doc_id").isin(cand_ids),
    )
    # a shingle's df on the candidate docs says nothing about its df on
    # the corpus, which is what the boilerplate rule counts
    return _exact_jaccard_pairs(pruned, hot_cap, threshold, hot)


# ---------------------------------------------------------------------------
_SPAN_N = 8  # span length in tokens (Lee et al. use 50; sized to the corpus)
_SPAN_MIN_DOCS = 2


def dup_spans(sf_dir: str, n: int = _SPAN_N, min_docs: int = _SPAN_MIN_DOCS):
    """Exact duplicated n-token spans ACROSS documents (the unit of
    exact-substring training-data dedup, Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better"): every n-token sliding
    window that occurs in >= min_docs distinct docs, with its global
    occurrence count and the doc that keeps the canonical copy (min doc_id).

    Reference analog: the reference dedups whole rows by natural key only
    (/root/reference/rds_schema.sql:29); sub-document spans are the
    training-data extension (SURVEY.md §2.7 D-family).

    Scale shape (mirrors exact_dedup): the map side aggregates each batch to
    one row per DISTINCT span carrying summable partials — a doc is exactly
    one input row, so per-batch distinct-doc counts sum exactly across
    batches — keyed by the span string; one vectorized pandas groupby per
    partition finishes the reduce and applies the HAVING, and only the few SURVIVING spans are
    md5-hashed (the expensive per-string digest never runs corpus-wide on
    the map side).  Nothing vocabulary- or corpus-scale touches the driver;
    the n-gram windowing is the shared zero-copy-slice kernel
    (engine.analyze.ngram_stream_arrow), so spans are exact strings
    bit-comparable to the DuckDB oracle's array_to_string(toks[i:i+n-1],
    ' ')."""
    from ..analyze import ngram_stream_arrow

    def partials(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "g": pa.array([], pa.string()),
                "n_docs_p": pa.array([], pa.int64()),
                "n_occ_p": pa.array([], pa.int64()),
                "keep_p": pa.array([], pa.int64()),
            }
        )
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        codes, parents, vocab = ngram_stream_arrow(t["text"], n)
        if codes.size == 0:
            return empty
        order = np.lexsort((parents, codes))
        c_s, p_s = codes[order], parents[order]
        brk = np.r_[True, c_s[1:] != c_s[:-1]]
        starts = np.nonzero(brk)[0]
        n_occ = np.diff(np.r_[starts, c_s.size])
        # distinct (code, doc) pairs within the (code, parent)-sorted runs
        dd = np.r_[True, (c_s[1:] != c_s[:-1]) | (p_s[1:] != p_s[:-1])]
        n_docs_arr = np.add.reduceat(dd.astype(np.int64), starts)
        keep = np.minimum.reduceat(doc_ids[p_s], starts)
        return pa.table(
            {
                "g": vocab.take(pa.array(c_s[starts])),
                "n_docs_p": pa.array(n_docs_arr, pa.int64()),
                "n_occ_p": pa.array(n_occ, pa.int64()),
                "keep_p": pa.array(keep, pa.int64()),
            }
        )

    def of_partition(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("g", sort=False, as_index=False).agg(
            n_docs=("n_docs_p", "sum"),
            n_occ=("n_occ_p", "sum"),
            keep_id=("keep_p", "min"),
        )
        out = out[out["n_docs"] >= min_docs]
        out["h"] = [
            hashlib.md5(s.encode("utf-8")).hexdigest() for s in out["g"]
        ]
        return out

    return by_key(
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "g", of_partition,
        pa.schema({"h": STR, "n_docs": I64, "n_occ": I64, "keep_id": I64}),
    )


DUP_SPANS_SQL = f"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
sp AS (
  SELECT doc_id, array_to_string(toks[i:i+{_SPAN_N - 1}], ' ') AS g
  FROM (SELECT doc_id,
               unnest(generate_series(1, greatest(len(toks) - {_SPAN_N - 1}, 0))) AS i,
               toks
        FROM base)
)
SELECT md5(g) AS h,
       count(DISTINCT doc_id) AS n_docs,
       count(*) AS n_occ,
       min(doc_id) AS keep_id
FROM sp GROUP BY g HAVING count(DISTINCT doc_id) >= {_SPAN_MIN_DOCS}
"""


# ---------------------------------------------------------------------------
_N_PERM = 64
_N_BANDS = 16  # 16 bands x 4 rows
# candidate-id cap for the driver-built shingle-store pushdown filter
# (~28 B/int as a Python list => ~1.4 GB at the default); above it the
# reduce-side doc_id join filters instead — distributed full scan, nothing
# candidate-scale on the driver
_PUSHDOWN_BUDGET_IDS = 50_000_000
_SHINGLE_K = 3

# 64-bit mixing constants (splitmix64 / xxhash finalizer family)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xC2B2AE3D27D4EB4F)
_C3 = np.uint64(0x165667B19E3779F9)


def _mix2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (a ^ (b * _C1)) * _C2
        x ^= x >> np.uint64(31)
        x *= _C3
        x ^= x >> np.uint64(29)
    return x


def _mix3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (a ^ (b * _C1) ^ (c * _C2)) * _C3
        x ^= x >> np.uint64(31)
        x *= _C1
        x ^= x >> np.uint64(29)
    return x


def _hash_token(tok: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big"
    )


_PAD_HASH = np.uint64(_hash_token("_pad"))


def _token_hash_stream(texts) -> tuple[np.ndarray, np.ndarray]:
    """Batch texts -> (uint64 hash per token occurrence, doc index per token),
    in document order.  Tokenization follows the engine analyzer spec; only
    the batch's UNIQUE tokens are hashed in Python (dictionary-encoded), the
    occurrence stream is a vectorized gather."""
    n_docs = len(texts)
    empty = (np.empty(0, np.uint64), np.empty(0, np.int64))
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
    de = flat.dictionary_encode()
    if isinstance(de, pa.ChunkedArray):
        de = de.combine_chunks()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = de.dictionary.to_pylist()
    vh = np.fromiter(
        (_hash_token(t) for t in vocab), dtype=np.uint64, count=len(vocab)
    )
    empty_code = pc.index(de.dictionary, "").as_py()
    if empty_code >= 0:  # split artifacts at string boundaries
        keep = codes != empty_code
        codes, parents = codes[keep], parents[keep]
    return vh[codes], parents


def _shingle_stream(texts) -> tuple[np.ndarray, np.ndarray]:
    """Batch texts -> (uint64 trigram-shingle hash, doc index) for every
    3-gram occurrence, sorted by doc (the kernel is hardwired to
    k = _SHINGLE_K = 3: the windowing below is th[:-2]/th[1:-1]/th[2:]).
    Docs with < 3 tokens get one padded shingle (so even empty docs carry a
    signature), mirroring the per-doc shingler's pad semantic."""
    k = _SHINGLE_K
    th, parents = _token_hash_stream(texts)
    n_docs = len(texts)
    counts = (
        np.bincount(parents, minlength=n_docs).astype(np.int64)
        if parents.size
        else np.zeros(n_docs, np.int64)
    )
    long_parts = []
    if th.size >= k:
        sh_main = _mix3(th[:-2], th[1:-1], th[2:])
        valid = parents[:-2] == parents[2:]
        long_parts = [(sh_main[valid], parents[:-2][valid])]
    # short docs (< k tokens): exactly one shingle over the padded window
    sids = np.nonzero(counts < k)[0]
    if sids.size:
        starts = np.searchsorted(parents, sids)
        c = counts[sids]
        pad = np.full(sids.size, _PAD_HASH, np.uint64)
        safe = lambda idx: th[np.minimum(idx, max(th.size - 1, 0))] if th.size else pad
        t0 = np.where(c >= 1, safe(starts), pad)
        t1 = np.where(c >= 2, safe(starts + 1), pad)
        long_parts.append((_mix3(t0, t1, pad), sids))
    if not long_parts:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    sh = np.concatenate([p[0] for p in long_parts])
    sdoc = np.concatenate([p[1] for p in long_parts])
    order = np.argsort(sdoc, kind="stable")
    return sh[order], sdoc[order]


class _MinHasher:
    """Actor-pool stage: documents -> (band_id, band_hash, doc_id) rows.

    Permutation parameters are derived from a fixed seed in __init__ (once
    per actor).  The whole batch is one vectorized pass: shingle hashes are
    folded to 32 bits so the universal-hash product a*x+b stays inside
    uint64 (a, b < 2^31, x < 2^32 => a*x+b < 2^63), then per-doc minima come
    from one np.minimum.reduceat per permutation chunk — no Python loop over
    shingles or permutations (round-1 kernel was object-dtype bigint modmul).
    """

    def __init__(self, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 1 << 31, size=_N_PERM, dtype=np.uint64)
        self.b = rng.integers(0, 1 << 31, size=_N_PERM, dtype=np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        n_docs = len(t)
        if n_docs == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int32()),
                    "bh": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        sh, sdoc = _shingle_stream(t["text"])
        # every doc has >= 1 shingle (pad semantic), so reduceat is total
        x32 = (sh >> np.uint64(32)) ^ (sh & np.uint64(0xFFFFFFFF))
        starts = np.searchsorted(sdoc, np.arange(n_docs))
        sigs = np.empty((_N_PERM, n_docs), dtype=np.uint64)
        step = 16  # bound the (step x n_shingles) temporary
        for c0 in range(0, _N_PERM, step):
            c1 = min(c0 + step, _N_PERM)
            with np.errstate(over="ignore"):
                v = (self.a[c0:c1, None] * x32[None, :] + self.b[c0:c1, None]) % _MERSENNE
            sigs[c0:c1] = np.minimum.reduceat(v, starts, axis=1)
        # fold each band's rows into one 64-bit band hash (vectorized)
        rows_per = _N_PERM // _N_BANDS
        s3 = sigs.reshape(_N_BANDS, rows_per, n_docs)
        bh = s3[:, 0]
        for r in range(1, rows_per):
            bh = _mix2(bh, s3[:, r])
        bh = (bh >> np.uint64(1)).astype(np.int64)  # int64-safe
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False)
        band_col = np.repeat(np.arange(_N_BANDS, dtype=np.int64), n_docs)
        return pa.table(
            {
                "band": pa.array(band_col.astype(np.int32), pa.int32()),
                "bh": pa.array(bh.reshape(-1), pa.int64()),
                "doc_id": pa.array(np.tile(doc_ids, _N_BANDS), pa.int64()),
            }
        )


def _shingle_set_rows(t: pa.Table) -> pa.Table:
    """Batch -> (doc_id, shingles: list<uint64>) with per-doc dedup."""
    sh, sdoc = _shingle_stream(t["text"])
    n_docs = len(t)
    order = np.lexsort((sh, sdoc))
    sh_s, sdoc_s = sh[order], sdoc[order]
    uniq = np.ones(sh_s.size, dtype=bool)
    if sh_s.size > 1:
        uniq[1:] = (sh_s[1:] != sh_s[:-1]) | (sdoc_s[1:] != sdoc_s[:-1])
    sh_u, sdoc_u = sh_s[uniq], sdoc_s[uniq]
    counts = np.bincount(sdoc_u, minlength=n_docs)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    lists = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(sh_u, pa.uint64())
    )
    return pa.table({"doc_id": t["doc_id"], "shingles": lists})


def minhash_lsh_pairs(
    sf_dir: str,
    threshold: float = 0.6,
    pushdown_budget_ids: int = None,
):
    """MinHash+LSH candidate pairs, verified with exact shingle Jaccard.

    Scale path for near-dedup: the shuffle moves N_BANDS small rows per doc;
    only same-(band, band_hash) docs generate candidates.  Verification is a
    fully distributed doc_id-keyed reduce-side join: candidate pair rows are
    split into two (doc_id, a, b) side rows, unioned with the candidate
    docs' (doc_id, shingles) rows, a doc_id groupby attaches each doc's
    shingle set to its pair sides, and an (a, b) groupby intersects the two
    sides.  NOTHING corpus- or candidate-set-scale ever lands on the driver
    or in a broadcast dict (round 2 `ray.put` a {doc_id: set} dict, which
    melts on a boilerplate-heavy corpus where the candidate set approaches
    corpus scale).

    The shingle-store read is ADAPTIVELY pruned: when the candidate-id count
    fits `pushdown_budget_ids`, the ids (8 B each on disk, ~28 B/int as a
    Python list) are collected once to build a predicate-pushdown isin
    filter so only candidate row groups leave storage; above the budget —
    the adversarial all-boilerplate corpus where candidates ~ corpus, and a
    driver-built filter list would itself be corpus-scale — the filter is
    skipped and the reduce-side doc_id join does the filtering (a full but
    fully distributed shingle-store scan; non-candidate docs die in the
    join).  The budget check is a Dataset count(), so over-budget runs never
    collect the ids at all.
    """
    if pushdown_budget_ids is None:
        pushdown_budget_ids = _PUSHDOWN_BUDGET_IDS
    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    bands = docs.map_batches(
        _MinHasher, batch_format="pyarrow", concurrency=(1, 8), zero_copy_batch=True
    )

    def cand_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """Candidate pairs of ALL (band, bh) buckets in one hash partition:
        lexsort rows by bucket, walk only buckets with >= 2 rows (rare —
        buckets are near-unique away from true near-dups)."""
        band = g["band"].to_numpy().astype(np.int64)
        bh = g["bh"].to_numpy()
        doc = g["doc_id"].to_numpy()
        order = np.lexsort((doc, bh, band))
        band_s, bh_s, doc_s = band[order], bh[order], doc[order]
        brk = np.r_[True, (band_s[1:] != band_s[:-1]) | (bh_s[1:] != bh_s[:-1])]
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:], band_s.size]
        out = []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            ids = np.unique(doc_s[s:e])
            if ids.size < 2:
                continue
            ai, bi = np.triu_indices(ids.size, k=1)
            out.append((ids[ai], ids[bi]))
        if not out:
            return pd.DataFrame()
        a = np.concatenate([x[0] for x in out])
        b = np.concatenate([x[1] for x in out])
        return pd.DataFrame({"a": a, "b": b}).drop_duplicates()

    schema = pa.schema({"a": I64, "b": I64})
    cands = by_key(  # global distinct (a pair can surface in many buckets)
        by_key(bands, ["band", "bh"], cand_of_partition, schema),
        ["a", "b"], lambda g: g.drop_duplicates(["a", "b"]), schema,
    ).materialize()

    # ids only — per-doc fixed 8 bytes, never the shingle sets; and only
    # when the id count (bounded by 2 * n_pairs, a driver scalar) fits the
    # budget — otherwise skip the driver-side collection entirely
    cand_filter = None
    if 2 * cands.count() <= pushdown_budget_ids:
        c = collect(cands, schema)
        cand_filter = pc.field("doc_id").isin(np.union1d(c["a"], c["b"]).tolist())

    _SH_TYPE = pa.list_(pa.uint64())

    def pair_sides(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        n = len(a)
        doc = np.concatenate([a, b])
        return pa.table(
            {
                "doc_id": pa.array(doc, pa.int64()),
                "a": pa.array(np.concatenate([a, a]), pa.int64()),
                "b": pa.array(np.concatenate([b, b]), pa.int64()),
                "shingles": pa.nulls(2 * n, _SH_TYPE),
            }
        )

    def shingle_store_rows(t: pa.Table) -> pa.Table:
        sh = _shingle_set_rows(t)
        n = sh.num_rows
        doc = sh["doc_id"].cast(pa.int64())
        return pa.table(
            {
                "doc_id": doc,
                "a": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "b": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "shingles": sh["shingles"],
            }
        )

    read_kw = {"filter": cand_filter} if cand_filter is not None else {}
    store = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        **read_kw,
    ).map_batches(shingle_store_rows, batch_format="pyarrow", zero_copy_batch=True)

    sides = cands.map_batches(pair_sides, batch_format="pyarrow")

    def attach_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """ALL candidate docs of one doc-hash partition at once: a pandas
        many-to-one merge attaches each doc's shingle set to its pair-side
        rows (was one Ray group per candidate doc — per-group dispatch cost
        melts on a boilerplate-heavy corpus where candidates ~ corpus)."""
        is_store = g["a"].to_numpy() == -1
        store_rows = g[is_store][["doc_id", "shingles"]]
        side = g[~is_store]
        if side.empty or store_rows.empty:
            return pd.DataFrame()
        return side[["doc_id", "a", "b"]].merge(store_rows, on="doc_id", how="inner")

    def check_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """Exact Jaccard for ALL pairs of one pair-hash partition: sort by
        (a, b) so each pair's two side rows are adjacent, then one numpy
        intersect per pair (no per-pair DataFrame or Ray group)."""
        g = g.sort_values(["a", "b"])
        a = g["a"].to_numpy()
        b = g["b"].to_numpy()
        sh = g["shingles"].to_numpy()
        brk = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:], a.size]
        out_a, out_b, out_j = [], [], []
        for s, e in zip(starts, ends):
            if e - s != 2:  # a side doc missing from the store (shouldn't happen)
                continue
            sa = np.asarray(sh[s], dtype=np.uint64)
            sb = np.asarray(sh[s + 1], dtype=np.uint64)
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            denom = sa.size + sb.size - inter
            j = inter / denom if denom else 1.0
            if j >= threshold:
                out_a.append(a[s])
                out_b.append(b[s])
                out_j.append(round(j, 6))
        return pd.DataFrame({"a": out_a, "b": out_b, "jaccard": out_j})

    attached = by_key(
        sides.union(store), "doc_id", attach_of_partition,
        pa.schema({"a": I64, "b": I64, "shingles": _SH_TYPE}),
    )
    return by_key(
        attached, ["a", "b"], check_of_partition,
        pa.schema({"a": I64, "b": I64, "jaccard": F64}),
    )


# ---------------------------------------------------------------------------
class _SimHasher:
    """64-bit SimHash over tf-weighted token hashes (actor-pool stage).

    Vectorized matrix form (round-1 kernel looped per token): the batch
    vocabulary is hashed once (dictionary-encoded), expanded to a
    (vocab x 64) ±1 bit matrix, and per-doc accumulation is one
    np.add.reduceat over tf-weighted gathered rows.  Output values are
    bit-identical to the per-token formulation (same token hash, same bit
    convention, tf-weighting == per-occurrence ±1 sums).
    """

    _BITS = np.arange(64, dtype=np.uint64)

    def __call__(self, t: pa.Table) -> pa.Table:
        n_docs = len(t)
        doc_idx, terms, tfs, _ = tokenize_counts_arrow(t["text"])
        acc = np.zeros((n_docs, 64), dtype=np.int64)
        if len(terms):
            de = terms.dictionary_encode()
            if isinstance(de, pa.ChunkedArray):
                de = de.combine_chunks()
            codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = de.dictionary.to_pylist()
            vh = np.fromiter(
                (_hash_token(tk) for tk in vocab), dtype=np.uint64, count=len(vocab)
            )
            w = (((vh[:, None] >> self._BITS) & np.uint64(1)).astype(np.int64) * 2 - 1)
            contrib = tfs.astype(np.int64)[:, None] * w[codes]  # (pairs, 64)
            # doc_idx is ascending (tokenize_counts_arrow sorts by doc)
            present = np.unique(doc_idx)
            starts = np.searchsorted(doc_idx, present)
            acc[present] = np.add.reduceat(contrib, starts, axis=0)
        packed = (acc > 0).astype(np.uint64) @ (np.uint64(1) << self._BITS)
        sh = (packed >> np.uint64(1)).astype(np.int64)  # int64-safe
        return pa.table({"doc_id": t["doc_id"], "simhash": pa.array(sh, pa.int64())})


def simhash_pairs(sf_dir: str, max_hamming: int = 3):
    """Near-dup pairs by SimHash hamming distance <= max_hamming.

    Blocking: split the 63 stored bits into 4 bands; a pair within hamming 3
    must agree exactly on >= 1 band (pigeonhole), so candidates are found by
    4 band-keyed groupbys, then verified exactly.
    """
    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    sh = docs.map_batches(_SimHasher, batch_format="pyarrow", concurrency=(1, 8))

    def explode(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        s = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        keys = ((s[None, :] >> shifts[:, None]) & np.uint64(0xFFFF)).astype(np.int64)
        band = np.repeat(np.arange(4, dtype=np.int64), len(d))
        return pa.table(
            {
                "band": pa.array(band.astype(np.int32), pa.int32()),
                "key": pa.array(keys.reshape(-1), pa.int64()),
                "doc_id": pa.array(np.tile(d, 4), pa.int64()),
                "simhash": pa.array(np.tile(s.astype(np.int64), 4), pa.int64()),
            }
        )

    def pairs_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """Verified pairs of ALL (band, key) buckets in one hash partition."""
        band = g["band"].to_numpy().astype(np.int64)
        key = g["key"].to_numpy()
        doc = g["doc_id"].to_numpy()
        hsh = g["simhash"].to_numpy().astype(np.uint64)
        order = np.lexsort((doc, key, band))
        band_s, key_s, doc_s, hsh_s = band[order], key[order], doc[order], hsh[order]
        brk = np.r_[True, (band_s[1:] != band_s[:-1]) | (key_s[1:] != key_s[:-1])]
        starts = np.nonzero(brk)[0]
        ends = np.r_[starts[1:], band_s.size]
        out = []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            ids, hs = doc_s[s:e], hsh_s[s:e]
            ai, bi = np.triu_indices(ids.size, k=1)
            x = hs[ai] ^ hs[bi]
            ham = (
                np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
                .sum(axis=1)
                .astype(np.int64)
            )
            keep = ham <= max_hamming
            out.append((ids[ai][keep], ids[bi][keep], ham[keep]))
        if not out:
            return pd.DataFrame()
        a = np.concatenate([x[0] for x in out])
        b = np.concatenate([x[1] for x in out])
        ham = np.concatenate([x[2] for x in out])
        return pd.DataFrame({"a": a, "b": b, "hamming": ham}).drop_duplicates(["a", "b"])

    schema = pa.schema({"a": I64, "b": I64, "hamming": I64})
    return by_key(  # a pair can agree on bands hashed to different parts
        by_key(
            sh.map_batches(explode, batch_format="pyarrow"),
            ["band", "key"], pairs_of_partition, schema,
        ),
        ["a", "b"], lambda g: g.drop_duplicates(["a", "b"]), schema,
    )


# ---------------------------------------------------------------------------
def _connected_components(edges, max_iters: int = 64):
    """Connected components over an (a, b) edge Dataset: every node gets
    cluster_id = the smallest node id reachable from it.

    Scale shape: iterative min-label propagation, the groupby-only analog of
    large-star contraction.  Each round is two node-keyed shuffles —
    (1) co-locate label rows with edge rows keyed by the edge's source
    endpoint and emit (neighbor, lbl) candidates via one vectorized pandas
    merge per partition, (2) min-reduce candidates per node — so per-round
    traffic is O(edges + nodes) rows and nothing is ever driver-collected.  Labels are monotone non-increasing
    and bounded by the component minimum, so sum(lbl) strictly decreases
    until the fixpoint; the driver watches that one scalar per round
    (converges in graph-diameter rounds; dup clusters are near-cliques, so
    typically 2-3).  Edges and the label frontier are result-scale (bounded
    by 2x the pair count), so the per-round materialize holds only
    pair-scale state in the object store, never the corpus."""

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        src = np.concatenate([a, b])  # label flows FROM src TO dst
        dst = np.concatenate([b, a])
        return pa.table(
            {
                "key": pa.array(src, pa.int64()),
                "other": pa.array(dst, pa.int64()),
                "lbl": pa.array(np.full(src.size, -1), pa.int64()),
            }
        )

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        n = np.unique(t["key"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "key": pa.array(n, pa.int64()),
                "other": pa.array(np.full(n.size, -1), pa.int64()),
                "lbl": pa.array(n, pa.int64()),
            }
        )

    # one schema for edge and label rows, so union(sym, labels) concatenates
    schema = pa.schema({"key": I64, "other": I64, "lbl": I64})

    def min_per_node(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("key", sort=False, as_index=False).agg(lbl=("lbl", "min"))
        return out.assign(other=-1)

    labels = by_key(
        sym.map_batches(init_labels, batch_format="pyarrow"),
        "key", min_per_node, schema,
    ).materialize()

    def propagate(g: pd.DataFrame) -> pd.DataFrame:
        lab = g[g["other"] == -1][["key", "lbl"]]
        edg = g[g["other"] != -1][["key", "other"]]
        cand = edg.merge(lab, on="key", how="inner")  # (other <- lbl of key)
        cand = cand.groupby("other", sort=False, as_index=False).agg(
            lbl=("lbl", "min")
        )
        cand = cand.rename(columns={"other": "key"})
        return pd.concat([lab, cand], ignore_index=True).assign(other=-1)

    prev_sum = labels.sum("lbl") or 0
    for _ in range(max_iters):
        labels = by_key(
            by_key(sym.union(labels), "key", propagate, schema),
            "key", min_per_node, schema,
        ).materialize()
        s = labels.sum("lbl") or 0
        if s == prev_sum:  # labels are monotone; equal sum == fixpoint
            break
        prev_sum = s

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["key"],
                "cluster_id": t["lbl"],
            }
        )

    return labels.map_batches(finalize, batch_format="pyarrow")


def dup_clusters(sf_dir: str, threshold: float = 0.8):
    """Keep-one-per-cluster dedup over the EXACT jaccard pair graph (the
    SQL-gateable baseline; the recursive-CTE oracle replays the same
    reachability).  The reference has only direct-key dedup
    (rds_schema.sql:29 UNIQUE upsert); transitive near-dup clustering is the
    training-data extension (SlimPajama/CCNet-style "keep one per cluster").
    Output: (doc_id, cluster_id) for every doc in >= 1 pair."""
    return _connected_components(
        ngram_jaccard_pairs(sf_dir, threshold).select_columns(["a", "b"])
    )


def minhash_dup_clusters(sf_dir: str, threshold: float = 0.6):
    """The 100-TB composition: MinHash -> banded LSH -> verified pairs ->
    connected components -> cluster ids.  Rows-only (MinHash candidate
    generation is approximate by nature); pytest asserts the cluster
    partition equals union-find over the same verified pair list."""
    return _connected_components(
        minhash_lsh_pairs(sf_dir, threshold).select_columns(["a", "b"])
    )


DUP_CLUSTERS_SQL = f"""
WITH RECURSIVE pairs AS ({NGRAM_JACCARD_SQL}),
edges AS (
  SELECT a AS u, b AS v FROM pairs
  UNION
  SELECT b AS u, a AS v FROM pairs
),
walk (node, lbl) AS (
  SELECT u AS node, u AS lbl FROM edges
  UNION
  SELECT e.u AS node, w.lbl
  FROM edges e JOIN walk w ON w.node = e.v
  WHERE w.lbl < e.u
)
SELECT node AS doc_id, min(lbl) AS cluster_id
FROM walk GROUP BY node
"""


# ---------------------------------------------------------------------------
def dup_span_fraction(sf_dir: str, n: int = _SPAN_N, min_docs: int = _SPAN_MIN_DOCS):
    """Per-doc duplicated-span fraction: for every doc, the share of its
    n-token sliding windows whose span string occurs in >= min_docs
    distinct docs corpus-wide -> (doc_id, n_spans, n_dup, dup_frac_r6).
    The doc-level score exact-substring dedup (Lee et al. 2022) filters
    on; `dup_spans` reports the span view, this reports the doc view.

    Scale shape: ONE corpus pass emits (a) one row per distinct
    (span, doc) pair per batch with its occurrence count, keyed by the
    span, and (b) one per-doc span-total marker row (is_tot = 1) keyed by
    the doc id's decimal string, so both ride the SAME shuffle.  A span's
    rows all land in one partition, which decides survivors locally and
    emits per-doc PARTIAL duplicated counts; a second doc-keyed shuffle
    sums partials with the markers into the exact fraction.  Nothing
    span- or corpus-scale touches the driver."""
    from ..analyze import ngram_stream_arrow

    def partials(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        codes, parents, vocab = ngram_stream_arrow(t["text"], n)
        tot = np.bincount(parents, minlength=len(t)).astype(np.int64)
        tables = [
            pa.table(
                {
                    "g": pc.cast(pa.array(doc_ids), pa.string()),
                    "doc_id": pa.array(doc_ids, pa.int64()),
                    "occ": pa.array(tot, pa.int64()),
                    "is_tot": pa.array(np.ones(len(t), np.int64)),
                }
            )
        ]
        if codes.size:
            order = np.lexsort((parents, codes))
            c_s, p_s = codes[order], parents[order]
            brk = np.r_[True, (c_s[1:] != c_s[:-1]) | (p_s[1:] != p_s[:-1])]
            starts = np.nonzero(brk)[0]
            occ = np.diff(np.r_[starts, c_s.size])
            tables.append(
                pa.table(
                    {
                        "g": vocab.take(pa.array(c_s[starts])).cast(pa.string()),
                        "doc_id": pa.array(doc_ids[p_s[starts]], pa.int64()),
                        "occ": pa.array(occ.astype(np.int64), pa.int64()),
                        "is_tot": pa.array(np.zeros(starts.size, np.int64)),
                    }
                )
            )
        return pa.concat_tables(tables)

    def reduce_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """Span rows -> per-doc partial dup counts of the surviving spans;
        marker rows pass through as totals."""
        tot = g[g["is_tot"] == 1].rename(columns={"occ": "v"})
        s = g[g["is_tot"] == 0]
        nd = s.groupby("g", sort=False)["doc_id"].nunique()
        m = s[s["g"].isin(nd.index[nd >= min_docs])]
        dup = m.groupby("doc_id", sort=False, as_index=False).agg(v=("occ", "sum"))
        return pd.concat([tot, dup.assign(is_tot=0)], ignore_index=True)

    def frac_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        tot = g[g["is_tot"] == 1].groupby("doc_id", sort=False, as_index=False).agg(
            n_spans=("v", "sum")
        )
        dup = g[g["is_tot"] == 0].groupby("doc_id", sort=False, as_index=False).agg(
            n_dup=("v", "sum")
        )
        out = tot.merge(dup, on="doc_id", how="left")
        nd = out["n_dup"].fillna(0).to_numpy(np.float64)
        ns = out["n_spans"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"],
                "n_spans": ns.astype(np.int64),
                "n_dup": nd.astype(np.int64),
                "dup_frac_r6": np.round(nd * 1.0 / np.maximum(ns, 1.0), 6),
            }
        )

    stage1 = by_key(
        _read_docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "g", reduce_of_partition,
        pa.schema({"doc_id": I64, "v": I64, "is_tot": I64}),
    )
    return by_key(
        stage1, "doc_id", frac_of_partition,
        pa.schema({"doc_id": I64, "n_spans": I64, "n_dup": I64, "dup_frac_r6": F64}),
    )


DUP_SPAN_FRACTION_SQL = f"""
WITH base AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                     x -> x <> '') AS toks
  FROM documents
),
sp AS (
  SELECT doc_id, array_to_string(toks[i:i+{_SPAN_N - 1}], ' ') AS g
  FROM (SELECT doc_id,
               unnest(generate_series(1, greatest(len(toks) - {_SPAN_N - 1}, 0))) AS i,
               toks
        FROM base)
),
gd AS (SELECT g, count(DISTINCT doc_id) AS nd FROM sp GROUP BY g),
dup AS (
  SELECT s.doc_id, count(*) AS n_dup
  FROM sp s JOIN gd ON gd.g = s.g
  WHERE gd.nd >= {_SPAN_MIN_DOCS}
  GROUP BY s.doc_id
),
tot AS (SELECT doc_id, greatest(len(toks) - {_SPAN_N - 1}, 0) AS n_spans FROM base)
SELECT t.doc_id,
       CAST(t.n_spans AS BIGINT) AS n_spans,
       CAST(coalesce(d.n_dup, 0) AS BIGINT) AS n_dup,
       round(coalesce(d.n_dup, 0) * 1.0 / greatest(t.n_spans, 1), 6)
         AS dup_frac_r6
FROM tot t LEFT JOIN dup d USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Snapshot delta — the CDC / recrawl-diff report between two corpus
# snapshots (added / changed / deleted / unchanged), compared by content
# hash so only 16-byte digests ride the shuffle, never the texts.


def docs_snapshot_delta(sf_dir: str):
    """(status, n) between snapshot A (the documents table) and a
    deterministically derived snapshot B (doc_id%31 deleted, doc_id%17
    edited, a doc_id%13 slice re-ingested under new ids) — the fixture
    stands in for yesterday's vs today's crawl; the oracle derives the
    SAME B in SQL, so the hash match proves the diff kernel.  Scale
    shape: both snapshots stream once, md5 digests computed per batch
    (the per-value digest exception, as exact_dedup), union-marker rows
    ride ONE coarse doc-hash shuffle, each partition resolves its docs'
    statuses with two searchsorted probes and emits <=4 (status, n)
    partials."""
    from ray.data.aggregate import Sum

    def a_rows(t: pa.Table) -> pa.Table:
        hs = [hashlib.md5(x.encode()).hexdigest() for x in t["text"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "h": pa.array(hs, pa.string()),
                "src": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def b_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out_ids, out_h = [], []
        for i, d in enumerate(ids):
            d = int(d)
            if d % 31 != 0:  # survives; %17 rows carry an edit
                txt = texts[i] + " v2" if d % 17 == 0 else texts[i]
                out_ids.append(d)
                out_h.append(hashlib.md5(txt.encode()).hexdigest())
            if d % 13 == 0:  # re-ingested under a fresh id range
                out_ids.append(d + 1_000_000)
                out_h.append(hashlib.md5(texts[i].encode()).hexdigest())
        arr = np.array(out_ids, np.int64)
        return pa.table(
            {
                "doc_id": pa.array(arr),
                "h": pa.array(out_h, pa.string()),
                "src": pa.array(np.ones(len(arr), np.int8)),
            }
        )

    docs = _read_docs(sf_dir, columns=["doc_id", "text"])
    both = docs.map_batches(
        a_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        docs.map_batches(b_rows, batch_format="pyarrow", zero_copy_batch=True)
    )

    def delta_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["src"] == 0].sort_values("doc_id")
        b = g[g["src"] == 1].sort_values("doc_id")
        ai, bi = a["doc_id"].to_numpy(), b["doc_id"].to_numpy()
        ah, bh = a["h"].to_numpy(), b["h"].to_numpy()
        in_b = np.isin(ai, bi)
        in_a = np.isin(bi, ai)
        n_del = int((~in_b).sum())
        n_add = int((~in_a).sum())
        # rows present in both: compare hashes (ids are unique per side,
        # so the sorted arrays align after the isin masks)
        same_ids_a, same_ids_b = ah[in_b], bh[in_a]
        n_chg = int((same_ids_a != same_ids_b).sum())
        n_unc = int(len(same_ids_a) - n_chg)
        out = pd.DataFrame(
            {
                "status": ["added", "changed", "deleted", "unchanged"],
                "n_part": np.array([n_add, n_chg, n_del, n_unc], np.int64),
            }
        )
        return out[out["n_part"] > 0]

    out = collect(  # <= 4 rows
        by_key(both, "doc_id", delta_of_partition,
               pa.schema({"status": STR, "n_part": I64}))
        .groupby("status")
        .aggregate(Sum("n_part", alias_name="n")),
        pa.schema({"status": STR, "n": I64}),
    )
    out["n"] = out["n"].astype(np.int64)
    return out.sort_values("status").reset_index(drop=True)


SNAPSHOT_DELTA_SQL = """
WITH b AS (
  SELECT doc_id,
         CASE WHEN doc_id % 17 = 0 THEN text || ' v2' ELSE text END AS text
  FROM documents WHERE doc_id % 31 <> 0
  UNION ALL
  SELECT doc_id + 1000000, text FROM documents WHERE doc_id % 13 = 0
),
j AS (
  SELECT CASE WHEN a.doc_id IS NULL THEN 'added'
              WHEN b.doc_id IS NULL THEN 'deleted'
              WHEN md5(a.text) <> md5(b.text) THEN 'changed'
              ELSE 'unchanged' END AS status
  FROM documents a FULL OUTER JOIN b ON a.doc_id = b.doc_id
)
SELECT status, CAST(count(*) AS BIGINT) AS n FROM j
GROUP BY status ORDER BY status
"""


# ---------------------------------------------------------------------------
# Source-priority dedup — keep-best-source within exact-duplicate clusters
# (the corpus-curation rule: when a page appears in a curated source AND a
# crawl, keep the curated copy; plain exact_dedup's min-doc_id keep rule
# ignores provenance).


def dedup_by_source_priority(sf_dir: str):
    """(h, keep_id, keep_source, n_dups): per content hash, the surviving
    doc under the (source priority, doc_id) keep rule — priority is the
    source's numeric suffix ascending (src0 outranks src1).  Scale shape:
    identical to exact_dedup (per-batch per-hash winner partials + counts
    -> ONE hash-keyed shuffle -> vectorized per-partition re-argmin); the
    winner rule composes lexicographically, so partials lose no
    information."""

    def hash_batch(t: pa.Table) -> pd.DataFrame:
        hs = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        import re

        src = t["source"].to_pylist()
        # trailing digits = priority rank (mirrors the oracle's
        # regexp_extract('([0-9]+)$')); no digits -> 0
        prio = np.array(
            [int((re.search(r"([0-9]+)$", s) or [None, "0"])[1]) for s in src],
            np.int64,
        )
        df = pd.DataFrame(
            {
                "h": hs,
                "prio": prio,
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
                "source": src,
                "n": np.ones(len(hs), np.int64),
            }
        )
        # per-batch winner per hash: lexicographic (prio, doc_id) argmin
        df = df.sort_values(["h", "prio", "doc_id"], kind="mergesort")
        counts = df.groupby("h", sort=False)["n"].transform("sum")
        df["n"] = counts
        return df.drop_duplicates("h", keep="first")

    def dedup_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "prio", "doc_id"], kind="mergesort")
        n = g.groupby("h", sort=False)["n"].transform("sum")
        g = g.assign(n_dups=n).drop_duplicates("h", keep="first")
        return g.rename(columns={"doc_id": "keep_id", "source": "keep_source"})

    return by_key(
        _read_docs(sf_dir, columns=["doc_id", "text", "source"])
        .map_batches(hash_batch, batch_format="pyarrow", zero_copy_batch=True),
        "h", dedup_of_partition,
        pa.schema({"h": STR, "keep_id": I64, "keep_source": STR, "n_dups": I64}),
    )


DEDUP_SOURCE_PRIORITY_SQL = """
WITH d AS (
  SELECT doc_id, source, md5(text) AS h,
         CAST(regexp_extract(source, '([0-9]+)$', 1) AS BIGINT) AS prio
  FROM documents
),
r AS (
  SELECT h, doc_id, source,
         row_number() OVER (PARTITION BY h ORDER BY prio, doc_id) AS rn,
         count(*) OVER (PARTITION BY h) AS n_dups
  FROM d
)
SELECT h, doc_id AS keep_id, source AS keep_source,
       CAST(n_dups AS BIGINT) AS n_dups
FROM r WHERE rn = 1
"""
