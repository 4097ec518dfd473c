"""Operator suite vs the DuckDB oracle at sf0.001 (fast CI mirror of the
driver's sf0.01 gate), plus rows-only checks for the approximate ops."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF = "/root/testdata/sf0.001"

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return c


def _to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


SQL_CHECKED = [
    "events_keyset_page8",
    "events_sessionize",
    "events_distinct_users",
    "events_hopping_daily",
    "events_user_deltas",
    "events_attribution_asof",
    "events_value_quantiles",
    "orders_topn_per_customer",
    "orders_price_band_join",
    "redact_pii",
    "q1_pricing_summary",
    "q3_top_orders",
    "q6_revenue",
    "events_type_counts",
    "events_latest_per_user",
    "orders_topk",
    "orders_by_year",
    "exact_dedup",
    "dup_spans",
    "dup_span_fraction",
    "token_counts",
    "lang_id",
    "knn_topk",
    "customers_per_region",
    "top_terms",
    "keywords_tfidf",
    "repetition_scores",
    "decontaminate_docs",
    "docs_search_facets",
    "docs_spell_suggest",
    "docs_more_like_this",
    "docs_autocomplete",
    "curate_docs",
    "events_type_distinct_users",
    "dup_clusters",
    "events_funnel",
    "events_retention",
    "docs_stratified_sample",
    "docs_pack_sequences",
    "docs_unigram_surprisal",
    "docs_pmi_bigrams",
    "events_anomaly_zscore",
    "docs_normalize",
    "docs_hybrid_rrf",
    "docs_merged_topk",
    "docs_shuffle_shards",
    "source_mixture_weights",
    "docs_chunk_sliding",
    "docs_bpe_pair_counts",
    "docs_dsir_weights",
    "docs_surprisal_buckets",
    "curate_funnel",
    "events_markov_transitions",
    "docs_ttr",
    "q14_promo_revenue",
    "q10_returned_items",
    "q15_top_suppliers",
    "docs_source_caps",
    "q4_priority_counts",
    "q13_custdist",
    "q18_large_orders",
    "q19_bracket_revenue",
    "q22_idle_balance",
    "events_user_rolling_mean",
    "docs_length_histogram",
    "docs_fuzzy_topk",
    "docs_search_after",
    "q17_small_order_revenue",
    "q7_nation_trade",
    "q8_market_share",
    "lang_embedding_centroids",
    "lang_embedding_dispersion",
    "events_rollup",
    "lineitem_price_qty_corr",
    "docs_length_percentiles",
    "events_props_stats",
    "docs_snapshot_delta",
    "docs_stopword_topk",
    "docs_reservoir_sample",
    "docs_match_counts",
    "events_user_cumsum",
    "orders_cumulative_revenue",
    "region_nation_csv",
    "lang_top_terms",
    "docs_bigram_surprisal",
    "docs_term_occurrences",
    "customers_rfm",
    "docs_zipf_slope",
    "docs_hapax_ratio",
    "events_user_entropy",
    "orders_monthly_growth",
    "embeddings_norm_outliers",
    "orders_basket_pairs",
    "docs_weighted_sample",
    "q9_profit_by_nation_year",
    "q11_important_parts",
    "q16_supplier_counts",
    "suppliers_pareto",
    "events_dau_mau",
    "ngram_jaccard_prefix",
    "events_top_paths",
    "events_mad_outliers",
    "q2_min_cost_supplier",
    "q12_priority_counts",
    "q20_excess_suppliers",
    "q21_sole_supplier_orders",
    "decontaminate_semantic",
    "docs_synonym_topk",
    "dedup_by_source_priority",
    "events_burst_days",
    "events_ewma_daily",
    "index_df_histogram",
    "docs_regex_topk",
    "docs_score_explain",
    "events_conversion_lag",
    "events_churned_users",
    "orders_open_aging",
    "docs_term_length_dist",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_vs_oracle(name, con):
    got = _canon(_to_pandas(entrymod.queries()[name](SF)))
    want = _canon(con.sql(entrymod.oracle_sql()[name]).df())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want), f"{len(got)} vs {len(want)}"
    for c in got.columns:
        if pd.api.types.is_float_dtype(got[c]):
            assert np.array_equal(
                got[c].fillna(-1).to_numpy(), want[c].fillna(-1).to_numpy()
            ), c
        else:
            assert got[c].equals(want[c]), c


def test_pca_evr_vs_numpy_oracle():
    """The blockwise moment reduce must reproduce the spectrum numpy gets
    from the raw matrix in one shot (round-6; moment sums reorder floats)."""
    import pyarrow.parquet as pq
    from engine.ops.ann import embeddings_pca_evr

    got = _to_pandas(embeddings_pca_evr(SF))
    t = pq.read_table(f"{SF}/embeddings.parquet")
    x = np.asarray(t["embedding"].combine_chunks().flatten(), np.float64).reshape(
        t.num_rows, -1
    )
    cov = np.cov(x, rowvar=False, bias=True)
    eig = np.clip(np.linalg.eigvalsh(cov)[::-1], 0.0, None)
    evr = eig / eig.sum()
    k = len(got)
    assert k == 8
    assert np.allclose(got["eigval_r6"], np.round(eig[:k], 6), atol=2e-6)
    assert np.allclose(got["evr_r6"], np.round(evr[:k], 6), atol=2e-6)
    assert np.allclose(got["cum_evr_r6"], np.round(np.cumsum(evr[:k]), 6), atol=1e-5)
    # a healthy (near-isotropic) synthetic cloud: no component dominates
    assert got["evr_r6"].iloc[0] < 0.5


def test_jaccard_prefix_identical_to_exact():
    """PPJoin prefix filtering is an exact algorithm: the pruned join must
    return the same pair set as the whole-corpus exact kernel, and the
    over-budget fallback (no doc pushdown) must too."""
    from engine.ops.dedup import ngram_jaccard_pairs, ngram_jaccard_prefix

    exact = _canon(_to_pandas(ngram_jaccard_pairs(SF)))
    pref = _canon(_to_pandas(ngram_jaccard_prefix(SF)))
    pd.testing.assert_frame_equal(pref, exact)
    # over-budget path: pushdown disabled, kernel runs on the full corpus
    nofilter = _canon(_to_pandas(ngram_jaccard_prefix(SF, pushdown_budget_ids=0)))
    pd.testing.assert_frame_equal(nofilter, exact)


def test_jaccard_prefix_hot_shingles_counted_on_full_corpus(tmp_path):
    """Boilerplate shingles are dropped by their df over the whole corpus.
    Docs 1 and 2 are the same text (boilerplate + 10 words), and the
    boilerplate is in 82 of 84 docs, over the cap of 64: counted without
    its 3 hot shingles the pair's Jaccard is 10/16, under 0.8.  Only 1-4
    are prefix candidates (the boilerplate shingles sort last in crc32
    order, outside every prefix), so the pruned kernel sees the
    boilerplate in 2 docs; it must still drop it, as the full-corpus join
    and the SQL oracle do."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.dedup import (
        NGRAM_JACCARD_SQL,
        ngram_jaccard_pairs,
        ngram_jaccard_prefix,
    )

    boiler = "wbmguw bjxjtg nayokn hudfqb xmfaqp"
    shared = " ".join(f"s{j}" for j in range(10))
    texts = [f"{boiler} {shared}"] * 2 + ["t0 t1 t2 t3 t4 t5 t6 t7"] * 2
    texts += [
        boiler + "".join(f" f{i}w{j}" for j in range(40)) for i in range(80)
    ]
    n = len(texts)
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(1, n + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["src0"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    sf = str(tmp_path)
    c = duckdb.connect()
    c.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = _canon(c.sql(NGRAM_JACCARD_SQL).df())
    assert want[["a", "b"]].values.tolist() == [[3, 4]]
    pd.testing.assert_frame_equal(
        _canon(_to_pandas(ngram_jaccard_pairs(sf))), want
    )
    pd.testing.assert_frame_equal(
        _canon(_to_pandas(ngram_jaccard_prefix(sf))), want
    )


def test_lsh_recall_vs_bruteforce():
    from engine.ops.ann import knn_topk, lsh_knn_topk

    exact = _to_pandas(knn_topk(SF))
    approx = _to_pandas(lsh_knn_topk(SF))
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    # query-directed multiprobe (budget 6) is deterministic on the fixed
    # planes/fixtures; measured 0.967 at sf0.001, 1.0 at sf0.01
    assert np.mean(recalls) >= 0.9, recalls


def test_lsh_probe_set_genuinely_prunes():
    """Per-query, the probe set must NOT degenerate to a full scan: on these
    near-uniform fixtures budget-6 query-directed probing scans ~79% of the
    corpus per query (vs 99.8% for uniform radius-1 probing at the same
    recall).  Uniform-random vectors are LSH's worst case — real embedding
    clusters prune far harder — so the bar is deliberately loose; the
    multi-query UNION saturates by design (each query adds its own ~79%)."""
    import pyarrow.parquet as pq
    from engine.ops.ann import (
        _LshBucketer,
        _emb_matrix,
        _load_queries,
        _query_directed_probes,
    )

    b = _LshBucketer()
    _, q = _load_queries(SF)
    t = pq.read_table(SF + "/embeddings.parquet")
    _, m = _emb_matrix(t)
    keys = b.keys_of(m)
    fracs = []
    for qv in q:
        probe = np.array(
            sorted(_query_directed_probes(b, qv[None, :], 6)), dtype=np.int64
        )
        pos = np.minimum(np.searchsorted(probe, keys), probe.size - 1)
        fracs.append((probe[pos] == keys).any(axis=1).mean())
    assert np.mean(fracs) <= 0.85, fracs


def test_quantile_sketch_within_tolerance():
    from engine.ops.relational import (
        events_value_quantiles,
        events_value_quantiles_sketch,
    )

    exact = _to_pandas(events_value_quantiles(SF)).set_index("event_type")

    # default k (256) >= every group's n at fixture scale -> sketch is EXACT
    sk = _to_pandas(events_value_quantiles_sketch(SF)).set_index("event_type")
    assert set(sk.index) == set(exact.index)
    for et in exact.index:
        for q in ("p50", "p90", "p99"):
            assert abs(sk.loc[et, q] - exact.loc[et, q]) < 1e-9, (et, q)

    # small k (a genuine ~1/3 subsample) must land within tolerance; the
    # bottom-k selection is hash-deterministic so this never flakes
    sk64 = _to_pandas(events_value_quantiles_sketch(SF, k=64)).set_index("event_type")
    assert (sk64["n_sampled"] == 64).all()
    spread = exact["p99"].max() - exact["p50"].min()
    for et in exact.index:
        assert abs(sk64.loc[et, "p50"] - exact.loc[et, "p50"]) <= 0.15 * spread
        assert abs(sk64.loc[et, "p90"] - exact.loc[et, "p90"]) <= 0.20 * spread


def test_hll_distinct_within_tolerance():
    from engine.ops.relational import events_distinct_users, events_distinct_users_hll

    exact = int(events_distinct_users(SF)["n_users"].iloc[0])
    est = int(events_distinct_users_hll(SF)["n_users_est"].iloc[0])
    # 4096 registers; at n << m the linear-counting correction applies and
    # the estimate should be within a few percent of the exact count
    assert abs(est - exact) / exact <= 0.05, (est, exact)


def test_grouped_hll_within_tolerance():
    from engine.ops.relational import (
        events_type_distinct_users,
        events_type_distinct_users_hll,
    )

    exact = events_type_distinct_users(SF).set_index("event_type")
    est = events_type_distinct_users_hll(SF).set_index("event_type")
    assert set(est.index) == set(exact.index)
    for et in exact.index:
        e, x = int(est.loc[et, "n_users_est"]), int(exact.loc[et, "n_users"])
        assert abs(e - x) / x <= 0.05, (et, e, x)


def test_ivf_recall_vs_bruteforce():
    from engine.ops.ann import ivf_knn_topk, knn_topk

    exact = _to_pandas(knn_topk(SF))
    approx = _to_pandas(ivf_knn_topk(SF))
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls  # nprobe=4 of 16 cells

    # nprobe == n_cells degenerates to exact brute force: rank-identical
    full = _to_pandas(ivf_knn_topk(SF, n_cells=8, nprobe=8))
    pd.testing.assert_frame_equal(full, exact)


def test_minhash_estimates_jaccard():
    from engine.ops.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    # exact high-jaccard pairs should largely be recovered by LSH at a
    # threshold comfortably under the exact one
    exact = _to_pandas(ngram_jaccard_pairs(SF, threshold=0.8))
    approx = _to_pandas(minhash_lsh_pairs(SF, threshold=0.5))
    got_pairs = set(zip(approx["a"], approx["b"]))
    missed = [
        (a, b)
        for a, b in zip(exact["a"], exact["b"])
        if (a, b) not in got_pairs
    ]
    assert len(missed) <= max(1, len(exact) // 4), missed


def test_lsh_cosine_pairs_recall_vs_exact():
    from engine.ops.ann import cosine_dup_pairs, lsh_cosine_dup_pairs

    exact = _to_pandas(cosine_dup_pairs(SF))
    approx = _to_pandas(lsh_cosine_dup_pairs(SF))
    got = set(zip(approx["a"], approx["b"]))
    want = list(zip(exact["a"], exact["b"]))
    recall = sum(1 for p in want if p in got) / max(len(want), 1)
    assert recall >= 0.5, (recall, len(want), len(got))
    # every reported pair must be a true pair with the exact similarity
    exact_sims = dict(zip(zip(exact["a"], exact["b"]), exact["sim_r"]))
    for a, b, s in zip(approx["a"], approx["b"], approx["sim_r"]):
        assert (a, b) in exact_sims
        assert abs(s - exact_sims[(a, b)]) < 1e-5


def test_cosine_pairs_blocked_path_matches_broadcast_path():
    """Force the above-budget branch (block-pair tasks, no corpus-wide
    broadcast): identical pair set + sims to the broadcast fast path."""
    from engine.ops.ann import cosine_dup_pairs

    fast = _canon(_to_pandas(cosine_dup_pairs(SF)))
    blocked = _canon(_to_pandas(cosine_dup_pairs(SF, broadcast_budget_bytes=0)))
    pd.testing.assert_frame_equal(fast, blocked)


def test_minhash_boilerplate_heavy_corpus(tmp_path):
    """A corpus that is mostly one boilerplate text: the round-2 driver-dict
    verification would have materialized every candidate doc's shingle set in
    one ray.put; the distributed join path must return the full pair clique
    (all docs pairwise jaccard 1.0) without that."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.dedup import minhash_lsh_pairs

    n = 60  # pairs = C(50,2) + a few uniques' non-pairs
    text = "the quick brown fox jumps over the lazy dog again and again"
    texts = [text] * 50 + [f"unique document number {i} with its own words" for i in range(10)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        tmp_path / "documents.parquet",
    )
    got = _to_pandas(minhash_lsh_pairs(str(tmp_path), threshold=0.9))
    dup_pairs = got[(got["a"] < 50) & (got["b"] < 50)]
    assert len(dup_pairs) == 50 * 49 // 2
    assert (dup_pairs["jaccard"] == 1.0).all()
    # adaptive pushdown: budget 0 forces the no-isin-filter path (the
    # reduce-side doc_id join filters instead) — output identical, and the
    # candidate ids are never collected on the driver
    unfiltered = _to_pandas(
        minhash_lsh_pairs(str(tmp_path), threshold=0.9, pushdown_budget_ids=0)
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(unfiltered))


def test_simhash_runs_and_is_deterministic():
    from engine.ops.dedup import simhash_pairs

    p1 = _canon(_to_pandas(simhash_pairs(SF)))
    p2 = _canon(_to_pandas(simhash_pairs(SF)))
    pd.testing.assert_frame_equal(p1, p2)
    assert set(p1.columns) == {"a", "b", "hamming"}


def test_lang_id_and_fingerprints_run():
    from engine.ops.textops import fingerprints, lang_id

    li = _to_pandas(lang_id(SF))
    assert set(li.columns) == {"doc_id", "lang", "pred_lang"}
    assert len(li) == 500
    fp = _to_pandas(fingerprints(SF))
    assert len(fp) == 500
    assert (fp["n_fingerprints"] > 0).mean() > 0.9


def test_knn_exclude_self_drops_probe_even_in_tiny_batches():
    """exclude_self must DROP the probe row, not -inf-mask it: a batch with
    <= k rows would otherwise emit (probe, -inf) into the global merge
    (ADVICE round 4).  A 3-vector corpus with k=5 forces that case."""
    import numpy as np
    import pyarrow as pa
    import ray as _ray

    from engine.ops.ann import _CosineTopK

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(3, 8))
    ids = np.array([0, 1, 2], dtype=np.int64)
    q_ref = _ray.put((ids[:1], vecs[:1]))
    stage = _CosineTopK(q_ref, k=5, exclude_self=True)
    batch = pa.table(
        {
            "vec_id": pa.array(ids),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.ravel(), pa.float32()), 8
            ),
        }
    )
    out = stage(batch)
    got_ids = out["vec_id"].to_pylist()
    assert 0 not in got_ids and sorted(got_ids) == [1, 2]
    assert all(np.isfinite(s) for s in out["sim"].to_pylist())


def test_docs_normalize_unaugmented_fingerprints_actual_text():
    """augment=False must fingerprint the documents' real text (the reusable
    canonicalization stage, ADVICE round 4): md5 of NFC+lower+collapse+trim
    of the raw text, independently re-derived here."""
    import hashlib
    import unicodedata

    import pyarrow.parquet as pq

    from engine.ops.textops import docs_normalize

    got = _to_pandas(docs_normalize(SF, augment=False)).set_index("doc_id")
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    import re

    for doc_id, text in zip(
        t["doc_id"].to_pylist()[:50], t["text"].to_pylist()[:50]
    ):
        n = re.sub(r"[ \t\n\r]+", " ", unicodedata.normalize("NFC", text).lower()).strip()
        assert got.loc[doc_id, "norm_md5"] == hashlib.md5(n.encode()).hexdigest()
        assert got.loc[doc_id, "norm_chars"] == len(n)


def test_entry_smoke():
    res = _to_pandas(entrymod.entry())
    assert len(res) > 0
    assert list(res.columns) == ["query_id", "rank", "doc_id", "score_r6"]


def test_keyset_cursor_resumes_and_exhausts(con):
    """The general cursor (reference ec2/rds/paginate.py:5-68): pages are
    disjoint, ordered, resumable from an arbitrary cursor, and the cursor
    reports exhaustion."""
    from engine.ops.relational import paginate_events

    p1, c1 = paginate_events(SF, page_size=300)
    p2, c2 = paginate_events(SF, after=c1, page_size=300)
    want = con.sql(
        "SELECT event_id, ts, user_id, event_type FROM events "
        "ORDER BY ts, event_id LIMIT 600"
    ).df()
    got = pd.concat([p1, p2], ignore_index=True)
    pd.testing.assert_frame_equal(_canon(got), _canon(want))
    # resume mid-stream from a cursor computed independently
    p3, c3 = paginate_events(SF, after=c2, page_size=300)
    assert len(p3) == 300 and c3 is not None
    p4, c4 = paginate_events(SF, after=c3, page_size=300)
    assert len(p4) == 100 and c4 is None  # events has 1000 rows at sf0.001


def test_q3_distributed_join_path_matches_broadcast_path(monkeypatch):
    """Force the above-budget branch (Ray groupby + hash join): identical
    top-10 to the broadcast-keys fast path."""
    from engine.ops import relational

    fast = relational.q3_top_orders(SF)
    monkeypatch.setattr(relational, "_Q3_BCAST_KEY_BUDGET", 0)
    slow = relational.q3_top_orders(SF)
    pd.testing.assert_frame_equal(
        fast.reset_index(drop=True), slow.reset_index(drop=True)
    )


def test_q18_distributed_join_path_matches_broadcast_path():
    """Force the above-budget branch (hash-partitioned Dataset.join over
    the sentinel-typed survivor blocks): identical top-k to the
    broadcast-probe fast path, even with survivor-free join partitions."""
    from engine.ops import relational

    fast = relational.q18_large_orders(SF)
    slow = relational.q18_large_orders(SF, join_budget=0)
    pd.testing.assert_frame_equal(
        fast.reset_index(drop=True), slow.reset_index(drop=True)
    )


def test_top_terms_sketch_bounds(con):
    """Misra-Gries guarantees: est <= true <= est + err_ub for every
    reported term, and every truly heavy term (true tf > err_ub) survives
    the merge into the candidate set."""
    from engine.ops.textops import top_terms_sketch

    sk = top_terms_sketch(SF, k=64, n_out=10_000)  # n_out > k: full summary
    exact = con.sql(
        "WITH tok AS (SELECT doc_id, unnest(list_filter("
        "regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')) AS tk"
        " FROM documents) SELECT tk AS term, count(*) AS tf FROM tok GROUP BY tk"
    ).df().set_index("term")["tf"]
    err = int(sk["err_ub"].iloc[0])
    assert err >= 0
    for _, r in sk.iterrows():
        true = int(exact.get(r["term"], 0))
        assert r["est_tf"] <= true <= r["est_tf"] + err, (r["term"], true, err)
    present = set(sk["term"])
    for term, true in exact.items():
        if true > err:
            assert term in present, (term, true, err)


def test_mg_summary_empty_batch_keeps_token_total():
    """A batch whose MG summary truncates to NOTHING (all counts equal,
    vocab > k) must still emit its token total — otherwise N is undercounted
    and est <= true <= est + err_ub can be violated (ADVICE r03)."""
    import pyarrow as pa

    from engine.ops.textops import _mg_summary_batch

    # 10 docs x 1 unique token each: group counts all 1, vocab(10) > k(4)
    # -> thresh 1 -> every count truncates to 0 -> empty summary
    t = pa.table({"text": pa.array([f"uniq{i}" for i in range(10)])})
    s = _mg_summary_batch(t, k=4)
    assert int(pa.compute.sum(s["n_tokens"]).as_py()) == 10
    marker = s.filter(pa.compute.equal(s["term"], ""))
    assert len(marker) == 1 and marker["est"][0].as_py() == 0
    # and a non-truncating batch keeps both its terms and its exact total
    t2 = pa.table({"text": pa.array(["hot hot hot cold"])})
    s2 = _mg_summary_batch(t2, k=4)
    assert int(pa.compute.sum(s2["n_tokens"]).as_py()) == 4
    assert set(s2["term"].to_pylist()) == {"hot", "cold", ""}


def test_repetition_scores_crafted(tmp_path):
    """Degenerate-repetition docs score ~1.0; all-distinct docs score at the
    uniform floor; empty docs score 0.0 across all orders."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.textops import repetition_scores

    texts = [
        "spam spam spam spam spam spam",       # top1=1.0, top2=1.0, top3=1.0
        "alpha beta gamma delta",               # all n-grams distinct
        "",                                     # no tokens at all
        "one two",                              # bigram exists, no trigram
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        tmp_path / "documents.parquet",
    )
    got = _to_pandas(repetition_scores(str(tmp_path))).set_index("doc_id")
    assert got.loc[0, "top1_frac"] == 1.0
    assert got.loc[0, "top2_frac"] == 1.0
    assert got.loc[0, "top3_frac"] == 1.0
    assert got.loc[1, "top1_frac"] == 0.25
    assert got.loc[1, "top2_frac"] == round(1 / 3, 6)
    assert got.loc[1, "top3_frac"] == 0.5
    assert (got.loc[2] == 0.0).all()
    assert got.loc[3, "top2_frac"] == 1.0 and got.loc[3, "top3_frac"] == 0.0


def test_decontaminate_crafted(tmp_path):
    """A doc sharing one 4-gram with the benchmark slice is flagged with
    exactly one hit; disjoint docs report zero; benchmark docs are excluded
    from the output."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.decontam import decontaminate_docs

    texts = {
        7: "held out benchmark secret phrase here",   # 7 % 20 == 7: benchmark
        1: "prefix words then benchmark secret phrase here suffix",  # 2 hits
        2: "completely unrelated tokens nothing shared",
        3: "secret phrase here benchmark",            # re-ordered: 1 hit
    }
    ids = sorted(texts)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array([texts[i] for i in ids], pa.string())}),
        tmp_path / "documents.parquet",
    )
    got = _to_pandas(decontaminate_docs(str(tmp_path))).set_index("doc_id")
    assert 7 not in got.index
    # doc 1 contains "benchmark secret phrase here" and "out?" -- check exact:
    # benchmark 4-grams: {held out benchmark secret, out benchmark secret
    # phrase, benchmark secret phrase here}; doc 1 contains only the last.
    assert got.loc[1, "n_hits"] == 1 and got.loc[1, "contaminated"] == 1
    assert got.loc[2, "n_hits"] == 0 and got.loc[2, "contaminated"] == 0
    assert got.loc[3, "n_hits"] == 0  # same tokens, different 4-gram order


def test_keywords_distributed_path_matches_broadcast_path():
    """Force the above-budget branch (union of tf/df rows on one coarse
    term-hash shuffle + doc-hash top-k shuffle; no vocab broadcast):
    identical output to the broadcast fast path."""
    from engine.ops.textops import keywords_tfidf

    fast = _canon(_to_pandas(keywords_tfidf(SF)))
    dist = _canon(_to_pandas(keywords_tfidf(SF, df_broadcast_budget_rows=0)))
    pd.testing.assert_frame_equal(fast, dist)


def test_surprisal_distributed_path_matches_broadcast_path():
    """Force the above-budget branch (tf/ctf union on the coarse term-hash
    shuffle, per-doc partial sums re-keyed on a doc-hash shuffle, zero-token
    marker rows): round-6-identical to the vocab-broadcast fast path."""
    from engine.ops.textops import docs_unigram_surprisal

    fast = _canon(_to_pandas(docs_unigram_surprisal(SF)))
    dist = _canon(_to_pandas(docs_unigram_surprisal(SF, ctf_broadcast_budget_rows=0)))
    pd.testing.assert_frame_equal(fast, dist)


def test_bigram_surprisal_distributed_path_matches_broadcast_path():
    """Force the above-budget branch (per-doc bigram tf rows + both model
    tables unioned on ONE coarse hash(first-token) shuffle, per-doc partials
    re-keyed on a doc-hash shuffle, zero-bigram marker rows): round-6-
    identical to the model-broadcast fast path."""
    from engine.ops.textops import docs_bigram_surprisal

    fast = _canon(_to_pandas(docs_bigram_surprisal(SF)))
    dist = _canon(
        _to_pandas(docs_bigram_surprisal(SF, model_broadcast_budget_rows=0))
    )
    pd.testing.assert_frame_equal(fast, dist)


def test_spell_distance_verifier():
    """The SymSpell delete-intersection admits transpositions; the exact
    verifier must reject them (plain Levenshtein counts "ab"->"ba" as 2),
    and accept genuine insert/delete/substitute/identity at <= 1."""
    from engine.query import IndexReader

    lev = IndexReader._lev_le1
    assert lev("ab", "ba") is None          # transposition = distance 2
    assert lev("tabel", "table") is None    # transposition inside a word
    assert lev("scan", "scan") == 0
    assert lev("scann", "scan") == 1        # deletion
    assert lev("windo", "window") == 1      # insertion
    assert lev("xolumn", "column") == 1     # substitution
    assert lev("ab", "xyz") is None         # length gap > 1
    assert lev("abc", "xbd") is None        # two substitutions


def test_embedding_clusters_exact_vs_numpy():
    """Assignments must equal the exact argmax-cosine against the same
    deterministically trained centroids, sizes must sum to the corpus, and
    the summary must match a plain recompute of the assignment table."""
    import pyarrow.parquet as pq

    from engine.ops.ann import (
        _emb_matrix,
        _sample_and_train,
        embedding_cluster_sizes,
        embedding_clusters,
    )

    got = _to_pandas(embedding_clusters(SF)).set_index("vec_id").sort_index()
    cent = _sample_and_train(SF, 16)
    t = pq.read_table(SF + "/embeddings.parquet")
    ids, m = _emb_matrix(t)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
    sims = mn @ cent.T
    want_cl = np.argmax(sims, axis=1)
    order = np.argsort(ids)
    assert np.array_equal(got["cluster"].to_numpy(), want_cl[order])
    assert np.array_equal(
        got["sim_r6"].to_numpy(),
        np.round(sims[np.arange(len(ids)), want_cl], 6)[order],
    )
    sizes = _to_pandas(embedding_cluster_sizes(SF))
    assert int(sizes["n_vecs"].sum()) == len(ids)
    resum = got.groupby("cluster").agg(n=("sim_r6", "size"))
    merged = sizes.set_index("cluster").join(resum)
    assert (merged["n_vecs"] == merged["n"]).all()


def test_curate_corpus_writes_exactly_the_keep_set(tmp_path, con):
    """The curation writer must emit precisely the keep=1 docs (full rows),
    recomputing the verdict inline so the corpus is read once."""
    from engine.ops.curate import curate_corpus

    out = str(tmp_path / "curated")
    res = curate_corpus(SF, out)
    import pyarrow.dataset as pads

    got_ids = sorted(pads.dataset(out).to_table(columns=["doc_id"])["doc_id"].to_pylist())
    import __ray_entry__ as em

    want = con.sql(
        f"SELECT doc_id FROM ({em.oracle_sql()['curate_docs']}) WHERE keep = 1"
    ).df()
    want_ids = sorted(int(x) for x in want["doc_id"])
    assert got_ids == want_ids
    assert res["n_kept"] == len(want_ids)
    # written rows carry the full original schema
    schema_names = set(pads.dataset(out).schema.names)
    assert {"doc_id", "text", "lang", "source"} <= schema_names


def test_dup_clusters_match_union_find():
    """Independent oracle for the distributed min-label propagation AND the
    recursive-CTE SQL: plain union-find over the exact jaccard pair list."""
    from engine.ops.dedup import dup_clusters, ngram_jaccard_pairs

    pairs = _to_pandas(ngram_jaccard_pairs(SF))
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    got = _to_pandas(dup_clusters(SF))
    got_map = dict(zip(got["doc_id"], got["cluster_id"]))
    assert got_map == want


def test_pack_sequences_invariants():
    """Bins respect the budget (except singleton oversized docs), are
    contiguous per shard, and partition the input exactly."""
    from engine.ops.curate import _PACK_BUDGET, docs_pack_sequences

    got = _to_pandas(docs_pack_sequences(SF)).sort_values(["shard", "doc_id"])
    import duckdb

    n_docs = duckdb.sql(
        f"SELECT count(*) FROM '{SF}/documents.parquet'"
    ).fetchone()[0]
    assert len(got) == n_docs
    for _, s in got.groupby("shard"):
        bins = s["bin_id"].to_numpy()
        assert bins[0] == 0
        assert np.all(np.diff(bins) >= 0) and np.all(np.diff(bins) <= 1)
        sums = s.groupby("bin_id")["n_tokens"].agg(["sum", "count"])
        over = sums[sums["sum"] > _PACK_BUDGET]
        assert (over["count"] == 1).all()  # only oversized singletons exceed


def test_shuffle_shards_is_permutation():
    """Every doc appears exactly once, pos is dense 0..n-1 per shard, and
    the shard assignment matches the key's first hex nibble."""
    import hashlib

    from engine.ops.curate import _SHUF_SEED, docs_shuffle_shards

    got = _to_pandas(docs_shuffle_shards(SF))
    import duckdb

    ids = duckdb.sql(
        f"SELECT doc_id FROM '{SF}/documents.parquet'"
    ).df()["doc_id"]
    assert sorted(got["doc_id"]) == sorted(ids)
    for shard, s in got.groupby("shard"):
        assert sorted(s["pos"]) == list(range(len(s)))
        for i in s["doc_id"].head(5):
            k = hashlib.md5(f"{_SHUF_SEED}-{i}".encode()).hexdigest()
            assert int(k[0], 16) == shard


def test_minhash_dup_clusters_match_union_find():
    from engine.ops.dedup import minhash_dup_clusters, minhash_lsh_pairs

    pairs = _to_pandas(minhash_lsh_pairs(SF))
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}
    got = _to_pandas(minhash_dup_clusters(SF))
    assert dict(zip(got["doc_id"], got["cluster_id"])) == want


def test_pq_codes_exact_vs_numpy():
    """Every PQ code must equal the exact per-subspace L2 argmin against the
    same deterministically trained codebooks, the reconstruction error must
    match a plain recompute, and quantization must beat the zero quantizer
    (err << 1) while staying lossy (err > 0)."""
    import pyarrow.parquet as pq

    from engine.ops.ann import (
        _PQ_K,
        _PQ_M,
        _emb_matrix,
        _pq_sample,
        _train_pq_codebooks,
        embeddings_pq_codes,
    )

    got = _to_pandas(embeddings_pq_codes(SF)).set_index("vec_id").sort_index()
    books = _train_pq_codebooks(_pq_sample(SF), _PQ_M, _PQ_K)
    t = pq.read_table(SF + "/embeddings.parquet")
    ids, m = _emb_matrix(t)
    order = np.argsort(ids)
    mm, kk, ds = books.shape
    recon = np.empty_like(m)
    for j in range(mm):
        sub = m[:, j * ds : (j + 1) * ds]
        cent = books[j]
        d2 = ((sub[:, None, :] - cent[None, :, :]) ** 2).sum(-1)  # brute L2
        want_codes = np.argmin(d2, axis=1)
        assert np.array_equal(got[f"code_{j}"].to_numpy(), want_codes[order]), j
        recon[:, j * ds : (j + 1) * ds] = cent[want_codes]
    err = ((m - recon) ** 2).sum(1) / np.maximum((m * m).sum(1), 1e-30)
    assert np.array_equal(got["recon_err_r6"].to_numpy(), np.round(err, 6)[order])
    mean_err = float(err.mean())
    assert 0.0 < mean_err < 0.9, mean_err


def test_pq_adc_recall_vs_bruteforce():
    """ADC shortlist (16x6-bit codes) + exact rerank must recover the exact
    top-10 on these fixtures (recall 1.0 measured at sf0.001 and sf0.01;
    deterministic codebooks/seed, so this never flakes)."""
    from engine.ops.ann import knn_topk, pq_knn_topk

    exact = _to_pandas(knn_topk(SF))
    approx = _to_pandas(pq_knn_topk(SF))
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        a = set(approx[approx["query_id"] == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.9, recalls


def test_bloom_decontaminate_no_false_negatives():
    """Bloom flags must be a SUPERSET of the exact contamination flags
    (zero false negatives — the Bloom guarantee), with an FP rate on clean
    docs under the design bound and a broadcast genuinely smaller than the
    exact gram-set payload."""
    from engine.ops.decontam import (
        _bloom_build,
        benchmark_ngrams,
        bloom_decontaminate,
        decontaminate_docs,
    )

    exact = _to_pandas(decontaminate_docs(SF)).set_index("doc_id").sort_index()
    bloom = _to_pandas(bloom_decontaminate(SF)).set_index("doc_id").sort_index()
    assert list(exact.index) == list(bloom.index)
    ex = exact["contaminated"].to_numpy() > 0
    bl = bloom["contaminated"].to_numpy() > 0
    assert not (ex & ~bl).any(), "false negative: contamination leaked"
    clean = ~ex
    fp_rate = float((bl & clean).sum()) / max(int(clean.sum()), 1)
    # per-doc FP prob ~ 1-(1-p)^grams is far above the per-gram ~0.7%, but
    # on these fixtures stays well under 20%; measured 0.0 at sf0.001
    assert fp_rate <= 0.2, fp_rate
    grams = benchmark_ngrams(SF)
    bits, m = _bloom_build(grams)
    exact_bytes = sum(len(g) for g in grams.to_pylist())
    assert bits.nbytes < exact_bytes, (bits.nbytes, exact_bytes)


def test_dd_quantiles_within_relative_bound():
    """DDSketch's guarantee is relative to the VALUE AT THE RANK (the
    ceil(q*n)-th order statistic), so compare against exactly that — the
    bin-midpoint bound is (gamma-1)/(gamma+1) ~ 1%.  (The linear-interp
    p99 differs from the ceil-rank order stat by whole sample gaps at
    fixture n, which is rank resolution, not sketch error.)"""
    import pyarrow.parquet as pq

    from engine.ops.relational import events_value_quantiles_dd

    dd = _to_pandas(events_value_quantiles_dd(SF)).set_index("event_type")
    t = pq.read_table(SF + "/events.parquet", columns=["event_type", "value"])
    df = t.to_pandas()
    gamma_bound = (1.02 - 1.0) / (1.02 + 1.0) + 1e-6
    for et, g in df.groupby("event_type"):
        v = np.sort(g["value"].to_numpy())
        assert int(dd.loc[et, "n"]) == v.size
        for q in (0.5, 0.9, 0.99):
            want = v[max(1, int(np.ceil(q * v.size))) - 1]
            got = float(dd.loc[et, f"p{int(q * 100)}_dd"])
            assert abs(got - want) / want <= gamma_bound, (et, q, got, want)


def test_export_training_shards_composition():
    """The export must equal composing its gated pieces: row set == the
    curate keep set; every shard file sorted by (shuf_key, doc_id) with a
    dense pos column; a re-run atomically replaces the directory with the
    identical content (idempotent)."""
    import glob

    import pyarrow.parquet as pq

    from engine.ops.curate import curate_docs, export_training_shards

    out = "/tmp/rayft_test_export"
    m = _to_pandas(export_training_shards(SF, out_dir=out))
    keep = _to_pandas(curate_docs(SF))
    keep_ids = set(keep[keep["keep"] == 1]["doc_id"])
    files = sorted(glob.glob(out + "/shard-*.parquet"))
    assert len(files) == int(m["n_shards"].iloc[0])
    got_ids = []
    for f in files:
        t = pq.read_table(f)
        df = t.to_pandas()
        assert (
            df.sort_values(["shuf_key", "doc_id"])["doc_id"].to_list()
            == df["doc_id"].to_list()
        ), f
        assert df["pos"].to_list() == list(range(len(df))), f
        got_ids.extend(df["doc_id"].to_list())
    assert set(got_ids) == keep_ids
    assert len(got_ids) == int(m["n_kept"].iloc[0]) == len(keep_ids)
    # idempotent re-run
    m2 = _to_pandas(export_training_shards(SF, out_dir=out))
    assert m2.equals(m)


def test_semdedup_invariants_and_exact_rederivation():
    """Every verdict must equal the exact greedy re-derivation from the same
    deterministic centroids, and the greedy invariants must hold: kept
    vectors are pairwise < tau within a cluster; every dropped vector has a
    kept witness >= tau in ITS cluster; and something is actually dropped
    on these fixtures (tau chosen at the planted near-dup level)."""
    import pyarrow.parquet as pq

    from engine.ops.ann import (
        _SEMDEDUP_TAU,
        _emb_matrix,
        _sample_and_train,
        semdedup_prune,
    )

    got = _to_pandas(semdedup_prune(SF)).sort_values("vec_id").reset_index(drop=True)
    t = pq.read_table(SF + "/embeddings.parquet")
    ids, m = _emb_matrix(t)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
    cent = _sample_and_train(SF, 16)
    sims = mn @ cent.T
    cl = np.argmax(sims, axis=1)
    csim = sims[np.arange(len(ids)), cl]
    want_keep = {}
    for c in np.unique(cl):
        sel = np.flatnonzero(cl == c)
        order = sel[np.lexsort((ids[sel], -csim[sel]))]
        kept = []
        for i in order:
            if not kept or (mn[i] @ mn[kept].T < _SEMDEDUP_TAU).all():
                kept.append(i)
                want_keep[int(ids[i])] = 1
            else:
                want_keep[int(ids[i])] = 0
    assert got["keep"].to_list() == [want_keep[int(v)] for v in got["vec_id"]]
    assert np.array_equal(
        got["csim_r6"].to_numpy(), np.round(csim[np.argsort(ids)], 6)
    )
    n_dropped = int((got["keep"] == 0).sum())
    assert n_dropped > 0, "tau should drop the planted near-dups"
    # invariants per cluster
    byid = {int(v): i for i, v in enumerate(ids)}
    for c, grp in got.groupby("cluster"):
        kept_rows = [byid[int(v)] for v in grp[grp["keep"] == 1]["vec_id"]]
        km = mn[kept_rows]
        s = km @ km.T
        np.fill_diagonal(s, 0.0)
        assert (s < _SEMDEDUP_TAU).all(), c
        for v in grp[grp["keep"] == 0]["vec_id"]:
            assert (mn[byid[int(v)]] @ km.T >= _SEMDEDUP_TAU).any(), (c, v)


def test_bpe_train_merges_vs_independent_reference():
    """The learned merge list must equal an INDEPENDENT reference: word
    counts from DuckDB (not the Ray reduce) + the original Sennrich-style
    regex merge loop (not the tuple-walk).  Also pins cross-op
    consistency: merge 1 == the gated docs_bpe_pair_counts top pair."""
    import re

    import duckdb

    from engine.ops.textops import bpe_train_merges, docs_bpe_pair_counts

    got = _to_pandas(bpe_train_merges(SF))
    assert len(got) == 30

    con2 = duckdb.connect()
    wc = con2.sql(f"""
        WITH tok AS (
          SELECT list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),
                             x -> x <> '') AS toks
          FROM '{SF}/documents.parquet'
        ),
        u AS (SELECT unnest(toks) AS tk FROM tok)
        SELECT tk, count(*) AS c FROM u GROUP BY tk
    """).df()
    vocab = {
        " ".join(tk): int(c)
        for tk, c in zip(wc["tk"], wc["c"])
        if len(tk) >= 2
    }
    want = []
    for rank in range(1, 31):
        pairs = {}
        for w, c in vocab.items():
            syms = w.split(" ")
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        (a, b), freq = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        want.append((rank, f"{a} {b}", freq))
        pat = re.compile(
            r"(?<!\S)" + re.escape(a) + r" " + re.escape(b) + r"(?!\S)"
        )
        # regex merge can collide two spellings into one: re-accumulate
        merged_vocab: dict[str, int] = {}
        for w, c in vocab.items():
            w2 = pat.sub(a + b, w)
            merged_vocab[w2] = merged_vocab.get(w2, 0) + c
        vocab = merged_vocab
    got_list = list(zip(got["rank"], got["pair"], got["freq"]))
    assert [(int(r), p, int(f)) for r, p, f in got_list] == want
    top = _to_pandas(docs_bpe_pair_counts(SF))
    assert got["pair"].iloc[0] == top["pair"].iloc[0]
    assert int(got["freq"].iloc[0]) == int(top["freq"].iloc[0])


def test_bpe_encode_docs_reference_and_identity():
    """Per-doc piece counts must equal an independent per-token reference
    application of the same merges, and encoding with ZERO merges must
    reduce to character counts (n_pieces == n_chars)."""
    from engine.ops.textops import bpe_encode_docs, bpe_train_merges, tokenize

    got = _to_pandas(bpe_encode_docs(SF)).set_index("doc_id").sort_index()
    merges = [tuple(p.split(" ", 1)) for p in _to_pandas(bpe_train_merges(SF))["pair"]]

    def ref_encode(tok):
        syms = list(tok)
        for a, b in merges:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    import pyarrow.parquet as pq

    docs = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    df = docs.to_pandas().sample(n=50, random_state=7)
    for _, row in df.iterrows():
        toks = tokenize(row["text"])
        want_pieces = sum(ref_encode(t) for t in toks)
        assert int(got.loc[row["doc_id"], "n_pieces"]) == want_pieces
        assert int(got.loc[row["doc_id"], "n_tokens"]) == len(toks)

    zero = _to_pandas(bpe_encode_docs(SF, n_merges=0)).set_index("doc_id")
    assert (zero["n_pieces"] == zero["n_chars"]).all()
    # merges must genuinely compress
    assert int(got["n_pieces"].sum()) < int(got["n_chars"].sum())


def test_new_ops_empty_and_tiny_corpora(tmp_path):
    """Every round-5 text/curation op must survive a 0-row corpus (empty
    result, correct columns, no crash) and a 3-row corpus with an
    empty-text doc — the resume/partial-input edge a production run hits."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops import curate, textops

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }
    )
    tiny = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma", "", "alpha alpha beta"], pa.string()
            ),
            "lang": pa.array(["en", "zh", "en"], pa.string()),
            "source": pa.array(["s0", "s1", "s0"], pa.string()),
            "n_chars": pa.array([16, 0, 16], pa.int64()),
        }
    )
    dirs = {}
    for name, t in (("empty", empty), ("tiny", tiny)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        dirs[name] = str(d)

    ops = [
        curate.source_mixture_weights,
        curate.docs_chunk_sliding,
        textops.docs_bpe_pair_counts,
        curate.docs_dsir_weights,
        textops.docs_surprisal_buckets,
        curate.curate_funnel,
        textops.docs_ttr,
        curate.docs_source_caps,
        textops.bpe_train_merges,
        textops.bpe_encode_docs,
    ]
    import pandas as pd

    for fn in ops:
        out = _to_pandas(fn(dirs["empty"]))
        assert len(out) == 0, fn.__name__
        if isinstance(fn(dirs["empty"]), pd.DataFrame):
            # driver-side ops must keep their schema even when empty; a
            # Dataset-returning op may come back with zero columns: Ray
            # 2.49's Dataset.to_pandas() of a 0-row Dataset has none even
            # when every block is a typed empty table (built from Arrow,
            # from pandas or read from an empty Parquet file), which the
            # driver compare tolerates
            assert len(out.columns) > 0, fn.__name__
        out = _to_pandas(fn(dirs["tiny"]))
        assert len(out) >= 0, fn.__name__  # no crash; shapes op-specific
    # tiny-corpus spot checks
    ttr = _to_pandas(textops.docs_ttr(dirs["tiny"])).set_index("doc_id")
    assert int(ttr.loc[2, "n_tokens"]) == 0 and float(ttr.loc[2, "ttr_r6"]) == 0.0
    buckets = _to_pandas(textops.docs_surprisal_buckets(dirs["tiny"]))
    assert set(buckets["bucket"]) <= {"head", "middle", "tail"}
    assert len(buckets) == 3


def test_ann_ops_empty_and_tiny_embeddings(tmp_path):
    """The embedding family must survive a 0-row embeddings table (empty
    result, no crash) and a 4-row table (fewer rows than k / n_cells /
    codebook sizes — every internal cap must clamp)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops import ann

    rng = np.random.default_rng(3)
    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
            "label": pa.array([], pa.int32()),
        }
    )
    tiny = pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array(
                [list(map(float, rng.standard_normal(64))) for _ in range(4)],
                pa.list_(pa.float32()),
            ),
            "label": pa.array([0, 1, 0, 1], pa.int32()),
        }
    )
    dirs = {}
    for name, t in (("empty", empty), ("tiny", tiny)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "embeddings.parquet"))
        dirs[name] = str(d)

    ops = [
        ann.knn_topk,
        ann.ivf_knn_topk,
        ann.lsh_knn_topk,
        ann.pq_knn_topk,
        ann.embeddings_pq_codes,
        ann.semdedup_prune,
        ann.embedding_clusters,
        ann.cosine_dup_pairs,
    ]
    for fn in ops:
        assert len(_to_pandas(fn(dirs["empty"]))) == 0, fn.__name__
        out = _to_pandas(fn(dirs["tiny"]))
        assert len(out) >= 0, fn.__name__
    # tiny: every search returns all 4 vectors per query (k clamps)
    knn = _to_pandas(ann.knn_topk(dirs["tiny"]))
    assert set(knn.groupby("query_id").size()) == {4}


def test_authors_pagerank_exact_rederivation():
    """Independent numpy re-derivation of the whole chain — edge weights
    from the author formula, column-stochastic transition, 30 damped
    iterations — must match bitwise; ranks sum to 1."""
    import pyarrow.parquet as pq

    from engine.ops import listops

    got = listops.authors_pagerank(SF)
    ids = pq.read_table(SF + "/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    n = listops.NUM_AUTHORS
    W = np.zeros((n, n))
    for d in ids:
        auths = [(int(d) * 7 + i * 13) % n for i in range(1 + int(d) % 3)]
        for i in range(len(auths)):
            for j in range(i + 1, len(auths)):
                lo, hi = sorted((auths[i], auths[j]))
                W[lo, hi] += 1
    W = W + W.T
    deg = W.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = np.where(deg[None, :] > 0, W.T / deg[None, :], 1.0 / n)
    r = np.full(n, 1.0 / n)
    for _ in range(listops._PR_ITERS):
        r = (1 - listops._PR_DAMPING) / n + listops._PR_DAMPING * (T @ r)
    assert np.array_equal(got["rank_r9"].to_numpy(), np.round(r, 9))
    assert abs(got["rank_r9"].sum() - 1.0) < 1e-6
    assert got["rank_r9"].min() > 0


def test_session4_ops_empty_and_tiny(tmp_path):
    """The session-4 operator wave must survive 0-row and tiny inputs:
    documents ops (histogram, percentiles), vector aggregates (centroids,
    dispersion), the author graph, and the events window/rollup ops."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops import ann, listops, relational, textops

    def docs_table(ids, texts, langs, sources, chars):
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
                "source": pa.array(sources, pa.string()),
                "n_chars": pa.array(chars, pa.int64()),
            }
        )

    def emb_table(ids, dim=8):
        vecs = [[float(i + j) for j in range(dim)] for i in ids]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(vecs, pa.list_(pa.float32())),
                "label": pa.array([0] * len(ids), pa.int32()),
            }
        )

    def events_table(n):
        return pa.table(
            {
                "event_id": pa.array(list(range(n)), pa.int64()),
                "ts": pa.array(
                    [np.datetime64("2024-01-01", "us") + np.timedelta64(i, "h")
                     for i in range(n)]
                ),
                "user_id": pa.array([i % 2 for i in range(n)], pa.int64()),
                "event_type": pa.array(["click"] * n, pa.string()),
                "value": pa.array([float(i) for i in range(n)], pa.float64()),
                "props": pa.array(["{}"] * n, pa.string()),
            }
        )

    dirs = {}
    for name, nd, ne in (("empty", 0, 0), ("tiny", 3, 3)):
        d = tmp_path / name
        d.mkdir()
        ids = list(range(nd))
        pq.write_table(
            docs_table(ids, ["word text"] * nd, ["en"] * nd, ["s0"] * nd,
                       [9] * nd),
            str(d / "documents.parquet"),
        )
        pq.write_table(emb_table(ids), str(d / "embeddings.parquet"))
        pq.write_table(events_table(ne), str(d / "events.parquet"))
        dirs[name] = str(d)

    ops = [
        textops.docs_length_histogram,
        textops.docs_length_percentiles,
        ann.lang_embedding_centroids,
        ann.lang_embedding_dispersion,
        listops.authors_pagerank,
        relational.events_user_rolling_mean,
        relational.events_rollup,
    ]
    for fn in ops:
        out = _to_pandas(fn(dirs["empty"]))
        # pagerank ranks the (fixed, formula-defined) author universe even
        # over an empty corpus: a rankless graph is uniform, not absent
        if fn is listops.authors_pagerank:
            assert len(out) == listops.NUM_AUTHORS
        elif fn is relational.events_rollup:
            # grand-total row may or may not exist on empty input; accept
            # either but require no crash and intact schema
            assert len(out) <= 1, fn.__name__
        else:
            assert len(out) == 0, fn.__name__
        out = _to_pandas(fn(dirs["tiny"]))
        assert len(out) >= 1, fn.__name__
    # tiny-corpus spot checks
    pct = _to_pandas(textops.docs_length_percentiles(dirs["tiny"]))
    assert (pct["pct_rank_r6"] == 0.0).all()  # equal lengths -> all rank 0
    cen = ann.lang_embedding_centroids(dirs["tiny"])
    assert set(cen["lang"]) == {"en"} and len(cen) == 8
    roll = relational.events_rollup(dirs["tiny"])
    assert int(roll.loc[(roll["event_type"] == "ALL"), "n"].iloc[0]) == 3


def test_session5_ops_empty_and_tiny_tables(tmp_path):
    """The session-5 operator wave must survive 0-row inputs (empty result
    or schema-ful summary row, no crash) and tiny inputs with edge rows
    (empty text, single-event users, one-nation regions)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops import ann, relational, textops

    def write(d, **tables):
        d.mkdir()
        for name, t in tables.items():
            pq.write_table(t, str(d / f"{name}.parquet"))
        return str(d)

    docs_e = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }
    )
    docs_t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma", "", "alpha alpha beta"], pa.string()
            ),
            "lang": pa.array(["en", "zh", "en"], pa.string()),
            "source": pa.array(["s0", "s1", "s0"], pa.string()),
            "n_chars": pa.array([16, 0, 16], pa.int64()),
        }
    )
    ev_e = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "user_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
            "props": pa.array([], pa.string()),
        }
    )
    import datetime as dt

    t0 = dt.datetime(2024, 1, 1)
    ev_t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array([t0, t0, t0 + dt.timedelta(hours=1)],
                           pa.timestamp("us")),
            "user_id": pa.array([7, 8, 7], pa.int64()),
            "event_type": pa.array(["view", "view", "buy"], pa.string()),
            "value": pa.array([1.25, -2.5, 0.0], pa.float64()),
            "props": pa.array(['{"k": 1}'] * 3, pa.string()),
        }
    )
    ord_e = pa.table(
        {
            "o_orderkey": pa.array([], pa.int64()),
            "o_custkey": pa.array([], pa.int64()),
            "o_orderstatus": pa.array([], pa.string()),
            "o_totalprice": pa.array([], pa.float64()),
            "o_orderdate": pa.array([], pa.timestamp("us")),
            "o_orderpriority": pa.array([], pa.string()),
        }
    )
    ord_t = pa.table(
        {
            "o_orderkey": pa.array([1, 2], pa.int64()),
            "o_custkey": pa.array([5, 5], pa.int64()),
            "o_orderstatus": pa.array(["O", "F"], pa.string()),
            "o_totalprice": pa.array([10.01, 20.02], pa.float64()),
            "o_orderdate": pa.array([t0, t0 + dt.timedelta(days=40)],
                                    pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * 2, pa.string()),
        }
    )
    nat_e = pa.table(
        {
            "n_nationkey": pa.array([], pa.int32()),
            "n_name": pa.array([], pa.string()),
            "n_regionkey": pa.array([], pa.int32()),
        }
    )
    nat_t = pa.table(
        {
            "n_nationkey": pa.array([0], pa.int32()),
            "n_name": pa.array(["FRANCE"], pa.string()),
            "n_regionkey": pa.array([0], pa.int32()),
        }
    )
    reg_e = pa.table(
        {"r_regionkey": pa.array([], pa.int32()),
         "r_name": pa.array([], pa.string())}
    )
    reg_t = pa.table(
        {"r_regionkey": pa.array([0], pa.int32()),
         "r_name": pa.array(["EUROPE"], pa.string())}
    )
    rng = np.random.default_rng(5)
    emb_e = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
            "label": pa.array([], pa.int32()),
        }
    )
    emb_t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2, 3], pa.int64()),
            "embedding": pa.array(
                [list(map(float, rng.standard_normal(8))) for _ in range(4)],
                pa.list_(pa.float32()),
            ),
            "label": pa.array([0, 1, 0, 1], pa.int32()),
        }
    )

    d_empty = write(tmp_path / "empty", documents=docs_e, events=ev_e,
                    orders=ord_e, nation=nat_e, region=reg_e,
                    embeddings=emb_e)
    d_tiny = write(tmp_path / "tiny", documents=docs_t, events=ev_t,
                   orders=ord_t, nation=nat_t, region=reg_t,
                   embeddings=emb_t)

    # per-row/per-group ops: empty in -> 0 rows out, tiny -> no crash
    row_ops = [
        relational.events_user_cumsum,
        relational.events_user_entropy,
        relational.orders_monthly_growth,
        relational.orders_cumulative_revenue,
        relational.region_nation_csv,
        relational.customers_rfm,
        textops.lang_top_terms,
        textops.docs_bigram_surprisal,
        ann.embeddings_norm_outliers,
    ]
    for fn in row_ops:
        assert len(_to_pandas(fn(d_empty))) == 0, fn.__name__
        assert len(_to_pandas(fn(d_tiny))) >= 0, fn.__name__
    # corpus-summary ops: exactly one schema-ful row either way
    for fn in (textops.docs_zipf_slope, textops.docs_hapax_ratio):
        for d in (d_empty, d_tiny):
            out = _to_pandas(fn(d))
            assert len(out) == 1 and len(out.columns) == 3, fn.__name__

    # tiny-value spot checks
    cum = _to_pandas(relational.events_user_cumsum(d_tiny))
    cum = cum.set_index("event_id")["cum_cents"]
    assert int(cum.loc[1]) == 125 and int(cum.loc[2]) == -250
    assert int(cum.loc[3]) == 125  # user 7: 125 + 0
    ent = _to_pandas(relational.events_user_entropy(d_tiny)).set_index("user_id")
    assert float(ent.loc[8, "entropy_r6"]) == 0.0  # single-type user
    hap = _to_pandas(textops.docs_hapax_ratio(d_tiny))
    assert int(hap["n_terms"][0]) == 3 and int(hap["n_hapax"][0]) == 1
    csv = _to_pandas(relational.region_nation_csv(d_tiny))
    assert list(csv["nations_csv"]) == ["FRANCE"]


def test_compression_ratio_matches_stdlib_and_separates_tails():
    """Rows-only oracle: recompress 50 sampled docs with the stdlib and
    compare bitwise; a highly repetitive doc must compress far below a
    high-entropy one."""
    import zlib

    from engine.ops import textops

    got = _to_pandas(textops.docs_compression_ratio(SF)).set_index("doc_id")
    import pyarrow.parquet as pq

    docs = pq.read_table(
        SF + "/documents.parquet", columns=["doc_id", "text"]
    ).to_pylist()
    assert len(got) == len(docs)
    for r in docs[:50]:
        raw = r["text"].encode()
        want = len(zlib.compress(raw, 6))
        row = got.loc[r["doc_id"]]
        assert int(row["zlib_bytes"]) == want
        assert int(row["raw_bytes"]) == len(raw)
        if raw:
            assert abs(row["ratio_r6"] - round(want / len(raw), 6)) < 1e-12
    # tails separate: repeated text compresses much harder
    rep = len(zlib.compress(("spam " * 400).encode(), 6)) / 2000
    import numpy as _np

    rng = _np.random.default_rng(0)
    junk = "".join(chr(33 + int(x)) for x in rng.integers(0, 90, 2000))
    high = len(zlib.compress(junk.encode(), 6)) / 2000
    assert rep < 0.05 < 0.5 < high


def test_final_wave_ops_empty_and_tiny_inputs(tmp_path):
    """The final-session operators must survive 0-row and near-degenerate
    inputs: events ops on an empty table and a 4-row single-user table,
    docs ops on the shared empty/tiny corpora, orders aging on a table
    with no open orders."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops import dedup, relational, textops

    # ---- events fixtures ------------------------------------------------
    eev = pa.table(
        {
            "event_id": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "user_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
            "props": pa.array([], pa.string()),
        }
    )
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    hour = np.timedelta64(3600, "s")
    tev = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], pa.int64()),
            "ts": pa.array([t0, t0 + hour, t0 + 2 * hour, t0 + 3 * hour]),
            "user_id": pa.array([7, 7, 7, 7], pa.int64()),
            "event_type": pa.array(
                ["view", "click", "purchase", "view"], pa.string()
            ),
            "value": pa.array([1.0, 2.0, 3.0, 4.0], pa.float64()),
            "props": pa.array(["{}"] * 4, pa.string()),
        }
    )
    dirs = {}
    for name, t in (("eempty", eev), ("etiny", tev)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "events.parquet"))
        dirs[name] = str(d)

    event_ops = [
        relational.events_dau_mau,
        relational.events_top_paths,
        relational.events_mad_outliers,
        relational.events_burst_days,
        relational.events_ewma_daily,
        relational.events_conversion_lag,
        relational.events_churned_users,
    ]
    for fn in event_ops:
        out = _to_pandas(fn(dirs["eempty"]))
        assert len(out) == 0, fn.__name__
        out = _to_pandas(fn(dirs["etiny"]))
        assert len(out) >= 0, fn.__name__  # no crash
    # single-user 4-event stream: exactly two 3-step paths, one converter
    paths = _to_pandas(relational.events_top_paths(dirs["etiny"]))
    assert len(paths) == 2 and set(paths["n"]) == {1}
    lag = _to_pandas(relational.events_conversion_lag(dirs["etiny"]))
    assert len(lag) == 1 and int(lag["n_converted"].iloc[0]) == 1
    assert float(lag["median_lag_s_r6"].iloc[0]) == 7200.0
    # every event within 1 day of max -> nobody churned
    churn = _to_pandas(relational.events_churned_users(dirs["etiny"]))
    assert len(churn) == 0

    # ---- documents fixtures --------------------------------------------
    dempty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }
    )
    dtiny = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma delta", "alpha beta gamma delta", ""],
                pa.string(),
            ),
            "lang": pa.array(["en", "en", "en"], pa.string()),
            "source": pa.array(["src2", "src0", "src1"], pa.string()),
            "n_chars": pa.array([22, 22, 0], pa.int64()),
        }
    )
    for name, t in (("dempty", dempty), ("dtiny", dtiny)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        dirs[name] = str(d)

    for fn in (dedup.ngram_jaccard_prefix, dedup.dedup_by_source_priority,
               textops.docs_term_length_dist):
        out = _to_pandas(fn(dirs["dempty"]))
        assert len(out) == 0, fn.__name__
    # identical texts: the prefix join must find the pair, and the
    # source-priority rule must keep the src0 copy (doc 2), not min doc_id
    pairs = _to_pandas(dedup.ngram_jaccard_prefix(dirs["dtiny"]))
    assert len(pairs) == 1 and float(pairs["jaccard"].iloc[0]) == 1.0
    keep = _to_pandas(dedup.dedup_by_source_priority(dirs["dtiny"]))
    dup_row = keep[keep["n_dups"] == 2]
    assert len(dup_row) == 1 and int(dup_row["keep_id"].iloc[0]) == 2
    assert dup_row["keep_source"].iloc[0] == "src0"

    # ---- orders with no open rows --------------------------------------
    o = pa.table(
        {
            "o_orderkey": pa.array([1], pa.int64()),
            "o_custkey": pa.array([1], pa.int64()),
            "o_orderstatus": pa.array(["F"], pa.string()),
            "o_totalprice": pa.array([10.0], pa.float64()),
            "o_orderdate": pa.array([t0]),
            "o_orderpriority": pa.array(["5-LOW"], pa.string()),
        }
    )
    d = tmp_path / "oclosed"
    d.mkdir()
    pq.write_table(o, str(d / "orders.parquet"))
    aging = _to_pandas(relational.orders_open_aging(str(d)))
    assert len(aging) == 0 and list(aging.columns) == [
        "age_bucket", "n_orders", "value_cents",
    ]


def test_suppliers_pareto_zero_revenue_total(tmp_path):
    """Supplier revenues that sum to zero (one positive, one offsetting
    negative, one zero): every cumulative share is a division by zero,
    which SQL answers with NULL and class C.  The engine used to return
    inf/NaN shares."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.relational import SUPPLIERS_PARETO_SQL, suppliers_pareto

    path = str(tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "l_suppkey": pa.array([1, 2, 3, 1], pa.int64()),
        "l_extendedprice": pa.array([100.0, 150.0, 80.0, 50.0]),
        "l_discount": pa.array([0.0, 2.0, 1.0, 0.0]),
    }), path)
    got = _canon(_to_pandas(suppliers_pareto(str(tmp_path))))
    c = duckdb.connect()
    c.sql(f"CREATE VIEW lineitem AS SELECT * FROM '{path}'")
    want = _canon(c.sql(SUPPLIERS_PARETO_SQL).df())
    assert got["rev_cents"].sum() == 0 and len(got) == 3
    assert want["cum_share_r6"].isna().all()
    assert got["cum_share_r6"].isna().all()
    assert (got["pareto_class"] == "C").all()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_q16_no_part_survives_the_filter(tmp_path):
    """Every part fails q16's part filter (all Brand#17) while lineitem is
    non-empty: the lineitem batches must probe an empty part table and the
    result is the typed empty frame (the gather on empty arrays used to
    raise IndexError)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from engine.ops.relational import q16_supplier_counts

    part = pq.read_table(f"{SF}/part.parquet")
    part = part.set_column(
        part.schema.get_field_index("p_brand"), "p_brand",
        pa.array(["Brand#17"] * part.num_rows, pa.string()),
    )
    pq.write_table(part, str(tmp_path / "part.parquet"))
    pq.write_table(
        pq.read_table(f"{SF}/lineitem.parquet"), str(tmp_path / "lineitem.parquet")
    )
    got = _to_pandas(q16_supplier_counts(str(tmp_path)))
    assert got.empty
    assert list(got.columns) == ["p_brand", "p_type", "p_size", "supplier_cnt"]


_EMPTY_SF = os.path.join(os.path.dirname(SF), "sf0.01")


@pytest.fixture(scope="module")
def empty_tables(tmp_path_factory):
    """A zero-row copy of every sf0.01 table (same Arrow schema) and a
    DuckDB connection over those same files."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("empty_sf")
    c = duckdb.connect()
    for t in TABLES:
        schema = pq.read_schema(f"{_EMPTY_SF}/{t}.parquet")
        pq.write_table(schema.empty_table(), str(d / f"{t}.parquet"))
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM '{d}/{t}.parquet'")
    return str(d), c


def _dtype_kind(s: pd.Series) -> str:
    k = s.dtype.kind
    return {"u": "i", "U": "O", "S": "O"}.get(k, k)


@pytest.mark.parametrize("name", list(entrymod.queries()))
def test_every_entry_on_empty_tables(name, empty_tables):
    """Every registry entry on zero-row tables: no exception; an SQL-checked
    entry returns the oracle's rows and values on the same empty files; a
    pandas / Arrow result carries the oracle's columns and dtypes.  A 0-row
    ray Dataset may come back with zero columns: Ray 2.49's
    ``Dataset.to_pandas()`` of an empty Dataset has no columns even when
    every block is a typed empty table, so only driver-side results can be
    typed (``engine.ops.keyed.collect``)."""
    import pyarrow as pa
    import ray.data

    d, c = empty_tables
    res = entrymod.queries()[name](d)
    got = _to_pandas(res)
    sql = entrymod.oracle_sql().get(name)
    if sql is None:
        return
    want = c.sql(sql).df()
    if isinstance(res, ray.data.Dataset) and len(got.columns) == 0:
        assert len(want) == 0, f"0 rows vs {len(want)}"
        return
    assert sorted(got.columns) == sorted(want.columns)
    assert len(got) == len(want), f"{len(got)} vs {len(want)}"
    if isinstance(res, (pd.DataFrame, pa.Table)):
        for col in want.columns:
            if want[col].notna().any() or len(want) == 0:
                assert _dtype_kind(got[col]) == _dtype_kind(want[col]), (
                    col, got[col].dtype, want[col].dtype,
                )
    g, w = _canon(got), _canon(want)
    for col in g.columns:
        if pd.api.types.is_float_dtype(g[col]) or pd.api.types.is_float_dtype(w[col]):
            assert np.array_equal(
                g[col].astype("float64").fillna(-1).to_numpy(),
                w[col].astype("float64").fillna(-1).to_numpy(),
            ), col
        else:
            assert list(g[col]) == list(w[col]), col
