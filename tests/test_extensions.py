"""Tests for the extension surface: eval metrics, snippets, enrichment retry,
timeouts, analyzer config, media sniffing, pagination/sampling ops."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _to_pandas(res):
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


# ---------------------------------------------------------------------------
def test_eval_metrics_hand_computed():
    from engine.evaluate import evaluate_ranking

    results = pd.DataFrame(
        {
            "query_id": [0, 0, 0, 1, 1, 1],
            "rank": [1, 2, 3, 1, 2, 3],
            "doc_id": [10, 11, 12, 20, 21, 22],
        }
    )
    qrels = pd.DataFrame(
        {
            "query_id": [0, 1, 1],
            "doc_id": [11, 20, 22],
            "grade": [1.0, 1.0, 0.5],
        }
    )
    df = evaluate_ranking(results, qrels, k=3)
    q0 = df[df["query_id"] == 0].iloc[0]
    assert q0["p_at_1"] == 0.0 and q0["hit_at_k"] == 1.0
    assert q0["mrr_at_k"] == 0.5
    # nDCG q0: gains [0,1,0]; dcg = 1/log2(3); idcg = 1
    assert q0["ndcg_at_k"] == pytest.approx(1 / np.log2(3), abs=1e-6)
    q1 = df[df["query_id"] == 1].iloc[0]
    assert q1["p_at_1"] == 1.0 and q1["mrr_at_k"] == 1.0
    mean = df[df["query_id"] == -1].iloc[0]
    assert mean["p_at_1"] == 0.5


def test_eval_on_engine_results():
    """Engine results vs its own golden set -> perfect metrics (J6 analog)."""
    from engine.evaluate import evaluate_ranking, qrels_from_expected
    from engine.ops.docsearch import bm25_docs_topk

    res = _to_pandas(bm25_docs_topk(SF))
    qrels = qrels_from_expected(res)
    df = evaluate_ranking(res, qrels, k=10)
    mean = df[df["query_id"] == -1].iloc[0]
    assert mean["p_at_1"] == 1.0 and mean["mrr_at_k"] == 1.0


# ---------------------------------------------------------------------------
def test_snippets():
    from engine.snippets import make_snippet

    text = "alpha beta gamma. " * 10 + "the needle term appears here once. " + "delta " * 40
    s = make_snippet(text, "needle appears", window=10)
    assert "**needle**" in s and "**appears**" in s
    assert len(s) < len(text)
    assert s.startswith("…") or s.endswith("…")
    # no query terms -> leading text, no highlight
    s2 = make_snippet(text, "zzznothing", window=10)
    assert "**" not in s2
    assert make_snippet("", "x") == ""


# ---------------------------------------------------------------------------
def test_enrich_retry_fills_all():
    from engine.ops.enrich import enrich_documents

    df = _to_pandas(enrich_documents(SF))
    assert len(df) == 500
    assert df["enrich_ok"].all()  # retries recovered every transient failure
    assert df["summary"].str.startswith("summary[").all()


def test_timeout_wrapper():
    import time

    from engine.ops.enrich import run_with_timeout

    assert run_with_timeout(lambda: 42, timeout_s=5) == 42
    t0 = time.time()
    out = run_with_timeout(lambda: time.sleep(8) or 1, timeout_s=0.3, default="TO")
    assert out == "TO"
    assert time.time() - t0 < 5


# ---------------------------------------------------------------------------
def test_custom_analyzer_end_to_end(tmp_path):
    """Custom analyzer (stopwords + min_len) stays rank-identical vs the
    oracle configured identically (SURVEY.md §2.10 extension surface)."""
    from engine import synth
    from engine.analyze import AnalyzerConfig, tokenize
    from engine.build import build_index
    from engine.oracle import OracleIndex
    from engine.query import IndexReader

    cfg = AnalyzerConfig(stopwords=frozenset({synth.HEAD_TERMS[0]}), min_len=3)
    assert tokenize("a bb ccc " + synth.HEAD_TERMS[0], cfg) == ["ccc"]

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 300, num_files=2)
    idx_dir = str(tmp_path / "idx")
    build_index(pages_dir, idx_dir, num_partitions=2, analyzer=cfg)
    reader = IndexReader(idx_dir)
    assert reader.analyzer == cfg
    oracle = OracleIndex(synth.gen_pages_table(300), analyzer=cfg)
    q = synth.HEAD_TERMS[0] + " " + synth.VOCAB[150] + " " + synth.VOCAB[400]
    got = reader.search(q, k=10)
    want = oracle.search(q, k=10)
    assert got == want
    # the stopworded head term contributes nothing
    assert reader.search(synth.HEAD_TERMS[0], k=5) == []


# ---------------------------------------------------------------------------
def test_multimodal_features():
    from engine.ops.multimodal import (
        _fixture_payloads,
        media_features,
        sniff_content_type,
    )

    assert sniff_content_type(b"PK\x03\x04rest") == "application/zip"
    assert sniff_content_type(b"\x1f\x8b\x08") == "application/gzip"
    assert sniff_content_type(b"\x89PNG\r\n\x1a\nxx") == "image/png"
    assert sniff_content_type(b"RIFF\x24\x00\x00\x00WAVEfmt ") == "audio/wav"
    assert sniff_content_type(b"RIFF\x24\x00\x00\x00AVI ") == (
        "application/octet-stream"
    )
    tar = b"notes.txt".ljust(257, b"\x00") + b"ustar\x0000" + b"\x00" * 64
    assert sniff_content_type(tar) == "application/x-tar"
    assert sniff_content_type(b"") == "application/empty"
    assert sniff_content_type(b"random bytes here") == "application/octet-stream"

    def features():
        return _to_pandas(media_features(SF)).set_index("media_id").sort_index()

    df = features()
    assert len(df) == 200
    assert list(df.columns) == ["content_type", "n_bytes", "embedding"]
    types = df["content_type"]
    assert types[0] == "image/png"
    assert types[1] == "image/bmp"
    assert types[2] == "image/x-portable-pixmap"
    assert types[3] == "audio/wav"
    assert types[4] == "image/jpeg"
    assert types[5] == "application/zip"
    assert types[6] == "application/gzip"
    assert types[7] == "application/empty"
    assert (types[8:] == "text/html").all()
    payloads = _fixture_payloads()
    assert df["n_bytes"].tolist() == [len(p) for p in payloads]
    embs = np.array(df["embedding"].tolist())
    assert embs.shape == (200, 16)
    assert np.allclose(np.linalg.norm(embs, axis=1), 1.0, atol=1e-5)
    assert np.array_equal(np.array(features()["embedding"].tolist()), embs)


# ---------------------------------------------------------------------------
def test_pagination_and_sampling_vs_duckdb():
    import duckdb

    import __ray_entry__ as e

    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    for name in ("events_page3", "events_sample_stats"):
        got = _to_pandas(e.queries()[name](SF))
        want = con.sql(e.oracle_sql()[name]).df()
        got = got[sorted(got.columns)].reset_index(drop=True)
        want = want[sorted(want.columns)].reset_index(drop=True)
        gs = got.sort_values(list(got.columns)).reset_index(drop=True)
        ws = want.sort_values(list(want.columns)).reset_index(drop=True)
        for c in gs.columns:
            if pd.api.types.is_float_dtype(gs[c]):
                assert np.allclose(gs[c], ws[c].astype("float64"), rtol=0, atol=0), (name, c)
            else:
                assert gs[c].astype(str).equals(ws[c].astype(str)), (name, c)


def test_q_measure_perfect_and_degraded():
    import pandas as pd

    from engine.evaluate import evaluate_ranking

    qrels = pd.DataFrame(
        {"query_id": [0, 0, 0], "doc_id": [1, 2, 3], "grade": [1.0, 0.5, 0.5]}
    )
    perfect = pd.DataFrame(
        {"query_id": [0, 0, 0], "rank": [1, 2, 3], "doc_id": [1, 2, 3]}
    )
    df = evaluate_ranking(perfect, qrels, k=10)
    row = df[df.query_id == 0].iloc[0]
    assert row["q_at_k"] == 1.0  # ideal ranking -> Q = 1
    # drop one relevant doc out of the list: Q < 1 (R-normalized)
    partial = pd.DataFrame(
        {"query_id": [0, 0, 0], "rank": [1, 2, 3], "doc_id": [1, 2, 99]}
    )
    df2 = evaluate_ranking(partial, qrels, k=10)
    assert 0.0 < df2[df2.query_id == 0].iloc[0]["q_at_k"] < 1.0
