"""End-to-end conformance: distributed build + BMW query vs the
single-process oracle (FIXTURES.md §3) — rank-identical docIDs AND float64
scores on the fixed 73-query set, byte-identical extracted text per url."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from engine import synth
from engine._testing import segment_rows
from engine.build import build_index
from engine.oracle import OracleIndex, expected_topk_table
from engine.query import IndexReader

N_DOCS = 1000


@pytest.fixture(scope="module")
def built_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    pages_dir = str(root / "pages")
    index_dir = str(root / "index")
    synth.write_pages(pages_dir, N_DOCS, num_files=6)
    metrics = build_index(pages_dir, index_dir, num_partitions=3)
    return pages_dir, index_dir, metrics


def test_build_metrics(built_index):
    _, _, metrics = built_index
    # 1000 generated rows, one duplicated url -> 999 docs in the index
    assert metrics["n_docs"] == N_DOCS - 1
    assert metrics["n_terms"] > 100
    assert metrics["avgdl"] > 0
    assert metrics["n_hot_terms"] > 0, "Zipf head should produce salted terms"


def test_extracted_byte_identical(built_index):
    pages_dir, index_dir, _ = built_index
    pages = synth.gen_pages_table(N_DOCS)
    truth = {}
    for r in pages.to_pylist():
        # keep-latest per url: later row index wins in the fixture
        truth[r["url"]] = r["text"]
    ext = pads.dataset(os.path.join(index_dir, "extracted")).to_table(
        columns=["url", "warc_ts", "text"]
    )
    # pick the latest row per url (extracted keeps losers as doc-store rows)
    best = {}
    for r in ext.to_pylist():
        if r["url"] not in best or r["warc_ts"] > best[r["url"]][0]:
            best[r["url"]] = (r["warc_ts"], r["text"])
    assert set(best) == set(truth)
    for url, (_, text) in best.items():
        assert text == truth[url], f"byte mismatch for {url}"


@pytest.mark.parametrize("method", ["bmw", "vectorized", "maxscore", "auto"])
def test_topk_rank_identical(built_index, method):
    pages_dir, index_dir, _ = built_index
    pages = synth.gen_pages_table(N_DOCS)
    queries = synth.gen_queries_table(73)
    expected = expected_topk_table(pages, queries)
    reader = IndexReader(index_dir)
    got = reader.topk_table(queries, method=method)
    assert got.num_rows == expected.num_rows, (
        f"result count mismatch: {got.num_rows} vs {expected.num_rows}"
    )
    e, g = expected.to_pylist(), got.to_pylist()
    for i, (er, gr) in enumerate(zip(e, g)):
        assert gr["query_id"] == er["query_id"] and gr["rank"] == er["rank"]
        assert gr["doc_id"] == er["doc_id"], (
            f"row {i} q{er['query_id']} rank {er['rank']}: "
            f"doc {gr['doc_id']} != {er['doc_id']}"
        )
        assert gr["score"] == er["score"], (
            f"row {i} q{er['query_id']}: score {gr['score']!r} != {er['score']!r}"
        )
        assert gr["url"] == er["url"]


def test_filters_and_rerank_present(built_index):
    # the query set must actually exercise filters and the rerank path
    queries = synth.gen_queries_table(73).to_pylist()
    assert any(q["lang_filter"] for q in queries)
    assert any(q["ts_min"] is not None for q in queries)
    assert any(q["prior_weight"] > 0 for q in queries)


def test_search_basics(built_index):
    _, index_dir, _ = built_index
    reader = IndexReader(index_dir)
    res = reader.search(synth.HEAD_TERMS[0], k=5)
    assert len(res) == 5
    scores = [s for _, s in res]
    assert scores == sorted(scores, reverse=True)
    assert reader.search("zzqqoovnothing", k=5) == []
    # filter-only-lang query returns only en docs
    res = reader.search(synth.HEAD_TERMS[0], k=10, lang_filter="de")
    docs = reader.fetch_docs([d for d, _ in res], columns=["doc_id", "lang", "warc_ts"])
    assert set(docs["lang"].to_pylist()) <= {"de"}


def test_oracle_against_bruteforce_sanity():
    """Cross-check the oracle itself with an independent numpy BM25."""
    pages = synth.gen_pages_table(200)
    idx = OracleIndex(pages)
    from engine.analyze import tokenize
    from engine.schema import B, K1

    q = synth.HEAD_TERMS[0] + " " + synth.VOCAB[150]
    terms = sorted(set(tokenize(q)))
    scores = {}
    for t in terms:
        df = len(idx.postings.get(t, {}))
        if not df:
            continue
        w = float(np.log((idx.n_docs - df + 0.5) / (df + 0.5) + 1.0))
        for did, tf in idx.postings[t].items():
            dl = idx.docs[did].doclen
            imp = tf * (K1 + 1.0) / (tf + K1 * ((1.0 - B) + (B * dl) / idx.avgdl))
            scores[did] = scores.get(did, 0.0) + w * imp
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = idx.search(q, k=10)
    assert [d for d, _ in got] == [d for d, _ in want]


def test_sparse_path_bitwise_equals_dense(built_index):
    """The sparse (sort+reduceat) scorer returns bitwise-identical float64
    scores to the dense accumulator, with and without metadata filters."""
    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    queries = [
        synth.VOCAB[500] + " " + synth.VOCAB[800],
        synth.HEAD_TERMS[0] + " " + synth.VOCAB[300] + " " + synth.VOCAB[900],
    ]
    for q in queries:
        terms = sorted(set(t for t in q.split()))
        tcs = []
        for t in terms:
            chunks = [c for c in r._load_chunks(t) if c[0].size]
            if chunks:
                tcs.append((t, r.idf(t), chunks))
        for mask in (None, r._filter_mask("en", None, None)):
            assert r._sparse(tcs, 10, mask) == r._vectorized(tcs, 10, mask)


def test_segments_store_dense_docnos(built_index):
    """FORMAT_VERSION 9 structural contract: every decoded posting id is a
    dense docno in [0, n_docmeta) — NOT a raw 64-bit url-hash — and mapping
    docnos through the doc_id-sorted docmeta order recovers exactly the
    oracle's posting doc_ids per term.  This is what lets filter masks index
    postings directly and cuts the dominant v8 segment bytes (~2^64/df
    delta gaps) to ~N/df."""
    pages_dir, index_dir, metrics = built_index
    r = IndexReader(index_dir)
    r._load_docmeta()
    meta_ids = r._docmeta[0]
    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    terms = [synth.HEAD_TERMS[0], synth.VOCAB[300], synth.VOCAB[800]]
    segs = segment_rows(index_dir)
    for t in terms:
        rows = segs.filter(pc.equal(segs["term"], t))
        docnos = np.sort(
            pc.list_flatten(rows["doc_ids"]).to_numpy().astype(np.uint64)
        )
        assert docnos.size == r.df(t)
        assert docnos.max() < meta_ids.size  # dense, not hash-valued
        got_ids = np.sort(meta_ids[docnos.astype(np.int64)])
        want = np.sort(
            np.array(sorted(oracle.postings[t]), dtype=np.uint64)
        )
        assert np.array_equal(got_ids, want), t


def test_older_format_index_raises_rebuild_error(tmp_path):
    """A FORMAT_VERSION 10 index (binary varint/PFor posting cells) cannot
    be read by the v11 reader: opening it raises the rebuild error before
    any segment file is touched."""
    import json

    with open(tmp_path / "stats.json", "w") as f:
        json.dump({"format_version": 10, "n_docs": 1, "avgdl": 1.0}, f)
    with pytest.raises(ValueError, match="rebuild the index"):
        IndexReader(str(tmp_path))


def test_datetime_ts_filters(built_index):
    """ts_min/ts_max accept datetime as well as int64 microseconds, in
    search and search_boolean (the window used to raise TypeError on a
    datetime, because only topk_table converted it)."""
    import datetime

    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    r._load_docmeta()
    ts = np.sort(r._docmeta[2])
    lo, hi = int(ts[ts.size // 4]), int(ts[3 * ts.size // 4])
    epoch = datetime.datetime(1970, 1, 1)
    dlo = epoch + datetime.timedelta(microseconds=lo)
    dhi = epoch + datetime.timedelta(microseconds=hi)
    q = synth.HEAD_TERMS[0]
    want = OracleIndex(synth.gen_pages_table(N_DOCS)).search(
        q, k=10, ts_min=lo, ts_max=hi
    )
    assert want
    assert r.search(q, k=10, ts_min=lo, ts_max=hi) == want
    assert r.search(q, k=10, ts_min=dlo, ts_max=dhi) == want
    bq = f"{q} +{synth.HEAD_TERMS[1]}"
    assert r.search_boolean(bq, k=10, ts_min=dlo, ts_max=dhi) == r.search_boolean(
        bq, k=10, ts_min=lo, ts_max=hi
    )


def _cold_terms(index_dir, n):
    """The n most frequent terms that are not hot (one unsalted chunk)."""
    r = IndexReader(index_dir)
    thr = r.stats["hot_df_threshold"]
    cold = [t for t, d in zip(r._lex.terms, r._lex.dfs) if 1 < d <= thr]
    return sorted(cold, key=r.df, reverse=True)[:n]


def test_lexicon_fresh_reader_rank_identical(built_index):
    """Each query on a FRESH reader (nothing cached: every term is looked
    up in the lexicon and read from its row groups) is rank- and
    float64-identical to the oracle, for single-term, multi-term and salted
    hot-term queries on every scoring path."""
    _, index_dir, _ = built_index
    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    r = IndexReader(index_dir)
    thr = r.stats["hot_df_threshold"]
    hot = [t for t in synth.HEAD_TERMS[:3] if r.df(t) > thr]
    cold = _cold_terms(index_dir, 2)
    assert len(hot) == 3 and len(cold) == 2
    queries = [
        cold[0], hot[0], f"{cold[0]} {cold[1]}",
        f"{hot[0]} {cold[0]}", " ".join(hot), f"{hot[1]} zzqqoovnothing",
    ]
    for q in queries:
        want = oracle.search(q, k=10)
        assert want, q
        for method in ("auto", "bmw", "maxscore", "vectorized"):
            assert IndexReader(index_dir).search(q, k=10, method=method) == want, (
                q, method,
            )


def test_lexicon_point_reads(built_index, monkeypatch):
    """A cold term's first _load_chunks is exactly one row-group read; a
    salted hot term reads only its own row groups, each once, all from its
    bucket group's one segment file; a second load reads nothing."""
    import pyarrow.parquet as pq

    from engine.schema import NUM_BUCKET_GROUPS, term_bucket

    _, index_dir, _ = built_index
    calls = []
    for name in ("read_row_group", "read_row_groups"):
        real = getattr(pq.ParquetFile, name)

        def counted(self, i, *a, _real=real, **kw):
            calls.append((self, i))
            return _real(self, i, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, name, counted)
    thr = IndexReader(index_dir).stats["hot_df_threshold"]
    cold = _cold_terms(index_dir, 1)[0]
    for term, hot in ((cold, False), (synth.HEAD_TERMS[0], True)):
        r = IndexReader(index_dir)
        assert (r.df(term) > thr) == hot
        addr = r._lex.chunks(term)
        calls.clear()
        chunks = r._load_chunks(term)
        assert sum(c[0].size for c in chunks) == r.df(term)
        bg = term_bucket(term) % NUM_BUCKET_GROUPS
        assert {pf for pf, _ in calls} == {r._seg_files[bg]}
        assert sorted(i for _, i in calls) == sorted({rg for rg, _ in addr})
        if hot:
            assert len(addr) > 1
        else:
            assert len(calls) == 1
        calls.clear()
        r._load_chunks(term)
        assert calls == []
