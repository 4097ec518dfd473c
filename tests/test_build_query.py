"""End-to-end conformance: distributed build + BM25 query vs the
single-process oracle (FIXTURES.md §3) — rank-identical docIDs AND float64
scores on the fixed 73-query set, byte-identical extracted text per url."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pytest

from engine import synth
from engine._testing import check_chunk_layout, force_scorer, segment_rows
from engine.build import build_index
from engine.oracle import OracleIndex, expected_topk_table
from engine.query import IndexReader
from engine.schema import ts_to_us

N_DOCS = 1000
# `auto` is the engine's own routing; the others force one internal scorer
# on every query (engine._testing.force_scorer)
PATHS = ("auto", "maxscore", "vectorized")


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
    assert metrics["n_hot_terms"] > 0, "Zipf head should produce hot terms"


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


@pytest.mark.parametrize("path", PATHS)
def test_topk_rank_identical(built_index, path):
    pages_dir, index_dir, _ = built_index
    pages = synth.gen_pages_table(N_DOCS)
    queries = synth.gen_queries_table(73)
    expected = expected_topk_table(pages, queries)
    reader = IndexReader(index_dir)
    force_scorer(reader, path)
    got = reader.topk_table(queries)
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
            run = r._load_chunks(t)
            if run.docnos.size:
                tcs.append((t, r.idf(t), run))
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
    """A FORMAT_VERSION 12 index (zstd segment files whose footers carry
    no pairing token) cannot be read by the v13 reader: opening it raises
    the rebuild error before any segment file is touched."""
    import json

    with open(tmp_path / "stats.json", "w") as f:
        json.dump({"format_version": 12, "n_docs": 1, "avgdl": 1.0}, f)
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
    """The n most frequent terms that are not hot (their chunks share
    their bucket's row group)."""
    r = IndexReader(index_dir)
    thr = r.stats["hot_df_threshold"]
    cold = [t for t, d in zip(r._lex.terms, r._lex.dfs) if 1 < d <= thr]
    return sorted(cold, key=r.df, reverse=True)[:n]


def test_lexicon_fresh_reader_rank_identical(built_index):
    """Each query on a FRESH reader (nothing cached: every term is looked
    up in the lexicon and read from its row groups) is rank- and
    float64-identical to the oracle, for single-term, multi-term and
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
        for path in PATHS:
            fresh = IndexReader(index_dir)
            force_scorer(fresh, path)
            assert fresh.search(q, k=10) == want, (q, path)


def _count_row_group_reads(monkeypatch) -> list:
    """(ParquetFile, row group or row-group list) of every read from now."""
    import pyarrow.parquet as pq

    calls = []
    for name in ("read_row_group", "read_row_groups"):
        real = getattr(pq.ParquetFile, name)

        def counted(self, i, *a, _real=real, **kw):
            calls.append((self, i))
            return _real(self, i, *a, **kw)

        monkeypatch.setattr(pq.ParquetFile, name, counted)
    return calls


def test_lexicon_point_reads(built_index, monkeypatch):
    """A term's first _load_chunks is exactly one row-group read, of the
    row group its one lexicon address names, in its bucket group's segment
    file; a hot term's row group holds that term alone, a cold term's holds
    its bucket's other cold terms too; a second load reads nothing."""
    import engine.query
    from engine.schema import NUM_BUCKET_GROUPS, term_bucket
    from engine.segments import RowGroup

    _, index_dir, _ = built_index
    calls = []

    class CountedRowGroup(RowGroup):
        __slots__ = ()

        def __init__(self, pf, rg, positions=False):
            calls.append((pf, rg))
            super().__init__(pf, rg, positions)

    monkeypatch.setattr(engine.query, "RowGroup", CountedRowGroup)
    thr = IndexReader(index_dir).stats["hot_df_threshold"]
    cold = _cold_terms(index_dir, 1)[0]
    for term, hot in ((cold, False), (synth.HEAD_TERMS[0], True)):
        r = IndexReader(index_dir)
        assert (r.df(term) > thr) == hot
        rg, row = r._lex.chunk(term)
        calls.clear()
        run = r._load_chunks(term)
        assert run.docnos.size == r.df(term)
        bg = term_bucket(term) % NUM_BUCKET_GROUPS
        assert calls == [(r._seg_files[bg], rg)]
        assert (bg, rg) in r._bucket_tables
        terms = r._seg_files[bg].read_row_group(rg, columns=["term"])
        terms = terms["term"].to_pylist()
        assert terms[row] == term
        assert (terms == [term]) == hot
        calls.clear()
        r._load_chunks(term)
        assert calls == []


def test_fetch_docs_reads_only_probed_row_groups(built_index, monkeypatch):
    """A fetch reads each doc-store row group whose doc_id [min, max]
    holds a probe, once, and no other; a second fetch of the same ids
    reads nothing (decoded row groups stay cached in the reader).  Under
    a cache too small for the misses, the same row groups are read past
    the cache and the answer is the same."""
    from engine import query

    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    r._load_docmeta()
    # the build's doc-store parts each span the whole hashed id range, so
    # only the extreme ids prune: probe the two smallest and the largest
    ids = sorted(int(x) for x in r._docmeta[0][[0, 1, -1]])
    keys, mins, maxs, _ = r._docstore_rg_index()
    want_keys = {
        key for key, lo, hi in zip(keys, mins, maxs)
        if any(lo <= i <= hi for i in ids)
    }
    want = {(r._ds_files[path], rg) for path, rg in want_keys}
    assert 0 < len(want) < len(keys)
    calls = _count_row_group_reads(monkeypatch)
    got = r.fetch_docs(ids, columns=["doc_id", "url"])
    assert sorted(got["doc_id"].to_pylist()) == ids
    assert len(calls) == len(set(calls)) and set(calls) == want
    calls.clear()
    again = r.fetch_docs(ids, columns=["doc_id", "url"])
    assert calls == [] and again.equals(got)
    # a subset, other columns: still served from the cache
    sub = r.fetch_docs(ids[:3], columns=["text", "lang"])
    assert calls == [] and sub.column_names == ["text", "lang"]
    assert sub.num_rows == 3
    # misses that would overflow the cache are read past it, same answer
    monkeypatch.setattr(query, "DOCSTORE_CACHE_BYTES", 1)
    r = IndexReader(index_dir)
    assert r.fetch_docs(ids, columns=["doc_id", "url"]).equals(got)
    path_of = {id(pf): path for path, pf in r._ds_files.items()}
    scanned = [(path_of[id(pf)], rg) for pf, rgs in calls for rg in rgs]
    assert len(r._ds_rows) == 0
    assert sorted(scanned) == sorted(want_keys)


def test_fetch_docs_keeps_latest_loser_row(built_index, tmp_path):
    """Doc-store rows sharing a doc_id (a url crawled twice) come back as
    the max-warc_ts row, whichever columns are asked for."""
    import shutil
    from datetime import timedelta

    import pyarrow.parquet as pq

    _, index_dir, _ = built_index
    copy = str(tmp_path / "index")
    shutil.copytree(index_dir, copy)
    r = IndexReader(copy)
    r._load_docmeta()
    older, newer = (int(x) for x in r._docmeta[0][[5, 6]])
    cur = r.fetch_docs([older, newer]).sort_by("doc_id")
    day = timedelta(days=1)
    shift = {older: -day, newer: day}
    ids = cur["doc_id"].to_pylist()
    extra = cur.set_column(
        cur.schema.get_field_index("warc_ts"), "warc_ts",
        pa.array([t + shift[d] for d, t in zip(ids, cur["warc_ts"].to_pylist())],
                 cur.schema.field("warc_ts").type),
    ).set_column(
        cur.schema.get_field_index("text"), "text",
        pa.array(["fresh copy" if d == newer else "stale copy" for d in ids]),
    )
    os.makedirs(os.path.join(copy, "extracted", "pid=999"))
    pq.write_table(extra, os.path.join(copy, "extracted", "pid=999", "part-x.parquet"))
    want = {d: "fresh copy" if d == newer else t
            for d, t in zip(ids, cur["text"].to_pylist())}
    r = IndexReader(copy)
    for cols in (None, ["doc_id", "text"], ["text"]):
        got = r.fetch_docs([older, newer], columns=cols)
        # rows sharing a doc_id come back doc_id-sorted, one per id
        assert got["text"].to_pylist() == [want[d] for d in ids], cols


def test_hot_term_loads_as_one_run(built_index):
    """A hot term (df > HOT_TERM_DF_FRACTION * N) is stored as ONE
    docno-sorted chunk and loads as one run: its docnos are the stored
    chunk's, its impacts the oracle formula over its tfs, its block maxima
    codec.block_metadata over the run."""
    from engine import codec
    from engine.schema import HOT_TERM_DF_FRACTION

    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    r._load_docmeta()
    segs = segment_rows(index_dir)
    hot = synth.HEAD_TERMS[0]
    assert r.df(hot) > HOT_TERM_DF_FRACTION * r.n_docs
    rows = segs.filter(pc.equal(segs["term"], hot))
    assert rows.num_rows == 1
    ids = pc.list_flatten(rows["doc_ids"]).to_numpy().astype(np.int64)
    tfs = pc.list_flatten(rows["tfs"]).to_numpy().astype(np.float64)

    run = r._load_chunks(hot)
    assert np.array_equal(run.docnos, ids)
    assert np.all(np.diff(run.docnos) > 0)
    k1, b = float(r.stats["k1"]), float(r.stats["b"])
    dls = r._docmeta[3][ids].astype(np.float64)
    want = tfs * (k1 + 1.0) / (tfs + k1 * ((1.0 - b) + (b * dls) / r.avgdl))
    assert np.array_equal(run.impacts, want)
    mx = codec.block_metadata(run.docnos, run.impacts)
    assert np.array_equal(run.block_max, mx)
    assert run.max_impact == want.max()
    assert r._load_chunks(hot) is run  # cached per term


def test_methods_oracle_identical_on_hot_and_cold_terms(built_index, tmp_path):
    """`auto` and every forced scorer return the oracle's ranking and
    float64 scores on queries mixing hot terms (each alone in its row
    group) and cold terms (sharing their bucket's row group), under
    lang/ts filters and tombstones (deleted docs drop out of the oracle's
    ranking; stats stay as-built until compaction).  Boolean must /
    must-not queries compose the same masks, and never modify the
    reader's cached tombstone mask."""
    import shutil

    from engine.build import delete_docs

    _, index_dir, _ = built_index
    copy = str(tmp_path / "index")
    shutil.copytree(index_dir, copy)
    r = IndexReader(copy)
    terms = sorted(r._lex.terms.tolist())
    thr = r.stats["hot_df_threshold"]
    hot = [t for t in terms if r.df(t) > thr]
    cold = [t for t in terms if 5 <= r.df(t) <= thr]
    assert len(hot) >= 4 and len(cold) >= 12
    queries = []
    for i in range(4):
        h1, h2 = hot[i], hot[(i + 1) % len(hot)]
        c1, c2 = cold[3 * i], cold[3 * i + 1]
        queries += [f"{h1} {c1}", f"{h1} {h2} {c2}", f"{c1} {c2} {h2}"]
    dead = {d for d, _ in r.search(f"{hot[0]} {cold[0]}", k=3)}
    dead |= {d for d, _ in r.search(hot[1], k=2)}
    delete_docs(copy, doc_ids=sorted(dead))

    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    ts = [q for q in synth.gen_queries_table(73).to_pylist() if q["ts_min"] is not None][0]
    filters = [
        {}, {"lang_filter": "en"},
        {"ts_min": ts["ts_min"], "ts_max": ts["ts_max"]},
    ]
    readers = {p: IndexReader(copy) for p in PATHS}
    for p, reader in readers.items():
        force_scorer(reader, p)
    r = readers["auto"]
    assert r._tombstone_mask() is not None
    alive = r._tombstone_mask().copy()
    extra = len(dead)
    hits = 0
    for q in queries:
        for f in filters:
            o = {k: ts_to_us(v) if k.startswith("ts") else v for k, v in f.items()}
            want = [h for h in oracle.search(q, k=10 + extra, **o) if h[0] not in dead][:10]
            hits += len(want)
            for p, reader in readers.items():
                assert reader.search(q, k=10, **f) == want, (q, f, p)
        a, b, *_ = q.split()
        for bq in (f"+{a} {b}", f"{a} {b} -{hot[2]}", f"+{b} -{a}"):
            want = [h for h in oracle.search_boolean(bq, k=10 + extra) if h[0] not in dead][:10]
            for p, reader in readers.items():
                assert reader.search_boolean(bq, k=10) == want, (bq, p)
    assert hits > 0
    assert r._filter_mask(None, None, None) is r._tombstone_mask()
    assert np.array_equal(r._tombstone_mask(), alive)



def test_each_scoring_path_oracle_identical(built_index, tmp_path):
    """Each internal scorer, called directly on `_gather_chunks` runs under
    `_filter_mask` masks (lang and crawl-time filters composed with
    tombstones), returns the oracle's top-k, float64-bitwise:
    `_single_term` (block-max and its flat exit) on one-term queries,
    `_sparse`, `_maxscore` and `_vectorized` on every query.  `_maxscore`
    takes both of its branches here, as the cost model picks them and each
    forced: pruned candidate scoring, and the dense fallback, seen as a
    call of `_vectorized`."""
    import math
    import shutil
    from unittest import mock

    from engine import query

    from engine.build import delete_docs

    _, index_dir, _ = built_index
    copy = str(tmp_path / "index")
    shutil.copytree(index_dir, copy)
    r = IndexReader(copy)
    thr = r.stats["hot_df_threshold"]
    hot = [t for t in synth.HEAD_TERMS[:3] if r.df(t) > thr]
    cold = _cold_terms(copy, 3)
    assert len(hot) == 3 and len(cold) == 3
    queries = [
        hot[0], cold[0], f"{hot[0]} {cold[0]}", f"{cold[0]} {cold[1]} {cold[2]}",
        f"{hot[0]} {hot[1]}", " ".join(hot), f"{hot[1]} {cold[1]} {cold[2]}",
    ]
    dead = {d for d, _ in r.search(hot[0], k=3)}
    dead |= {d for d, _ in r.search(f"{cold[0]} {cold[1]}", k=2)}
    delete_docs(copy, doc_ids=sorted(dead))

    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    ts = [q for q in synth.gen_queries_table(73).to_pylist() if q["ts_min"] is not None][0]
    filters = [
        (None, None, None), ("en", None, None), (None, ts["ts_min"], ts["ts_max"]),
    ]
    r = IndexReader(copy)
    vectorized = r._vectorized
    dense_calls = []

    def counted(*args):
        dense_calls.append(args)
        return vectorized(*args)

    r._vectorized = counted  # what _maxscore's dense fallback calls
    inf = {p: (math.inf,) * len(c) for p, c in query._COST_COEFS.items()}
    forced = {"cost": {}, "pruned": {"vectorized": inf["vectorized"]},
              "dense": {"maxscore": inf["maxscore"]}}
    branches = set()
    for q in queries:
        terms = sorted(set(q.split()))
        for lang, lo, hi in filters:
            runs = r._gather_chunks(terms)
            mask = r._filter_mask(lang, lo, hi)
            assert mask is not None  # tombstones at least
            want = [
                h for h in oracle.search(
                    q, k=10 + len(dead), lang_filter=lang,
                    ts_min=ts_to_us(lo), ts_max=ts_to_us(hi),
                ) if h[0] not in dead
            ][:10]
            got = {
                "sparse": r._sparse(runs, 10, mask),
                "vectorized": vectorized(runs, 10, mask),
            }
            if len(runs) == 1:
                got["single_term"] = r._single_term(runs[0], 10, mask)
                got["flat"] = r._single_term(runs[0], 10, mask, prune=False)
            for name, coefs in forced.items():
                n = len(dense_calls)
                with mock.patch.dict(query._COST_COEFS, coefs):
                    got["maxscore_" + name] = r._maxscore(runs, 10, mask)
                branch = "dense" if len(dense_calls) > n else "pruned"
                assert name == "cost" or branch == name, (q, name)
                branches.add(branch)
            for path, top in got.items():
                assert r._docnos_to_ids(top) == want, (q, lang, lo, path)
    assert branches == {"dense", "pruned"}


def test_dispatch_routes_by_cost_model(built_index):
    """`_dispatch` takes the path the cost model (`_plan`) estimates
    cheapest.  Over the 1k-doc index's small docno space that is the dense
    scan for every multi-term conformance query and `_single_term`'s flat
    exit for every single-term one; runs sized like a 200k-doc index's
    route to block-max, MaxScore and sparse accumulation.  `force_scorer`
    still overrides the pick."""
    from engine.analyze import tokenize
    from engine.query import _Run

    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    seen = set()
    for q in synth.gen_queries_table(73).to_pylist():
        runs = r._gather_chunks(sorted(set(tokenize(q["query_text"], r.analyzer))))
        if runs:
            want = "flat" if len(runs) == 1 else "vectorized"
            assert r._plan(runs, q["k"]) == want, q["query_text"]
            seen.add(want)
    assert seen == {"flat", "vectorized"}

    def run(n):
        blocks = np.ones(-(-n // 128))
        return ("t", 1.0, _Run(np.arange(n, dtype=np.int64), np.ones(n), blocks, 1.0))

    big = IndexReader.__new__(IndexReader)  # only the docno-space size is read
    big._docno_count = 200_000
    assert big._plan([run(139_012)], 10) == "single_term"
    assert big._plan([run(251), run(2_703), run(117_996)], 5) == "maxscore"
    assert big._plan([run(502), run(951), run(37_517)], 10) == "maxscore"
    assert big._plan([run(217), run(220)], 10) == "sparse"

    q = f"{synth.HEAD_TERMS[0]} {synth.VOCAB[300]}"
    forced = IndexReader(index_dir)
    calls = []
    sparse = forced._sparse
    forced._sparse = lambda *a: calls.append(a) or sparse(*a)
    force_scorer(forced, "sparse")
    assert forced.search(q, k=5) == r.search(q, k=5)
    assert len(calls) == 1


def test_negative_k_is_rejected(built_index):
    """k < 0 raises a ValueError naming k (a negative k used to slice from
    the end and return almost every match); k = 0 returns no rows, also
    when a filter leaves no candidate (that used to raise IndexError)."""
    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    h = synth.HEAD_TERMS
    calls = [
        lambda k: r.search(h[0], k=k),
        lambda k: r.search_boolean(f"{h[0]} +{h[1]}", k=k),
        lambda k: r.search_synonyms([[h[0], h[1]]], k=k),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="k must be >= 0"):
            call(-1)
        assert call(0) == []
        assert len(call(3)) == 3
    for q in (h[0], f"{h[0]} {h[1]}"):
        assert r.search(q, k=0, lang_filter="xx") == []
        assert r.search_boolean(q, k=0, lang_filter="xx") == []


def test_complete_rejects_negative_k(built_index):
    """complete(prefix, k) raises on k < 0 like `search` (k=-1 used to
    slice from the end and return all but one matching term); k = 0
    returns no term, and a k past the matches returns them all."""
    _, index_dir, _ = built_index
    r = IndexReader(index_dir)
    prefix = synth.HEAD_TERMS[0][:1]
    every = r.complete(prefix, k=10**6)
    assert len(every) > 2
    with pytest.raises(ValueError, match="k must be >= 0"):
        r.complete(prefix, k=-1)
    assert r.complete(prefix, k=0) == []
    assert r.complete(prefix, k=2) == every[:2]


def test_one_chunk_per_term_layout(built_index):
    """The built index stores one chunk per term: one lexicon address each,
    every hot term alone in its row group, each bucket's cold terms in one
    shared row group (check_chunk_layout)."""
    _, index_dir, metrics = built_index
    n_hot, n_cold_groups = check_chunk_layout(index_dir)
    assert n_hot == metrics["n_hot_terms"] > 0
    assert n_cold_groups > 0
    r = IndexReader(index_dir)
    assert segment_rows(index_dir).num_rows == len(r._lex) == metrics["n_terms"]


def test_cli_query_prints_oracle_top_k(built_index, capsys):
    """`python -m engine query INDEX "terms" -k 3` prints one JSON line per
    hit: the oracle's doc_ids in rank order, with their urls."""
    import json

    from engine.__main__ import main

    _, index_dir, _ = built_index
    q = f"{synth.HEAD_TERMS[0]} {synth.VOCAB[300]}"
    want = OracleIndex(synth.gen_pages_table(N_DOCS)).search(q, k=3)
    assert len(want) == 3
    assert main(["query", index_dir, q, "-k", "3"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(x["rank"], x["doc_id"]) for x in lines] == [
        (i, d) for i, (d, _) in enumerate(want, 1)
    ]
    assert [x["score"] for x in lines] == [round(s, 6) for _, s in want]
    urls = IndexReader(index_dir).fetch_docs([d for d, _ in want], ["doc_id", "url"])
    assert {x["url"] for x in lines} == set(urls["url"].to_pylist())

def test_rerank_prior_bitwise_equals_oracle_scalar():
    """The doclen prior of the two-stage rerank, one gather and one
    vectorized log1p over the pool, equals the oracle's per-doc scalar
    `float(np.log1p(doclen))` bitwise over a wide range of doclens."""
    rng = np.random.default_rng(11)
    dls = np.concatenate([
        np.arange(1 << 17, dtype=np.int64),
        rng.integers(1 << 17, 1 << 31, 100_000, dtype=np.int64),
    ])
    r = IndexReader.__new__(IndexReader)
    r._docmeta = (None, None, None, dls, None)  # only doclens are read
    pool = [(d, float(s)) for d, s in enumerate(rng.random(dls.size) * 20.0)]
    for w in (0.25, 1.0, 3.7):
        want = [
            (d, s + w * float(np.log1p(int(dls[d])))) for d, s in pool
        ]
        want.sort(key=lambda kv: (-kv[1], kv[0]))
        assert r._rerank(pool, w) == want
