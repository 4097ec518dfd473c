"""Positional index conformance: build_index(store_positions=True) stores
per-posting token positions in the segment chunks; phrase queries resolve
adjacency from the index (no doc-store read) and must be rank- and
score-identical to both the oracle and the verify-based (text-fetch) path."""

import numpy as np
import pytest

from engine import synth
from engine.analyze import tokenize
from engine.build import build_index
from engine.oracle import OracleIndex
from engine.query import IndexReader

N_DOCS = 400


@pytest.fixture(scope="module")
def pos_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("posidx")
    pages_dir = str(root / "pages")
    synth.write_pages(pages_dir, N_DOCS, num_files=4)
    pos_dir = str(root / "index_pos")
    plain_dir = str(root / "index_plain")
    build_index(pages_dir, pos_dir, num_partitions=2, store_positions=True)
    build_index(pages_dir, plain_dir, num_partitions=2)
    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    return IndexReader(pos_dir), IndexReader(plain_dir), oracle


def test_positions_flag_recorded(pos_index):
    pos_reader, plain_reader, _ = pos_index
    assert pos_reader.has_positions and not plain_reader.has_positions


def test_positions_match_tokenized_text(pos_index):
    """Stored positions == occurrence indices in the analyzed token stream."""
    pos_reader, _, oracle = pos_index
    dids = sorted(oracle.docs)[:25]
    for did in dids:
        toks = tokenize(oracle.docs[did].text, oracle.analyzer)
        for term in sorted(set(toks))[:10]:
            expect = np.array(
                [i for i, t in enumerate(toks) if t == term], dtype=np.int32
            )
            got = pos_reader._positions_of(term, did)
            assert np.array_equal(got, expect), (did, term)


def test_plain_scoring_unaffected(pos_index):
    """Non-phrase queries on a positional index score identically."""
    pos_reader, plain_reader, _ = pos_index
    q = f"{synth.HEAD_TERMS[0]} {synth.VOCAB[200]}"
    assert pos_reader.search(q, k=10) == plain_reader.search(q, k=10)


def _phrase_queries(oracle):
    did = sorted(oracle.docs)[11]
    toks = tokenize(oracle.docs[did].text, oracle.analyzer)
    h = synth.HEAD_TERMS
    return [
        f'"{toks[0]} {toks[1]}"',
        f'{h[0]} "{toks[2]} {toks[3]} {toks[4]}"',
        f'{h[1]} -"{toks[0]} {toks[1]}"',
        f'"{h[0]} {h[0]}"',  # repeated-term phrase
        f'"{toks[1]} {toks[0]}"',  # reversed order: adjacency-sensitive
    ]


def test_phrase_rank_identical_to_oracle_and_verify_path(pos_index):
    pos_reader, plain_reader, oracle = pos_index
    for q in _phrase_queries(oracle):
        exp = oracle.search_boolean(q, k=10)
        got_pos = pos_reader.search_boolean(q, k=10)
        got_txt = plain_reader.search_boolean(q, k=10)
        assert [d for d, _ in got_pos] == [d for d, _ in exp], q
        assert got_pos == got_txt, q
        for (gd, gs), (ed, es) in zip(got_pos, exp):
            assert gs == es, (q, gd)


def test_slop_positional_matches_verify_and_oracle(pos_index):
    """Proximity queries (~N) resolve off the position lists and agree with
    both the text-verify path and the oracle, including the slop=0 exact
    case through the unified range-chain."""
    pos_reader, plain_reader, oracle = pos_index
    did = sorted(oracle.docs)[11]
    toks = tokenize(oracle.docs[did].text, oracle.analyzer)
    h = synth.HEAD_TERMS
    for q in (
        f'"{toks[0]} {toks[2]}"~1',   # matches only with slop
        f'"{toks[0]} {toks[2]}"',     # exact: source doc does NOT match
        f'{h[0]} "{toks[1]} {toks[3]}"~2',
        f'{h[1]} -"{toks[0]} {toks[2]}"~1',
        f'"{h[0]} {h[1]}"~4',
    ):
        exp = oracle.search_boolean(q, k=10)
        got_pos = pos_reader.search_boolean(q, k=10)
        got_txt = plain_reader.search_boolean(q, k=10)
        assert [d for d, _ in got_pos] == [d for d, _ in exp], q
        assert got_pos == got_txt, q


def test_positional_verify_does_not_touch_doc_store(pos_index, monkeypatch):
    pos_reader, _, oracle = pos_index
    q = _phrase_queries(oracle)[0]

    def _boom(*a, **kw):  # noqa: ANN002
        raise AssertionError("positional phrase eval must not fetch docs")

    monkeypatch.setattr(pos_reader, "fetch_docs", _boom)
    assert pos_reader.search_boolean(q, k=5)


def test_positions_resume_toggle(tmp_path):
    """Toggling store_positions re-runs postings but reuses extract."""
    pages_dir = str(tmp_path / "pages")
    idx = str(tmp_path / "idx")
    synth.write_pages(pages_dir, 120, num_files=2)
    m1 = build_index(pages_dir, idx, num_partitions=2)
    assert m1["skipped_extract"] == 0
    m2 = build_index(pages_dir, idx, num_partitions=2, store_positions=True)
    assert m2["skipped_extract"] == 2  # doc store valid, postings re-run
    assert m2["skipped_postings"] == 0
    r = IndexReader(idx)
    assert r.has_positions
    oracle = OracleIndex(synth.gen_pages_table(120))
    q = f'"{tokenize(oracle.docs[sorted(oracle.docs)[3]].text)[0]}"'
    assert [d for d, _ in r.search_boolean(q, k=5)] == [
        d for d, _ in oracle.search_boolean(q, k=5)
    ]


def _synonyms_oracle(oracle, groups, k):
    """search_synonyms' semantics straight off the oracle's postings: per
    group, tf summed over members and df = |union of member postings|."""
    from engine.schema import B, K1

    scores: dict[int, float] = {}
    for group in groups:
        tf: dict[int, float] = {}
        for t in sorted(set(group)):
            for did, n in oracle.postings.get(t, {}).items():
                tf[did] = tf.get(did, 0.0) + float(n)
        df = len(tf)
        idf = float(np.log((oracle.n_docs - df + 0.5) / (df + 0.5) + 1.0))
        for did, g in tf.items():
            dl = float(oracle.docs[did].doclen)
            norm = (1.0 - B) + (B * dl) / oracle.avgdl
            imp = idf * (g * (K1 + 1.0) / (g + K1 * norm))
            scores[did] = scores.get(did, 0.0) + imp
    ranked = sorted(scores.items(), key=lambda kv: (-float(np.round(kv[1], 6)), kv[0]))
    return ranked[:k]


def test_fresh_reader_positions_and_synonyms(pos_index):
    """On the bucket-group layout, a fresh reader per query reads positions
    (_token_positions: a salted hot term's chunks merge into one sorted
    run) and raw postings for synonym groups (_term_postings_raw) through
    the lexicon, and both agree with the oracle."""
    pos_reader, _, oracle = pos_index
    d = pos_reader.index_dir
    hot = synth.HEAD_TERMS[0]
    r = IndexReader(d)
    assert len(r._lex.chunks(hot)) > 1  # salted
    assert r._token_positions("zzqqoovnothing") == []
    ((ids, offs, flat),) = r._token_positions(hot)
    assert ids.size == r.df(hot)
    assert np.all(np.diff(ids.astype(np.int64)) > 0)
    r._load_docmeta()
    meta_ids = r._docmeta[0]
    for j in range(0, ids.size, max(1, ids.size // 25)):
        did = int(meta_ids[int(ids[j])])
        toks = tokenize(oracle.docs[did].text, oracle.analyzer)
        want = [i for i, t in enumerate(toks) if t == hot]
        assert flat[offs[j] : offs[j + 1]].tolist() == want, did
    for q in _phrase_queries(oracle):
        want = oracle.search_boolean(q, k=10)
        assert IndexReader(d).search_boolean(q, k=10) == want, q
    for groups in (
        [[hot, synth.VOCAB[200]], [synth.VOCAB[300]]],
        [[synth.HEAD_TERMS[1], synth.HEAD_TERMS[2]]],
    ):
        want = _synonyms_oracle(oracle, groups, 10)
        assert want
        assert IndexReader(d).search_synonyms(groups, k=10) == want, groups
