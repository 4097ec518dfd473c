"""Boolean query language conformance: +must / -not / "phrase" operators,
rank- and float64-score-identical between the distributed index and the
exhaustive oracle across every scoring path (engine/query.py parse_query)."""

import numpy as np
import pytest

from engine import synth
from engine._testing import force_scorer
from engine.analyze import tokenize
from engine.build import build_index
from engine.oracle import OracleIndex
from engine.query import BoolQuery, IndexReader, contains_sequence, parse_query

N_DOCS = 400


@pytest.fixture(scope="module")
def bool_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("boolidx")
    pages_dir = str(root / "pages")
    index_dir = str(root / "index")
    synth.write_pages(pages_dir, N_DOCS, num_files=4)
    build_index(pages_dir, index_dir, num_partitions=2)
    oracle = OracleIndex(synth.gen_pages_table(N_DOCS))
    return IndexReader(index_dir), oracle


def _scored_by(reader: IndexReader, path: str) -> IndexReader:
    """A fresh reader of the shared index whose every scoring call goes to
    `path` (engine._testing.force_scorer; "auto" is the engine's routing)."""
    fresh = IndexReader(reader.index_dir)
    force_scorer(fresh, path)
    return fresh


def _sample_phrase(oracle: OracleIndex, n: int, skip: int = 0) -> list[str]:
    """An adjacent token run actually present in some doc (deterministic)."""
    did = sorted(oracle.docs)[7 + skip]
    toks = tokenize(oracle.docs[did].text, oracle.analyzer)
    return toks[3 : 3 + n]


def _query_set(oracle: OracleIndex) -> list[str]:
    h = synth.HEAD_TERMS
    p2 = _sample_phrase(oracle, 2)
    p3 = _sample_phrase(oracle, 3, skip=5)
    return [
        f"{h[0]} +{h[1]}",
        f"{h[0]} -{h[1]}",
        f"+{h[0]} +{h[2]} {h[3]}",
        f'{h[0]} "{p2[0]} {p2[1]}"',
        f'{h[0]} -"{p2[0]} {p2[1]}"',
        f'"{p3[0]} {p3[1]} {p3[2]}"',
        f'"{h[1]}" {h[4]}',  # single-token phrase folds to +must
        f"{h[5]} {h[6]} -{h[0]} -{h[1]}",
    ]


def test_parse_query():
    bq = parse_query('window +agg -scan "hash join" -"slow query" +Big,')
    assert bq.should == ("window",)
    assert bq.must == ("agg", "big")
    assert bq.must_not == ("scan",)
    assert bq.phrases == (("hash", "join"),)
    assert bq.not_phrases == (("slow", "query"),)
    assert bq.scoring_terms == ["agg", "big", "hash", "join", "window"]
    assert bq.required_terms == ["agg", "big", "hash", "join"]
    # single-token phrases fold into must / must_not
    bq = parse_query('"solo" -"gone"')
    assert bq.must == ("solo",) and bq.must_not == ("gone",)
    assert bq.phrases == () and bq.not_phrases == ()
    # empty operands vanish
    bq = parse_query('+... "" - ')
    assert bq == parse_query("")


def test_contains_sequence():
    toks = "a b c a b d".split()
    assert contains_sequence(toks, ("a", "b", "d"))
    assert contains_sequence(toks, ("a", "b", "c"))
    assert not contains_sequence(toks, ("c", "b"))
    assert not contains_sequence(toks, ("b", "d", "x"))
    assert contains_sequence(toks, ("d",))
    assert contains_sequence(toks, ())
    assert not contains_sequence([], ("a",))


def test_contains_sequence_slop():
    toks = "a x b y c".split()
    assert not contains_sequence(toks, ("a", "b"))
    assert contains_sequence(toks, ("a", "b"), slop=1)
    assert not contains_sequence(toks, ("a", "c"), slop=2)
    assert contains_sequence(toks, ("a", "c"), slop=3)
    assert contains_sequence(toks, ("a", "b", "c"), slop=1)
    assert not contains_sequence(toks, ("b", "a"), slop=5)  # order matters
    # slop is per gap, not total
    toks2 = "a x b x x c".split()
    assert not contains_sequence(toks2, ("a", "b", "c"), slop=1)
    assert contains_sequence(toks2, ("a", "b", "c"), slop=2)


def test_parse_query_slop():
    bq = parse_query('"slow query"~2 -"hash join"~1 "exact pair"')
    assert bq.phrases == (("slow", "query"), ("exact", "pair"))
    assert bq.phrase_slops == (2, 0)
    assert bq.not_phrases == (("hash", "join"),)
    assert bq.not_phrase_slops == (1,)
    # slop on a single-token phrase folds to must; the suffix is moot
    assert parse_query('"solo"~3').must == ("solo",)


@pytest.mark.parametrize("path", ["auto", "maxscore"])
def test_slop_rank_identical(bool_index, path):
    reader, oracle = bool_index
    forced = _scored_by(reader, path)
    h = synth.HEAD_TERMS
    p2 = _sample_phrase(oracle, 2)
    p3 = _sample_phrase(oracle, 3, skip=5)
    # skip one token: the pair (p3[0], p3[2]) is adjacent only at slop>=1
    for q in (
        f'"{p3[0]} {p3[2]}"~1',
        f'{h[0]} "{p2[0]} {p2[1]}"~2',
        f'{h[0]} -"{p3[0]} {p3[2]}"~1',
        f'"{h[0]} {h[1]}"~3',
    ):
        exp = oracle.search_boolean(q, k=10)
        got = forced.search_boolean(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], (q, path)
        for (gd, gs), (ed, es) in zip(got, exp):
            assert gs == es, (q, path, gd)
    # slop widens the match set monotonically
    n0 = len(reader.search_boolean(f'"{p2[0]} {p2[1]}"', k=50))
    n2 = len(reader.search_boolean(f'"{p2[0]} {p2[1]}"~2', k=50))
    assert n2 >= n0


@pytest.mark.parametrize("path", ["auto", "vectorized", "maxscore"])
def test_boolean_rank_identical(bool_index, path):
    reader, oracle = bool_index
    forced = _scored_by(reader, path)
    for q in _query_set(oracle):
        exp = oracle.search_boolean(q, k=10)
        got = forced.search_boolean(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], (q, path)
        for (gd, gs), (ed, es) in zip(got, exp):
            assert gs == es, (q, path, gd, gs, es)


def test_boolean_semantics(bool_index):
    reader, oracle = bool_index
    h = synth.HEAD_TERMS
    res = reader.search_boolean(f"{h[0]} +{h[1]} -{h[2]}", k=20)
    assert res, "head terms should co-occur in a Zipf corpus"
    docs = reader.fetch_docs(
        [d for d, _ in res], columns=["doc_id", "warc_ts", "text"]
    )
    for txt in docs["text"].to_pylist():
        toks = set(tokenize(txt, reader.analyzer))
        assert h[1] in toks and h[2] not in toks
    # phrase results actually contain the adjacent sequence
    p2 = _sample_phrase(oracle, 2)
    res = reader.search_boolean(f'"{p2[0]} {p2[1]}"', k=20)
    assert res, "sampled phrase must match its source doc"
    docs = reader.fetch_docs(
        [d for d, _ in res], columns=["doc_id", "warc_ts", "text"]
    )
    for txt in docs["text"].to_pylist():
        assert contains_sequence(tokenize(txt, reader.analyzer), tuple(p2))


def test_boolean_empty_cases(bool_index):
    reader, _ = bool_index
    h = synth.HEAD_TERMS
    assert reader.search_boolean(f"-{h[0]}", k=5) == []  # pure negative
    assert reader.search_boolean(f"{h[0]} +zzqqnothing", k=5) == []
    assert reader.search_boolean('"zzqq nothing"', k=5) == []
    assert reader.search_boolean("", k=5) == []


def test_boolean_composes_with_filters(bool_index):
    reader, oracle = bool_index
    h = synth.HEAD_TERMS
    q = f"{h[0]} +{h[1]}"
    exp = oracle.search_boolean(q, k=10, lang_filter="en")
    got = reader.search_boolean(q, k=10, lang_filter="en")
    assert [d for d, _ in got] == [d for d, _ in exp]
    docs = reader.fetch_docs([d for d, _ in got], columns=["doc_id", "lang", "warc_ts"])
    assert set(docs["lang"].to_pylist()) <= {"en"}


def test_parse_query_wildcards():
    bq = parse_query("data* +ab* -cd* plain +Word,*")
    assert bq.should_prefix == ("data",)
    assert bq.must_prefix == ("ab", "word")
    assert bq.must_not_prefix == ("cd",)
    assert bq.should == ("plain",)
    # a bare "*" analyzes to nothing and vanishes
    assert parse_query("*") == parse_query("")


@pytest.mark.parametrize("path", ["auto", "maxscore"])
def test_wildcard_rank_identical(bool_index, path):
    reader, oracle = bool_index
    forced = _scored_by(reader, path)
    h = synth.HEAD_TERMS
    px = h[7][:4]  # a prefix with several vocab expansions
    for q in (
        f"{h[0]} {px}*",
        f"+{px}* {h[0]}",
        f"{h[0]} -{px}*",
        f"{px}*",
        f'{px}* "{h[0]} {h[1]}"',
        f"{h[0]} ba*",  # expansion count > MAX_PREFIX_EXPANSIONS: cap binds
    ):
        exp = oracle.search_boolean(q, k=10)
        got = forced.search_boolean(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in exp], (q, path)
        for (gd, gs), (ed, es) in zip(got, exp):
            assert gs == es, (q, path, gd)


def test_wildcard_semantics(bool_index):
    reader, _ = bool_index
    h = synth.HEAD_TERMS
    px = synth.VOCAB[700][:6]  # rare prefix: exclusion leaves survivors
    res = reader.search_boolean(f"{h[0]} -{px}*", k=20)
    assert res
    docs = reader.fetch_docs(
        [d for d, _ in res], columns=["doc_id", "warc_ts", "text"]
    )
    expansions = set(reader._expand_prefix(px))
    assert expansions, "prefix should expand against the synth vocab"
    for txt in docs["text"].to_pylist():
        assert not (set(tokenize(txt, reader.analyzer)) & expansions)
    # unmatched prefixes: as should -> nothing to rank; as must -> empty
    assert reader.search_boolean("zzqx*", k=5) == []
    assert reader.search_boolean(f"{h[0]} +zzqx*", k=5) == []


def test_boolean_plain_query_matches_search(bool_index):
    """No operators -> identical to plain BM25 search (scores bitwise)."""
    reader, _ = bool_index
    q = f"{synth.HEAD_TERMS[0]} {synth.HEAD_TERMS[3]}"
    assert reader.search_boolean(q, k=10) == reader.search(q, k=10)


def _random_texts(rng, n):
    """Token streams over a tiny vocabulary, so phrases recur, joined by
    ASCII and non-ASCII separators; 'İ' and the Kelvin sign lower to
    ASCII letters inside tokens, 'É' to a separator."""
    words = ["a", "b", "ab", "B", "x1", "İa", "bİ", "Kb", "ÉA"]
    seps = [" ", "  ", ",", "é", "—", " ", "\n", "ß", "-"]
    out = []
    for _ in range(n):
        m = int(rng.integers(0, 12))
        parts = [str(rng.choice(seps)) if rng.random() < 0.3 else ""]
        for _ in range(m):
            parts.append(str(rng.choice(words)))
            parts.append(str(rng.choice(seps)))
        out.append("".join(parts[:-1] if m and rng.random() < 0.5 else parts))
    return out


def _random_query(rng, slop=0):
    vocab = ["a", "b", "ab", "x1", "ia", "bi", "kb", "ea"]

    def phrase():
        return tuple(str(t) for t in rng.choice(vocab, int(rng.integers(1, 4))))

    ph = tuple(phrase() for _ in range(int(rng.integers(0, 3))))
    nph = tuple(phrase() for _ in range(int(rng.integers(0, 2))))
    return BoolQuery(
        (), (), (), ph, nph,
        phrase_slops=(slop,) * len(ph), not_phrase_slops=(slop,) * len(nph),
    )


def test_phrases_ok_batch_matches_token_path(bool_index):
    """The regex verify of a whole batch equals the per-doc token check
    (tokenize + contains_sequence) on random streams: single-term and
    multi-term phrases and not-phrases, null texts and an empty batch."""
    import copy

    import pyarrow as pa

    reader = copy.copy(bool_index[0])
    rng = np.random.default_rng(7)
    token_path = []
    real = reader._phrases_ok
    reader._phrases_ok = lambda text, bq: token_path.append(1) or real(text, bq)
    for _ in range(300):
        texts = _random_texts(rng, 20) + [None]
        bq = _random_query(rng)
        want = [real(t or "", bq) for t in texts]
        got = reader._phrases_ok_batch(pa.chunked_array([texts[:7], texts[7:]]), bq)
        assert got.tolist() == want, (bq, texts)
    assert token_path == []
    empty = reader._phrases_ok_batch(pa.array([], pa.string()), _random_query(rng))
    assert empty.shape == (0,)


def test_phrases_ok_batch_token_path_cases(bool_index, monkeypatch):
    """Stopwords and min_len define adjacency on the filtered stream, and
    slop allows gaps: those queries go through the token path."""
    import copy

    import pyarrow as pa
    import pyarrow.compute as pc

    from engine.analyze import AnalyzerConfig

    reader, _ = bool_index
    rng = np.random.default_rng(11)
    monkeypatch.setattr(pc, "match_substring_regex", None)  # no regex pass
    for cfg, slop in (
        (AnalyzerConfig(stopwords=frozenset({"b"})), 0),
        (AnalyzerConfig(min_len=2), 0),
        (reader.analyzer, 1),
    ):
        r = copy.copy(reader)
        r.analyzer = cfg
        for _ in range(100):
            texts = _random_texts(rng, 10)
            bq = _random_query(rng, slop)
            want = [r._phrases_ok(t, bq) for t in texts]
            assert r._phrases_ok_batch(pa.array(texts), bq).tolist() == want
    # "a b a" holds the phrase (a, a) once the stopword b is dropped
    r = copy.copy(reader)
    r.analyzer = AnalyzerConfig(stopwords=frozenset({"b"}))
    bq = BoolQuery((), (), (), (("a", "a"),), ())
    assert r._phrases_ok_batch(pa.array(["a b a"]), bq).tolist() == [True]
