"""delete_docs tombstones (reference delete-then-insert writer,
ec2/parse_arxiv_papers/__main__.py:269-285, lifted to the index level):

- IMMEDIATE: a fresh IndexReader masks deleted docs out of every query path
  (ranked, boolean) with surviving scores unchanged (stats stay as-built).
- COMPACTION: re-running build_index over the same dir re-runs ONLY the
  stats+segments phases (extract/postings checkpoints stay valid) and the
  result is rank- AND score-identical to an oracle over the surviving corpus.
- Tombstones persist after compaction (no resurrection on later re-runs).
"""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from engine import synth
from engine._testing import check_chunk_layout
from engine.build import build_index, delete_docs
from engine.oracle import OracleIndex
from engine.query import IndexReader

N = 400


def test_delete_then_compact(tmp_path):
    pages_dir = str(tmp_path / "pages")
    index_dir = str(tmp_path / "index")
    synth.write_pages(pages_dir, N, num_files=4)
    m0 = build_index(pages_dir, index_dir, num_partitions=2)

    q = synth.HEAD_TERMS[0]
    reader = IndexReader(index_dir)
    before = reader.search(q, k=10)
    assert len(before) == 10
    victim_ids = [d for d, _ in before[:2]]
    victim_urls = reader.fetch_docs(victim_ids, columns=["doc_id", "url"])[
        "url"
    ].to_pylist()
    assert delete_docs(index_dir, urls=victim_urls) == 2

    # IMMEDIATE: fresh reader, deleted docs vanish; survivors keep their
    # as-built scores (n_docs/avgdl/df untouched until compaction)
    r2 = IndexReader(index_dir)
    after = r2.search(q, k=10)
    got_ids = [d for d, _ in after]
    assert not set(victim_ids) & set(got_ids)
    before_map = dict(before)
    for d, s in after:
        if d in before_map:
            assert s == before_map[d]
    # the ranked tail fills back in: still k results (corpus >> k)
    assert len(after) == 10
    # boolean path composes the same mask
    bool_hits = r2.search_boolean(f"+{q}", k=50)
    assert not set(victim_ids) & {d for d, _ in bool_hits}

    # COMPACTION: rebuild re-runs only stats+segments — partials untouched
    partial_files = sorted(
        glob.glob(os.path.join(index_dir, "partials", "**", "*.parquet"),
                  recursive=True)
    )
    assert partial_files
    mtimes = {p: os.path.getmtime(p) for p in partial_files}
    stale = IndexReader(index_dir)  # holds the pre-compaction lexicon
    m1 = build_index(pages_dir, index_dir, num_partitions=2)
    assert m1["n_docs"] == m0["n_docs"] - 2
    for p, t in mtimes.items():
        assert os.path.getmtime(p) == t, f"partials re-ran: {p}"
    # the compacted segments keep the one-chunk-per-term layout
    assert check_chunk_layout(index_dir)[0] == m1["n_hot_terms"] > 0

    # post-compaction: rank- and score-identical to an oracle over survivors
    pages = synth.gen_pages_table(N)
    keep = pc.invert(
        pc.is_in(pages["url"], value_set=pa.array(victim_urls, pa.string()))
    )
    oracle = OracleIndex(pages.filter(keep))
    r3 = IndexReader(index_dir)
    for term in [synth.HEAD_TERMS[0], synth.HEAD_TERMS[1],
                 f"{synth.HEAD_TERMS[0]} {synth.HEAD_TERMS[2]}"]:
        assert r3.search(term, k=10) == oracle.search(term, k=10)

    # the compaction moved chunks within their segment files (the deleted
    # docs' terms are gone); a reader opened before it refuses to decode
    # any chunk its old lexicon points at, moved or not, instead of
    # answering from another term's postings: every segment file it opens
    # now carries a pairing token its lexicon does not
    moved = [
        t for t in stale._lex.terms.tolist()
        if stale._lex.chunk(t) != r3._lex.chunk(t)
    ]
    assert moved and len(moved) < len(stale._lex)
    for t in stale._lex.terms.tolist():
        with pytest.raises(RuntimeError, match="reopen"):
            stale._load_chunks(t)
    with pytest.raises(RuntimeError, match="reopen"):
        stale.search(" ".join(moved[:3]), k=10)

    # tombstones persist: a later rebuild cannot resurrect deleted docs
    assert os.path.exists(os.path.join(index_dir, "tombstones.parquet"))
    m2 = build_index(pages_dir, index_dir, num_partitions=2)
    assert m2["n_docs"] == m1["n_docs"]


def test_delete_by_doc_id_accumulates(tmp_path):
    pages_dir = str(tmp_path / "pages")
    index_dir = str(tmp_path / "index")
    synth.write_pages(pages_dir, 120, num_files=2)
    build_index(pages_dir, index_dir, num_partitions=2)
    reader = IndexReader(index_dir)
    hits = reader.search(synth.HEAD_TERMS[1], k=6)
    a, b = hits[0][0], hits[1][0]
    assert delete_docs(index_dir, doc_ids=[a]) == 1
    # second call merges with the existing tombstone set
    assert delete_docs(index_dir, doc_ids=[b]) == 2
    got = {d for d, _ in IndexReader(index_dir).search(synth.HEAD_TERMS[1], k=6)}
    assert a not in got and b not in got


def test_match_count_excludes_deleted_docs(tmp_path):
    """match_count, like every ranked and boolean path, drops tombstoned
    docs at once (it used to count them until compaction)."""
    pages_dir = str(tmp_path / "pages")
    index_dir = str(tmp_path / "index")
    synth.write_pages(pages_dir, 120, num_files=2)
    build_index(pages_dir, index_dir, num_partitions=2)
    q = synth.HEAD_TERMS[0]
    before = IndexReader(index_dir).match_count(q)
    assert before > 10
    victims = [d for d, _ in IndexReader(index_dir).search(q, k=5)]
    assert delete_docs(index_dir, doc_ids=victims) == 5
    r = IndexReader(index_dir)
    assert r.match_count(q) == before - 5
    assert r.match_count(q) == len(r.search_boolean(f"+{q}", k=before))
