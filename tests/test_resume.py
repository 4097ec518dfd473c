"""Checkpoint/resume semantics (FIXTURES.md §5, SURVEY.md §4):
a rerun skips completed partitions; deleting one partition's output causes
only that partition to be recomputed, and the final index equals a
from-scratch build."""

import json
import os
import shutil

import pytest

from engine import synth
from engine._testing import segment_rows
from engine.build import build_index
from engine.query import IndexReader


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("resume")
    pages_dir = str(root / "pages")
    synth.write_pages(pages_dir, 400, num_files=4)
    return root, pages_dir


def _segment_fingerprint(index_dir):
    tbl = segment_rows(index_dir)
    rows = sorted(
        zip(
            tbl["term"].to_pylist(),
            tbl["rg"].to_pylist(),
            tbl["doc_ids"].to_pylist(),
            tbl["tfs"].to_pylist(),
        )
    )
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()


def test_rerun_skips_everything(env):
    root, pages_dir = env
    idx = str(root / "idx_a")
    m1 = build_index(pages_dir, idx, num_partitions=4)
    assert m1["skipped_extract"] == 0
    m2 = build_index(pages_dir, idx, num_partitions=4)
    assert m2["skipped_extract"] == 4
    assert m2["skipped_postings"] == 4


def test_partial_resume_equals_fresh_build(env):
    root, pages_dir = env
    idx = str(root / "idx_b")
    build_index(pages_dir, idx, num_partitions=4)
    fresh_fp = _segment_fingerprint(idx)
    # kill one partition's outputs mid-"shuffle" (partials are the mid-shuffle
    # checkpoint): the resume must recompute exactly that partition
    shutil.rmtree(os.path.join(idx, "partials", "pid=00002"))
    shutil.rmtree(os.path.join(idx, "segments"))
    m = build_index(pages_dir, idx, num_partitions=4)
    assert m["skipped_extract"] == 4
    assert m["skipped_postings"] == 3  # only pid=00002 redone
    assert _segment_fingerprint(idx) == fresh_fp


def test_lineage_manifest_contents(env):
    root, pages_dir = env
    idx = str(root / "idx_a")
    with open(os.path.join(idx, "manifest.json")) as f:
        man = json.load(f)
    assert set(man["partitions"]) == {f"{i:05d}" for i in range(4)}
    for pid, ent in man["partitions"].items():
        assert ent["inputs"], pid
        assert "extract" in ent["phase"] and "postings" in ent["phase"]
        assert ent["phase"]["extract"]["metrics"]["rows"] > 0
    for phase in ("losers", "stats", "segments"):
        assert phase in man["phases"]


def test_append_new_file_rebuilds_only_receiving_partition(tmp_path):
    """Incremental corpus growth (the reference's NOT-EXISTS loop): a NEW
    crawl file appended to the pages dir re-extracts ONLY the partition the
    sticky assignment routes it to; every other partition's checkpoint stays
    valid, and the result is identical to a from-scratch build over the
    grown corpus."""
    import pyarrow.parquet as pq

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 400, num_files=4)
    idx = str(tmp_path / "idx")
    m1 = build_index(pages_dir, idx, num_partitions=4)
    assert m1["skipped_extract"] == 0 and m1["partitions"] == 4

    # append one file of genuinely new urls (no recrawls: the loser set —
    # and with it the extract lineage of untouched partitions — is unchanged)
    pq.write_table(
        synth.gen_pages_range(400, 500, 500),
        os.path.join(pages_dir, "pages-00004.parquet"),
    )
    try:
        m2 = build_index(pages_dir, idx, num_partitions=4)
        assert m2["skipped_extract"] == 3  # only the receiving partition ran
        assert m2["skipped_postings"] == 3
        assert m2["n_docs"] == m1["n_docs"] + 100

        idx_fresh = str(tmp_path / "idx_fresh")
        build_index(pages_dir, idx_fresh, num_partitions=4)
        assert _segment_fingerprint(idx) == _segment_fingerprint(idx_fresh)
    finally:
        os.remove(os.path.join(pages_dir, "pages-00004.parquet"))


def test_input_change_invalidates(env):
    root, pages_dir = env
    idx = str(root / "idx_c")
    build_index(pages_dir, idx, num_partitions=2)
    reader = IndexReader(idx)
    n0 = reader.n_docs
    # "late data": regenerate one input file with genuinely new rows
    import pyarrow as pa
    import pyarrow.parquet as pq

    tbl = pa.concat_tables(
        [synth.gen_pages_range(0, 100, 400), synth.gen_pages_range(400, 420, 500)]
    )
    pq.write_table(tbl, os.path.join(pages_dir, "pages-00000.parquet"))
    try:
        m = build_index(pages_dir, idx, num_partitions=2)
        assert m["skipped_extract"] == 1  # only untouched partition skipped
        assert IndexReader(idx).n_docs > n0
    finally:
        pq.write_table(
            synth.gen_pages_range(0, 100, 400),
            os.path.join(pages_dir, "pages-00000.parquet"),
        )
