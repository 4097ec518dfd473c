"""Per-model index families (engine/family.py): several analyzer configs
side-by-side under one root, selected by name at query time — the engine
analog of the reference's per-model embedding tables
(/root/reference/rds_schema.sql:45-58, EMBED_TABLE selection at
/root/reference/streamlit_app.py:49)."""

import os

import pytest

from engine import synth
from engine._testing import segment_rows
from engine.analyze import AnalyzerConfig
from engine.build import build_index
from engine.family import FamilyReader, build_family
from engine.query import IndexReader

ANALYZERS = {
    "default": AnalyzerConfig(),
    "nostop": AnalyzerConfig(
        stopwords=frozenset({synth.HEAD_TERMS[0]}), min_len=2
    ),
}


@pytest.fixture(scope="module")
def family(tmp_path_factory):
    root = tmp_path_factory.mktemp("family")
    pages_dir = str(root / "pages")
    synth.write_pages(pages_dir, 300, num_files=3)
    fam_root = str(root / "fam")
    dirs = build_family(pages_dir, fam_root, ANALYZERS, num_partitions=2)
    return pages_dir, fam_root, dirs


def test_family_layout_and_model_listing(family):
    _pages, fam_root, dirs = family
    assert set(dirs) == {"default", "nostop"}
    for name, d in dirs.items():
        assert d == os.path.join(fam_root, f"model={name}")
        assert os.path.exists(os.path.join(d, "stats.json"))
    r = FamilyReader(fam_root)
    assert r.models() == ["default", "nostop"]
    assert r.analyzer("nostop").min_len == 2


def test_family_members_match_standalone_builds(family, tmp_path):
    """Each member must answer exactly like an independent single-analyzer
    index over the same corpus — the family adds selection, not semantics."""
    pages_dir, fam_root, _dirs = family
    fam = FamilyReader(fam_root)
    for name, cfg in ANALYZERS.items():
        solo_dir = str(tmp_path / f"solo-{name}")
        build_index(pages_dir, solo_dir, analyzer=cfg, num_partitions=2)
        solo = IndexReader(solo_dir)
        for q in synth.gen_queries_table(10).to_pylist():
            assert fam.search(name, q["query_text"], k=q["k"]) == solo.search(
                q["query_text"], k=q["k"]
            ), (name, q["query_text"])


def test_family_analyzers_actually_differ(family):
    """The stopword model must drop its stopword term (the head term scores
    zero hits) while the default model matches it."""
    _pages, fam_root, _dirs = family
    r = FamilyReader(fam_root)
    head = synth.HEAD_TERMS[0]
    assert r.search("default", head, k=5)
    assert r.search("nostop", head, k=5) == []


def test_family_rerun_is_noop_and_single_member_rebuilds(family):
    """Re-running with unchanged configs resumes every member (no segment
    rewrite); changing ONE model's analyzer rebuilds only that member."""
    pages_dir, fam_root, dirs = family

    def seg_mtimes(d):
        return {
            p: os.path.getmtime(p)
            for p in set(segment_rows(d)["file"].to_pylist())
        }

    before = {n: seg_mtimes(d) for n, d in dirs.items()}
    build_family(pages_dir, fam_root, ANALYZERS, num_partitions=2)
    after = {n: seg_mtimes(d) for n, d in dirs.items()}
    assert before == after  # full resume: nothing rewritten

    changed = dict(ANALYZERS)
    changed["nostop"] = AnalyzerConfig(min_len=3)
    build_family(pages_dir, fam_root, changed, num_partitions=2)
    assert seg_mtimes(dirs["default"]) == before["default"]  # untouched
    assert seg_mtimes(dirs["nostop"]) != before["nostop"]  # rebuilt
    assert FamilyReader(fam_root).analyzer("nostop").min_len == 3
    # restore for other tests running after (module fixture is shared)
    build_family(pages_dir, fam_root, ANALYZERS, num_partitions=2)


def test_family_extracts_corpus_once(family):
    """Shared extraction (default): the primary member owns the doc store,
    every later member adopts it via a relative symlink — the corpus is
    extracted once per family, not once per model."""
    _pages, _fam_root, dirs = family
    assert not os.path.islink(os.path.join(dirs["default"], "extracted"))
    link = os.path.join(dirs["nostop"], "extracted")
    assert os.path.islink(link)
    assert os.path.realpath(link) == os.path.realpath(
        os.path.join(dirs["default"], "extracted")
    )


def test_family_shared_extraction_skips_member_extract(tmp_path):
    """Build metrics prove the sharing: the primary extracts every
    partition, the second member skips them all (tokenize-only wave), and
    both answer identically to their own standalone builds (covered by
    test_family_members_match_standalone_builds)."""
    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 120, num_files=2)
    m: dict = {}
    build_family(pages_dir, str(tmp_path / "fam"), ANALYZERS,
                 num_partitions=2, metrics_out=m)
    assert m["default"]["skipped_extract"] == 0
    assert m["default"]["partitions"] == 2
    assert m["nostop"]["skipped_extract"] == 2
    assert m["nostop"]["skipped_postings"] == 0
    # opting out keeps the old fully-independent lineage
    m2: dict = {}
    build_family(pages_dir, str(tmp_path / "fam2"), ANALYZERS,
                 num_partitions=2, share_extraction=False, metrics_out=m2)
    assert m2["nostop"]["skipped_extract"] == 0
    assert not os.path.islink(str(tmp_path / "fam2" / "model=nostop" / "extracted"))


def test_family_shared_extraction_append(tmp_path):
    """Growing the corpus under a shared-extraction family: the primary
    re-extracts only the partition that received the new file, each member
    re-adopts the refreshed lineage and re-tokenizes only the changed
    partitions — never re-extracting anything itself."""
    import pyarrow.parquet as pq

    from engine import synth

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 120, num_files=2)
    froot = str(tmp_path / "fam")
    m1: dict = {}
    build_family(pages_dir, froot, ANALYZERS, num_partitions=2, metrics_out=m1)
    assert m1["nostop"]["skipped_extract"] == 2
    # append one new file (ids disjoint from the first 120 docs)
    extra = synth.gen_pages_range(120, 150, 150)
    pq.write_table(extra, os.path.join(pages_dir, "pages-99990.parquet"))
    m2: dict = {}
    build_family(pages_dir, froot, ANALYZERS, num_partitions=2, metrics_out=m2)
    # primary: one partition got the new file and re-extracted, one skipped
    assert m2["default"]["skipped_extract"] == 1
    # member: still NEVER extracts; one partition re-tokenizes, one resumes
    assert m2["nostop"]["skipped_extract"] == 2
    assert m2["nostop"]["skipped_postings"] == 1
    # both members answer over the grown corpus identically to standalone
    solo_dir = str(tmp_path / "solo")
    build_index(pages_dir, solo_dir, analyzer=ANALYZERS["default"],
                num_partitions=2)
    fam = FamilyReader(froot)
    solo = IndexReader(solo_dir)
    for q in synth.gen_queries_table(8).to_pylist():
        assert fam.search("default", q["query_text"], k=q["k"]) == solo.search(
            q["query_text"], k=q["k"]
        )


def test_family_rejects_unsafe_model_names(tmp_path):
    with pytest.raises(ValueError):
        build_family(
            str(tmp_path), str(tmp_path / "f"), {"a/b": AnalyzerConfig()}
        )
    with pytest.raises(FileNotFoundError):
        FamilyReader(str(tmp_path))
