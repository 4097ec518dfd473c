"""merge_indexes conformance: a merge of independently built indexes must be
rank- AND float64-score-identical to a fresh build over the union of their
inputs, re-extract ONLY dup-affected partitions, and produce a losers table
bit-identical to the fresh build's (so later incremental builds resume
cleanly).  Covers disjoint, cross-recrawl, positional, documents-kind and
build_sharded-consolidation merges plus the validation / subset guards."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine import synth
from engine._testing import check_chunk_layout, segment_rows
from engine.analyze import AnalyzerConfig
from engine.build import build_index
from engine.merge import merge_indexes
from engine.query import IndexReader

N_DOCS = 400
NEW_TS = synth.EPOCH_US + 1_000_000 * 37_000_000


def _recrawl(src_i: int, content_i: int, ts_us: int, n: int = N_DOCS) -> dict:
    """A re-crawl of row src_i's url carrying row content_i's content."""
    p = synth.make_page(src_i, n)
    c = synth.make_page(content_i, 100_000)
    return {"url": p["url"], "warc_ts": ts_us, "html": c["html"],
            "text": c["text"], "lang": p["lang"]}


def _assert_identical(merged_dir: str, full_dir: str, n_queries: int = 30):
    rm, rf = IndexReader(merged_dir), IndexReader(full_dir)
    assert rm.stats["n_docs"] == rf.stats["n_docs"]
    assert rm.stats["avgdl"] == rf.stats["avgdl"]
    for q in synth.gen_queries_table(n_queries).to_pylist():
        a = rm.search(q["query_text"], k=10)
        b = rf.search(q["query_text"], k=10)
        assert a == b, f"top-k diverged for {q['query_text']!r}: {a} != {b}"
    lm = pq.read_table(os.path.join(merged_dir, "losers.parquet"))
    lf = pq.read_table(os.path.join(full_dir, "losers.parquet"))
    assert lm.sort_by("doc_id").equals(lf.sort_by("doc_id"))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("merge"))
    pages = os.path.join(root, "pages")
    files = sorted(synth.write_pages(pages, N_DOCS, num_files=6))
    return root, files


def test_merge_disjoint_grafts_everything(corpus):
    root, files = corpus
    a, b = os.path.join(root, "A"), os.path.join(root, "B")
    out, full = os.path.join(root, "m1"), os.path.join(root, "f1")
    build_index(files[:3], a, num_partitions=2)
    build_index(files[3:], b, num_partitions=2)
    m = merge_indexes([a, b], out)
    assert m["grafted_partitions"] == 4
    assert m["reextracted_partitions"] == 0
    assert m["skipped_extract"] == 4, "no page may be re-extracted"
    assert m["losers_mode"] == "remapped", "no raw-input rescan on disjoint"
    build_index(files, full, num_partitions=4)
    _assert_identical(out, full)


def test_merge_rerun_is_noop(corpus):
    """Re-merging into the same dir revalidates checkpoints and skips all
    phases (the merge itself is resumable lineage, like the build)."""
    root, files = corpus
    out = os.path.join(root, "m1")  # built by the previous test
    m = merge_indexes([os.path.join(root, "A"), os.path.join(root, "B")], out)
    assert m["skipped_extract"] == 4 and m["skipped_postings"] == 4
    _assert_identical(out, os.path.join(root, "f1"))


def test_merged_index_layout(corpus):
    """The merge writes its segments through the build's reduce, so the
    merged index has the build's one-chunk-per-term layout
    (check_chunk_layout) and the same chunks as a fresh build."""
    root, _ = corpus
    out, full = os.path.join(root, "m1"), os.path.join(root, "f1")  # built above
    n_hot, _ = check_chunk_layout(out)
    assert n_hot == IndexReader(out).stats["n_hot_terms"] > 0

    def chunks(d):
        t = segment_rows(d)
        return sorted(zip(t["term"].to_pylist(), t["doc_ids"].to_pylist(),
                          t["tfs"].to_pylist()))

    assert chunks(out) == chunks(full)


def test_merge_over_an_older_format_dir_rebuilds(corpus):
    """Re-merging into a merged dir written by an older format must rewrite
    stats and segments: the grafted partitions' checkpoints stay valid
    across a format bump, the stats+segments layout does not.  The older
    dir is simulated by dropping what this format adds to the manifest's
    phase lineage and to stats.json."""
    import json

    from engine.schema import FORMAT_VERSION

    root, _files = corpus
    out = os.path.join(root, "m1")  # built by test_merge_disjoint_*
    man_path = os.path.join(out, "manifest.json")
    with open(man_path) as f:
        man = json.load(f)
    tag = f"+F{FORMAT_VERSION}"
    for phase in ("stats", "segments"):
        rec = man["phases"][phase]
        assert rec["fingerprint"].endswith(tag)
        rec["fingerprint"] = rec["fingerprint"][: -len(tag)]
    with open(man_path, "w") as f:
        json.dump(man, f)
    stats_path = os.path.join(out, "stats.json")
    with open(stats_path) as f:
        stats = json.load(f)
    del stats["format_version"]
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    with pytest.raises(ValueError, match="rebuild the index"):
        IndexReader(out)
    merge_indexes([os.path.join(root, "A"), os.path.join(root, "B")], out)
    _assert_identical(out, os.path.join(root, "f1"))


def test_merge_cross_recrawl_reextracts_only_affected(corpus, tmp_path):
    root, files = corpus
    # B additionally carries: a NEWER recrawl of an A doc (A's partition
    # must re-extract and drop it), an OLDER recrawl of an A doc (loses;
    # A untouched), and a ts-TIE recrawl (both sides re-extract; the global
    # file rank decides the winner exactly as a fresh build would)
    rows = [
        _recrawl(5, 900, NEW_TS),
        _recrawl(150, 901, synth.EPOCH_US - 5),
        _recrawl(55, 902, synth.EPOCH_US + 55 * 37_000_000),
    ]
    rpath = str(tmp_path / "recrawl-00000.parquet")
    pq.write_table(synth._rows_to_table(rows), rpath)
    a, b = os.path.join(root, "A2"), os.path.join(root, "B2")
    out, full = os.path.join(root, "m2"), os.path.join(root, "f2")
    build_index(files[:3], a, num_partitions=3)  # one file per partition
    build_index(files[3:] + [rpath], b, num_partitions=2)
    m = merge_indexes([a, b], out)
    assert m["losers_mode"] == "recomputed"
    assert m["cross_dup_docs"] == 3
    # affected: A pid of rows 0-66 (doc 5 now loses, doc 55 is ts-tied) and
    # B's pid holding the recrawl file (tie side + its older copy of doc 150
    # loses).  NOT affected: A's pid of doc 150 — the sole winner grafts.
    assert m["reextracted_partitions"] == 2
    assert m["grafted_partitions"] == 3
    build_index(sorted(files[3:] + [rpath] + files[:3]), full, num_partitions=5)
    _assert_identical(out, full)


def test_merge_positional(corpus):
    root, files = corpus
    a, b = os.path.join(root, "Ap"), os.path.join(root, "Bp")
    out, full = os.path.join(root, "mp"), os.path.join(root, "fp")
    build_index(files[:3], a, num_partitions=2, store_positions=True)
    build_index(files[3:], b, num_partitions=2, store_positions=True)
    m = merge_indexes([a, b], out, store_positions=True)
    assert m["grafted_partitions"] == 4
    build_index(files, full, num_partitions=4, store_positions=True)
    _assert_identical(out, full)
    # phrase adjacency resolves off the merged positional segments
    rm, rf = IndexReader(out), IndexReader(full)
    text = synth._doc_text(17).split("\n")[1]
    phrase = '"' + " ".join(text.split(" ")[:2]) + '"'
    res = rm.search_boolean(phrase, k=5)
    assert res == rf.search_boolean(phrase, k=5)
    assert res, "phrase should match its own document"


def test_merge_sharded_consolidation(corpus, tmp_path):
    """build_sharded shards (global loser set, wider loser_src) consolidate
    into one index identical to a fresh single build — the shard->monolith
    compaction path."""
    from engine.serve import build_sharded

    root, files = corpus
    rpath = str(tmp_path / "zz-recrawl.parquet")
    pq.write_table(
        synth._rows_to_table([_recrawl(7, 903, NEW_TS)]), rpath
    )
    allf = sorted(files + [rpath])
    shards = build_sharded(allf, os.path.join(root, "shards"), 2,
                           num_partitions=2)
    out, full = os.path.join(root, "ms"), os.path.join(root, "fs")
    m = merge_indexes(shards, out)
    assert m["reextracted_partitions"] == 0, "global losers already applied"
    assert m["losers_mode"] == "remapped"
    build_index(allf, full, num_partitions=4)
    _assert_identical(out, full)
    # a SUBSET of the sharded build whose docmeta lacks a global dup's
    # survivors cannot prove the winner is inside -> must raise
    lone = [s for s in shards if _lacks_dup_survivors(s)]
    if lone:
        with pytest.raises(ValueError, match="shard"):
            merge_indexes([lone[0]], os.path.join(root, "msub"))


def _lacks_dup_survivors(shard_dir: str) -> bool:
    import pyarrow.dataset as pads

    losers = pq.read_table(os.path.join(shard_dir, "losers.parquet"))
    if losers.num_rows == 0:
        return False
    ids = set(losers["doc_id"].to_pylist())
    dm = pads.dataset(os.path.join(shard_dir, "docmeta")).to_table(
        columns=["doc_id"]
    )
    return not ids & set(dm["doc_id"].to_pylist())


def test_merge_documents_kind(corpus, tmp_path):
    docs = pa.table(
        {
            "doc_id": pa.array(range(1, 201), pa.int64()),
            "text": pa.array(
                [synth._doc_text(i) for i in range(1, 201)], pa.string()
            ),
            "lang": pa.array(["en"] * 200, pa.string()),
        }
    )
    pa_, pb = str(tmp_path / "da.parquet"), str(tmp_path / "db.parquet")
    pq.write_table(docs.slice(0, 100), pa_)
    pq.write_table(docs.slice(100), pb)
    a, b = str(tmp_path / "ia"), str(tmp_path / "ib")
    out, full = str(tmp_path / "m"), str(tmp_path / "f")
    build_index(pa_, a, num_partitions=1, input_kind="documents")
    build_index(pb, b, num_partitions=1, input_kind="documents")
    m = merge_indexes([a, b], out, input_kind="documents")
    assert m["grafted_partitions"] == 2 and m["losers_mode"] == "none"
    build_index([pa_, pb], full, num_partitions=2, input_kind="documents")
    _assert_identical(out, full)
    # overlapping doc_ids must raise (documents merges need disjoint ids)
    pc = str(tmp_path / "dc.parquet")
    pq.write_table(docs.slice(50, 100), pc)
    c = str(tmp_path / "ic")
    build_index(pc, c, num_partitions=1, input_kind="documents")
    with pytest.raises(ValueError, match="disjoint"):
        merge_indexes([a, c], str(tmp_path / "bad"), input_kind="documents")


def test_merge_validation(corpus, tmp_path):
    root, files = corpus
    a, b = os.path.join(root, "A"), os.path.join(root, "B")
    # analyzer mismatch: source A was built with the default analyzer
    with pytest.raises(ValueError, match="analyzer|positions"):
        merge_indexes(
            [a, b], str(tmp_path / "x1"),
            analyzer=AnalyzerConfig(min_len=2),
        )
    # positions-flag mismatch
    with pytest.raises(ValueError, match="analyzer|positions"):
        merge_indexes([a, b], str(tmp_path / "x2"), store_positions=True)
    # overlapping input files
    c = os.path.join(root, "Aoverlap")
    build_index(files[:1], c, num_partitions=1)
    with pytest.raises(ValueError, match="appears in both"):
        merge_indexes([a, c], str(tmp_path / "x3"))
    # a source may not be the destination
    with pytest.raises(ValueError, match="source"):
        merge_indexes([a, b], a)


def test_merge_unions_tombstones(corpus, tmp_path):
    from engine.build import delete_docs

    root, files = corpus
    a, b = os.path.join(root, "At"), os.path.join(root, "Bt")
    build_index(files[:3], a, num_partitions=2)
    build_index(files[3:], b, num_partitions=2)
    victim = synth.make_page(20, N_DOCS)["url"]  # lives in the A half
    delete_docs(a, urls=[victim])
    out = str(tmp_path / "mt")
    merge_indexes([a, b], out)
    r = IndexReader(out)
    head = synth._doc_text(20).split("\n")[0].split(" ")[0]
    from engine.schema import doc_id_of_url

    did = doc_id_of_url(victim)
    assert all(d != did for d, _ in r.search(head, k=50)), \
        "tombstoned doc must stay deleted across the merge"


def _survivor_plan_reference(exp_ids, exp_ts, in_merged, sc_ids, sc_ts,
                             sc_src, sc_pid):
    """The survivor guard one duplicate at a time: the definition
    `merge._survivor_plan` computes over all of them at once."""
    if not sc_ids.size:
        raise ValueError("no source docmeta rows were found")
    reextract = set()
    lo = np.searchsorted(sc_ids, exp_ids, side="left")
    hi = np.searchsorted(sc_ids, exp_ids, side="right")
    for j in range(exp_ids.size):
        ts_r = sc_ts[lo[j]:hi[j]]
        if lo[j] == hi[j]:
            raise ValueError("has no surviving copy in any source")
        if ts_r.max() > exp_ts[j]:
            raise ValueError("newer crawl than any loser table's winner")
        winners = ts_r == exp_ts[j]
        if winners.sum() == 0:
            raise ValueError("no surviving copy at its winning timestamp")
        if not in_merged[j]:
            continue
        losing = ~winners if winners.sum() == 1 else np.ones_like(winners)
        for k in np.nonzero(losing)[0]:
            reextract.add((int(sc_src[lo[j] + k]), str(sc_pid[lo[j] + k])))
    return reextract


def _survivors(n_docs: int, recrawl: float, seed: int):
    """Array-level survivor-guard inputs over ``n_docs`` doc_ids, a
    ``recrawl`` share of them duplicated: each duplicate has 1-3 surviving
    copies across 4 sources x 8 partitions, one or two of them (a tie) at
    the winning timestamp and the rest older."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(2**62, n_docs, replace=False).astype(np.uint64))
    exp_ids = np.sort(rng.choice(ids, int(n_docs * recrawl), replace=False))
    exp_ts = rng.integers(10**6, 10**9, exp_ids.size)
    n = rng.integers(1, 4, exp_ids.size)
    sc_ids = np.repeat(exp_ids, n)
    sc_ts = np.repeat(exp_ts, n) - rng.integers(1, 1000, sc_ids.size)
    first = np.cumsum(n) - n
    sc_ts[first] = exp_ts  # the winner
    tie = first[(n > 1) & (rng.random(exp_ids.size) < 0.1)]
    sc_ts[tie + 1] = sc_ts[tie]
    sc_src = rng.integers(0, 4, sc_ids.size).astype(np.int32)
    sc_pid = np.array([f"{p:05d}" for p in rng.integers(0, 8, sc_ids.size)],
                      dtype=object)
    in_merged = rng.random(exp_ids.size) < 0.7
    return [exp_ids, exp_ts, in_merged, sc_ids, sc_ts, sc_src, sc_pid]


def test_survivor_plan_matches_the_per_duplicate_guard():
    """100k doc_ids, 30% of them recrawled: the vectorized guard returns
    exactly the per-duplicate loop's re-extraction set."""
    from engine.merge import _survivor_plan

    args = _survivors(100_000, 0.3, seed=1)
    got = _survivor_plan(*args)
    assert got and got == _survivor_plan_reference(*args)
    assert all(isinstance(s, int) and isinstance(p, str) for s, p in got)


@pytest.mark.parametrize("fault, match", [
    ("no_rows", "no source docmeta rows were found"),
    ("no_copy", "has no surviving copy in any source"),
    ("newer", "newer crawl than any loser table's winner"),
    ("no_winner", "no surviving copy at its winning timestamp"),
])
def test_survivor_plan_errors(fault, match):
    """Each of the guard's four refusals, raised by the vectorized guard
    as by the per-duplicate loop; with two faulty doc_ids, the first in
    doc_id order names the error."""
    from engine.merge import _survivor_plan

    exp_ids, exp_ts, in_merged, sc_ids, sc_ts, sc_src, sc_pid = _survivors(
        2_000, 0.3, seed=2
    )
    first = np.searchsorted(sc_ids, exp_ids)
    j, later = 100, 400
    if fault == "no_rows":
        keep = np.zeros(sc_ids.size, bool)
    elif fault == "no_copy":
        keep = sc_ids != exp_ids[j]
        sc_ts[first[later]] += 1  # a later, different fault
    else:
        keep = np.ones(sc_ids.size, bool)
        sc_ts[first[later]] = exp_ts[later] + 5  # a later "newer" fault
        sc_ts[first[j]] = exp_ts[j] + (1 if fault == "newer" else -1)
        sc_ts[first[j] + 1 : first[j + 1]] = exp_ts[j] - 7
    args = [exp_ids, exp_ts, in_merged, sc_ids[keep], sc_ts[keep],
            sc_src[keep], sc_pid[keep]]
    for guard in (_survivor_plan, _survivor_plan_reference):
        with pytest.raises(ValueError, match=match) as err:
            guard(*args)
        if fault != "no_rows" and guard is _survivor_plan:
            assert f"doc_id={int(exp_ids[j])}" in str(err.value)
