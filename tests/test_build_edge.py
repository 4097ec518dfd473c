"""Build-robustness edge cases added in round 2 (ADVICE round 1):

- equal-warc_ts recrawls of one url in DIFFERENT files resolve to a single
  deterministic winner (max (warc_ts, file_rank)), matching the oracle's
  last-writer-wins over file-ordered rows;
- rebuilding into the same index_dir with fewer partitions prunes stale
  pid dirs instead of silently double-counting their rows.
"""

import os

import pyarrow as pa
import pyarrow.parquet as pq

from engine import synth
from engine._testing import segment_rows
from engine.build import build_index
from engine.oracle import OracleIndex
from engine.query import IndexReader
from engine.schema import doc_id_of_url


def _page(url: str, ts: int, text: str) -> dict:
    return {
        "url": url,
        "warc_ts": ts,
        "html": f"<html><head></head><body><p>{text}</p></body></html>".encode(),
        "text": text,
        "lang": "en",
    }


def _write(path: str, rows: list[dict]) -> None:
    pq.write_table(
        pa.table(
            {
                "url": pa.array([r["url"] for r in rows], pa.string()),
                "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
                "html": pa.array([r["html"] for r in rows], pa.binary()),
                "text": pa.array([r["text"] for r in rows], pa.string()),
                "lang": pa.array([r["lang"] for r in rows], pa.string()),
            }
        ),
        path,
    )


def test_equal_ts_cross_file_tie_is_deterministic(tmp_path):
    pages_dir = tmp_path / "pages"
    pages_dir.mkdir()
    url = "https://tie.example/page"
    ts = synth.EPOCH_US
    # same url + same warc_ts in two different files, different content; plus
    # filler docs so the corpus isn't degenerate
    rows_a = [_page(url, ts, "alpha alpha body")] + [
        _page(f"https://a.example/{i}", ts + i, f"filler doc {i}") for i in range(5)
    ]
    rows_b = [_page(url, ts, "bravo bravo body")] + [
        _page(f"https://b.example/{i}", ts + i, f"other doc {i}") for i in range(5)
    ]
    _write(str(pages_dir / "f-00000.parquet"), rows_a)
    _write(str(pages_dir / "f-00001.parquet"), rows_b)

    idx = str(tmp_path / "idx")
    build_index(str(pages_dir), idx, num_partitions=2)
    reader = IndexReader(idx)
    assert reader.n_docs == 11  # 12 rows, one duplicate url

    # winner = max (ts, file_rank): the row from the later-sorted file
    doc = reader.fetch_docs([doc_id_of_url(url)], columns=["doc_id", "text"])
    assert doc["text"].to_pylist() == ["bravo bravo body"]

    # oracle over rows concatenated in sorted-file order agrees (its
    # last-writer-wins tie-break sees file-rank order as row order)
    oracle = OracleIndex(
        pa.concat_tables(
            [pq.read_table(str(pages_dir / f)) for f in sorted(os.listdir(pages_dir))]
        )
    )
    for q in ("bravo", "alpha", "filler doc"):
        assert reader.search(q, k=5) == oracle.search(q, k=5), q

    # rebuilding with a different partition count gives identical results
    idx2 = str(tmp_path / "idx2")
    build_index(str(pages_dir), idx2, num_partitions=1)
    r2 = IndexReader(idx2)
    assert r2.n_docs == 11
    assert r2.search("bravo", k=5) == reader.search("bravo", k=5)


def test_exact_duplicate_row_across_row_groups(tmp_path):
    """An exact-duplicate (url, warc_ts) row split across TWO row groups of
    ONE file lands in different Ray blocks: the engine must still count the
    doc once everywhere — df, n_docs, avgdl, docmeta — and score
    identically to the oracle (ADVICE round 2: df was bincounted before the
    duplicate guard, and docmeta kept both rows)."""
    pages_dir = tmp_path / "pages"
    pages_dir.mkdir()
    ts = synth.EPOCH_US
    dup = _page("https://dup.example/page", ts, "zulu zulu body words")
    rows_rg1 = [dup] + [
        _page(f"https://a.example/{i}", ts + i, f"filler doc {i} words") for i in range(4)
    ]
    rows_rg2 = [dup] + [
        _page(f"https://b.example/{i}", ts + i, f"other doc {i} words") for i in range(4)
    ]

    def tbl(rows):
        return pa.table(
            {
                "url": pa.array([r["url"] for r in rows], pa.string()),
                "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
                "html": pa.array([r["html"] for r in rows], pa.binary()),
                "text": pa.array([r["text"] for r in rows], pa.string()),
                "lang": pa.array([r["lang"] for r in rows], pa.string()),
            }
        )

    path = str(pages_dir / "f-00000.parquet")
    with pq.ParquetWriter(path, tbl(rows_rg1).schema) as w:
        w.write_table(tbl(rows_rg1))  # row group 1
        w.write_table(tbl(rows_rg2))  # row group 2 (same dup row again)

    idx = str(tmp_path / "idx")
    m = build_index(str(pages_dir), idx, num_partitions=1)
    reader = IndexReader(idx)
    assert m["n_docs"] == 9  # 10 rows, one exact duplicate
    assert reader.n_docs == 9
    reader._load_docmeta()
    assert reader._docmeta[0].size == 9  # docmeta deduped at load

    oracle = OracleIndex(pq.read_table(path))
    assert oracle.n_docs == 9
    assert abs(reader.avgdl - oracle.avgdl) < 1e-12
    for q in ("zulu", "filler doc", "zulu words", "body"):
        assert reader.search(q, k=5) == oracle.search(q, k=5), q


def test_repartition_rebuild_prunes_stale_pids(tmp_path):
    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 200, num_files=4)
    idx = str(tmp_path / "idx")
    build_index(pages_dir, idx, num_partitions=4)
    assert len(os.listdir(os.path.join(idx, "extracted"))) == 4

    # same dir, fewer partitions: stale pid dirs must disappear, and the
    # rebuilt index must equal a fresh 2-partition build (no double counts)
    m = build_index(pages_dir, idx, num_partitions=2)
    assert m["n_docs"] == 199  # 200 rows, one duplicate-url fixture (row 11)
    got = sorted(
        d for d in os.listdir(os.path.join(idx, "partials")) if d.startswith("pid=")
    )
    assert got == ["pid=00000", "pid=00001"]

    idx_fresh = str(tmp_path / "idx_fresh")
    build_index(pages_dir, idx_fresh, num_partitions=2)

    def seg_rows(d):
        t = segment_rows(d)
        return sorted(
            zip(t["term"].to_pylist(), t["salt"].to_pylist(), t["doc_ids"].to_pylist())
        )

    assert seg_rows(idx) == seg_rows(idx_fresh)


def test_doclen_range_exchange_matches_broadcast(tmp_path, monkeypatch):
    """Force the above-budget docno exchange (merge tasks read only the
    doc_id-range row groups their postings touch; NO corpus-wide ray.put of
    the docmeta table): identical segment chunks and identical query
    results to the broadcast fast path."""
    from engine import build as buildmod
    from engine.query import IndexReader

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 300, num_files=3)
    idx_b = str(tmp_path / "idx_bcast")
    m1 = build_index(pages_dir, idx_b, num_partitions=2)
    assert m1["docno_exchange"] == "broadcast"

    monkeypatch.setattr(buildmod, "_DOCNO_BCAST_BUDGET_BYTES", 0)
    idx_r = str(tmp_path / "idx_range")
    m2 = build_index(pages_dir, idx_r, num_partitions=2)
    assert m2["docno_exchange"] == "range"

    def seg_rows(d):
        t = segment_rows(d)
        return sorted(
            zip(
                t["term"].to_pylist(), t["salt"].to_pylist(),
                t["doc_ids"].to_pylist(), t["tfs"].to_pylist(),
            )
        )

    assert seg_rows(idx_b) == seg_rows(idx_r)
    r_b, r_r = IndexReader(idx_b), IndexReader(idx_r)
    for q in ("filler doc", "the", "words body"):
        assert r_b.search(q, k=10) == r_r.search(q, k=10), q


def test_distributed_loser_reduce_matches_driver_path(tmp_path):
    """The cluster-side loser reduce (range sort + boundary-safe combine)
    yields the identical loser table to the small-input driver path."""
    import pyarrow.parquet as pq

    from engine import synth
    from engine.build import _compute_losers_from_input

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 300, num_files=5)
    import os

    files = sorted(
        os.path.join(pages_dir, f) for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )
    rank = {f: i for i, f in enumerate(files)}
    a = _compute_losers_from_input(files, rank)
    b = _compute_losers_from_input(files, rank, force_distributed=True)
    assert a.sort_by("doc_id").equals(b.sort_by("doc_id"))
    assert a.num_rows >= 1  # synth plants at least one recrawled url


def test_input_filter_where_hook(tmp_path):
    """The --condition analog: an input-level predicate prunes rows at the
    read; only matching docs are extracted, indexed and counted."""
    import pyarrow.dataset as pads_ds

    from engine import synth
    from engine.build import build_index
    from engine.query import IndexReader

    pages_dir = str(tmp_path / "pages")
    synth.write_pages(pages_dir, 200, num_files=2)
    expr = pads_ds.field("lang") == "en"
    idx = str(tmp_path / "idx")
    m = build_index(pages_dir, idx, num_partitions=2, input_filter=expr)
    import pyarrow.parquet as pq
    import os

    n_en = sum(
        pq.read_table(os.path.join(pages_dir, f), columns=["lang"])
        .column("lang").to_pandas().eq("en").sum()
        for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )
    # filtered build indexes at most the en rows (minus url-dup losers)
    assert 0 < m["n_docs"] <= n_en
    r = IndexReader(idx)
    meta = r  # every indexed doc must be lang=en
    r._load_docmeta()
    _, codes, _, _, langs = r._docmeta
    assert set(langs[int(c)] for c in set(codes.tolist())) == {"en"}
