"""The bucket-group segment format in process (no Ray): chunks written by
write_bucket_group are found again through the lexicon, one address per
term, and read back as the postings that went in, one row group per chunk
table; the file's footer carries the native list layout (delta-encoded list
leaves under LZ4, no statistics) and the pairing token its lexicon
carries; and a row group past the int32 list-offset cap is refused."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine import codec, segments
from engine.segments import Lexicon, RowGroup, compress_group, file_token

TOKEN = segments.pairing_token("test-lineage", 0)


def _postings(postings: dict[str, np.ndarray]) -> pa.Table:
    """{term: sorted docnos} -> the (term, doc_id, tf, positions) posting
    rows of one row group; tf and the positions are functions of the
    docno, so reading can be checked."""
    terms = [t for t, ids in postings.items() for _ in ids]
    ids = np.concatenate(list(postings.values())).astype(np.uint64)
    tfs = (ids % 5 + 1).astype(np.int32)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array(ids, pa.uint64()),
        "tf": pa.array(tfs, pa.int32()),
        "positions": pa.array(
            [list(range(int(d) % 7, int(d) % 7 + int(f))) for d, f in zip(ids, tfs)],
            pa.list_(pa.int32()),
        ),
    })


def _group(postings: dict[str, np.ndarray]) -> pa.Table:
    """{term: sorted docnos} -> one row group's chunk table."""
    return compress_group(_postings(postings))


def _positions_of(ids: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.arange(d % 7, d % 7 + d % 5 + 1) for d in ids.astype(np.int64)]
    )


def test_bucket_group_roundtrip(tmp_path):
    rng = np.random.default_rng(5)

    def docs(n):
        return np.sort(rng.choice(50_000, size=n, replace=False))

    # row group 0: a bucket's many short cold terms; row groups 1 and 2: one
    # hot term each, as the build lays out a head term
    cold = {f"t{i:03d}": docs(int(rng.integers(1, 40))) for i in range(60)}
    groups = [cold, {"hot": docs(600)}, {"hot2": docs(300)}]
    truth = {t: ids for postings in groups for t, ids in postings.items()}
    vocab = pa.array(sorted(truth), pa.string())
    dfs = np.array([truth[t].size for t in vocab.to_pylist()])
    (tmp_path / "dfs").mkdir()
    seg = str(tmp_path / "bg-000.parquet")
    lex = str(tmp_path / "dfs" / "bg-000.parquet")
    segments.write_bucket_group(
        seg, lex, vocab, dfs, (_group(p) for p in groups), TOKEN
    )

    pf = pq.ParquetFile(seg)
    assert pf.num_row_groups == len(groups)
    for rg, postings in enumerate(groups):
        assert pf.read_row_group(rg)["term"].to_pylist() == list(postings)

    lexicon = Lexicon.load(str(tmp_path / "dfs"))
    assert lexicon.tokens == {0: TOKEN}
    for term, want in truth.items():
        rg, row = lexicon.chunk(term)
        assert term in groups[rg]
        assert lexicon[term] == want.size
        assert pf.read_row_group(rg, columns=["term"])["term"][row].as_py() == term
        g = RowGroup(pf, rg, positions=True)
        ids, tfs = g.raw(row)
        assert ids.dtype == np.uint64 and tfs.dtype == np.uint32
        assert np.array_equal(ids, want)
        assert np.array_equal(tfs, want % 5 + 1)
        assert np.array_equal(g.positions(row), _positions_of(want))
    assert lexicon.chunk("absent") is None


def test_bucket_group_refuses_a_split_term(tmp_path):
    """A term stored as two chunks (or not stored) cannot be given its one
    lexicon address: the writer raises instead of writing the lexicon."""
    vocab = pa.array(["a", "b"], pa.string())
    groups = [{"a": np.arange(3), "b": np.arange(2)}, {"a": np.arange(5, 8)}]
    with pytest.raises(ValueError, match="one chunk per vocab term"):
        segments.write_bucket_group(
            str(tmp_path / "bg-000.parquet"), str(tmp_path / "lex.parquet"),
            vocab, np.array([6, 2]), (_group(p) for p in groups), TOKEN,
        )


def test_row_group_posting_cap(monkeypatch):
    """compress_group refuses a row group with more postings than int32
    list offsets address (MAX_ROW_GROUP_POSTINGS, lowered here so a tiny
    table crosses it); a group at the cap is written."""
    monkeypatch.setattr(segments, "MAX_ROW_GROUP_POSTINGS", 5)
    at_cap = _postings({"a": np.arange(3), "b": np.arange(2)})
    assert compress_group(at_cap)["term"].to_pylist() == ["a", "b"]
    with pytest.raises(ValueError, match="int32 list offsets"):
        compress_group(_postings({"a": np.arange(6)}))


def test_segment_footer_layout(tmp_path):
    """Every list leaf is written DELTA_BINARY_PACKED (pyarrow applies a
    column_encoding only when keyed by the leaf path; keyed by the column
    name it silently writes PLAIN) under LZ4, no column carries
    statistics, none of the columns the reader now derives at load is
    stored, and the segment and lexicon footers carry the same token."""
    groups = [{"a": np.arange(0, 600, 3)}, {"b": np.array([4, 9])}]
    vocab = pa.array(["a", "b"], pa.string())
    seg, lex = str(tmp_path / "bg-000.parquet"), str(tmp_path / "lex.parquet")
    segments.write_bucket_group(
        seg, lex, vocab, np.array([200, 2]), (_group(p) for p in groups), TOKEN,
    )
    assert file_token(pq.ParquetFile(seg)) == TOKEN
    assert file_token(pq.ParquetFile(lex)) == TOKEN
    assert pq.ParquetFile(lex).metadata.row_group(0).column(0).compression == "ZSTD"
    md = pq.ParquetFile(seg).metadata
    assert md.schema.to_arrow_schema().names == [
        "term", "doc_ids", "tfs", "positions",
    ]
    for i in range(md.num_row_groups):
        leaves = {}
        for j in range(md.num_columns):
            c = md.row_group(i).column(j)
            leaves[c.path_in_schema] = c
            assert c.compression == "LZ4"
            assert not c.is_stats_set
        lists = [p for p in leaves if p.endswith(".list.element")]
        assert sorted(lists) == [
            "doc_ids.list.element", "positions.list.element",
            "tfs.list.element",
        ]
        for p in lists:
            assert "DELTA_BINARY_PACKED" in leaves[p].encodings, p
            assert "PLAIN" not in leaves[p].encodings, p
        for gone in ("doclens", "block_last_doc", "block_max_impact", "df_chunk", "salt"):
            assert not any(p.split(".")[0] == gone for p in leaves), gone


def _block_metadata_reference(ids, impacts, block_size=128):
    """Literal block-max definition: the largest impact of each run of
    ``block_size`` postings."""
    return [
        max(float(x) for x in impacts[s : s + block_size])
        for s in range(0, len(ids), block_size)
    ]


def test_block_metadata_matches_reference_at_block_edges():
    """The load-time block maxima (np.maximum.reduceat) are bit-identical
    to the literal definition on either side of a block boundary and over
    many blocks."""
    rng = np.random.default_rng(11)
    for n in (1, 127, 128, 129, 5000):
        ids = np.sort(rng.choice(10**6, size=n, replace=False)).astype(np.uint64)
        tfs = rng.integers(1, 9, n).astype(np.float64)
        dls = rng.integers(5, 900, n).astype(np.float64)
        impacts = tfs * 2.2 / (tfs + 1.2 * (0.25 + (0.75 * dls) / 311.7))
        mx = codec.block_metadata(ids, impacts)
        assert mx.dtype == np.float64
        assert mx.tolist() == _block_metadata_reference(ids, impacts), n  # exact
