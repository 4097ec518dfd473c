"""The bucket-group segment format in process (no Ray): chunks written by
write_bucket_group are found again through the lexicon and read back as the
postings that went in, with one row group per (bucket, salt) group, and the
file's footer carries the native list layout (delta-encoded list leaves,
statistics on ``term`` only)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from engine import codec, segments
from engine.segments import Lexicon, RowGroup, compress_group


def _group(postings: dict[str, np.ndarray], salt: int) -> pa.Table:
    """{term: sorted docnos} -> one (bucket, salt) chunk table; tf and the
    positions are functions of the docno, so reading can be checked."""
    terms = [t for t, ids in postings.items() for _ in ids]
    ids = np.concatenate(list(postings.values())).astype(np.uint64)
    tfs = (ids % 5 + 1).astype(np.int32)
    t = pa.table({
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array(ids, pa.uint64()),
        "tf": pa.array(tfs, pa.int32()),
        "positions": pa.array(
            [list(range(int(d) % 7, int(d) % 7 + int(f))) for d, f in zip(ids, tfs)],
            pa.list_(pa.int32()),
        ),
    })
    return compress_group(t, salt)


def _positions_of(ids: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.arange(d % 7, d % 7 + d % 5 + 1) for d in ids.astype(np.int64)]
    )


def test_bucket_group_roundtrip(tmp_path):
    rng = np.random.default_rng(5)

    def docs(n):
        return np.sort(rng.choice(50_000, size=n, replace=False))

    # salt 0: many short cold terms plus the hot term's first chunk; salts
    # 1 and 2: the rest of the hot term, as the build salts a head term
    salt0 = {f"t{i:03d}": docs(int(rng.integers(1, 40))) for i in range(60)}
    salt0["hot"] = docs(300)
    groups = [(salt0, 0), ({"hot": docs(300)}, 1), ({"hot": docs(2)}, 2)]
    truth: dict[str, list[np.ndarray]] = {}
    for postings, _salt in groups:
        for t, ids in postings.items():
            truth.setdefault(t, []).append(ids)
    vocab = pa.array(sorted(truth), pa.string())
    dfs = np.array([sum(a.size for a in truth[t]) for t in vocab.to_pylist()])
    seg, lex = str(tmp_path / "bg-000.parquet"), str(tmp_path / "lex.parquet")
    n = segments.write_bucket_group(
        seg, lex, vocab, dfs, (_group(p, s) for p, s in groups)
    )
    assert n == sum(len(p) for p, _ in groups)

    pf = pq.ParquetFile(seg)
    assert pf.num_row_groups == len(groups)
    for rg, (postings, salt) in enumerate(groups):
        t = pf.read_row_group(rg)
        assert set(t["salt"].to_pylist()) == {salt}
        assert sorted(t["term"].to_pylist()) == sorted(postings)

    lexicon = Lexicon.from_arrow(pq.read_table(lex).sort_by("term"))
    for term, parts in truth.items():
        addr = lexicon.chunks(term)
        assert len(addr) == len(parts)
        assert lexicon[term] == sum(p.size for p in parts)
        for (rg, row), want in zip(addr, parts):  # salt order
            g = RowGroup(pf.read_row_group(
                rg, columns=RowGroup.COLUMNS + ["positions"]
            ))
            assert g.term(row) == term
            ids, tfs = g.raw(row)
            assert ids.dtype == np.uint64 and tfs.dtype == np.uint32
            assert np.array_equal(ids, want)
            assert np.array_equal(tfs, want % 5 + 1)
            assert np.array_equal(g.positions(row), _positions_of(want))
    assert lexicon.chunks("absent") == []


def test_segment_footer_layout(tmp_path):
    """Every list leaf is written DELTA_BINARY_PACKED (pyarrow applies a
    column_encoding only when keyed by the leaf path; keyed by the column
    name it silently writes PLAIN), only ``term`` carries statistics, and
    none of the columns the reader now derives at load is stored."""
    groups = [
        ({"a": np.arange(0, 600, 3), "b": np.array([4, 9])}, 0),
        ({"a": np.arange(1, 600, 3)}, 1),
    ]
    vocab = pa.array(["a", "b"], pa.string())
    seg = str(tmp_path / "bg-000.parquet")
    segments.write_bucket_group(
        seg, str(tmp_path / "lex.parquet"), vocab, np.array([400, 2]),
        (_group(p, s) for p, s in groups),
    )
    md = pq.ParquetFile(seg).metadata
    assert md.schema.to_arrow_schema().names == [
        "term", "salt", "doc_ids", "tfs", "positions",
    ]
    for i in range(md.num_row_groups):
        leaves = {}
        for j in range(md.num_columns):
            c = md.row_group(i).column(j)
            leaves[c.path_in_schema] = c
            assert c.compression == "ZSTD"
            assert c.is_stats_set == (c.path_in_schema == "term")
        lists = [p for p in leaves if p.endswith(".list.element")]
        assert sorted(lists) == [
            "doc_ids.list.element", "positions.list.element",
            "tfs.list.element",
        ]
        for p in lists:
            assert "DELTA_BINARY_PACKED" in leaves[p].encodings, p
            assert "PLAIN" not in leaves[p].encodings, p
        for gone in ("doclens", "block_last_doc", "block_max_impact", "df_chunk"):
            assert not any(p.split(".")[0] == gone for p in leaves), gone


def _block_metadata_reference(ids, impacts, block_size=128):
    """Literal block-max definition: the last docno and the largest impact
    of each run of ``block_size`` postings."""
    last, mx = [], []
    for s in range(0, len(ids), block_size):
        last.append(int(ids[min(s + block_size, len(ids)) - 1]))
        mx.append(max(float(x) for x in impacts[s : s + block_size]))
    return last, mx


def test_block_metadata_matches_reference_at_block_edges():
    """The load-time block metadata (np.maximum.reduceat) is bit-identical
    to the literal definition on either side of a block boundary and over
    many blocks."""
    rng = np.random.default_rng(11)
    for n in (1, 127, 128, 129, 5000):
        ids = np.sort(rng.choice(10**6, size=n, replace=False)).astype(np.uint64)
        tfs = rng.integers(1, 9, n).astype(np.float64)
        dls = rng.integers(5, 900, n).astype(np.float64)
        impacts = tfs * 2.2 / (tfs + 1.2 * (0.25 + (0.75 * dls) / 311.7))
        last, mx = codec.block_metadata(ids, impacts)
        want_last, want_mx = _block_metadata_reference(ids, impacts)
        assert last.dtype == np.uint64 and mx.dtype == np.float64
        assert last.tolist() == want_last, n
        assert mx.tolist() == want_mx, n  # exact float equality
