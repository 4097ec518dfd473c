"""The bucket-group segment format in process (no Ray): chunks written by
write_bucket_group are found again through the lexicon and decode to the
postings that went in, with one row group per (bucket, salt) group."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from engine import segments
from engine.segments import Lexicon, RowGroup, compress_group


def _group(postings: dict[str, np.ndarray], salt: int) -> pa.Table:
    """{term: sorted docnos} -> one compressed (bucket, salt) group; tf and
    doclen are functions of the docno, so decoding can be checked."""
    terms = [t for t, ids in postings.items() for _ in ids]
    ids = np.concatenate(list(postings.values())).astype(np.uint64)
    tfs = (ids % 5 + 1).astype(np.int32)
    dls = (ids % 97 + 10).astype(np.float64)
    impacts = tfs / (tfs + dls / 50.0)
    t = pa.table({
        "term": pa.array(terms, pa.string()),
        "doc_id": pa.array(ids, pa.uint64()),
        "tf": pa.array(tfs, pa.int32()),
    })
    return compress_group(t, impacts, dls, salt)


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
            g = RowGroup(pf.read_row_group(rg, columns=RowGroup.COLUMNS))
            ids, tfs, dls = g.raw(row)
            assert np.array_equal(ids, want)
            assert np.array_equal(tfs, want % 5 + 1)
            assert np.array_equal(dls, want % 97 + 10)
            last, mx = g.blocks(row)
            assert last.size == mx.size == -(-want.size // 128)
            assert last[-1] == want[-1]
    assert lexicon.chunks("absent") == []
