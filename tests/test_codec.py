import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from engine import codec


def _leb128_decode(buf: bytes) -> list[int]:
    """Reference LEB128 decoder, one byte at a time."""
    out, cur, shift = [], 0, 0
    for byte in buf:
        cur |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            out.append(cur)
            cur, shift = 0, 0
    assert shift == 0, "truncated varint"
    return out


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
@settings(max_examples=100, deadline=None)
def test_varint_roundtrip(values):
    arr = np.array(values, dtype=np.uint64)
    assert _leb128_decode(codec.varint_encode(arr)) == values


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(values):
    arr = np.sort(np.array(values, dtype=np.uint64))
    enc = codec.delta_encode(arr)
    gaps = np.diff(arr, prepend=np.uint64(0))
    assert enc == codec.ints_encode(gaps)
    if enc[0] == 0:  # the varint branch: decode and undo the deltas
        assert np.array_equal(
            np.cumsum(np.array(_leb128_decode(enc[1:]), np.uint64), dtype=np.uint64),
            arr,
        )


def test_varint_empty():
    assert codec.varint_encode(np.empty(0, np.uint64)) == b""


def test_varint_known_bytes():
    # LEB128: 300 = 0b1_0101100 -> 0xAC 0x02
    assert codec.varint_encode(np.array([300], np.uint64)) == b"\xac\x02"
    assert codec.varint_encode(np.array([0, 1, 127, 128], np.uint64)) == b"\x00\x01\x7f\x80\x01"


def test_block_metadata():
    ids = np.arange(0, 300, dtype=np.uint64)
    impacts = np.linspace(1.0, 4.0, 300)
    mx = codec.block_metadata(ids, impacts, block_size=128)
    assert mx.size == 3
    assert mx[0] == impacts[127] and mx[1] == impacts[255] and mx[2] == impacts[299]


def test_pfor_roundtrip_and_wins_on_uniform_deltas():
    rng = np.random.default_rng(7)
    # near-uniform small deltas + a few outliers: PFor's home turf
    deltas = rng.integers(1, 200, 5000).astype(np.uint64)
    deltas[::997] = 2**40  # outliers become exceptions
    enc = codec.ints_encode(deltas)
    assert enc[0] == 1, "expected the PFor branch to win"
    assert enc[1:] == codec.pfor_encode(deltas)
    # varint of the same stream is larger
    assert len(enc) < len(codec.varint_encode(deltas)) + 1


def test_tagged_codec_picks_varint_for_tiny_lists():
    vals = np.array([5, 1, 3], dtype=np.uint64)
    assert codec.ints_encode(vals) == b"\x00" + codec.varint_encode(vals)


def test_pfor_edge_cases():
    # the exact size formula ints_encode picks a codec by must match the
    # packed output, including all-zero, full-width and single-value frames
    for vals in (
        np.zeros(300, dtype=np.uint64),
        np.full(128, 2**63 - 1, dtype=np.uint64),
        np.arange(1, dtype=np.uint64),
        np.array([0, 2**63 - 1] * 130, dtype=np.uint64),
    ):
        assert len(codec.pfor_encode(vals)) == codec._pfor_plan(vals)["size"]
