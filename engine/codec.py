"""Integer-sequence encoders (delta + varint (LEB128) + PForDelta) and
block-max metadata.

Segment files store postings as native Parquet list columns whose leaves
are DELTA_BINARY_PACKED (engine/segments.py), so Parquet decodes them in
C++; the engine itself no longer decodes any of these formats.  The
encoders stay as a vectorized numpy reference for the benchmark's codec
throughput probe; ``block_metadata`` is what the reader derives its
per-block impact maxima with at chunk load.

`ints_encode` emits a 1-byte tag and the SMALLER of (varint, PForDelta):
PFor (Zukowski et al. 2006; NewPFD exception layout per Yan, Ding & Suel
WWW'09) bit-packs each 128-value frame at a width covering the common case
and patches outliers separately, beating varint on the near-uniform delta
streams long posting lists produce, while varint wins on short/skewed lists.
"""

from __future__ import annotations

import numpy as np

from .schema import BLOCK_SIZE

_MAX_VARINT_BYTES = 10
_PFOR_FRAME = 128
_TAG_VARINT = 0
_TAG_PFOR = 1


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, vectorized (loop over byte position only)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # bytes needed per value: ceil(bit_length / 7), min 1
    lens = np.ones(v.size, dtype=np.int64)
    shifted = v >> np.uint64(7)
    while shifted.any():
        lens += (shifted > 0).astype(np.int64)
        shifted = shifted >> np.uint64(7)
    ends = np.cumsum(lens)
    starts = ends - lens
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for j in range(_MAX_VARINT_BYTES):
        mask = lens > j
        if not mask.any():
            break
        pos = starts[mask] + j
        byte = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (lens[mask] > j + 1).astype(np.uint8) << 7
        out[pos] = byte | cont
    return out.tobytes()


def _bit_lengths(v: np.ndarray) -> np.ndarray:
    """Bit length per value, min 1 (so a frame of zeros still packs)."""
    bl = np.ones(v.size, dtype=np.int64)
    shifted = v >> np.uint64(1)
    while shifted.any():
        bl += (shifted > 0).astype(np.int64)
        shifted >>= np.uint64(1)
    return bl


def _pfor_plan(v: np.ndarray) -> dict:
    """Width choice + exception layout for PFor — pure histogram math, no
    bit packing.  Produces everything both the packer and the exact
    encoded-size formula need, so `ints_encode` can pick a codec WITHOUT
    encoding twice."""
    n = v.size
    F = (n + _PFOR_FRAME - 1) // _PFOR_FRAME
    pad = F * _PFOR_FRAME - n
    vp = np.concatenate([v, np.zeros(pad, np.uint64)]).reshape(F, _PFOR_FRAME)
    bl_flat = _bit_lengths(vp.reshape(-1))
    bl = bl_flat.reshape(F, _PFOR_FRAME)
    if pad:
        bl[-1, _PFOR_FRAME - pad:] = 0  # padding is never an exception
    # per-frame width choice: hist of bit lengths -> suffix counts -> argmin
    H = np.zeros((F, 66), dtype=np.int64)
    np.add.at(H, (np.repeat(np.arange(F), _PFOR_FRAME), bl.reshape(-1)), 1)
    cnt_gt = H[:, ::-1].cumsum(axis=1)[:, ::-1]  # cnt_gt[:, b+1] = #(bl > b)
    bs = np.arange(1, 65)
    n_in_frame = np.full(F, _PFOR_FRAME, np.int64)
    if pad:
        n_in_frame[-1] = _PFOR_FRAME - pad
    packed_cost = (n_in_frame[:, None] * bs[None, :] + 7) // 8
    costs = packed_cost + 3 * cnt_gt[:, 2:]
    b_star = costs.argmin(axis=1) + 1  # (F,)
    packed_len = packed_cost[np.arange(F), b_star - 1]
    offs = np.concatenate(([0], np.cumsum(packed_len)))
    exc_mask = bl > b_star[:, None]
    exc_frame, exc_pos = np.nonzero(exc_mask)
    highs = vp[exc_frame, exc_pos] >> b_star[exc_frame].astype(np.uint64)
    n_exc = exc_mask.sum(axis=1)
    high_lens_per_val = np.maximum(
        (bl[exc_frame, exc_pos] - b_star[exc_frame] + 6) // 7, 1
    )
    high_len = np.zeros(F, dtype=np.int64)
    if exc_frame.size:
        np.add.at(high_len, exc_frame, high_lens_per_val)
    size = int(4 * F + offs[-1] + exc_pos.size + high_len.sum())
    return {
        "F": F, "vp": vp, "bl": bl, "b_star": b_star,
        "packed_len": packed_len, "offs": offs,
        "exc_pos": exc_pos, "highs": highs,
        "n_exc": n_exc, "high_len": high_len, "size": size,
        "varint_size": int(np.maximum((bl_flat[:n] + 6) // 7, 1).sum()),
    }


def pfor_encode(values: np.ndarray, plan: dict | None = None) -> bytes:
    """PForDelta, fully vectorized (no per-frame Python loop on full frames).

    Layout (count is external, like varint's):

        headers   4 bytes per frame: b(u8), n_exc(u8), high_len(u16 LE)
        packed    per-frame b-bit LSB-first low bits, concatenated
                  (a full 128-value frame is exactly 16*b bytes)
        positions all frames' exception positions (u8, frame order)
        highs     all frames' exception high bits, ONE varint stream

    Frame width b minimizes 16*b + ~3 bytes per exception; exceptions patch
    values whose bit length exceeds b.  Grouping full frames by width makes
    encode/decode a handful of numpy passes regardless of frame count, and
    all bit moves are byte-wise (unpackbits/packbits — a shift-matrix
    formulation costs 8 bytes per bit and dominates runtime).
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    p = plan if plan is not None else _pfor_plan(v)
    F, vp = p["F"], p["vp"]
    b_star, packed_len, offs = p["b_star"], p["packed_len"], p["offs"]
    n_exc, high_len = p["n_exc"], p["high_len"]
    packed = np.zeros(int(offs[-1]), dtype=np.uint8)
    for b in np.unique(b_star):
        sel = np.nonzero(b_star == b)[0]
        mask = np.uint64((1 << int(b)) - 1) if b < 64 else np.uint64(2**64 - 1)
        for c0 in range(0, sel.size, 4096):  # bound peak bits memory
            chunk = sel[c0:c0 + 4096]
            low = vp[chunk] & mask
            le = np.ascontiguousarray(low.astype("<u8")).view(np.uint8)
            bits = np.unpackbits(
                le.reshape(len(chunk), _PFOR_FRAME, 8), axis=-1,
                bitorder="little",
            ).reshape(len(chunk), _PFOR_FRAME, 64)[:, :, : int(b)]
            pb = np.packbits(
                np.ascontiguousarray(bits).reshape(len(chunk), -1),
                axis=-1, bitorder="little",
            )
            pos = offs[chunk][:, None] + np.arange(pb.shape[1])
            # the last (padded) frame may have a shorter packed_len
            valid = pos < offs[chunk][:, None] + packed_len[chunk][:, None]
            packed[pos[valid]] = pb[valid]
    if n_exc.max(initial=0) > 255 or high_len.max(initial=0) > 65535:
        raise ValueError("pfor frame exception overflow")  # impossible: <=128 exc
    headers = np.zeros((F, 4), dtype=np.uint8)
    headers[:, 0] = b_star
    headers[:, 1] = n_exc
    headers[:, 2] = high_len & 0xFF
    headers[:, 3] = high_len >> 8
    return (
        headers.tobytes()
        + packed.tobytes()
        + p["exc_pos"].astype(np.uint8).tobytes()
        + varint_encode(p["highs"])
    )


def ints_encode(values: np.ndarray) -> bytes:
    """Tagged integer-sequence codec: 1-byte tag + the smaller of varint and
    PForDelta, chosen from EXACT computed sizes (histogram math only) so
    exactly one codec ever runs its packing pass.  Lists shorter than one
    PFor frame go straight to varint (per-frame headers make it win there,
    and most term chunks in a Zipf vocabulary are short)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    if v.size < _PFOR_FRAME:
        return bytes((_TAG_VARINT,)) + varint_encode(v)
    plan = _pfor_plan(v)
    if plan["size"] < plan["varint_size"]:
        return bytes((_TAG_PFOR,)) + pfor_encode(v, plan)
    return bytes((_TAG_VARINT,)) + varint_encode(v)


def delta_encode(sorted_values: np.ndarray) -> bytes:
    """First value + successive deltas, tagged-codec-encoded (varint or
    PForDelta, whichever is smaller). Input must be sorted asc."""
    v = np.ascontiguousarray(sorted_values, dtype=np.uint64)
    if v.size == 0:
        return b""
    deltas = np.empty_like(v)
    deltas[0] = v[0]
    np.subtract(v[1:], v[:-1], out=deltas[1:])
    return ints_encode(deltas)


def block_metadata(
    doc_ids: np.ndarray, impacts: np.ndarray, block_size: int = BLOCK_SIZE
) -> np.ndarray:
    """Per-block max impact: `_single_term` visits a run's blocks in
    descending max order and stops once no unvisited block can score.

    Blocks are consecutive runs of `block_size` postings in docID order.
    max_impact excludes the per-term idf factor (a constant multiplier
    applied at query time), so the bound stays exact.
    """
    if doc_ids.size == 0:
        return np.empty(0, dtype=np.float64)
    starts = np.arange(0, doc_ids.size, block_size)
    return np.maximum.reduceat(impacts.astype(np.float64, copy=False), starts)
