"""Media rows: magic-byte content-type sniffing over opaque binary payloads.

The sniffer is the reference's archive sniffer (SURVEY.md §2.1 S3,
download_and_extract_paper.py:48-95): classify a payload by its leading
bytes and dispatch on the result.  Pixels and samples are never decoded;
``media_features`` reports what the bytes are, how many there are, and a
deterministic stand-in embedding.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MAGIC = [
    (b"PK\x03\x04", "application/zip"),
    (b"\x1f\x8b", "application/gzip"),
    (b"\x89PNG\r\n\x1a\n", "image/png"),
    (b"\xff\xd8\xff", "image/jpeg"),
    (b"P6", "image/x-portable-pixmap"),
    (b"BM", "image/bmp"),
    (b"<html", "text/html"),
    (b"<!doc", "text/html"),
]

EMBED_DIM = 16


def sniff_content_type(payload: bytes) -> str:
    """Magic-byte detection (S3 analog: zip/tar/gzip/raw dispatch)."""
    if not payload:
        return "application/empty"
    head = payload[:16]
    if head[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "audio/wav"
    for magic, ctype in _MAGIC:
        if head[: len(magic)].lower().startswith(magic.lower()):
            return ctype
    if len(payload) > 262 and payload[257:262] == b"ustar":
        return "application/x-tar"
    return "application/octet-stream"


def fake_embedding(payload: bytes, dim: int = EMBED_DIM) -> np.ndarray:
    """Deterministic payload 'feature vector' (stands in for a real encoder):
    blake2b-seeded pseudo-random unit vector, stable across processes."""
    seed = int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _featurize(batch: pa.Table) -> pa.Table:
    """(media_id, payload) rows -> (media_id, content_type, n_bytes,
    embedding); the payload column is dropped so downstream stages never
    re-ship the bytes."""
    payloads = batch.column("payload").to_pylist()
    return pa.table(
        {
            "media_id": batch.column("media_id"),
            "content_type": pa.array(
                [sniff_content_type(p) for p in payloads], pa.string()
            ),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
            "embedding": pa.array(
                [fake_embedding(p).astype(np.float32).tolist() for p in payloads],
                pa.list_(pa.float32(), EMBED_DIM),
            ),
        }
    )


def _fixture_payloads() -> list[bytes]:
    """Deterministic media payloads: the synthetic corpus's html bytes, with
    rows 0-7 replaced by magic-byte headers (PNG, BMP, PPM, WAV, JPEG, zip,
    gzip) and one empty payload."""
    from .. import synth

    payloads = synth.gen_pages_table(200)["html"].to_pylist()
    pad = b"\x00" * 64
    payloads[0] = b"\x89PNG\r\n\x1a\n" + pad
    payloads[1] = b"BM" + pad
    payloads[2] = b"P6\n32 24\n255\n" + pad
    payloads[3] = b"RIFF" + (72).to_bytes(4, "little") + b"WAVEfmt " + pad
    payloads[4] = b"\xff\xd8\xff\xe0" + pad
    payloads[5] = b"PK\x03\x04" + pad
    payloads[6] = b"\x1f\x8b\x08" + pad
    payloads[7] = b""
    return payloads


def media_features(sf_dir: str):
    """Sniff and embed a deterministic synthetic media table (the testdata
    has no binary column).  Rows-only: 200 rows of media_id, content_type,
    n_bytes, embedding."""
    import ray.data as rd

    payloads = _fixture_payloads()
    tbl = pa.table(
        {
            "media_id": pa.array(range(len(payloads)), pa.uint64()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )
    return rd.from_arrow(tbl).map_batches(
        _featurize, batch_format="pyarrow", zero_copy_batch=True
    )
