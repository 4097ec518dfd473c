"""Multi-source ingest pipeline under the DuckDB gate (S5/S6 + D3).

Deterministically splits the `documents` table into two physical sources —
even doc_ids as parquet files, odd doc_ids as zip archives of JSONL members
(the reference's stacks-dump shape, ec2/upsert_stacks/__main__.py:19-69) —
then reads both back through their real readers, unions them under a `src`
discriminator, and recomputes n_chars FROM THE ROUND-TRIPPED TEXT so the
oracle catches any reader corruption, not just row counts.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..sources import read_jsonl_zip, union_with_source

NUM_PQ_FILES = 2
NUM_ZIPS = 2
MEMBERS_PER_ZIP = 3


def write_split_sources(sf_dir: str, root: str) -> tuple[str, str]:
    """documents -> root/pq/*.parquet (even ids) + root/zips/*.zip (odd)."""
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text", "lang"]
    )
    ids = docs["doc_id"].to_numpy()
    pq_dir, zip_dir = os.path.join(root, "pq"), os.path.join(root, "zips")
    os.makedirs(pq_dir, exist_ok=True)
    os.makedirs(zip_dir, exist_ok=True)
    # numpy masks stay boolean-typed also over an empty table
    even = docs.filter(pa.array(ids % 2 == 0))
    even_ids = even["doc_id"].to_numpy()
    for k in range(NUM_PQ_FILES):
        mask = pa.array((even_ids // 2) % NUM_PQ_FILES == k)
        pq.write_table(even.filter(mask), os.path.join(pq_dir, f"part-{k}.parquet"))
    odd = docs.filter(pa.array(ids % 2 == 1)).to_pylist()
    for z in range(NUM_ZIPS):
        rows_z = [r for r in odd if (r["doc_id"] // 2) % NUM_ZIPS == z]
        with zipfile.ZipFile(
            os.path.join(zip_dir, f"dump-{z}.zip"), "w", zipfile.ZIP_DEFLATED
        ) as zf:
            for m in range(MEMBERS_PER_ZIP):
                lines = [
                    json.dumps(r, ensure_ascii=False)
                    for r in rows_z
                    if (r["doc_id"] // (2 * NUM_ZIPS)) % MEMBERS_PER_ZIP == m
                ]
                zf.writestr(f"member-{m}.jsonl", "\n".join(lines))
    return pq_dir, zip_dir


def _sources_for(sf_dir: str) -> tuple[str, str]:
    src = os.path.join(sf_dir, "documents.parquet")
    tag = hashlib.blake2b(
        f"msrc:{os.path.abspath(sf_dir)}:{os.path.getsize(src)}".encode(),
        digest_size=8,
    ).hexdigest()
    root = os.path.join(tempfile.gettempdir(), f"rayft_msrc_{tag}")
    done = os.path.join(root, ".complete")
    if not os.path.exists(done):
        write_split_sources(sf_dir, root)
        with open(done, "w") as f:
            f.write("ok")
    return os.path.join(root, "pq"), os.path.join(root, "zips")


def docs_union_sources(sf_dir: str) -> rd.Dataset:
    """-> (doc_id, src, lang, n_chars) over BOTH sources, id-sorted.

    n_chars is recomputed from the round-tripped text (utf8_length), so a
    reader that mangles content fails the hash even when counts match."""
    pq_dir, zip_dir = _sources_for(sf_dir)
    pq_ds = rd.read_parquet(pq_dir)
    zip_files = [
        os.path.join(zip_dir, f) for f in sorted(os.listdir(zip_dir))
        if f.endswith(".zip")
    ]
    zip_ds = read_jsonl_zip(zip_files)
    u = union_with_source(pq_ds, zip_ds)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "src": batch.column("src").cast(pa.string()),
                "lang": batch.column("lang"),
                "n_chars": pc.utf8_length(batch.column("text")).cast(pa.int64()),
            }
        )

    return u.map_batches(project, batch_format="pyarrow", batch_size=None).sort("doc_id")


DOCS_UNION_SOURCES_SQL = """
SELECT doc_id,
       CASE WHEN doc_id % 2 = 0 THEN 'parquet' ELSE 'jsonl_zip' END AS src,
       lang,
       length(text) AS n_chars
FROM documents
ORDER BY doc_id
"""
