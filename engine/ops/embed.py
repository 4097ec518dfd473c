"""Pluggable text-embedding stage: registry + actor-pool batch inference.

The reference generates document embeddings with per-model embedder classes
selected from a registry and batched GPU inference
(/root/reference/ec2/generate_embeddings/embedders.py:1-4,
/root/reference/ec2/generate_embeddings/embeddings.py:10-40), keeping one
embedding table per model.  No model weights or GPUs exist in this sandbox,
so the default registry entries are REAL in every sense that matters for the
dataflow — an actual mathematical embedding model (feature hashing, Weinberger
et al., ICML 2009, composed with a seeded Gaussian Johnson–Lindenstrauss
projection) whose weights are materialized once per actor in ``__init__``
(the "model load"), with fully vectorized batch inference in ``__call__`` —
while remaining deterministic and dependency-free.  A user plugs a learned
model in by registering a factory whose object exposes the same
``embed_batch(texts) -> (n, dim) float32`` contract.

Scale shape: embedding is embarrassingly parallel batch inference — an actor
pool sized by ``concurrency`` with per-actor ``num_gpus``/``num_cpus`` (the
standard Ray Data GPU-inference topology).  Output is (doc_id, embedding
list<float32>) rows that flow straight into the ANN / dedup operators
(engine/ops/ann.py) or a per-model parquet sink, mirroring the reference's
per-model EMBED_TABLE layout (engine/family.py holds the index-side analog).
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..analyze import SPLIT_PATTERN
from .keyed import F64, I64, collect

# ---------------------------------------------------------------------------
# registry (reference: embedders.py's name -> class map)
# ---------------------------------------------------------------------------

EMBEDDERS: dict[str, Callable[..., "HashedProjectionEmbedder"]] = {}


def register_embedder(name: str):
    """Register an embedder factory under ``name`` (decorator)."""

    def deco(factory):
        EMBEDDERS[name] = factory
        return factory

    return deco


def make_embedder(name: str, **kw):
    """Instantiate a registered embedder (raises KeyError with the known
    names, like the reference's model dropdown)."""
    if name not in EMBEDDERS:
        raise KeyError(
            f"unknown embedder {name!r}; registered: {sorted(EMBEDDERS)}"
        )
    return EMBEDDERS[name](**kw)


# ---------------------------------------------------------------------------
# the default model family
# ---------------------------------------------------------------------------

_HASH_DIM = 4096  # sparse feature-hash width before projection


def _hash_token(tok: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big"
    )


class HashedProjectionEmbedder:
    """token/bigram feature hashing -> seeded Gaussian projection -> L2.

    - Features: analyzer-spec unigrams plus adjacent-token bigrams, hashed
      into ``_HASH_DIM`` buckets with a sign bit (the unbiased signed hash
      kernel of the feature-hashing construction).
    - Projection: a ``(_HASH_DIM, dim)`` N(0, 1/dim) matrix drawn from a
      fixed seed — built ONCE per instance (per actor), the analog of
      loading model weights.
    - Output: L2-normalized float32 rows, so downstream cosine ops can use
      a plain dot product.
    """

    def __init__(self, dim: int = 256, seed: int = 0x5EED):
        self.dim = dim
        rng = np.random.default_rng(seed)
        self.proj = rng.standard_normal((_HASH_DIM, dim)).astype(
            np.float64
        ) / np.sqrt(dim)

    # -- vectorized batch inference ------------------------------------
    def embed_batch(self, texts: pa.Array | list[str]) -> np.ndarray:
        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(list(texts), pa.string())
        n = len(texts)
        if n == 0:
            return np.empty((0, self.dim), dtype=np.float32)
        lower = pc.utf8_lower(texts)
        lists = pc.split_pattern_regex(lower, pattern=SPLIT_PATTERN)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = lists.flatten()
        sparse = np.zeros(n * _HASH_DIM, dtype=np.float64)
        if len(flat):
            parents = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
            de = flat.dictionary_encode()
            if isinstance(de, pa.ChunkedArray):
                de = de.combine_chunks()
            codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = de.dictionary.to_pylist()
            # only the batch's UNIQUE tokens are hashed in Python; the
            # occurrence stream is a vectorized gather (same pattern as the
            # dedup kernels)
            vh = np.fromiter(
                (_hash_token(t) for t in vocab), dtype=np.uint64, count=len(vocab)
            )
            try:
                empty_code = vocab.index("")
            except ValueError:
                empty_code = -1
            h = vh[codes]
            if empty_code >= 0:
                keep = codes != empty_code
                h, parents = h[keep], parents[keep]
            feats, fparents = [h], [parents]
            if h.size > 1:  # adjacent-token bigrams within one doc
                adj = parents[1:] == parents[:-1]
                mix = (h[:-1] ^ (h[1:] * np.uint64(0x9E3779B97F4A7C15)))[adj]
                feats.append(mix)
                fparents.append(parents[1:][adj])
            f = np.concatenate(feats)
            fp = np.concatenate(fparents)
            idx = (f % np.uint64(_HASH_DIM)).astype(np.int64)
            sign = np.where(f >> np.uint64(63), -1.0, 1.0)
            np.add.at(sparse, fp * _HASH_DIM + idx, sign)
        x = sparse.reshape(n, _HASH_DIM) @ self.proj
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return (x / np.maximum(norms, 1e-30)).astype(np.float32)


@register_embedder("hashed-256")
def _hashed_256(**kw):
    return HashedProjectionEmbedder(dim=256, **kw)


@register_embedder("hashed-64")
def _hashed_64(**kw):
    return HashedProjectionEmbedder(dim=64, **kw)


# ---------------------------------------------------------------------------
# the Ray stage
# ---------------------------------------------------------------------------


class EmbedStage:
    """Actor-pool batch-inference stage: model built once per actor, batches
    embedded vectorized.  ``text_col``/``id_col`` make it reusable over any
    table with a text column."""

    def __init__(self, model: str = "hashed-256", text_col: str = "text",
                 id_col: str = "doc_id", **model_kw):
        self.embedder = make_embedder(model, **model_kw)
        self.model = model
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column(self.text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        m = self.embedder.embed_batch(texts)
        flat = pa.array(m.reshape(-1), pa.float32())
        offsets = pa.array(
            np.arange(0, (len(t) + 1) * self.embedder.dim, self.embedder.dim,
                      dtype=np.int32)
        )
        return pa.table(
            {
                self.id_col: t.column(self.id_col),
                "embedding": pa.ListArray.from_arrays(offsets, flat),
            }
        )


def embed_documents(
    sf_dir: str,
    model: str = "hashed-256",
    *,
    concurrency: int | tuple[int, int] = (1, 8),
    batch_size: int = 512,
    num_gpus: float | None = None,
    num_cpus: float | None = None,
) -> rd.Dataset:
    """documents.parquet -> (doc_id, embedding list<float32>) Dataset.

    ``num_gpus``/``num_cpus`` flow to the actor pool per the standard Ray
    GPU-inference topology (the reference's embedding workers pin one model
    per GPU, ec2/generate_embeddings/embeddings.py:10-14; a learned registry
    entry here would set num_gpus=1 and size concurrency to the GPU count).
    An EXPLICIT value — including num_gpus=0, the zero-GPU no-op this
    sandbox can schedule — is passed through to Ray verbatim, so the
    resource plumbing is exercisable without hardware; None omits the arg.
    """
    import os

    remote_args = {}
    if num_gpus is not None:
        remote_args["num_gpus"] = num_gpus
    if num_cpus is not None:
        remote_args["num_cpus"] = num_cpus
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(
        EmbedStage,
        fn_constructor_kwargs={"model": model},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        **remote_args,
    )


def doc_embed_knn(sf_dir: str, model: str = "hashed-256", k: int = 5):
    """Flagship self-retrieval over REGISTRY embeddings: embed the documents
    table, then for a fixed probe set return the top-k most-similar docs by
    cosine (excluding self).  Near-duplicate docs surface each other at
    sim ~ 1.0, which is what an embedding near-dup pass consumes.

    Non-SQL-expressible (model inference); the pytest oracle re-derives the
    embeddings with an independent per-doc Python loop and brute-force numpy
    cosine (tests/test_embed.py).
    """
    import os

    import pyarrow.parquet as pq
    import ray

    # probe embeddings: pushdown-read the 10 probe rows, embed on the driver
    # with the SAME registry model (deterministic weights) — the query side
    # of the broadcast, never a second full inference pass
    probe_ids = list(range(10))
    pt = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", probe_ids)],
    ).sort_by("doc_id")
    q_ids = pt["doc_id"].to_numpy(zero_copy_only=False)
    q_m = make_embedder(model).embed_batch(
        pt["text"].combine_chunks()
    ).astype(np.float64)
    ref = ray.put((q_ids, q_m))

    schema = pa.schema({"query_doc": I64, "doc_id": I64, "sim_r": F64})

    class _TopK:
        def __init__(self):
            self.q_ids, self.q_m = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            if not len(ids):
                return schema.empty_table()
            col = t["embedding"]
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            m = arr.flatten().to_numpy(zero_copy_only=False).astype(
                np.float64, copy=False
            ).reshape(len(arr), -1)
            sims = self.q_m @ m.T  # rows L2-normalized at embed time
            out_q, out_d, out_s = [], [], []
            for qi, qid in enumerate(self.q_ids):
                s = sims[qi]
                keep = ids != qid  # exclude self
                cand_s, cand_d = np.round(s[keep], 6), ids[keep]
                if cand_s.size == 0:
                    continue
                kk = min(k, cand_s.size)
                # tie-CLOSED cut (everything at or above the kk-th rounded
                # sim): exact duplicates tie exactly, and an open cut would
                # keep an arbitrary member per batch split — the global
                # reduce breaks ties by doc_id deterministically
                thr = -np.partition(-cand_s, kk - 1)[kk - 1]
                cut = cand_s >= thr
                out_q.append(np.full(int(cut.sum()), qid, dtype=np.int64))
                out_d.append(cand_d[cut])
                out_s.append(cand_s[cut])
            return pa.table(
                {
                    "query_doc": pa.array(np.concatenate(out_q), pa.int64()),
                    "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                    "sim_r": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    parts = collect(
        embed_documents(sf_dir, model=model).map_batches(
            _TopK, batch_format="pyarrow", concurrency=(1, 4)
        ),
        schema,
    )
    # global reduce: per-query exact top-k over the per-batch top-ks
    parts = parts.sort_values(
        ["query_doc", "sim_r", "doc_id"], ascending=[True, False, True]
    )
    out = parts.groupby("query_doc", sort=True).head(k).reset_index(drop=True)
    out["rank"] = out.groupby("query_doc").cumcount() + 1
    return out[["query_doc", "rank", "doc_id", "sim_r"]]
