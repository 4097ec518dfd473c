"""Similarity search over the `embeddings` table (list<float> column).

The reference's flagship query is pgvector ANN top-k
(/root/reference/streamlit_app.py:281-282, `ORDER BY embedding <#> q LIMIT k`).
Our Ray-Data equivalents:

- knn_topk          brute-force cosine: the query matrix is broadcast once
                    (ray.put), each batch does one numpy matmul, local top-k
                    per batch, tiny global merge. Exact -> DuckDB-verifiable.
- lsh_knn_topk      random-hyperplane LSH bucketing: the scale path; probes
                    only same/multi-probe buckets. Approximate -> rows-only
                    (recall vs brute force asserted in tests).
- cosine_dup_pairs  embedding near-dup pairs (sim >= threshold).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .keyed import F64, I64, STR, by_key, collect

QUERY_IDS = (0, 1, 2)
K = 10


def _read_emb(sf_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def _emb_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, float64 (n, d) matrix) — zero-copy list flatten + reshape,
    not a Python object per float (`to_pylist` was ~10x slower per batch)."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    if t.num_rows == 0:
        return ids, np.empty((0, 0), dtype=np.float64)
    col = t["embedding"]
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    # flatten() honors the array's offset/length; embeddings are fixed-dim
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    m = flat.astype(np.float64, copy=False).reshape(len(arr), -1)
    return ids, m


def _emb_nrows(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.ParquetFile(
        os.path.join(sf_dir, "embeddings.parquet")
    ).metadata.num_rows


def _load_queries(
    sf_dir: str, query_ids: tuple[int, ...] = QUERY_IDS
) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        filters=[("vec_id", "in", list(query_ids))],
    )
    ids, m = _emb_matrix(t)
    order = np.argsort(ids)
    return ids[order], m[order]


class _CosineTopK:
    """Actor-pool stage: per batch, sims vs the broadcast query matrix, local
    top-k rows emitted (global merge handles the rest)."""

    def __init__(self, q_ref, k: int, exclude_self: bool = False):
        self.q_ids, q = ray.get(q_ref)
        self.qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        self.k = k
        self.exclude_self = exclude_self

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(t)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        mn = m / np.maximum(norms, 1e-30)
        sims = mn @ self.qn.T  # (n_batch, n_queries)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.q_ids):
            s = sims[:, qi]
            cand_ids = ids
            if self.exclude_self:
                # DROP the probe row rather than -inf-masking it: on a batch
                # with fewer rows than k the masked row would otherwise reach
                # the global head(k) merge and can surface as (probe, -inf)
                # on small corpora (ADVICE round 4)
                alive = cand_ids != qid
                if not alive.all():
                    cand_ids, s = cand_ids[alive], s[alive]
            k = min(self.k, len(cand_ids))
            if k == 0:
                continue
            top = (
                np.argpartition(-s, k - 1)[:k]
                if k < len(cand_ids)
                else np.arange(len(cand_ids))
            )
            out_q.extend([int(qid)] * len(top))
            out_v.extend(cand_ids[top].tolist())
            out_s.extend(s[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )


def knn_topk(
    sf_dir: str,
    k: int = K,
    query_ids: tuple[int, ...] = QUERY_IDS,
    exclude_self: bool = False,
):
    """Exact cosine top-k for the fixed query vectors -> (query_id, vec_id,
    sim rounded, rank).  query_ids/exclude_self let composers (hybrid RRF
    retrieval in docsearch.py) reuse the same distributed kernel with their
    own probe set; defaults preserve the gated entry's behavior."""
    if _emb_nrows(sf_dir) == 0:
        return pd.DataFrame(
            {"query_id": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64"),
             "vec_id": pd.Series([], dtype="int64"),
             "sim_r": pd.Series([], dtype="float64")}
        )
    q_ref = ray.put(_load_queries(sf_dir, query_ids))
    ds = _read_emb(sf_dir).map_batches(
        _CosineTopK,
        fn_constructor_args=(q_ref, k, exclude_self),
        batch_format="pyarrow",
        concurrency=(1, 4),
        zero_copy_batch=True,
    )
    df = ds.to_pandas()  # tiny: n_batches * n_queries * k rows
    df["sim_r"] = df["sim"].round(6)
    df = df.sort_values(["query_id", "sim_r", "vec_id"], ascending=[True, False, True])
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df[["query_id", "rank", "vec_id", "sim_r"]]


KNN_TOPK_SQL = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id IN (0, 1, 2)
),
sims AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                      CAST(e.embedding AS DOUBLE[])), 6) AS sim_r
  FROM q CROSS JOIN embeddings e
),
ranked AS (
  SELECT query_id, vec_id, sim_r,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY sim_r DESC, vec_id) AS rank
  FROM sims
)
SELECT query_id, rank, vec_id, sim_r FROM ranked WHERE rank <= {K}
"""


# ---------------------------------------------------------------------------
_N_PLANES = 6  # bits per table
_N_TABLES = 16  # independent hash tables (classic LSH amplification)


class _LshBucketer:
    """Multi-table random-hyperplane LSH (actor-pool stage).

    Each vector gets one 6-bit sign-pattern bucket per table; the emitted key
    packs (table_id << _N_PLANES) | bucket so a single groupby key spans all
    tables.  On clustered real-world embeddings each table prunes hard; on
    near-uniform random vectors (these fixtures) LSH degenerates toward a
    scan — expected, and why the exact brute-force path stays the baseline.
    """

    def __init__(self, dim: int = 64, seed: int = 11):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, _N_TABLES * _N_PLANES))

    def keys_of(self, m: np.ndarray) -> np.ndarray:
        """(n, _N_TABLES) int64 keys."""
        bits = (m @ self.planes) > 0  # (n, T*P)
        bits = bits.reshape(len(m), _N_TABLES, _N_PLANES)
        buckets = bits @ (1 << np.arange(_N_PLANES))
        return (np.arange(_N_TABLES)[None, :] << _N_PLANES | buckets).astype(np.int64)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(t)
        keys = self.keys_of(m)  # (n, T)
        n = len(ids)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, _N_TABLES), pa.int64()),
                "bucket": pa.array(keys.reshape(-1), pa.int64()),
            }
        )


class _LshProbeTopK(_LshBucketer):
    """Single-pass probe: per batch, compute each vector's LSH keys, keep
    only vectors landing in a probed bucket, score ONLY those against the
    broadcast query matrix, emit local top-k rows.  The candidate set never
    leaves the workers (round 1 drained candidate ids to the driver and
    spliced them into a filter expression)."""

    def __init__(self, probe_ref, k: int, dim: int = 64, seed: int = 11):
        super().__init__(dim=dim, seed=seed)
        self.q_ids, qn, probe_keys = ray.get(probe_ref)
        self.qn = qn
        self.probe = np.sort(probe_keys)
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(t)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if len(ids) == 0 or self.probe.size == 0:
            return empty
        keys = self.keys_of(m)  # (n, T)
        pos = np.searchsorted(self.probe, keys)
        pos = np.minimum(pos, self.probe.size - 1)
        hit = (self.probe[pos] == keys).any(axis=1)
        if not hit.any():
            return empty
        ids, m = ids[hit], m[hit]
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = mn @ self.qn.T
        out_q, out_v, out_s = [], [], []
        k = min(self.k, len(ids))
        for qi, qid in enumerate(self.q_ids):
            s = sims[:, qi]
            top = np.argpartition(-s, k - 1)[:k] if k < len(ids) else np.arange(len(ids))
            out_q.extend([int(qid)] * len(top))
            out_v.extend(ids[top].tolist())
            out_s.extend(s[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )


def _query_directed_probes(
    b: _LshBucketer, q: np.ndarray, budget: int
) -> set[int]:
    """Query-directed multiprobe (Lv et al., VLDB'07): per table, probe the
    `budget` buckets whose flipped-bit margin sum is smallest — the buckets
    a near neighbor most probably fell into.  At equal probe cost this
    dominates uniform hamming-radius probing (measured on the fixtures:
    budget 6 = radius-1 recall at ~20% less corpus scanned)."""
    masks = np.arange(1 << _N_PLANES)
    bitmat = ((masks[:, None] >> np.arange(_N_PLANES)) & 1).astype(bool)  # (64, P)
    probe: set[int] = set()
    for qv in q:
        proj = (qv @ b.planes).reshape(_N_TABLES, _N_PLANES)
        base = (proj > 0) @ (1 << np.arange(_N_PLANES))
        for tb in range(_N_TABLES):
            scores = bitmat @ np.abs(proj[tb])  # flip cost of each mask
            for mk in masks[np.argsort(scores)[:budget]]:
                probe.add(int(tb) << _N_PLANES | (int(base[tb]) ^ int(mk)))
    return probe


def lsh_knn_topk(
    sf_dir: str,
    k: int = K,
    probe_budget: int = 6,
    probe_radius: int | None = None,
):
    """Approximate cosine top-k via multi-table LSH with query-directed
    multiprobe, as a pure pipeline: probe keys are broadcast once,
    candidates are filtered + scored inside map_batches, and only per-batch
    top-k rows (result-scale) reach the final merge.  Rows-only check; tests
    assert recall vs knn_topk AND that the probe set genuinely prunes.

    `probe_budget` buckets are probed per (query, table), picked in
    flip-margin order; pass `probe_radius` instead to get the legacy uniform
    hamming-ball probing."""
    if _emb_nrows(sf_dir) == 0:
        return pd.DataFrame(
            {"query_id": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64"),
             "vec_id": pd.Series([], dtype="int64"),
             "sim_r": pd.Series([], dtype="float64")}
        )
    b = _LshBucketer()
    q_ids, q = _load_queries(sf_dir)
    if probe_radius is None:
        probe = _query_directed_probes(b, q, probe_budget)
    else:
        q_keys = b.keys_of(q)  # (nq, T)
        probe = set()
        for row in q_keys:
            for key in row:
                probe.add(int(key))
                if probe_radius >= 1:
                    for i in range(_N_PLANES):
                        probe.add(int(key) ^ (1 << i))
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    probe_ref = ray.put((q_ids, qn, np.array(sorted(probe), dtype=np.int64)))
    ds = _read_emb(sf_dir).map_batches(
        _LshProbeTopK,
        fn_constructor_args=(probe_ref, k),
        batch_format="pyarrow",
        concurrency=(1, 4),
        zero_copy_batch=True,
    )
    df = ds.to_pandas()  # tiny: n_batches * n_queries * k rows
    df["sim_r"] = df["sim"].round(6)
    df = df.sort_values(["query_id", "sim_r", "vec_id"], ascending=[True, False, True])
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df[["query_id", "rank", "vec_id", "sim_r"]]


# ---------------------------------------------------------------------------
# broadcast the full embedding matrix only while it fits this budget; above
# it the exact path switches to block-pair tasks whose per-task memory is two
# blocks (mirrors q3's adaptive driver-vs-distributed finalize pattern)
_BCAST_BUDGET_BYTES = 256 << 20


def cosine_dup_pairs(
    sf_dir: str,
    threshold: float = 0.4,
    broadcast_budget_bytes: int = _BCAST_BUDGET_BYTES,
):
    """Embedding near-dup pairs (a < b, cosine >= threshold) — exact.

    Adaptive: while the full normalized matrix fits `broadcast_budget_bytes`
    it is `ray.put` once and every batch does one matmul against it (fastest
    when the side fits, like a broadcast join).  Above the budget the SAME
    exact answer comes from block-pair tasks: the dataset is materialized as
    Arrow blocks in the object store and one task per unordered block pair
    (i <= j) multiplies two blocks — per-task memory is bounded by two
    blocks no matter the corpus size, and the O(N^2) work spreads over
    O(B^2) independent tasks.  Exact all-pairs is inherently quadratic;
    `lsh_cosine_dup_pairs` is the recommended sub-quadratic scale path.
    """
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    meta = pq.ParquetFile(path)
    n_rows = meta.metadata.num_rows
    dim = 0
    for b in meta.iter_batches(batch_size=1):
        if b.num_rows:
            dim = len(b.column("embedding")[0])
        break
    if n_rows * dim * 8 > broadcast_budget_bytes:
        return _cosine_dup_pairs_blocked(sf_dir, threshold)

    full = pq.read_table(path)
    f_ids, f_m = _emb_matrix(full)
    f_mn = f_m / np.maximum(np.linalg.norm(f_m, axis=1, keepdims=True), 1e-30)
    ref = ray.put((f_ids, f_mn))

    class _Pairs:
        def __init__(self):
            self.f_ids, self.f_mn = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids, m = _emb_matrix(t)
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            sims = mn @ self.f_mn.T
            ai, bi = np.nonzero(sims >= threshold)
            a = ids[ai]
            b = self.f_ids[bi]
            keep = a < b
            return pa.table(
                {
                    "a": pa.array(a[keep], pa.int64()),
                    "b": pa.array(b[keep], pa.int64()),
                    "sim_r": pa.array(np.round(sims[ai, bi][keep], 6), pa.float64()),
                }
            )

    return _read_emb(sf_dir).map_batches(
        _Pairs, batch_format="pyarrow", concurrency=(1, 4), zero_copy_batch=True
    )


def _cosine_dup_pairs_blocked(sf_dir: str, threshold: float):
    """Exact pair generation without any corpus-wide broadcast: one task per
    unordered block pair fetches exactly two object-store blocks (zero-copy
    on the owning node) and emits its pairs.  Each unordered vector pair
    {x, y} lives in exactly one block pair, so `a < b` dedups globally."""
    blocks = _read_emb(sf_dir).materialize()
    refs = blocks.to_arrow_refs()
    n = len(refs)
    items = [{"i": i, "j": j} for i in range(n) for j in range(i, n)]
    if not items:
        return rd.from_items([]).map_batches(
            lambda t: pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "sim_r": pa.array([], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )

    class _BlockPairs:
        """Actor-pool stage with a tiny per-actor cache of normalized blocks
        (a block participates in ~B pair tasks; renormalizing it each time
        is wasted matmul feed work)."""

        def __init__(self, refs):
            self.refs = refs
            self._cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def _norm_block(self, i: int) -> tuple[np.ndarray, np.ndarray]:
            got = self._cache.get(i)
            if got is None:
                ids, m = _emb_matrix(ray.get(self.refs[i]))
                mn = m / np.maximum(
                    np.linalg.norm(m, axis=1, keepdims=True), 1e-30
                )
                got = (ids, mn)
                if len(self._cache) >= 4:
                    self._cache.pop(next(iter(self._cache)))
                self._cache[i] = got
            return got

        def __call__(self, t: pa.Table) -> pa.Table:
            out_a, out_b, out_s = [], [], []
            for i, j in zip(t["i"].to_pylist(), t["j"].to_pylist()):
                ids_i, mn_i = self._norm_block(i)
                ids_j, mn_j = self._norm_block(j)
                if not len(ids_i) or not len(ids_j):
                    continue
                sims = mn_i @ mn_j.T
                ai, bi = np.nonzero(sims >= threshold)
                a, b = ids_i[ai], ids_j[bi]
                if i == j:
                    # both orderings (and the diagonal) appear: keep one
                    keep = a < b
                    a, b, s = a[keep], b[keep], sims[ai, bi][keep]
                else:
                    # each unordered pair appears exactly once; normalize
                    keep = a != b
                    a, b, s = a[keep], b[keep], sims[ai, bi][keep]
                    a, b = np.minimum(a, b), np.maximum(a, b)
                out_a.append(a)
                out_b.append(b)
                out_s.append(np.round(s, 6))
            if not out_a:
                return pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "sim_r": pa.array([], pa.float64()),
                    }
                )
            return pa.table(
                {
                    "a": pa.array(np.concatenate(out_a), pa.int64()),
                    "b": pa.array(np.concatenate(out_b), pa.int64()),
                    "sim_r": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    return rd.from_items(items, override_num_blocks=len(items)).map_batches(
        _BlockPairs,
        fn_constructor_args=(refs,),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def lsh_cosine_dup_pairs(sf_dir: str, threshold: float = 0.4):
    """Embedding near-dup pairs via LSH-bucketed pair generation — the scale
    path (cosine_dup_pairs' broadcast all-pairs form is the oracle anchor).

    Plan: each vector emits one (table, bucket) row per LSH table (the
    shuffle carries _N_TABLES small rows per vector, never the O(N^2) pair
    space); same-bucket vectors pair up inside groupby().map_groups; pairs
    found in several tables dedup on a final (a, b) groupby keeping max sim.
    Approximate (recall asserted vs the exact baseline in tests): a pair at
    sim >= threshold appears iff the two vectors share >= 1 of the
    _N_TABLES buckets.
    """

    class _BucketWithVec(_LshBucketer):
        """(vec_id, bucket, embedding) rows — embeddings ride the shuffle so
        the group can score pairs locally without a second lookup."""

        def __call__(self, t: pa.Table) -> pa.Table:
            ids, m = _emb_matrix(t)
            if len(ids) == 0:
                return pa.table(
                    {
                        "bucket": pa.array([], pa.int64()),
                        "vec_id": pa.array([], pa.int64()),
                        "emb": pa.array([], pa.list_(pa.float64())),
                    }
                )
            mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            keys = self.keys_of(m)  # (n, T)
            n, T = keys.shape
            flat_emb = np.tile(mn, (T, 1))
            offsets = np.arange(0, (n * T + 1) * mn.shape[1], mn.shape[1], dtype=np.int64)
            lists = pa.ListArray.from_arrays(
                pa.array(offsets, pa.int64()),
                pa.array(flat_emb.reshape(-1), pa.float64()),
            )
            return pa.table(
                {
                    "bucket": pa.array(keys.T.reshape(-1), pa.int64()),
                    "vec_id": pa.array(np.tile(ids, T), pa.int64()),
                    "emb": lists,
                }
            )

    def pairs_of_partition(g: pd.DataFrame) -> pd.DataFrame:
        """Pairs of ALL buckets in one hash partition: sort rows by bucket,
        matmul only the (rare) buckets with >= 2 members."""
        g = g.drop_duplicates(["bucket", "vec_id"])
        bkt = g["bucket"].to_numpy()
        ids = g["vec_id"].to_numpy()
        order = np.lexsort((ids, bkt))
        bkt_s, ids_s = bkt[order], ids[order]
        embs = g["emb"].to_numpy()[order]
        starts = np.nonzero(np.r_[True, bkt_s[1:] != bkt_s[:-1]])[0]
        ends = np.r_[starts[1:], bkt_s.size]
        out = []
        for s, e in zip(starts[ends - starts >= 2], ends[ends - starts >= 2]):
            sub_ids = ids_s[s:e]
            m = np.asarray([np.asarray(x) for x in embs[s:e]], dtype=np.float64)
            sims = m @ m.T
            ai, bi = np.nonzero(np.triu(sims >= threshold, k=1))
            out.append((sub_ids[ai], sub_ids[bi], sims[ai, bi]))
        if not out:
            return pd.DataFrame()
        a = np.concatenate([x[0] for x in out])
        b = np.concatenate([x[1] for x in out])
        sim = np.concatenate([x[2] for x in out])
        df = pd.DataFrame({"a": a, "b": b, "sim": sim})
        # intra-partition combine before the cross-partition distinct
        return df.groupby(["a", "b"], sort=False, as_index=False).agg(sim=("sim", "max"))

    def combine_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["a", "b"], sort=False, as_index=False).agg(sim=("sim", "max"))
        return out.assign(sim_r=out["sim"].round(6))

    pairs = by_key(
        _read_emb(sf_dir).map_batches(
            _BucketWithVec, batch_format="pyarrow", concurrency=(1, 4),
            zero_copy_batch=True,
        ),
        "bucket", pairs_of_partition, pa.schema({"a": I64, "b": I64, "sim": F64}),
    )
    return by_key(
        pairs, ["a", "b"], combine_pairs, pa.schema({"a": I64, "b": I64, "sim_r": F64})
    )


COSINE_DUP_SQL = """
SELECT a.vec_id AS a, b.vec_id AS b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS sim_r
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN: the classic cell-partitioned scale path (the
# structure behind pgvector's `ivfflat` index, the reference's ANN storage —
# /root/reference/rds_schema.sql).  Train k-means centroids on a BOUNDED
# sample (driver-side, once), broadcast them, and have every scan batch
# assign its vectors to cells and score only the vectors whose cell one of
# the queries probes.  The corpus never shuffles; the only broadcast is
# O(n_cells * dim) + the query matrix, both corpus-size-independent.
_IVF_CELLS = 16
_IVF_NPROBE = 4
_IVF_TRAIN_CAP = 100_000  # sample bound: centroid training is O(cap * cells)


def _train_centroids(
    sample: np.ndarray, n_cells: int, n_iter: int = 10, seed: int = 7
) -> np.ndarray:
    """Spherical k-means (cosine) on a bounded sample, deterministic seed.
    Returns (n_cells, dim) L2-normalized centroids."""
    rng = np.random.default_rng(seed)
    sn = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-30)
    n_cells = min(n_cells, len(sn))
    cent = sn[rng.choice(len(sn), size=n_cells, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(sn @ cent.T, axis=1)
        for c in range(n_cells):
            members = sn[assign == c]
            if len(members):
                cent[c] = members.sum(axis=0)
        cent = cent / np.maximum(np.linalg.norm(cent, axis=1, keepdims=True), 1e-30)
    return cent


class _IvfScanTopK:
    """Actor-pool scan: per batch, one (n, cells) matmul assigns cells, then
    one matmul scores ONLY the union of probed vectors; a query's sims are
    masked to its own probed cells before the local top-k."""

    def __init__(self, ref, k: int):
        self.q_ids, self.qn, self.cent, self.probe = ray.get(ref)  # probe: (nq, cells) bool
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(t)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if len(ids) == 0:
            return empty
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        cells = np.argmax(mn @ self.cent.T, axis=1)  # (n,)
        wanted = self.probe[:, cells]  # (nq, n) bool
        any_q = wanted.any(axis=0)
        if not any_q.any():
            return empty
        ids, mn, wanted = ids[any_q], mn[any_q], wanted[:, any_q]
        sims = mn @ self.qn.T  # (n_kept, nq)
        sims = np.where(wanted.T, sims, -np.inf)
        out_q, out_v, out_s = [], [], []
        for qi, qid in enumerate(self.q_ids):
            s = sims[:, qi]
            live = np.nonzero(s > -np.inf)[0]
            if not live.size:
                continue
            k = min(self.k, live.size)
            top = live[np.argpartition(-s[live], k - 1)[:k]] if k < live.size else live
            out_q.extend([int(qid)] * len(top))
            out_v.extend(ids[top].tolist())
            out_s.extend(s[top].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )


def ivf_knn_topk(
    sf_dir: str,
    k: int = K,
    n_cells: int = _IVF_CELLS,
    nprobe: int = _IVF_NPROBE,
):
    """Approximate cosine top-k via IVF cell pruning — rows-only (tests
    assert recall vs knn_topk).  With nprobe == n_cells this is exactly
    brute force; recall/cost is tuned by the probe fraction."""
    if _emb_nrows(sf_dir) == 0:
        return pd.DataFrame(
            {"query_id": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64"),
             "vec_id": pd.Series([], dtype="int64"),
             "sim_r": pd.Series([], dtype="float64")}
        )
    cent = _sample_and_train(sf_dir, n_cells)

    q_ids, q = _load_queries(sf_dir)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    order = np.argsort(qn @ cent.T, axis=1)[:, ::-1][:, : min(nprobe, len(cent))]
    probe = np.zeros((len(q_ids), len(cent)), dtype=bool)
    np.put_along_axis(probe, order, True, axis=1)

    ref = ray.put((q_ids, qn, cent, probe))
    ds = _read_emb(sf_dir).map_batches(
        _IvfScanTopK,
        fn_constructor_args=(ref, k),
        batch_format="pyarrow",
        concurrency=(1, 4),
        zero_copy_batch=True,
    )
    df = ds.to_pandas()  # tiny: n_batches * n_queries * k rows
    df["sim_r"] = df["sim"].round(6)
    df = df.sort_values(["query_id", "sim_r", "vec_id"], ascending=[True, False, True])
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df[["query_id", "rank", "vec_id", "sim_r"]]


# ---------------------------------------------------------------------------
# Embedding clustering: topic-style grouping of the corpus by its embedding
# geometry (the curation step behind cluster-balanced sampling / SemDeDup-
# style pruning).  Same spherical-k-means trainer as IVF: bounded sample on
# the driver, centroids broadcast, ONE streaming assignment pass — the
# corpus never shuffles and nothing corpus-scale reaches the driver for the
# assignment dataset (the size summary reduces 16 groups).


def _sample_and_train(sf_dir: str, n_cells: int) -> np.ndarray:
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    pf = pq.ParquetFile(path)
    want = min(_IVF_TRAIN_CAP, pf.metadata.num_rows)
    got, n_seen = [], 0
    for rb in pf.iter_batches(batch_size=16384, columns=["vec_id", "embedding"]):
        got.append(pa.Table.from_batches([rb]))
        n_seen += rb.num_rows
        if n_seen >= want:
            break
    _, sample = _emb_matrix(pa.concat_tables(got))
    return _train_centroids(sample, n_cells)


def embedding_clusters(sf_dir: str, n_cells: int = _IVF_CELLS):
    """Per-vector spherical k-means assignment -> (vec_id, cluster, sim_r6)
    (cluster = argmax-cosine centroid, deterministic seed; rows-only entry,
    assignments re-derived exactly by the pytest oracle)."""
    schema = pa.schema({"vec_id": I64, "cluster": I64, "sim_r6": F64})
    if _emb_nrows(sf_dir) == 0:  # no vectors to train centroids on
        return rd.from_arrow(schema.empty_table())
    cent = _sample_and_train(sf_dir, n_cells)
    ref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        ids, m = _emb_matrix(t)
        if len(ids) == 0:
            return schema.empty_table()
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = mn @ c.T
        cl = np.argmax(sims, axis=1)
        best = sims[np.arange(len(ids)), cl]
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cl.astype(np.int64), pa.int64()),
                "sim_r6": pa.array(np.round(best, 6), pa.float64()),
            }
        )

    return _read_emb(sf_dir).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    )


def embedding_cluster_sizes(sf_dir: str, n_cells: int = _IVF_CELLS):
    """Cluster summary -> (cluster, n_vecs, mean_sim_r6): map-side partial
    (cluster, n, sum_sim) per batch, tiny n_cells-group reduce."""
    import pandas as pd

    def partials(t: pa.Table) -> pa.Table:
        g = t.group_by("cluster").aggregate(
            [("sim_r6", "sum"), ("sim_r6", "count")]
        )
        return pa.table(
            {
                "cluster": g["cluster"],
                "sum_sim": g["sim_r6_sum"],
                "n_part": g["sim_r6_count"].cast(pa.int64()),
            }
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("cluster", as_index=False).agg(
            n_vecs=("n_part", "sum"), sum_sim=("sum_sim", "sum")
        )
        out["mean_sim_r6"] = (out["sum_sim"] / out["n_vecs"]).round(6)
        return out[["cluster", "n_vecs", "mean_sim_r6"]]

    return (
        embedding_clusters(sf_dir, n_cells)
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster")
        .map_groups(finish, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Product quantization (Jégou et al. 2011): the embedding-compression step a
# 100-TB vector corpus needs — m subspace codebooks of k centroids turn a
# d-dim float vector into m small codes (here 4 x 4 bits = 2 bytes vs 256
# bytes of float32x64, a 128x compression).
_PQ_M = 4  # subspaces (d % m == 0)
_PQ_K = 16  # centroids per subspace codebook (4-bit codes)


def _train_pq_codebooks(
    sample: np.ndarray, m: int, k: int, n_iter: int = 10, seed: int = 7
) -> np.ndarray:
    """Plain-L2 k-means per subspace on a bounded sample, deterministic
    seed.  Returns (m, k, d/m) codebooks.  (PQ quantizes raw subvectors, so
    Euclidean k-means — unlike the spherical `_train_centroids` the IVF
    router uses.)"""
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    ds = d // m
    rng = np.random.default_rng(seed)
    k = min(k, n)
    books = np.empty((m, k, ds), np.float64)
    for j in range(m):
        sub = sample[:, j * ds : (j + 1) * ds]
        cent = sub[rng.choice(n, size=k, replace=False)].copy()
        for _ in range(n_iter):
            # argmin ||x - c||^2 == argmax (x.c - ||c||^2 / 2)
            assign = np.argmax(sub @ cent.T - 0.5 * (cent * cent).sum(1), axis=1)
            for c in range(k):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[j] = cent
    return books


def _pq_sample(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    pf = pq.ParquetFile(path)
    want = min(_IVF_TRAIN_CAP, pf.metadata.num_rows)
    got, n_seen = [], 0
    for rb in pf.iter_batches(batch_size=16384, columns=["vec_id", "embedding"]):
        got.append(pa.Table.from_batches([rb]))
        n_seen += rb.num_rows
        if n_seen >= want:
            break
    _, sample = _emb_matrix(pa.concat_tables(got))
    return sample


def embeddings_pq_codes(sf_dir: str, m: int = _PQ_M, k: int = _PQ_K):
    """Per-vector PQ codes + relative reconstruction error: each of the m
    subvectors is assigned its nearest codebook centroid (exact L2 argmin);
    `recon_err_r6` = ||x - dequantized(x)||^2 / ||x||^2.  Output
    (vec_id, code_0..code_{m-1}, recon_err_r6).

    Rows-only entry (k-means isn't SQL-expressible); the pytest oracle
    re-derives every assignment exactly from the same seed and asserts the
    mean relative error beats the all-zeros quantizer by a wide margin.

    Scale shape: codebooks train once on a bounded deterministic sample
    (same cap as IVF), broadcast via ray.put (m*k*d/m floats — KB), and
    assignment is one streaming pass of m small matmuls per batch; codes
    never re-cross the exchange.  At 100 TB this is the writer stage that
    makes the ANN corpus memory-resident (2 bytes/vec here vs 256)."""
    if _emb_nrows(sf_dir) == 0:
        cols = {"vec_id": pd.Series([], dtype="int64")}
        for j in range(m):
            cols[f"code_{j}"] = pd.Series([], dtype="int64")
        cols["recon_err_r6"] = pd.Series([], dtype="float64")
        return pd.DataFrame(cols)
    books = _train_pq_codebooks(_pq_sample(sf_dir), m, k)
    ref = ray.put(books)

    def assign(t: pa.Table) -> pa.Table:
        bks = ray.get(ref)
        ids, mat = _emb_matrix(t)
        mm, kk, ds = bks.shape
        cols = {"vec_id": pa.array(ids, pa.int64())}
        if len(ids) == 0:
            for j in range(mm):
                cols[f"code_{j}"] = pa.array([], pa.int64())
            cols["recon_err_r6"] = pa.array([], pa.float64())
            return pa.table(cols)
        recon = np.empty_like(mat)
        for j in range(mm):
            sub = mat[:, j * ds : (j + 1) * ds]
            cent = bks[j]
            codes = np.argmax(sub @ cent.T - 0.5 * (cent * cent).sum(1), axis=1)
            cols[f"code_{j}"] = pa.array(codes.astype(np.int64), pa.int64())
            recon[:, j * ds : (j + 1) * ds] = cent[codes]
        num = ((mat - recon) ** 2).sum(1)
        den = np.maximum((mat * mat).sum(1), 1e-30)
        cols["recon_err_r6"] = pa.array(np.round(num / den, 6), pa.float64())
        return pa.table(cols)

    return _read_emb(sf_dir).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    )


# search-path PQ config: finer than the 2-byte storage codes — 16 x 6-bit
# subquantizers (12 B/vec, ~21x compression) so the ADC shortlist is good
# enough for an exact rerank to recover the true top-k
_PQ_SEARCH_M = 16
_PQ_SEARCH_K = 64
_PQ_RERANK = 40  # ADC shortlist size per (query, batch) before exact rerank




class _PqAdcTopK:
    """Actor-pool ADC + rerank stage: per batch, encode the (normalized)
    vectors with the broadcast codebooks, score every query against the
    CODES via lookup-table gathers (the PQ search trick: m table lookups
    per (query, vector) instead of a d-dim dot product), take an ADC
    shortlist, and rerank ONLY the shortlist with exact cosine — the
    standard PQ deployment (codes scan the corpus; floats are touched for
    shortlist rows alone)."""

    def __init__(self, ref, k: int, rerank: int):
        self.q_ids, self.qn, self.lut, self.books = ray.get(ref)
        self.k = k
        self.rerank = rerank

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, mat = _emb_matrix(t)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "vec_id": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        if len(ids) == 0:
            return empty
        mn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)
        mm, kk, ds = self.books.shape
        sims = np.zeros((len(self.q_ids), len(ids)), np.float64)
        for j in range(mm):
            sub = mn[:, j * ds : (j + 1) * ds]
            cent = self.books[j]
            codes = np.argmax(sub @ cent.T - 0.5 * (cent * cent).sum(1), axis=1)
            sims += self.lut[:, j, codes]  # (nq, n) gather
        c = min(max(self.rerank, self.k), sims.shape[1])
        short = np.argpartition(-sims, c - 1, axis=1)[:, :c]  # ADC shortlist
        out_q, out_v, out_s = [], [], []
        for qi in range(len(self.q_ids)):
            cand = short[qi]
            exact = mn[cand] @ self.qn[qi]  # (c, d) x (d,): shortlist only
            kk_ = min(self.k, c)
            top = np.argpartition(-exact, kk_ - 1)[:kk_]
            out_q.append(np.full(kk_, self.q_ids[qi], np.int64))
            out_v.append(ids[cand[top]])
            out_s.append(exact[top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "sim": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def pq_knn_topk(
    sf_dir: str,
    k: int = K,
    query_ids: tuple[int, ...] = QUERY_IDS,
    m: int = _PQ_SEARCH_M,
    n_codes: int = _PQ_SEARCH_K,
    rerank: int = _PQ_RERANK,
):
    """Approximate cosine top-k by PQ asymmetric distance computation with
    exact shortlist rerank (Jégou et al. 2011): codebooks train on the
    NORMALIZED bounded sample (cosine-PQ), each query precomputes an
    (m, n_codes) inner-product lookup table, ADC scores every database
    code with m table gathers, and only the per-batch shortlist gets an
    exact d-dim rerank.  Rows-only entry; pytest holds recall@10 vs the
    exact `knn_topk` baseline (1.0 at both fixture scales; these
    near-uniform random vectors are PQ's worst case, same caveat as LSH).

    Scale shape: the compressed corpus is the point — at 100 TB the codes
    (12 B/vec at 16x6 bits vs 256 B of floats) live memory-resident where
    floats can't; LUTs are (nq, m, n_codes) floats broadcast once; the
    scan is a streaming actor-pool pass whose exact-rerank arithmetic is
    bounded by shortlist size, merged result-scale on the driver
    (n_batches * nq * k rows), identical to knn_topk's merge."""
    if _emb_nrows(sf_dir) == 0:
        return pd.DataFrame(
            {"query_id": pd.Series([], dtype="int64"),
             "rank": pd.Series([], dtype="int64"),
             "vec_id": pd.Series([], dtype="int64"),
             "sim_r": pd.Series([], dtype="float64")}
        )
    sample = _pq_sample(sf_dir)
    sn = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-30)
    books = _train_pq_codebooks(sn, m, n_codes)
    q_ids, q = _load_queries(sf_dir, query_ids)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-30)
    mm, kk, ds = books.shape
    lut = np.empty((len(q_ids), mm, kk), np.float64)
    for j in range(mm):
        lut[:, j, :] = qn[:, j * ds : (j + 1) * ds] @ books[j].T
    ref = ray.put((q_ids, qn, lut, books))

    ds_out = _read_emb(sf_dir).map_batches(
        _PqAdcTopK,
        fn_constructor_args=(ref, k, rerank),
        batch_format="pyarrow",
        concurrency=(1, 4),
        zero_copy_batch=True,
    )
    df = ds_out.to_pandas()  # tiny: n_batches * n_queries * k rows
    df["sim_r"] = df["sim"].round(6)
    df = df.sort_values(["query_id", "sim_r", "vec_id"], ascending=[True, False, True])
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount() + 1
    return df[["query_id", "rank", "vec_id", "sim_r"]]


# ---------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023): semantic deduplication — k-means clusters
# bound the pairwise-cosine cost, then a deterministic greedy keep/drop
# within each cluster.
_SEMDEDUP_TAU = 0.4  # fixture-calibrated (cosine_dup_pairs' threshold)


def semdedup_prune(sf_dir: str, tau: float = _SEMDEDUP_TAU,
                   n_cells: int = _IVF_CELLS):
    """Per-vector keep/drop verdict: within each spherical-k-means cluster,
    walk vectors in (centroid-sim DESC, vec_id) order and DROP any vector
    with cosine >= tau to an already-kept one — the SemDeDup recipe
    (cluster first so the quadratic pairwise check never crosses cluster
    boundaries; the cluster size, set by n_cells, is the cost knob).
    Output (vec_id, cluster, csim_r6, keep).

    Scale shape: centroids train once on the bounded sample and broadcast;
    assignment is one streaming matmul pass; ONE cluster-keyed shuffle
    carries (vec, embedding) rows — O(N*d), the price of any within-cluster
    pairwise method and exactly SemDeDup's design point; each cluster
    prunes independently (O(|cluster|^2) bounded by the knob).  Rows-only
    entry; pytest re-derives every verdict exactly and asserts the greedy
    invariants (kept set pairwise < tau; every drop has a kept witness)."""
    if _emb_nrows(sf_dir) == 0:
        return pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "cluster": pd.Series([], dtype="int64"),
             "csim_r6": pd.Series([], dtype="float64"),
             "keep": pd.Series([], dtype="int64")}
        )
    cent = _sample_and_train(sf_dir, n_cells)
    ref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        ids, m = _emb_matrix(t)
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster": pa.array([], pa.int64()),
                    "csim": pa.array([], pa.float64()),
                    "embedding": t["embedding"],
                }
            )
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        sims = mn @ c.T
        cl = np.argmax(sims, axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cl.astype(np.int64), pa.int64()),
                "csim": pa.array(sims[np.arange(len(ids)), cl], pa.float64()),
                "embedding": t["embedding"],
            }
        )

    def prune_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["csim", "vec_id"], ascending=[False, True]).reset_index(
            drop=True
        )
        m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
        s = mn @ mn.T
        n = len(g)
        keep = np.zeros(n, bool)
        kept_idx: list[int] = []
        for i in range(n):  # O(|cluster|^2), bounded by the n_cells knob
            if not kept_idx or (s[i, kept_idx] < tau).all():
                keep[i] = True
                kept_idx.append(i)
        return pd.DataFrame(
            {
                "vec_id": g["vec_id"].astype(np.int64),
                "cluster": g["cluster"].astype(np.int64),
                "csim_r6": np.round(g["csim"].to_numpy(), 6),
                "keep": keep.astype(np.int64),
            }
        )

    return (
        _read_emb(sf_dir)
        .map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster")
        .map_groups(prune_cluster, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Per-group embedding centroids — the corpus-drift / per-source-profile
# vector aggregate (mean embedding per language).


def _lang_embedding_moments(sf_dir: str) -> pd.DataFrame:
    """Shared reduce for the per-language vector aggregates: long-form
    (lang, dim, s, s2, n) sufficient statistics (sum, sum of squares,
    count) per (language, dimension).  Scale shape: the union-marker
    co-location idiom (Ray's hash join rejects list-typed payload
    columns, and exploding d columns would copy every vector) —
    embeddings and (doc_id, lang) rows are keyed by id through ONE
    shuffle, the partition kernel resolves lang by searchsorted and
    collapses ALL its vectors to langs x d moment rows, so the final
    reduce is group-grain."""
    from ray.data.aggregate import Sum

    def emb_row(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t["vec_id"],
                "embedding": t["embedding"],
                "lang": pa.array([""] * t.num_rows, pa.string()),
            }
        )

    def doc_row(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id": t["doc_id"],
                "embedding": pa.array([[]] * t.num_rows, pa.list_(pa.float32())),
                "lang": t["lang"],
            }
        )

    emb = _read_emb(sf_dir).map_batches(
        emb_row, batch_format="pyarrow", zero_copy_batch=True
    )
    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    ).map_batches(doc_row, batch_format="pyarrow", zero_copy_batch=True)

    def moment_partial(g: pd.DataFrame) -> pd.DataFrame:
        is_doc = (g["lang"] != "").to_numpy()
        d_ = g[is_doc].sort_values("id")
        dk, dl = d_["id"].to_numpy(), d_["lang"].to_numpy()
        ev = g[~is_doc]
        if ev.empty or len(dk) == 0:
            return pd.DataFrame()
        vids = ev["id"].to_numpy()
        m = np.stack(ev["embedding"].to_numpy()).astype(np.float64)
        pos = np.minimum(np.searchsorted(dk, vids), len(dk) - 1)
        hit = dk[pos] == vids  # inner-join semantics: drop unmatched vectors
        m, vl = m[hit], dl[pos[hit]]
        dims = np.arange(1, m.shape[1] + 1)
        rows = [
            pd.DataFrame({"lang": lg, "dim": dims, "s": sub.sum(axis=0),
                          "s2": (sub * sub).sum(axis=0), "n": sub.shape[0]})
            for lg in np.unique(vl) for sub in (m[vl == lg],)
        ]
        return pd.concat(rows, ignore_index=True) if rows else pd.DataFrame()

    schema = pa.schema({"lang": STR, "dim": I64, "s": F64, "s2": F64, "n": I64})
    return collect(  # langs x d rows
        by_key(emb.union(docs), "id", moment_partial, schema)
        .groupby(["lang", "dim"])
        .aggregate(Sum("s", alias_name="s"), Sum("s2", alias_name="s2"),
                   Sum("n", alias_name="n")),
        schema,
    )


def lang_embedding_centroids(sf_dir: str):
    """(lang, dim, n, centroid_r6): mean embedding per document language,
    long-form with 1-based dims to match the SQL oracle's embedding[i];
    first moment of _lang_embedding_moments."""
    out = _lang_embedding_moments(sf_dir)
    out["centroid_r6"] = np.round(out["s"] / out["n"], 6)
    return out.sort_values(["lang", "dim"]).reset_index(drop=True)[
        ["lang", "dim", "n", "centroid_r6"]
    ]


def lang_embedding_dispersion(sf_dir: str):
    """(lang, dim, n, var_r6): population variance per (language,
    dimension) — the drift/collapse diagnostic next to the centroid (a
    source whose per-dim variance shrinks is collapsing to boilerplate;
    one whose centroid moves is drifting).  Same single-shuffle moments
    reduce; var = s2/n - (s/n)^2 from the SAME sufficient statistics,
    round-6 equal to the oracle's var_pop (verified exact on the
    fixtures)."""
    out = _lang_embedding_moments(sf_dir)
    mean = out["s"] / out["n"]
    out["var_r6"] = np.round(out["s2"] / out["n"] - mean * mean, 6)
    return out.sort_values(["lang", "dim"]).reset_index(drop=True)[
        ["lang", "dim", "n", "var_r6"]
    ]


LANG_CENTROIDS_SQL = """
SELECT d.lang, CAST(i AS BIGINT) AS dim, count(*) AS n,
       round(avg(e.embedding[i]), 6) AS centroid_r6
FROM embeddings e
JOIN documents d ON d.doc_id = e.vec_id
CROSS JOIN generate_series(1, 64) AS g(i)
GROUP BY d.lang, i
ORDER BY d.lang, i
"""


LANG_DISPERSION_SQL = """
SELECT d.lang, CAST(i AS BIGINT) AS dim, count(*) AS n,
       round(var_pop(e.embedding[i]), 6) AS var_r6
FROM embeddings e
JOIN documents d ON d.doc_id = e.vec_id
CROSS JOIN generate_series(1, 64) AS g(i)
GROUP BY d.lang, i
ORDER BY d.lang, i
"""


# ---------------------------------------------------------------------------
# Embedding-norm outliers — the vector-space QA screen: collapsed (near-zero
# norm) or exploded vectors are encoder failures a 100-TB embedding corpus
# must drop before ANN indexing and SemDeDup.


def embeddings_norm_outliers(sf_dir: str):
    """(vec_id, norm_r6, z_r4, is_outlier): each vector's L2 norm, its
    z-score against the corpus norm distribution, and the |z_r4| > 2 flag.
    Scale shape: pass 1 streams norms (vec-grain Dataset, materialized
    once) with a 2-float mean reduce; pass 2 reduces CENTERED squares
    (sum((x-mu)^2) — the fixtures are unit-normalized, so the naive
    E[x^2]-mu^2 moment cancels catastrophically while the centered sum
    stays exact to ~1e-12 relative, matching the oracle's Welford
    stddev_pop); pass 3 labels in one broadcast-constant map — nothing
    vector-scale leaves the workers.  z rounds to 4 decimals: on
    unit-normalized corpora x-mu is mu-noise-scale (~1e-8), so round-6
    would sit inside the cross-engine summation-order band."""
    emb = _read_emb(sf_dir)

    def norm_batch(t: pa.Table) -> pa.Table:
        ids, m = _emb_matrix(t)
        n = np.sqrt((m * m).sum(axis=1)) if m.size else np.zeros(len(t))
        return pa.table(
            {
                "vec_id": pa.array(ids.astype(np.int64), pa.int64()),
                "norm": pa.array(n, pa.float64()),
            }
        )

    norms = emb.map_batches(
        norm_batch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # vec-grain, distributed; consumed three times

    n_vec = norms.count()
    if n_vec == 0:
        return pd.DataFrame(
            {"vec_id": pd.Series([], dtype="int64"),
             "norm_r6": pd.Series([], dtype="float64"),
             "z_r4": pd.Series([], dtype="float64"),
             "is_outlier": pd.Series([], dtype="bool")}
        )
    mu = float(norms.sum("norm")) / n_vec

    def centered(t: pa.Table) -> pa.Table:
        x = t["norm"].to_numpy(zero_copy_only=False) - mu
        return pa.table({"ss": pa.array([float((x * x).sum())])})

    ss = float(
        norms.map_batches(centered, batch_format="pyarrow").sum("ss") or 0.0
    )
    sigma = float(np.sqrt(ss / n_vec))

    def label(t: pa.Table) -> pa.Table:
        x = t["norm"].to_numpy(zero_copy_only=False)
        z = np.round((x - mu) / sigma, 4) if sigma > 0 else np.zeros(x.size)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "norm_r6": pa.array(np.round(x, 6), pa.float64()),
                "z_r4": pa.array(z, pa.float64()),
                "is_outlier": pa.array(np.abs(z) > 2.0),
            }
        )

    return norms.map_batches(label, batch_format="pyarrow", zero_copy_batch=True)


NORM_OUTLIERS_SQL = """
WITH n AS (
  SELECT vec_id,
         sqrt(list_sum(list_transform(embedding,
              x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS norm
  FROM embeddings
),
s AS (SELECT avg(norm) AS mu, stddev_pop(norm) AS sigma FROM n)
SELECT vec_id, round(norm, 6) AS norm_r6,
       round((norm - s.mu) / s.sigma, 4) AS z_r4,
       abs(round((norm - s.mu) / s.sigma, 4)) > 2 AS is_outlier
FROM n CROSS JOIN s
"""


# ---------------------------------------------------------------------------
# PCA explained variance — the embedding-space health diagnostic every
# dense-retrieval pipeline runs before whitening / dim-reduction (an
# anisotropic, collapsed space ranks badly; reference analog: the per-model
# embedding tables rds_schema.sql:45-58 whose spaces this would audit).

_PCA_TOP = 8


def embeddings_pca_evr(sf_dir: str, n_components: int = _PCA_TOP):
    """(component, eigval_r6, evr_r6, cum_evr_r6): top-k covariance
    eigenvalues of the embedding cloud with explained-variance ratios.
    Scale shape: each batch collapses to ONE (count, sum-vector, flattened
    sum-of-outer-products) moment row — d + d^2 floats regardless of batch
    size, computed as a single X^T X GEMM — so the driver reduces
    n_blocks x (d^2 + d + 1) floats and runs the d x d eigendecomposition
    on result-scale data (d=64 here; at d=1024 the moment row is 8 MB and
    the reduce is still block-count-bounded, never corpus-bounded).
    Rows-only (no eigendecomposition in SQL); the pytest oracle re-derives
    the spectrum from the raw parquet with numpy."""
    ds = _read_emb(sf_dir)

    def moments(t: pa.Table) -> pd.DataFrame:
        _, x = _emb_matrix(t)
        if x.size == 0:
            return pd.DataFrame({"n": [0], "s1": [b""], "s2": [b""]})
        s1 = x.sum(axis=0)
        s2 = x.T @ x
        return pd.DataFrame(
            {
                "n": np.array([x.shape[0]], dtype=np.int64),
                "s1": [s1.tobytes()],
                "s2": [s2.astype(np.float64).tobytes()],
            }
        )

    parts = collect(
        ds.map_batches(moments, batch_format="pyarrow"),
        pa.schema({"n": I64, "s1": pa.binary(), "s2": pa.binary()}),
    )
    parts = parts[parts["n"] > 0]
    if parts.empty:
        return pd.DataFrame(
            {"component": pd.Series([], dtype="int64"),
             "eigval_r6": pd.Series([], dtype="float64"),
             "evr_r6": pd.Series([], dtype="float64"),
             "cum_evr_r6": pd.Series([], dtype="float64")}
        )
    n = int(parts["n"].sum())
    s1 = np.sum([np.frombuffer(b, np.float64) for b in parts["s1"]], axis=0)
    d = s1.size
    s2 = np.sum(
        [np.frombuffer(b, np.float64).reshape(d, d) for b in parts["s2"]], axis=0
    )
    mu = s1 / n
    cov = s2 / n - np.outer(mu, mu)
    eig = np.linalg.eigvalsh(cov)[::-1]  # descending
    eig = np.clip(eig, 0.0, None)
    total = eig.sum()
    k = min(n_components, d)
    evr = eig[:k] / total if total > 0 else np.zeros(k)
    return pd.DataFrame(
        {
            "component": np.arange(1, k + 1, dtype=np.int64),
            "eigval_r6": np.round(eig[:k], 6),
            "evr_r6": np.round(evr, 6),
            "cum_evr_r6": np.round(np.cumsum(evr), 6),
        }
    )
