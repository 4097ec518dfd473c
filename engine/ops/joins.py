"""Join strategies (SURVEY.md §2.4).

Two physical plans, chosen by side size — the same decision the reference
makes implicitly (dict-probe joins for small sides at
/root/reference/parsed_papers_to_vector_rds/stacks_parsing/stacks_parsing.py:114-122,
SQL hash joins in Postgres for the rest, /root/reference/streamlit_app.py:277-279):

- ``broadcast_join``: small side pinned once in the object store with
  ``ray.put``, probed per batch with zero-copy Arrow ``Table.join`` inside
  ``map_batches``.  No shuffle; the only sane plan when one side fits in
  memory (dimension tables, top-k id sets, loser sets).
- large ⋈ large: ``ray.data.Dataset.join`` (hash-partitioned) — used
  directly at call sites; ``num_partitions`` is the explicit partitioning
  decision.
"""

from __future__ import annotations

import pyarrow as pa
import ray

_ARROW_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "semi": "left semi",
    "anti": "left anti",
}


def broadcast_join(
    ds,
    small: pa.Table,
    on: list[str] | str,
    how: str = "inner",
    right_on: list[str] | str | None = None,
):
    """Join a Dataset against a small in-memory Arrow table, broadcast once."""
    keys = [on] if isinstance(on, str) else list(on)
    rkeys = keys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    join_type = _ARROW_JOIN_TYPE[how]
    ref = ray.put(small)

    def _probe(batch: pa.Table) -> pa.Table:
        # stateless tasks (no actor-pool spin-up); the broadcast table is
        # fetched once per worker PROCESS via a module-level memo — ray.get
        # of a local object is a zero-copy shm read, and memoizing it keeps
        # workers out of the blocked-on-get state between batches
        key = ref.hex()
        small_tbl = _BROADCAST_MEMO.get(key)
        if small_tbl is None:
            small_tbl = ray.get(ref)
            _BROADCAST_MEMO.clear()  # hold at most one table per worker
            _BROADCAST_MEMO[key] = small_tbl
        return batch.join(small_tbl, keys=keys, right_keys=rkeys, join_type=join_type)

    return ds.map_batches(_probe, batch_format="pyarrow", zero_copy_batch=True)


_BROADCAST_MEMO: dict[str, pa.Table] = {}


def hash_join(left, right, on: str, right_on: str, num_partitions: int = 8):
    """Inner ``Dataset.join`` (hash-partitioned) that also takes a side with
    no rows.  Ray 2.49's join builds each partition's side from the blocks
    that side sends, and a side with no rows sends none (typed empty blocks
    included), so the Arrow join finds no key column and raises.  An empty
    side makes an inner join empty, so the join is skipped and
    ``left.limit(0)`` returned; the check reads one row of each side."""
    if left.limit(1).count() and right.limit(1).count():
        return left.join(
            right, "inner", num_partitions=num_partitions,
            on=(on,), right_on=(right_on,),
        )
    return left.limit(0)
