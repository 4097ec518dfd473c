"""One keyed shuffle for the operator suite: hash the key into N_PARTS coarse
partitions, shuffle once, and reduce every key of a partition in one
vectorized kernel.

High-cardinality reduces do NOT use one Ray sort-group per key: Ray's
groupby().map_groups / .aggregate() cost grows with the number of groups
(measured ~17 s for 100k groups over 2M trivial rows on one box), because
each group is sliced and dispatched separately.  Instead, keys hash into
N_PARTS coarse partitions (one shuffle, same co-location guarantee) and ONE
pandas/numpy kernel reduces ALL keys of a partition at C speed.  At cluster
scale, raise N_PARTS toward the task-slot count.

A kernel therefore receives every row of the keys that hash to its
partition (never an empty frame: Ray calls it once per non-empty partition)
and must group by the real key itself.  Its output is cast to the caller's
Arrow schema, so every block of the result has the same types whatever a
kernel returns on a partition where its filters leave no row.

Ray 2.49 limit: ``Dataset.to_pandas()`` of a 0-row Dataset has zero
columns even when every block is a typed empty table (built from Arrow,
from pandas or read from an empty Parquet file), so an empty result can be
typed only at the driver boundary: ``collect``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

N_PARTS = 64

_PART = "__part"

# shorthands for the result schemas the callers declare
I64, F64, STR, TS = pa.int64(), pa.float64(), pa.string(), pa.timestamp("us")


def part_of(*cols) -> np.ndarray:
    """Partition number in [0, N_PARTS) of each row of the key columns.
    Integer (and timestamp) keys mix multiplicatively; string keys go
    through ``pd.util.hash_array``; a multi-column key combines the
    per-column codes before the mix.  Equal keys always get equal parts,
    whatever batch they arrive in."""
    key = None
    for c in cols:
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if isinstance(c, pa.DictionaryArray):
            c = c.dictionary_decode()
        if isinstance(c, pa.Array) and not pa.types.is_primitive(c.type):
            # hash each distinct string once, then gather per row
            de = c.dictionary_encode(null_encoding="encode")
            c = _hash(de.dictionary.to_numpy(zero_copy_only=False))[
                de.indices.to_numpy(zero_copy_only=False)
            ]
        c = np.asarray(c)
        if c.dtype.kind in "iub":
            c = c.astype(np.int64, copy=False)
        elif c.dtype.kind == "M":
            c = c.view(np.int64)
        elif c.dtype.kind == "f":  # an int key with nulls arrives as float
            c = np.nan_to_num(c, nan=-1.0).astype(np.int64)
        else:
            c = _hash(c)
        key = c if key is None else key * np.int64(1_000_003) + c
    return (key * 0x9E3779B1 % (1 << 31)) % N_PARTS


def _hash(strings: np.ndarray) -> np.ndarray:
    return pd.util.hash_array(strings.astype(object, copy=False)).view(np.int64)


def typed(out, schema: pa.Schema) -> pa.Table:
    """``out`` (pandas or Arrow) as an Arrow table of exactly ``schema``."""
    if len(out) == 0:
        return schema.empty_table()
    if isinstance(out, pa.Table):
        return out.select(schema.names).cast(schema)
    # no pandas metadata: Ray dedups block schemas by hash, which a
    # metadata dict breaks
    return pa.Table.from_pandas(
        out, schema=schema, preserve_index=False
    ).replace_schema_metadata()


def by_key(ds: rd.Dataset, key, kernel, schema: pa.Schema) -> rd.Dataset:
    """Co-locate the rows of each ``key`` (a column name or a list of them)
    in one of N_PARTS partitions and run ``kernel(frame) -> frame`` once per
    partition; the result has ``schema``."""
    keys = [key] if isinstance(key, str) else list(key)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(_PART, pa.array(part_of(*(t[k] for k in keys))))

    def run(g: pd.DataFrame) -> pa.Table:
        return typed(kernel(g.drop(columns=_PART)), schema)

    return (
        ds.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(_PART)
        .map_groups(run, batch_format="pandas")
    )


def frame(rows, dtypes: dict) -> pd.DataFrame:
    """Driver-side result rows as a frame with ``dtypes``' columns, typed
    also when there are no rows."""
    return pd.DataFrame(rows, columns=list(dtypes)).astype(dtypes)


def collect(ds: rd.Dataset, schema: pa.Schema) -> pd.DataFrame:
    """``ds.to_pandas()``, or ``schema``'s typed empty frame when Ray hands
    back a schema-less empty result."""
    df = ds.to_pandas()
    return df if len(df.columns) else schema.empty_table().to_pandas()
