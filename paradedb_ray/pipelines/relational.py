"""Small relational helpers: vectorized filter/project/distinct over Arrow
batches (the non-search predicates pg_search leaves to Postgres and we run
with pyarrow.compute kernels inside map_batches)."""

from __future__ import annotations

import functools
from typing import Callable, Optional

import pyarrow as pa

import ray.data

from paradedb_ray.stages.order import group_heads, order_dataset


def filter_batches(ds: ray.data.Dataset,
                   predicate: Callable[[pa.Table], "pa.BooleanArray"],
                   columns: Optional[list] = None) -> ray.data.Dataset:
    """Vectorized filter: ``predicate`` maps a batch to a boolean mask."""

    def f(batch: pa.Table) -> pa.Table:
        mask = predicate(batch)
        out = batch.filter(mask)
        return out.select(columns) if columns else out

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def distinct(ds: ray.data.Dataset, columns: list) -> ray.data.Dataset:
    """DISTINCT over columns: the two-stage hash aggregate with no
    aggregates (`stages/hash_agg.py`); output has exactly ``columns``."""
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    return hash_group_aggregate(ds.select_columns(columns), columns, {})


def topk_by(ds: ray.data.Dataset, sort_keys: list, limit: int,
            columns: Optional[list] = None) -> ray.data.Dataset:
    """Distributed ``ORDER BY ... LIMIT k`` over arbitrary (incl. derived
    /join-output) columns — the JoinScan ORDER-BY + top-k dynamic-filter
    shape (ref `pg_regress/sql/join_order_by.sql`,
    `join_orderby_expression.sql`) without requiring a search index.

    ``sort_keys``: [(col, "ascending"|"descending"[, "nulls_first"]),
    ...] (``rank_head``'s extended keys) — pass a total order (add a
    tie-break key) for deterministic output.

    Scale shape: each block keeps its own top-k (a superset of its
    contribution to the global head), then ``order_dataset`` merges the
    heads — never an all-to-all sort shuffle.  The projection runs after
    the final merge, so sort columns (possibly derived expressions) stay
    available to every merge."""
    pruned = ds.map_batches(group_heads, fn_kwargs={
        "keys": (), "order_by": sort_keys, "limit": limit},
        batch_format="pyarrow", batch_size=None)
    return order_dataset(pruned, sort_keys, limit, columns=columns)


def topn_per_group(ds: ray.data.Dataset, keys: list, order_by: list,
                   n: int, rn_col: Optional[str] = None) -> ray.data.Dataset:
    """Top-N rows PER GROUP (the `lateral-join.sql` / row_number()-filter
    shape: ``rn <= n`` over ``PARTITION BY keys ORDER BY order_by``).

    Scale shape: each block first prunes to at most ``n`` rows per key it
    contains (a superset of that block's contribution to the answer — the
    combiner), so the hash-partition shuffle moves O(n x keys) rows, not
    the full input; each reducer then takes the same heads once per key
    (``group_heads``).  ``order_by`` must be a TOTAL order (include a
    unique tie-break column) for a deterministic result.  ``rn_col``
    optionally adds the 1-based in-group position to the output."""
    from paradedb_ray.stages.hash_agg import hash_partition_apply

    head = functools.partial(group_heads, keys=keys, order_by=order_by,
                             limit=n)
    return hash_partition_apply(
        ds, keys, functools.partial(head, rank_col=rn_col), pre_fn=head)


def unpivot(ds: ray.data.Dataset, id_cols: list, value_cols: list,
            name_col: str = "name",
            value_col: str = "val") -> ray.data.Dataset:
    """SQL UNPIVOT / melt: one output row per (input row, value column),
    with the column's name in ``name_col`` and its value (cast to
    float64) in ``value_col``.  Stateless per-batch expansion — no
    shuffle, Arrow-native concat of one slice per value column (each
    slice reuses the id columns zero-copy)."""
    import pyarrow.compute as pc

    def melt(batch: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            cols = {k: batch.column(k) for k in id_cols}
            cols[name_col] = pa.array([c] * batch.num_rows, pa.string())
            cols[value_col] = batch.column(c).cast(pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow", batch_size=None)
