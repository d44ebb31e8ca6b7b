"""Small relational helpers: vectorized filter/project/distinct over Arrow
batches (the non-search predicates pg_search leaves to Postgres and we run
with pyarrow.compute kernels inside map_batches)."""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa

import ray.data

from paradedb_ray.stages.blocks import chunk_refs, merge_blocks


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
            null_placement: str = "at_end",
            columns: Optional[list] = None) -> ray.data.Dataset:
    """Distributed ``ORDER BY ... LIMIT k`` over arbitrary (incl. derived
    /join-output) columns — the JoinScan ORDER-BY + top-k dynamic-filter
    shape (ref `pg_regress/sql/join_order_by.sql`,
    `join_orderby_expression.sql`) without requiring a search index.

    ``sort_keys``: [(col, "ascending"|"descending"), ...] — pass a total
    order (add a tie-break key) for deterministic output.
    ``null_placement``: "at_end" (SQL ASC NULLS LAST) or "at_start"
    (DESC NULLS FIRST), applied to every key.

    Scale shape: each block keeps its own top-k (a superset of its
    contribution to the global head), per-block heads merge in O(CPUs)
    chunked raw tasks (`blocks.chunk_refs`), and only the final <=
    chunks x k rows meet for the exact global sort — never an all-to-all
    sort shuffle."""
    import pyarrow.compute as pc

    keys = [(c, d) for c, d in sort_keys]

    def head(t: pa.Table) -> pa.Table:
        if t.num_rows > 0:
            idx = pc.sort_indices(t, sort_keys=keys,
                                  null_placement=null_placement)
            t = t.take(idx[:limit])
        return t

    pruned = ds.map_batches(head, batch_format="pyarrow", batch_size=None)
    refs = pruned.to_arrow_refs()
    if not refs:
        # zero-block input (e.g. limit(0)): an empty RESULT, not a crash
        sch = pruned.schema(fetch_if_missing=False)
        if sch is None:
            return pruned
        empty = pa.schema(list(zip(sch.names, sch.types))).empty_table()
        return ray.data.from_arrow_refs(
            [ray.put(empty.select(columns) if columns else empty)])
    chunks = chunk_refs(refs)
    if len(chunks) < len(refs):
        refs = [merge_blocks.remote(head, *ch) for ch in chunks]
    # the projection runs AFTER the final merge so sort columns (possibly
    # derived expressions) stay available to every re-sort along the tree
    fin = (lambda t: head(t).select(columns)) if columns else head
    return ray.data.from_arrow_refs([merge_blocks.remote(fin, *refs)])


def topn_per_group(ds: ray.data.Dataset, keys: list, order_by: list,
                   n: int, rn_col: Optional[str] = None) -> ray.data.Dataset:
    """Top-N rows PER GROUP (the `lateral-join.sql` / row_number()-filter
    shape: ``rn <= n`` over ``PARTITION BY keys ORDER BY order_by``).

    Scale shape: each block first prunes to at most ``n`` rows per key it
    contains (a superset of that block's contribution to the answer — the
    combiner), so the hash-partition shuffle moves O(n x keys) rows, not
    the full input; each reducer then runs the same prune exactly once
    per key.  ``order_by`` must be a TOTAL order (include a unique
    tie-break column) for a deterministic result.  ``rn_col`` optionally
    adds the 1-based in-group position to the output."""
    import numpy as np

    ob_cols = [c for c, _ in order_by]
    asc = [d != "descending" for _, d in order_by]

    def prune(t: pa.Table, with_rn: bool = False) -> pa.Table:
        if t.num_rows == 0:
            # empty partitions must carry the rn column too, or the
            # final union loses the schema at tiny scale
            if with_rn and rn_col is not None:
                return t.append_column(rn_col, pa.array([], pa.int64()))
            return t
        df = t.to_pandas()
        df = df.sort_values(ob_cols, ascending=asc, kind="mergesort")
        g = df.groupby(keys, sort=False, dropna=False)
        if with_rn and rn_col is not None:
            df[rn_col] = (g.cumcount() + 1).astype(np.int64)
            df = df[df[rn_col] <= n]
            # explicit schema: to_pandas turns nullable int64 into
            # float64, and WITHOUT the cast only partitions that happen
            # to contain a null degrade — inconsistent block schemas
            return pa.Table.from_pandas(
                df, preserve_index=False,
                schema=t.schema.append(pa.field(rn_col, pa.int64())))
        df = g.head(n)
        return pa.Table.from_pandas(df, preserve_index=False,
                                    schema=t.schema)

    from paradedb_ray.stages.hash_agg import hash_partition_apply

    return hash_partition_apply(
        ds, keys, lambda t: prune(t, with_rn=True), pre_fn=prune)


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
