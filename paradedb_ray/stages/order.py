"""The order of rows: one ORDER BY kernel and one distributed merge.

* :func:`rank_head` is the only function that sorts rows for an ORDER
  BY: every top-k head, batch and streaming, and through
  :func:`sort_runs` every per-key reducer's runs and every per-group
  top-N (:func:`group_heads`).  Keys are ``(col, "ascending" |
  "descending")`` plus the extras of :func:`expand_nulls_keys`.  NULLs
  sort last in either direction unless a key says ``"nulls_first"``.  NaN
  is the greatest float, above every number (so first on a descending
  key), as in Postgres and DuckDB; -0.0 and 0.0 are peers.
* :func:`row_changes` / :func:`run_offsets` read the runs of equal keys
  off a sorted table: NULL = NULL, NaN = NaN, NaN != NULL, -0.0 = 0.0.
* :func:`order_dataset` is the one distributed ORDER BY [LIMIT], per
  group or not: chunked level-1 keeps, then one final merge with an
  empty-schema anchor.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from paradedb_ray.stages.blocks import (chunk_refs, dataset_schema,
                                        merge_blocks)


def expand_nulls_keys(table: pa.Table, sort_keys):
    """Expand extended sort keys into Arrow-sortable form.  Elements past
    ``(col, dir)`` may be ``"nulls_first"``/``"nulls_last"``
    (`nulls_ordering.sql`) — a placement differing from Arrow's at_end
    default becomes a prepended is-null helper column — and/or
    ``"collation=<locale>"`` (`order_by_collation.sql`): the key column is
    swapped for a locale-sort-key helper (byte order otherwise, exactly
    the reference's C-collation pushdown rule) — and/or ``"lower"``
    (`sorting.rs::sort_by_lower`: ``ORDER BY lower(field)`` pushes down
    as a case-folded key).  A descending float key holding a NaN gets an
    is-NaN helper ahead of it: Arrow puts NaN after the numbers in either
    direction, SQL takes NaN as the greatest value.  Returns
    (table+helpers, 2-tuple keys, helper column names)."""
    out_keys, helpers = [], []

    def helper(name: str, values) -> str:
        nonlocal table
        if name not in table.column_names:
            table = table.append_column(name, values)
            helpers.append(name)
        return name

    for k in sort_keys:
        col, direction = k[0], k[1]
        nulls = None
        collation = None
        lower = False
        for extra in k[2:]:
            if extra in ("nulls_first", "nulls_last"):
                nulls = extra
            elif extra == "lower":
                lower = True
            elif isinstance(extra, str) and extra.startswith("collation="):
                collation = extra.split("=", 1)[1]
        values = table.column(col)
        # Arrow's default places nulls at_end for either direction; only
        # an explicit placement that differs needs the helper key
        if nulls == "nulls_first":
            h = helper(f"__isnull_{col}",
                       pc.is_null(values).cast(pa.int8()))
            out_keys.append((h, "descending"))
        if (direction == "descending" and pa.types.is_floating(values.type)
                and pc.any(pc.is_nan(values)).as_py()):
            h = helper(f"__isnan_{col}", pc.fill_null(
                pc.is_nan(values), False).cast(pa.int8()))
            out_keys.append((h, "descending"))
        if collation:
            from paradedb_ray.text.collate import sort_key_array

            h = helper(f"__coll_{col}", sort_key_array(values, collation))
            out_keys.append((h, direction))
            # original column stays as the deterministic final tiebreak
        if lower:
            h = helper(f"__lower_{col}", pc.utf8_lower(values))
            out_keys.append((h, direction))
        out_keys.append((col, direction))
    return table, out_keys, helpers


def rank_head(table: pa.Table, order_by, limit: Optional[int],
              offset: int = 0) -> pa.Table:
    """Rows ``offset .. offset+limit`` of ``table`` under ``order_by``
    (extended keys, see :func:`expand_nulls_keys`; ``limit=None``: every
    row from ``offset``) — a stable sort, so equal keys keep their input
    order.  The package's one row sort for an ORDER BY."""
    if not order_by:
        return table.slice(offset, limit)
    table, keys, helpers = expand_nulls_keys(table, order_by)
    out = table.take(pc.sort_indices(table, sort_keys=keys)
                     .slice(offset, limit))
    return out.drop_columns(helpers) if helpers else out


def row_changes(t: pa.Table, cols: list) -> np.ndarray:
    """True at row 0 and wherever any of ``cols`` differs from the row
    before: the run starts of a table sorted on ``cols``.  NULL equals
    NULL, NaN equals NaN, a NaN is not a NULL, and -0.0 equals 0.0, as
    SQL partitions and peers compare."""
    n = t.num_rows
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    out[0] = True
    for c in cols:
        col = t.column(c)
        a, b = col.slice(0, n - 1), col.slice(1)
        an, bn = pc.is_null(a), pc.is_null(b)
        differ = pc.or_(pc.fill_null(pc.not_equal(a, b), False),
                        pc.xor(an, bn))
        if pa.types.is_floating(col.type):
            both_nan = pc.fill_null(pc.and_(pc.is_nan(a), pc.is_nan(b)),
                                    False)
            differ = pc.and_(differ, pc.invert(both_nan))
        out[1:] |= differ.to_numpy(zero_copy_only=False)
    return out


def sort_runs(t: pa.Table, keys: list, order=()) -> tuple:
    """``(t sorted, run_start)``: one :func:`rank_head` sort on ``keys``
    ascending, then ``order`` (extended keys), and :func:`row_changes`
    over ``keys``.  Every sorted per-key reducer (windows, sessions,
    percentiles, top hits, asof, CEP, RRF, the sessions fold) and every
    per-group head takes its runs from here."""
    t = rank_head(t, [(k, "ascending") for k in keys] + list(order), None)
    return t, row_changes(t, keys)


def run_offsets(start: np.ndarray) -> np.ndarray:
    """Each row's 0-based position within its run (``start`` as from
    :func:`sort_runs`)."""
    idx = np.arange(len(start))
    return idx - np.maximum.accumulate(np.where(start, idx, 0))


def group_heads(t: pa.Table, keys, order_by, limit: Optional[int],
                offset: int = 0, rank_col: Optional[str] = None,
                columns: Optional[list] = None) -> pa.Table:
    """Rows ``offset .. offset+limit`` of each group of equal ``keys``
    under ``order_by`` (no ``keys``: of the whole table), groups in key
    order.  ``rank_col`` appends each row's 1-based position in its group
    (int64); ``columns`` projects last.  A column-less table (no blocks
    to merge) passes through."""
    if not t.num_columns:
        return t
    if keys or rank_col:
        t, start = sort_runs(t, list(keys), order_by)
        pos = run_offsets(start)
        keep = pos >= offset
        if limit is not None:
            keep &= pos < offset + limit
        t = t.filter(pa.array(keep))
        if rank_col:
            t = t.append_column(rank_col,
                                pa.array(pos[keep] + 1, pa.int64()))
    else:
        t = rank_head(t, order_by, limit, offset)
    return t.select(columns) if columns is not None else t


def order_dataset(ds: ray.data.Dataset, order_by,
                  limit: Optional[int] = None, *, offset: int = 0, keys=(),
                  columns: Optional[list] = None,
                  schema: Optional[pa.Schema] = None) -> ray.data.Dataset:
    """Distributed ``ORDER BY order_by [LIMIT limit OFFSET offset]``, per
    group of equal ``keys`` when given, as ONE output block.

    A caller prunes each block to its head in its own map stage (the
    scorers and ``topk_by`` do; that stage fuses with the one before).
    Here the blocks meet in O(CPUs) chunked level-1 keeps
    (:func:`~paradedb_ray.stages.blocks.chunk_refs`: each chunk's head is
    a superset of its share of the global head) and then ONE final
    :func:`group_heads` merge, never an all-to-all sort shuffle.  An
    empty table of ``schema`` (default: the Dataset's own) rides along
    so an all-empty result keeps its schema.  ``columns`` projects after
    the final merge, so every merge still sees the ORDER BY columns."""
    refs = ds.to_arrow_refs()
    if schema is None:
        schema = dataset_schema(ds)
    anchor = [] if schema is None else [ray.put(schema.empty_table())]
    head = functools.partial(group_heads, keys=keys, order_by=order_by)
    chunks = chunk_refs(refs)
    if limit is not None and len(chunks) < len(refs):
        keep = functools.partial(head, limit=limit + offset)
        refs = [merge_blocks.remote(keep, *anchor, *ch) for ch in chunks]
    final = functools.partial(head, limit=limit, offset=offset,
                              columns=columns)
    return ray.data.from_arrow_refs(
        [merge_blocks.remote(final, *anchor, *refs)])
