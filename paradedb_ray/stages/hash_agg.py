"""The package's one aggregate kernel, a two-stage vectorized hash
shuffle, and its row-routing sibling.

* :func:`hash_group_aggregate` runs every GROUP BY, scalar (ungrouped)
  aggregate, COUNT(DISTINCT) and DISTINCT: COUNT(*) / COUNT / SUM / AVG /
  MIN / MAX / ``cardinality`` over any key set, the empty one included.
* :func:`hash_partition_apply` routes whole rows by key hash to a
  caller's per-partition reduce (windows, joins, percentiles, dedup
  verification).
* those reducers take their runs from ``stages/order.py``
  (:func:`sort_runs` / :func:`row_changes`, re-exported here): a stable
  sort on the key, then the rows where the key changes, NULL- and
  NaN-safe (NULL = NULL, NaN = NaN, NaN != NULL).

Ray Data's native ``groupby().aggregate()`` routes through a sort-based
(or actor-pool hash) shuffle whose constant factors dwarf the actual
aggregation for metadata-sized streams — the LSH bucket aggregate over
16 signature rows/doc measured 17 s (sort) / 45 s (hash actors) at
100k docs where the arithmetic is milliseconds.  The classic two-stage
hash aggregate is exactly expressible with raw Ray tasks (the documented
escape hatch for what the Dataset API can't express efficiently):

* **stage 1** (one task per input block): block-local partial aggregate
  via ``pa.Table.group_by`` (Arrow's C++ hash aggregation), then split
  into ``P`` sub-tables by key hash (``num_returns=P`` — each aggregator
  fetches only its slice, the all-to-all stays object-store-native);
* **stage 2** (one task per partition): concat + final ``group_by``.

Partitioning assumption: every group's rows land in one stage-2 task
(hash-partitioned by full key), so per-aggregator memory is
``corpus_keys / P`` — size ``P`` to the cluster (``min(64, CPUs)``
locally; one per node-core-pair at fleet scale).  An ungrouped aggregate
has one group, so it runs with ``P = 1``.

Scale bound: the driver tracks B x P object refs (B input blocks).  At
128 MB blocks that is fine through tens of TB (B in the thousands -> a
few hundred thousand tiny refs); past ``_MAX_FANOUT_BLOCKS`` blocks an
extra combiner level concatenates neighbor blocks first so the fan-out
stays bounded at any corpus size.

Reference analogue: pg_search runs the same shape inside tantivy's
segment-parallel aggregation tree (`aggregate/mod.rs:503-560` partial ->
merge), with Postgres workers as stage 1 and the leader as stage 2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from paradedb_ray.stages.blocks import cluster_cpus, concat_blocks
from paradedb_ray.stages.order import (row_changes, run_offsets,  # noqa: F401
                                       sort_runs)


#: above this many input blocks, neighbor blocks coalesce first so the
#: stage-1 fan-out (B x P refs) stays bounded
_MAX_FANOUT_BLOCKS = 2048


@ray.remote
def _concat_blocks(*tabs) -> pa.Table:
    return concat_blocks(tabs)


def _bounded_blocks(blocks: list) -> list:
    """Coalesce neighbor blocks until len(blocks) <= _MAX_FANOUT_BLOCKS."""
    if len(blocks) <= _MAX_FANOUT_BLOCKS:
        return blocks
    k = -(-len(blocks) // _MAX_FANOUT_BLOCKS)  # ceil
    return [_concat_blocks.remote(*blocks[i: i + k])
            for i in range(0, len(blocks), k)]


def _num_partitions(n: Optional[int]) -> int:
    """Reducer count: ``n`` if given, else one per cluster CPU in [2, 64]."""
    return n if n is not None else max(2, min(64, cluster_cpus()))


#: the hash of a NULL integer / boolean key
_NULL_HASH = np.uint64(0x5BD1E9955BD1E995)


def _key_hash(tbl: pa.Table, key_cols: list) -> np.ndarray:
    """uint64 hash over the key column(s) — one vectorized pass each.

    An integer or boolean column holding NULLs reaches numpy as float64 /
    object, whose hashes differ from the same values' in a block without
    NULLs, and equal keys from two such blocks would land in different
    reducers.  So its NULLs are filled before hashing and then hash to
    ``_NULL_HASH``.  A float key hashes -0.0 as 0.0 and every NaN as one
    NaN, the values its reducer's runs (:func:`row_changes`) equate."""
    h = None
    for c in key_cols:
        col = tbl.column(c)
        typ = col.type
        if col.null_count and (pa.types.is_integer(typ)
                               or pa.types.is_boolean(typ)):
            fill = pa.scalar(False if pa.types.is_boolean(typ) else 0, typ)
            hc = pd.util.hash_array(
                pc.fill_null(col, fill).to_numpy(zero_copy_only=False))
            hc[pc.is_null(col).to_numpy(zero_copy_only=False)] = _NULL_HASH
        else:
            v = col.to_numpy(zero_copy_only=False)
            if pa.types.is_floating(typ):
                v = np.where(v == v, v + 0.0, np.nan)
            hc = pd.util.hash_array(v)
        h = hc if h is None else (h * np.uint64(0x9E3779B97F4A7C15)) ^ hc
    return h


def _hash_split(tbl: pa.Table, key_cols: list, P: int):
    """Split ``tbl`` into ``P`` parts by key hash (every row of a key
    lands in the same part); a single table when ``P == 1``."""
    if tbl.num_rows == 0 or P == 1:
        return tuple(tbl for _ in range(P)) if P > 1 else tbl
    h = (_key_hash(tbl, key_cols) % np.uint64(P)).astype(np.int64)
    order = np.argsort(h, kind="stable")
    bounds = np.searchsorted(h[order], np.arange(P + 1))
    idx = pa.array(order, pa.int64())
    return tuple(tbl.take(idx.slice(bounds[p], bounds[p + 1] - bounds[p]))
                 for p in range(P))


def _group_by(tbl: pa.Table, keys: list, aggs: list) -> pa.Table:
    """``tbl.group_by(keys).aggregate(aggs)`` with NULL-safe keys.

    Arrow 16's multi-key grouper splits a NULL group into many when a
    key holding NULLs (string, boolean) precedes another key: grouping
    (k: string, k2: int64) over 1,000 rows with NULL k gave 74 groups
    for 12.  So each key with NULLs groups by its dictionary codes, NULL
    encoded as one more value, and the key is decoded after; the
    aggregates still read the original columns."""
    codes = {}
    if len(keys) > 1:
        for k in keys:
            col = tbl.column(k)
            if col.null_count:
                enc = pc.dictionary_encode(col.combine_chunks(),
                                           null_encoding="encode")
                codes[k] = (f"__code_{k}", enc.dictionary)
                tbl = tbl.append_column(codes[k][0], enc.indices)
    out = tbl.group_by([codes[k][0] if k in codes else k
                        for k in keys]).aggregate(aggs)
    for k, (code, values) in codes.items():
        out = out.set_column(out.column_names.index(code), k,
                             values.take(out.column(code)))
    return out


#: stage-1 partial spec per agg kind: list of (pa-agg-fn, needs_col).
#: ``cardinality`` has none: its column joins the stage-1 group keys, and
#: stage 2 counts the distinct values it brings per group
_PARTIALS = {
    "count_star": [("count_all", False)],
    "count": [("count", True)],
    "sum": [("sum", True)],
    "min": [("min", True)],
    "max": [("max", True)],
    "avg": [("sum", True), ("count", True)],
    "cardinality": [],
}

#: stage-2 combine fn over the stage-1 partial column
_COMBINE = {"count_all": "sum", "count": "sum", "sum": "sum",
            "min": "min", "max": "max"}


def _partial_name(col: Optional[str], fn: str) -> str:
    """The column ``pa.Table.group_by`` names a stage-1 partial."""
    return f"{col}_{fn}" if col is not None else "count_all"


@ray.remote
def _agg_partial_split(tbl: pa.Table, part_keys: list, specs: list,
                       key_cols: list, P: int, template: pa.Table):
    """Block-local partial aggregate (pa.Table.group_by) over
    ``part_keys`` (the group keys plus the COUNT DISTINCT columns),
    hash-split into P parts by the group keys alone.  ``specs``: deduped
    [(col|None, pa_fn)] pairs.  A block missing any column the partial
    reads is swapped for ``template`` (a zero-row table with the input
    schema): Ray emits schema-less empty blocks for all-filtered batches."""
    read = part_keys + [c for c, _ in specs if c is not None]
    if not all(c in tbl.column_names for c in read):
        tbl = template
    part = _group_by(tbl, part_keys,
                     [((c if c is not None else []), fn) for c, fn in specs])
    return _hash_split(part, key_cols, P)


@ray.remote
def _agg_final(key_cols: list, specs: list, distinct: list, aggs: dict,
               *parts) -> pa.Table:
    """One reducer: every partial of its groups meets here, so one
    ``group_by`` over ``key_cols`` finishes them.  COUNT DISTINCT counts
    the distinct stage-1 values per group; pa's ``count_distinct`` skips
    NULLs and gives an all-NULL group 0, as SQL does."""
    t = concat_blocks(parts)
    out = _group_by(t, key_cols,
                    [(_partial_name(c, fn), _COMBINE[fn]) for c, fn in specs]
                    + [(c, "count_distinct") for c in distinct])

    def partial_col(c, fn):
        return out.column(f"{_partial_name(c, fn)}_{_COMBINE[fn]}")

    cols = {c: out.column(c) for c in key_cols}
    for name, (kind, col) in aggs.items():
        if kind == "avg":
            s = partial_col(col, "sum").to_numpy(zero_copy_only=False)
            n = partial_col(col, "count").to_numpy(zero_copy_only=False)
            n = n.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                v = np.where(n > 0, s.astype(np.float64) / n, np.nan)
            cols[name] = pa.array(v, pa.float64())
            # groups whose column is all-null: count 0 -> null mean
            cols[name] = pc.if_else(pa.array(n > 0), cols[name], None)
        elif kind in ("count_star", "count"):
            # an ungrouped aggregate with COUNT DISTINCT columns over no
            # rows has no partial rows to sum: COUNT is still 0
            cols[name] = pc.fill_null(
                partial_col(col if kind == "count" else None,
                            _PARTIALS[kind][0][0]), 0)
        elif kind == "cardinality":
            cols[name] = out.column(f"{col}_count_distinct")
        else:
            cols[name] = partial_col(col, _PARTIALS[kind][0][0])
    return pa.table(cols)


def _exec_blocks_schema(ds: ray.data.Dataset):
    """Execute ``ds`` once and return ``(block_refs, schema)``.

    ``materialize`` runs the upstream pipeline once and caches its
    schema, so the refs and ``schema(fetch_if_missing=False)`` after it
    cost nothing.  ``to_arrow_refs`` on a lazy Dataset would not do:
    when the plan leaves the schema unknown it also launches a limit-1
    probe, which re-runs every upstream stage on the first blocks (a
    filtered read ran its filter on 8 block executions for 6 blocks),
    and whose early-termination task cancels can trip a Ray-core
    cancel-vs-completion race (``task_manager.cc`` check failure) when
    the blocks are tiny.  An all-empty-but-typed result still reports
    its schema.  A lazy Dataset re-executes for every consumer, so a
    Dataset that feeds more than one is materialized by its caller."""
    ds = ds.materialize()
    return _bounded_blocks(ds.to_arrow_refs()), ds.schema(
        fetch_if_missing=False)


def _template(sch) -> pa.Table:
    """Zero-row table with the input schema (stands in for Ray's
    schema-less empty blocks in stage 1)."""
    return pa.schema(
        [pa.field(n, t) for n, t in zip(sch.names, sch.types)]).empty_table()


def _shuffle(blocks: list, template: pa.Table, P: int, split, split_args,
             final, final_args) -> list:
    """The two stages over executed ``blocks``: per block
    ``split.remote(block, *split_args, P, template)`` (``num_returns=P``),
    then per partition ``final.remote(*final_args, *its parts)``.
    Returns the ``P`` final refs."""
    if not blocks:
        blocks = [ray.put(template)]
    split = split.options(num_returns=P if P > 1 else 1)
    parts_per_block = [split.remote(b, *split_args, P, template)
                       for b in blocks]
    if P == 1:
        parts_per_block = [[r] for r in parts_per_block]
    return [final.remote(*final_args, *[pb[p] for pb in parts_per_block])
            for p in range(P)]


def hash_group_aggregate(
    ds: ray.data.Dataset,
    key_cols: list,
    aggs: dict,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """GROUP BY ``key_cols`` with ``aggs``: name -> (kind, col|None),
    kind in count_star|count|sum|avg|min|max|cardinality (exact
    COUNT(DISTINCT col)).  Empty ``aggs`` is DISTINCT over ``key_cols``;
    no ``key_cols`` is SQL's scalar aggregate: one reducer (``P = 1``)
    and exactly one row, even over no rows (counts 0, the rest NULL).

    Partial math mirrors Ray's Mean exactly (total sum / total count), so
    results are bit-identical to the native aggregates for the
    integer-valued columns the oracle entries aggregate.  SUM/MIN/MAX
    keep Arrow's types (MIN/MAX the input's).  A schema-less input (Ray's
    all-empty dataset) holds no rows; it is aggregated as an empty table
    of SQL's default types: string keys, float64 values."""
    specs: list = []
    for kind, col in aggs.values():
        if kind not in _PARTIALS:
            raise ValueError(f"unknown aggregate kind {kind!r}")
        for fn, needs_col in _PARTIALS[kind]:
            spec = (col if needs_col else None, fn)
            if spec not in specs:
                specs.append(spec)
    distinct = list(dict.fromkeys(
        col for kind, col in aggs.values() if kind == "cardinality"))
    part_keys = key_cols + [c for c in distinct if c not in key_cols]
    blocks, sch = _exec_blocks_schema(ds)
    if sch is None:
        read = dict.fromkeys(
            part_keys + [c for c, _ in specs if c is not None])
        template = pa.schema(
            [(c, pa.string() if c in key_cols else pa.float64())
             for c in read]).empty_table()
    else:
        template = _template(sch)
    P = _num_partitions(num_partitions) if key_cols else 1
    return ray.data.from_arrow_refs(_shuffle(
        blocks, template, P,
        _agg_partial_split, (part_keys, specs, key_cols),
        _agg_final, (key_cols, specs, distinct, aggs)))


def hash_distinct_count(
    ds: ray.data.Dataset,
    key_cols: list,
    col: str,
    alias: str,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """COUNT(DISTINCT col) [GROUP BY key_cols] — the ``cardinality``
    kind of :func:`hash_group_aggregate`."""
    return hash_group_aggregate(ds, key_cols, {alias: ("cardinality", col)},
                                num_partitions)


@ray.remote
def _rows_split(tbl: pa.Table, key_cols: list, pre_fn, P: int,
                template: pa.Table):
    """Split full rows by key hash into P parts, after an optional
    block-local shrink (``pre_fn``, e.g. a local dedup)."""
    if not all(c in tbl.column_names for c in key_cols):
        tbl = template
    if pre_fn is not None:
        tbl = pre_fn(tbl)
    return _hash_split(tbl, key_cols, P)


@ray.remote
def _apply_final(reduce_fn, *parts) -> pa.Table:
    return reduce_fn(concat_blocks(parts))


def hash_partition_apply(
    ds: ray.data.Dataset,
    key_cols: list,
    reduce_fn,
    pre_fn=None,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Generic hash-partitioned reduce: rows route to ``P`` reducers by
    key hash (every row of a key meets in ONE reducer), each reducer runs
    ``reduce_fn(pa.Table) -> pa.Table``.  ``pre_fn`` shrinks blocks before
    the all-to-all (the combiner slot).  A schema-less input (all-empty
    dataset) raises ``ValueError``: ``reduce_fn`` needs typed columns."""
    blocks, sch = _exec_blocks_schema(ds)
    if sch is None:
        raise ValueError("hash_partition_apply: input has no schema "
                         "(all-empty dataset)")
    return ray.data.from_arrow_refs(_shuffle(
        blocks, _template(sch), _num_partitions(num_partitions),
        _rows_split, (key_cols, pre_fn), _apply_final, (reduce_fn,)))
