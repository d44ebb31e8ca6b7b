"""Two-stage vectorized hash-shuffle MIN/COUNT aggregate.

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
* **stage 2** (one task per partition): concat + final ``group_by``,
  optional collision filter pushed into the reducer so only buckets
  with >1 member ever leave it.

Partitioning assumption: every group's rows land in one stage-2 task
(hash-partitioned by full key), so per-aggregator memory is
``corpus_keys / P`` — size ``P`` to the cluster (``min(64, CPUs)``
locally; one per node-core-pair at fleet scale).

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


def _key_hash(tbl: pa.Table, key_cols: list) -> np.ndarray:
    """uint64 hash over the key column(s) — one vectorized pass each."""
    h = None
    for c in key_cols:
        col = tbl.column(c).to_numpy(zero_copy_only=False)
        hc = pd.util.hash_array(col)
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


@ray.remote
def _partial_split(tbl: pa.Table, key_cols: list, min_col: str, P: int,
                   template: pa.Table):
    """Block-local partial MIN/COUNT per key, hash-split into P parts.
    ``template`` is a zero-row table with the input schema — Ray emits
    schema-less empty blocks for all-filtered batches."""
    if not all(c in tbl.column_names for c in key_cols + [min_col]):
        tbl = template
    part = tbl.group_by(key_cols).aggregate(
        [(min_col, "min"), ([], "count_all")])
    # -> columns: key_cols + f"{min_col}_min" + "count_all"
    return _hash_split(part, key_cols, P)


@ray.remote
def _final_merge(key_cols: list, min_col: str, only_colliding: bool,
                 min_alias: str, count_alias: str, *parts) -> pa.Table:
    t = concat_blocks(parts)
    out = t.group_by(key_cols).aggregate(
        [(f"{min_col}_min", "min"), ("count_all", "sum")])
    mn = out.column(f"{min_col}_min_min")
    cnt = out.column("count_all_sum")
    out = pa.table(
        {**{c: out.column(c) for c in key_cols},
         min_alias: mn, count_alias: cnt})
    if only_colliding:
        out = out.filter(pc.greater(out.column(count_alias), 1))
    return out


#: stage-1 partial spec per agg kind: list of (pa-agg-fn, needs_col)
_PARTIALS = {
    "count_star": [("count_all", False)],
    "count": [("count", True)],
    "sum": [("sum", True)],
    "min": [("min", True)],
    "max": [("max", True)],
    "avg": [("sum", True), ("count", True)],
}

#: stage-2 combine fn over the stage-1 partial column
_COMBINE = {"count_all": "sum", "count": "sum", "sum": "sum",
            "min": "min", "max": "max"}


@ray.remote
def _agg_partial_split(tbl: pa.Table, key_cols: list, specs: list, P: int,
                       template: pa.Table):
    """Block-local partial aggregate (pa.Table.group_by) hash-split into
    P parts.  ``specs``: deduped [(col|None, pa_fn)] pairs."""
    if not all(c in tbl.column_names for c in key_cols):
        tbl = template
    part = tbl.group_by(key_cols).aggregate(
        [((c if c is not None else []), fn) for c, fn in specs])
    return _hash_split(part, key_cols, P)


@ray.remote
def _agg_final(key_cols: list, specs: list, aggs: dict, *parts) -> pa.Table:
    t = concat_blocks(parts)
    combine = []
    for c, fn in specs:
        pname = f"{c}_{fn}" if c is not None else "count_all"
        combine.append((pname, _COMBINE[fn]))
    out = t.group_by(key_cols).aggregate(combine)

    def partial_col(c, fn):
        pname = f"{c}_{fn}" if c is not None else "count_all"
        return out.column(f"{pname}_{_COMBINE[fn]}")

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
        elif kind == "count_star":
            cols[name] = partial_col(None, "count_all")
        else:
            cols[name] = partial_col(col, _PARTIALS[kind][0][0])
    return pa.table(cols)


def _exec_blocks_schema(ds: ray.data.Dataset):
    """Execute ``ds`` once per call and return ``(block_refs, schema)``.

    A lazy Dataset re-executes on every ``to_arrow_refs``, so each call
    re-runs the whole upstream pipeline.  The rule: a Dataset that feeds
    more than one consumer is materialized by its caller (as
    ``sql_aggregate`` does before fanning out to its cardinality and
    other aggregates).

    Calling ``ds.schema()`` on a not-yet-executed mapped dataset launches
    a SEPARATE limit-1 probe execution — recomputing every upstream stage,
    and the probe's early-termination task cancels can trip a Ray-core
    cancel-vs-completion race (``task_manager.cc`` check failure) when the
    blocks are tiny.  Executing first via ``to_arrow_refs`` makes
    ``schema(fetch_if_missing=False)`` read the cached snapshot for free,
    and an all-empty-but-typed result still reports its schema."""
    blocks = _bounded_blocks(ds.to_arrow_refs())
    sch = ds.schema(fetch_if_missing=False)
    return blocks, sch


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


def _typed_input(ds: ray.data.Dataset, name: str):
    """``(blocks, template)`` of an executed ``ds``; an input with no
    schema at all (all-empty dataset) raises so the caller can fall back."""
    blocks, sch = _exec_blocks_schema(ds)
    if sch is None:
        raise ValueError(f"{name}: input has no schema "
                         "(all-empty dataset) — caller should fall back")
    return blocks, _template(sch)


def hash_group_aggregate(
    ds: ray.data.Dataset,
    key_cols: list,
    aggs: dict,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """GROUP BY ``key_cols`` with ``aggs``: name -> (kind, col|None),
    kind in count_star|count|sum|avg|min|max — the general two-stage
    hash aggregate (same shape and caveats as :func:`grouped_min_count`).
    Partial math mirrors Ray's Mean exactly (total sum / total count), so
    results are bit-identical to the native groupby for the integer-valued
    columns the oracle entries aggregate."""
    specs: list = []
    for kind, col in aggs.values():
        for fn, needs_col in _PARTIALS[kind]:
            spec = (col if needs_col else None, fn)
            if spec not in specs:
                specs.append(spec)
    blocks, template = _typed_input(ds, "hash_group_aggregate")
    return ray.data.from_arrow_refs(_shuffle(
        blocks, template, _num_partitions(num_partitions),
        _agg_partial_split, (key_cols, specs),
        _agg_final, (key_cols, specs, aggs)))


@ray.remote
def _distinct_split(tbl: pa.Table, key_cols: list, col: str, P: int,
                    template: pa.Table):
    """Block-local distinct over (key_cols, col), hash-split by the FULL
    tuple — each distinct tuple lands in exactly one reducer."""
    cols = key_cols + [col]
    if not all(c in tbl.column_names for c in cols):
        tbl = template
    return _hash_split(tbl.select(cols).group_by(cols).aggregate([]),
                       cols, P)


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
    the all-to-all (the combiner slot)."""
    blocks, template = _typed_input(ds, "hash_partition_apply")
    return ray.data.from_arrow_refs(_shuffle(
        blocks, template, _num_partitions(num_partitions),
        _rows_split, (key_cols, pre_fn), _apply_final, (reduce_fn,)))


@ray.remote
def _unique_final(cols: list, *parts) -> pa.Table:
    return concat_blocks(parts).group_by(cols).aggregate([])


def hash_distinct(
    ds: ray.data.Dataset,
    columns: list,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """DISTINCT over ``columns`` as a two-stage hash dedup: block-local
    unique -> tuple-hash split -> per-part unique.  Each distinct tuple
    lands in exactly one reducer, so the union of reducer outputs IS the
    distinct set."""
    blocks, template = _typed_input(ds, "hash_distinct")
    return ray.data.from_arrow_refs(_shuffle(
        blocks, template, _num_partitions(num_partitions),
        _distinct_split, (columns[:-1], columns[-1]),
        _unique_final, (columns,)))


@ray.remote
def _distinct_final(key_cols: list, col: str, alias: str,
                    *parts) -> pa.Table:
    t = concat_blocks(parts)
    cols = key_cols + [col]
    d = t.group_by(cols).aggregate([])
    if not key_cols:
        # SQL COUNT(DISTINCT) never counts NULL values
        n = pc.sum(pc.is_valid(d.column(col)).cast(pa.int64())).as_py() or 0
        return pa.table({alias: pa.array([int(n)], pa.int64())})
    # per-part counts are PARTIAL per key (a key's values spread across
    # parts by the (key, col) hash) — summed in the driver-side combine.
    # pa "count" skips null col values, while the null tuple keeps an
    # all-NULL group alive with count 0 (SQL GROUP BY semantics)
    g = d.group_by(key_cols).aggregate([(col, "count")])
    return pa.table({**{k: g.column(k) for k in key_cols},
                     alias: g.column(f"{col}_count")})


def hash_distinct_count(
    ds: ray.data.Dataset,
    key_cols: list,
    col: str,
    alias: str,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """COUNT(DISTINCT col) [GROUP BY key_cols] as a two-stage hash
    distinct: block-local dedup -> tuple-hash split -> per-part dedup;
    the per-key partial counts (tiny) combine in one final pass."""
    blocks, template = _typed_input(ds, "hash_distinct_count")
    finals = ray.get(_shuffle(
        blocks, template, _num_partitions(num_partitions),
        _distinct_split, (key_cols, col),
        _distinct_final, (key_cols, col, alias)))
    # combine the tiny per-part tables (partial counts per key)
    t = concat_blocks(finals)
    if key_cols:
        g = t.group_by(key_cols).aggregate([(alias, "sum")])
        out = pa.table({**{k: g.column(k) for k in key_cols},
                        alias: g.column(f"{alias}_sum")})
    else:
        out = pa.table({alias: pa.array(
            [pc.sum(t.column(alias)).as_py() or 0], pa.int64())})
    return ray.data.from_arrow(out)


def grouped_min_count(
    ds: ray.data.Dataset,
    key_cols: list,
    min_col: str,
    min_alias: str = "dup_of",
    count_alias: str = "__n",
    num_partitions: Optional[int] = None,
    only_colliding: bool = False,
) -> ray.data.Dataset:
    """GROUP BY ``key_cols`` -> (min(min_col), count(*)) as a two-stage
    hash aggregate; with ``only_colliding`` only groups with >1 row
    survive (the LSH candidate shape)."""
    blocks, sch = _exec_blocks_schema(ds)
    template = _template(sch)
    if not blocks:
        empty = pa.table({**{c: pa.array([], pa.string()) for c in key_cols},
                          min_alias: pa.array([], pa.int64()),
                          count_alias: pa.array([], pa.int64())})
        return ray.data.from_arrow(empty)
    return ray.data.from_arrow_refs(_shuffle(
        blocks, template, _num_partitions(num_partitions),
        _partial_split, (key_cols, min_col),
        _final_merge, (key_cols, min_col, only_colliding,
                       min_alias, count_alias)))
