"""Aggregation pipelines — the Ray Data analogue of pg_search's
AggregateScan SQL pushdown (COUNT/SUM/AVG/MIN/MAX + FILTER + GROUP BY,
`customscan/aggregatescan/aggregate_type.rs:50-90`) and the
Elasticsearch-style ``pdb.agg`` DSL (`pg_search/src/aggregate/mod.rs:380-570`):
terms / histogram / date_histogram / range buckets with metric sub-aggs.

Design: derived bucket keys are appended as columns in a stateless
``map_batches`` (vectorized pyarrow.compute), FILTER clauses become masked
value columns, and the wide step is the one two-stage hash aggregate
(`stages/hash_agg.py::hash_group_aggregate`): block-local partials, one
hash shuffle, one merge per partition.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from paradedb_ray.query import ast
from paradedb_ray.schema import IndexSchema
from paradedb_ray.stages.blocks import (cluster_cpus, collect_table,
                                        tree_reduce_refs)
from paradedb_ray.stages.hash_agg import hash_partition_apply
from paradedb_ray.stages.order import (group_heads, order_dataset, rank_head,
                                       row_changes, run_offsets, sort_runs)


def sql_aggregate(
    ds: ray.data.Dataset,
    group_by: list,
    aggs: dict,
    schema: Optional[IndexSchema] = None,
    filter_query: Optional[ast.Query] = None,
    agg_filters: Optional[dict] = None,
) -> ray.data.Dataset:
    """GROUP BY + aggregates with optional search filter and per-aggregate
    FILTER clauses: one call of the two-stage hash aggregate
    (`stages/hash_agg.py::hash_group_aggregate`) for every grouping and
    kind.

    ``aggs``: name -> (kind, column|None), kind in count_star | count |
    sum | avg | min | max | cardinality (exact COUNT(DISTINCT column),
    NULLs skipped).  ``agg_filters``: name -> callable (pa.Table -> bool
    mask) implementing ``FILTER (WHERE ...)`` by masking the aggregate's
    input to null (a ``__mask_<name>`` column) before the shuffle.
    Ungrouped runs on one reducer (``P = 1``) and returns SQL's one row,
    even over no rows.  Grouped output has no ordering contract (callers
    sort).
    """
    if filter_query is not None:
        from paradedb_ray.pipelines.search import search

        assert schema is not None
        ds = search(ds, schema, filter_query, with_score=False)

    masked = {n: kc for n, kc in aggs.items() if n in (agg_filters or {})}
    if masked:
        def add_masked(batch: pa.Table) -> pa.Table:
            for name, (kind, col) in masked.items():
                mask = pa.array(np.asarray(agg_filters[name](batch),
                                           dtype=bool))
                vals = (pa.array(np.ones(batch.num_rows, np.int64))
                        if kind == "count_star" else batch.column(col))
                batch = batch.append_column(f"__mask_{name}",
                                            pc.if_else(mask, vals, None))
            return batch

        ds = ds.map_batches(add_masked, batch_format="pyarrow",
                            batch_size=None)

    haggs = {}
    for name, (kind, col) in aggs.items():
        if name in masked:
            kind, col = ("count" if kind == "count_star" else kind,
                         f"__mask_{name}")
        haggs[name] = (kind, col)
    # imported per call: a traced benchmark run wraps the module attribute
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    return hash_group_aggregate(ds, list(group_by or []), haggs)


# ---------------------------------------------------------------------------
# ES-style agg DSL (pdb.agg subset)
# ---------------------------------------------------------------------------

_INTERVALS_US = {
    "second": 1_000_000, "minute": 60_000_000, "hour": 3_600_000_000,
    "day": 86_400_000_000, "week": 7 * 86_400_000_000,
}


def _parse_fixed_interval(s) -> int:
    """'30s' / '5m' / '1h' / '2d' -> microseconds."""
    if isinstance(s, (int, float)):
        return int(s)
    unit = s[-1]
    n = float(s[:-1])
    mult = {"s": 1_000_000, "m": 60_000_000, "h": 3_600_000_000,
            "d": 86_400_000_000}[unit]
    return int(n * mult)


def _date_hist_bucketizer(field: str, key_name: str, body: dict):
    """Build the date_histogram bucket-key fn for one level.

    ``fixed_interval`` (and sub-day calendar units) floor the int64 µs
    value; calendar ``month``/``quarter``/``year`` use numpy datetime64
    calendar floors — mirroring the reference's calendar->histogram
    rewrite for fixed-length units and true calendar buckets beyond it
    (`pg_search/src/aggregate/mod.rs:391-406`)."""
    cal = body.get("calendar_interval")
    unit = None
    if cal is not None and "fixed_interval" not in body:
        c = str(cal).lower()
        if c in ("1m", "month", "1month"):
            unit = "M"
        elif c in ("1q", "quarter", "1quarter"):
            unit = "Q"
        elif c in ("1y", "year", "1year"):
            unit = "Y"
        else:
            # minute/hour/day/week are fixed-length: rewrite to fixed
            unit = None
            cal = {"1w": "7d", "week": "7d", "1d": "1d", "day": "1d",
                   "1h": "1h", "hour": "1h", "minute": "1m",
                   "1min": "1m", "second": "1s", "1s": "1s",
                   }.get(c, c)
    if unit is None:
        us = _parse_fixed_interval(body.get("fixed_interval", cal or "1h"))

        def bucketize(batch: pa.Table) -> pa.Table:
            t = batch.column(field).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            arr = pa.array((t // us) * us).cast(pa.timestamp("us"))
            return batch.append_column(key_name, arr)

        return bucketize

    def bucketize(batch: pa.Table) -> pa.Table:
        t = batch.column(field).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        dt = t.astype("datetime64[us]")
        if unit == "M":
            b = dt.astype("datetime64[M]")
        elif unit == "Y":
            b = dt.astype("datetime64[Y]")
        else:  # quarter: floor month to multiple of 3
            m = dt.astype("datetime64[M]").astype(np.int64)
            b = ((m // 3) * 3).astype("datetime64[M]")
        arr = pa.array(b.astype("datetime64[us]").astype(np.int64)).cast(
            pa.timestamp("us"))
        return batch.append_column(key_name, arr)

    return bucketize


def _empty_bucket_table(input_ds, group_by: list, aggs: dict,
                        key_types: Optional[dict] = None) -> pa.Table:
    """Zero-row Arrow table with the exact columns a grouped aggregate
    would emit — Ray Data drops the schema entirely when a groupby sees
    no rows (`empty_aggregate.sql`: aggregates over empty matches must
    keep their shape, issue #2996 in the reference)."""
    types: dict = {}
    # cached or plan-inferred metadata only: never executes ``input_ds``
    sch = input_ds.schema(fetch_if_missing=False)
    if sch is not None:
        for nm, t in zip(sch.names, sch.types):
            if isinstance(t, pa.DataType):
                types[nm] = t
    if key_types:
        types.update(key_types)
    cols: dict = {}
    for k in group_by:
        cols[k] = pa.array([], types.get(k, pa.string()))
    for name, (kind, col) in aggs.items():
        if kind in ("count_star", "count", "cardinality"):
            t = pa.int64()
        elif kind == "avg":
            t = pa.float64()
        else:
            t = types.get(col, pa.float64())
        cols[name] = pa.array([], t)
    return pa.table(cols)


class AggregationLimitError(ValueError):
    """`pdb.agg` limits tripped (tantivy's AggregationLimitsGuard,
    surfaced through `api/aggregate.rs:70-110`): bucket_limit caps bucket
    COUNT, memory_limit caps aggregation-state BYTES."""


def _guard_buckets(out: ray.data.Dataset, bucket_limit: Optional[int],
                   input_ds=None, group_by: Optional[list] = None,
                   aggs: Optional[dict] = None,
                   key_types: Optional[dict] = None,
                   memory_limit: Optional[int] = None) -> ray.data.Dataset:
    """Bucket-count + state-byte guard (`paradedb.max_term_agg_buckets` +
    `memory_limit`, `api/aggregate.rs:70-110,143` / `aggregate/mod.rs`
    AggregationLimitsGuard): raise instead of returning a silently huge
    bucket table.  The grouped output is materialized first — within the
    limits it is tiny, and the object store spills past memory, so a
    runaway cardinality fails with this error rather than an OOM.  The
    byte check runs against the merged bucket state: Ray's streaming
    executor spills block-local partials (each at most the merged
    cardinality), so the merged state is where unbounded growth
    surfaces — the same abort point as tantivy's collector budget.  A
    zero-bucket result is rebuilt with its proper schema (see
    ``_empty_bucket_table``)."""
    from paradedb_ray.config import DEFAULT

    if bucket_limit is None:
        bucket_limit = DEFAULT.bucket_limit
    if memory_limit is None:
        memory_limit = DEFAULT.memory_limit
    out = out.materialize()
    n = out.count()
    if n > bucket_limit:
        raise AggregationLimitError(
            f"aggregation produced {n} buckets, exceeding the "
            f"bucket limit {bucket_limit} (max_term_agg_buckets)")
    nbytes = out.size_bytes() or 0
    if nbytes > memory_limit:
        raise AggregationLimitError(
            f"aborting aggregation: bucket state is {nbytes} bytes, "
            f"exceeding the memory limit {memory_limit}")
    if n == 0 and group_by and aggs is not None:
        return ray.data.from_arrow(
            _empty_bucket_table(input_ds, group_by, aggs, key_types))
    return out


def _collect_agg_fields(spec) -> set:
    """Every "field" referenced anywhere in an aggregation tree."""
    out = set()
    if isinstance(spec, dict):
        f = spec.get("field")
        if isinstance(f, str):
            out.add(f)
        for v in spec.values():
            out |= _collect_agg_fields(v)
    return out


def _derive_json_path_fields(ds, schema, agg_json):
    """JSON projection aggregation (`json_agg.sql`, reference Group By
    `metadata_json.value`): a dot-path field whose base is a JSON schema
    column becomes a derived column of the same dotted name — each row's
    JSON parses ONCE for all requested paths, then the normal grouped
    aggregate runs over the derived columns."""
    if schema is None:
        return ds
    from paradedb_ray.schema import JSON

    paths: dict = {}
    for full in _collect_agg_fields(agg_json):
        if "." not in full:
            continue
        base = full.split(".", 1)[0]
        f = schema.fields.get(base)
        if f is not None and f.ftype == JSON:
            paths.setdefault(base, []).append(full)
    if not paths:
        return ds

    def derive(b: pa.Table) -> pa.Table:
        import json as _json

        for base, fulls in paths.items():
            objs = []
            for v in b.column(base).to_pylist():
                if v is None:
                    objs.append(None)
                    continue
                try:
                    objs.append(_json.loads(v) if isinstance(v, str)
                                else v)
                except _json.JSONDecodeError:
                    # a malformed JSON string has no paths: NULL, as in SQL
                    objs.append(None)
            for full in fulls:
                parts = full.split(".")[1:]
                vals = []
                for obj in objs:
                    cur = obj
                    for p in parts:
                        cur = cur.get(p) if isinstance(cur, dict) else None
                    vals.append(cur)
                b = b.append_column(full, pa.array(vals))
        return b

    return ds.map_batches(derive, batch_format="pyarrow")


def pdb_agg(
    ds: ray.data.Dataset,
    agg_json: dict,
    schema: Optional[IndexSchema] = None,
    filter_query: Optional[ast.Query] = None,
    bucket_limit: Optional[int] = None,
    memory_limit: Optional[int] = None,
) -> ray.data.Dataset:
    """Subset of the tantivy/ES aggregation DSL
    (`api/aggregate.rs:18-120`): one bucket level (terms | histogram |
    date_histogram | range) with metric sub-aggs, or bare metrics.

    Result is a *flat* table: bucket key column(s) + one column per metric
    (+ ``doc_count``), which is both Arrow-friendly and directly comparable
    against a SQL oracle.
    """
    if filter_query is not None:
        from paradedb_ray.pipelines.search import search

        assert schema is not None
        ds = search(ds, schema, filter_query, with_score=False)

    ds = _derive_json_path_fields(ds, schema, agg_json)
    entries = list(agg_json.items())
    if len(entries) != 1 or _has_sibling_buckets(entries[0][1]):
        if filter_query is not None:
            # every sibling path reads the filtered rows: filter once
            ds = ds.materialize()
        return _pdb_agg_flat(ds, agg_json, bucket_limit, memory_limit)
    [(name, spec)] = entries
    bucket_kinds = {"terms", "histogram", "date_histogram", "range"}
    kind = next((k for k in spec if k in bucket_kinds), None)
    if kind is None:
        # bare metrics
        aggs = {}
        ex = _metric_extras()
        _expand_metric(aggs, name, spec, ex)
        return _finish_extended(
            sql_aggregate(_apply_derived(ds, ex), [], aggs), ex)

    body = spec[kind]
    sub = spec.get("aggs", {})

    # nested bucket sub-agg (ES multi-level nesting,
    # `aggregate/mod.rs:380-570` sub-aggregation tree): derive every
    # level's bucket key as a column, then ONE groupby over all keys —
    # flat output with one key column per level, keys ascending
    nested = {n: s for n, s in sub.items()
              if any(k in s for k in bucket_kinds)}
    if nested:
        key_cols = []
        key_types: dict = {}
        ds0 = ds  # pre-derivation input: keeps inferable key column types
        level_name, level_spec = name, spec
        ex = _metric_extras()
        metric_aggs = {"doc_count": ("count_star", None)}
        while True:
            lkind = next(k for k in level_spec if k in bucket_kinds)
            ds, kc = _bucket_key_column(ds, lkind, level_name,
                                        level_spec[lkind])
            key_cols.append(kc)
            if lkind == "histogram":
                key_types[kc] = pa.float64()
            elif lkind == "date_histogram":
                key_types[kc] = pa.timestamp("us")
            elif lkind == "range":
                key_types[kc] = pa.string()
            lsub = level_spec.get("aggs", {})
            lnested = {n: s for n, s in lsub.items()
                       if any(k in s for k in bucket_kinds)}
            for mname, mspec in lsub.items():
                if mname not in lnested:
                    _expand_metric(metric_aggs, mname, mspec, ex)
            if not lnested:
                break
            [(level_name, level_spec)] = lnested.items()
        out = _guard_buckets(
            sql_aggregate(_apply_derived(ds, ex), key_cols, metric_aggs),
            bucket_limit, ds0, key_cols, metric_aggs, key_types,
            memory_limit=memory_limit)
        return order_dataset(_finish_extended(out, ex),
                             [(c, "ascending") for c in key_cols])

    pcts = {n: s for n, s in sub.items() if "percentiles" in s}
    if pcts:
        # percentiles metric inside the DSL: per-bucket exact quantiles
        # (map_groups) merged with the other metrics' grouped table on the
        # driver — both sides are bucket-bounded
        if kind != "terms":
            raise ValueError(
                "percentiles sub-agg is supported under terms buckets")
        import pandas as pd

        rest = {n: s for n, s in sub.items() if n not in pcts}
        base = pdb_agg(ds, {name: {"terms": dict(body, size=1 << 30),
                                   "aggs": rest}},
                       bucket_limit=bucket_limit,
                       memory_limit=memory_limit).to_pandas()
        key_col = body["field"]
        for mname, mspec in pcts.items():
            pb = mspec["percentiles"]
            pfn = (percentiles_tdigest_agg if pb.get("method") == "tdigest"
                   else percentiles_agg)
            pt = pfn(
                ds, [key_col], pb["field"],
                percents=list(pb.get("percents", (25.0, 50.0, 75.0, 95.0))),
                prefix=f"{mname}_p").to_pandas()
            base = base.merge(pt, on=key_col, how="left")
        return ray.data.from_arrow(rank_head(
            pa.Table.from_pandas(base, preserve_index=False),
            [("doc_count", "descending"), (key_col, "ascending")],
            body.get("size", 10)))

    th = {n: s for n, s in sub.items() if "top_hits" in s}
    if th:
        # tantivy top_hits metric: top-N docs per bucket; flattened shape
        if len(sub) > 1 or kind != "terms":
            raise ValueError(
                "top_hits is supported as the only sub-agg of a terms "
                "bucket")
        [(_, tspec)] = th.items()
        tb = tspec["top_hits"]
        sort = []
        for item in tb.get("sort", []):
            [(col, od)] = item.items()
            if isinstance(od, dict):
                od = od.get("order", "asc")
            sort.append((col, "descending"
                         if str(od).startswith("desc") else "ascending"))
        return top_hits_agg(ds, [body["field"]], sort,
                            size=tb.get("size", 3),
                            source_cols=tb.get("_source"))

    aggs = {"doc_count": ("count_star", None)}
    ex = _metric_extras()
    for mname, mspec in sub.items():
        _expand_metric(aggs, mname, mspec, ex)
    ds = _apply_derived(ds, ex)

    field = body["field"]
    if kind == "terms":
        key_col = field
        grouped = _guard_buckets(sql_aggregate(ds, [key_col], aggs),
                                 bucket_limit, ds, [key_col], aggs,
                                 memory_limit=memory_limit)
        return order_dataset(_finish_extended(grouped, ex),
                             [("doc_count", "descending"),
                              (key_col, "ascending")], body.get("size", 10))
    if kind == "histogram":
        interval = float(body["interval"])
        offset = float(body.get("offset", 0.0))

        def bucketize(batch: pa.Table) -> pa.Table:
            x = batch.column(field).to_numpy(zero_copy_only=False).astype(float)
            b = np.floor((x - offset) / interval) * interval + offset
            return batch.append_column(f"{name}_key", pa.array(b))

        ds2 = ds.map_batches(bucketize, batch_format="pyarrow", batch_size=None)
        out = _guard_buckets(sql_aggregate(ds2, [f"{name}_key"], aggs),
                             bucket_limit, ds, [f"{name}_key"], aggs,
                             {f"{name}_key": pa.float64()},
                             memory_limit=memory_limit)
        return order_dataset(_finish_extended(out, ex),
                             [(f"{name}_key", "ascending")])
    if kind == "date_histogram":
        bucketize = _date_hist_bucketizer(field, f"{name}_key", body)
        ds2 = ds.map_batches(bucketize, batch_format="pyarrow", batch_size=None)
        out = _guard_buckets(sql_aggregate(ds2, [f"{name}_key"], aggs),
                             bucket_limit, ds, [f"{name}_key"], aggs,
                             {f"{name}_key": pa.timestamp("us")},
                             memory_limit=memory_limit)
        return order_dataset(_finish_extended(out, ex),
                             [(f"{name}_key", "ascending")])
    if kind == "range":
        ranges = body["ranges"]

        def bucketize(batch: pa.Table) -> pa.Table:
            x = batch.column(field).to_numpy(zero_copy_only=False).astype(float)
            lab = np.full(len(x), None, dtype=object)
            for r in ranges:
                lo = r.get("from", -np.inf)
                hi = r.get("to", np.inf)
                m = (x >= lo) & (x < hi)
                lab[m] = r.get("key", f"{r.get('from', '*')}-{r.get('to', '*')}")
            return batch.append_column(f"{name}_key", pa.array(lab, pa.string()))

        ds2 = ds.map_batches(bucketize, batch_format="pyarrow", batch_size=None)
        out = _guard_buckets(sql_aggregate(ds2, [f"{name}_key"], aggs),
                             bucket_limit, ds, [f"{name}_key"], aggs,
                             {f"{name}_key": pa.string()},
                             memory_limit=memory_limit)
        return order_dataset(_finish_extended(out, ex),
                             [(f"{name}_key", "ascending")])
    raise ValueError(f"unsupported bucket kind {kind}")


def _bucket_key_column(ds: ray.data.Dataset, kind: str, name: str,
                       body: dict):
    """Append the bucket-key column for one agg level; -> (ds, key_col)."""
    field = body["field"]
    if kind == "terms":
        return ds, field
    if kind == "histogram":
        interval = float(body["interval"])
        offset = float(body.get("offset", 0.0))

        def bk(batch: pa.Table) -> pa.Table:
            x = batch.column(field).to_numpy(zero_copy_only=False).astype(float)
            b = np.floor((x - offset) / interval) * interval + offset
            return batch.append_column(f"{name}_key", pa.array(b))

        return ds.map_batches(bk, batch_format="pyarrow",
                              batch_size=None), f"{name}_key"
    if kind == "date_histogram":
        bk = _date_hist_bucketizer(field, f"{name}_key", body)
        return ds.map_batches(bk, batch_format="pyarrow",
                              batch_size=None), f"{name}_key"
    if kind == "range":
        ranges = body["ranges"]

        def bk(batch: pa.Table) -> pa.Table:
            x = batch.column(field).to_numpy(zero_copy_only=False).astype(float)
            lab = np.full(len(x), None, dtype=object)
            for r in ranges:
                lo = r.get("from", -np.inf)
                hi = r.get("to", np.inf)
                m = (x >= lo) & (x < hi)
                lab[m] = r.get("key", f"{r.get('from', '*')}-{r.get('to', '*')}")
            return batch.append_column(f"{name}_key",
                                       pa.array(lab, pa.string()))

        return ds.map_batches(bk, batch_format="pyarrow",
                              batch_size=None), f"{name}_key"
    raise ValueError(kind)


_BUCKET_KINDS = {"terms", "histogram", "date_histogram", "range"}


def _is_bucket_spec(s: dict) -> bool:
    return any(k in s for k in _BUCKET_KINDS)


def _has_sibling_buckets(spec: dict) -> bool:
    if not _is_bucket_spec(spec):
        return False
    sub = spec.get("aggs", {})
    nested = [s for s in sub.values() if _is_bucket_spec(s)]
    if len(nested) > 1:
        return True
    return any(_has_sibling_buckets(s) for s in nested)


def _key_strings(series):
    """Deterministic key-to-string for the flat sibling layout (timestamp
    formatting matches SQL ``strftime('%Y-%m-%d %H:%M:%S')``)."""
    import pandas as pd

    if pd.api.types.is_datetime64_any_dtype(series):
        return series.dt.strftime("%Y-%m-%d %H:%M:%S")
    return series.astype(str)


def _pdb_agg_flat(ds: ray.data.Dataset, agg_json: dict,
                  bucket_limit: Optional[int] = None,
                  memory_limit: Optional[int] = None
                  ) -> ray.data.Dataset:
    """SIBLING bucket aggregations (several independent bucket trees in
    one request — the reference merges arbitrary sub-agg trees,
    `pg_search/src/aggregate/mod.rs:503-560`), flattened to ONE table:

    every root-to-node chain that carries metrics (or is a leaf) becomes a
    row group tagged ``agg_name`` = dotted path, with its bucket keys
    stringified into ``key_1..key_D`` columns and the union of metric
    columns (nulls where absent).  One grouped aggregate per path over the
    shared (already filtered) input stream; per-path outputs are
    bucket-bounded, so the final combine is driver-side small."""
    import pandas as pd

    paths: list = []  # (dotted_names, [(kind, name, body)...], metrics)

    def walk(names, spec, keys):
        kind = next(k for k in spec if k in _BUCKET_KINDS)
        keys2 = keys + [(kind, names[-1], spec[kind])]
        sub = spec.get("aggs", {})
        nested = {n: s for n, s in sub.items() if _is_bucket_spec(s)}
        metrics = {n: s for n, s in sub.items() if n not in nested}
        if metrics or not nested:
            paths.append((names, keys2, metrics))
        for n, s in nested.items():
            walk(names + [n], s, keys2)

    for name, spec in agg_json.items():
        if _is_bucket_spec(spec):
            walk([name], spec, [])
        else:  # bare metric sibling: ungrouped single-row path
            paths.append(([name], [], {name: spec}))

    frames = []
    metric_order: list = []
    max_depth = max((len(k) for _, k, _ in paths), default=0)
    for names, keys, metrics in paths:
        ds2, key_cols = ds, []
        for kind, nm, body in keys:
            ds2, kc = _bucket_key_column(ds2, kind, nm, body)
            key_cols.append(kc)
        aggs = {"doc_count": ("count_star", None)}
        ex = _metric_extras()
        for mname, mspec in metrics.items():
            _expand_metric(aggs, mname, mspec, ex)
        res = _finish_extended(
            _guard_buckets(
                sql_aggregate(_apply_derived(ds2, ex), key_cols, aggs),
                bucket_limit, memory_limit=memory_limit), ex).to_pandas()
        out = pd.DataFrame({"agg_name": [".".join(names)] * len(res)})
        for i in range(max_depth):
            out[f"key_{i + 1}"] = (_key_strings(res[key_cols[i]])
                                   if i < len(key_cols) else None)
        for c in aggs:
            out[c] = res[c].values
            if c != "doc_count" and c not in metric_order:
                metric_order.append(c)
        frames.append(out)

    cols = (["agg_name"] + [f"key_{i + 1}" for i in range(max_depth)]
            + ["doc_count"] + metric_order)
    combined = pd.concat(frames, ignore_index=True).reindex(columns=cols)
    combined["doc_count"] = combined["doc_count"].astype("int64")
    sort_cols = ["agg_name"] + [f"key_{i + 1}" for i in range(max_depth)]
    return ray.data.from_arrow(rank_head(
        pa.Table.from_pandas(combined, preserve_index=False),
        [(c, "ascending") for c in sort_cols], None))


def _expand_metric(aggs: dict, mname: str, mspec: dict,
                  extras: Optional[dict] = None):
    """One ES metric spec -> sql_aggregate agg entries (``stats`` expands
    to its five component columns, `aggregate/mod.rs` stats agg).

    ``extended_stats`` additionally needs a derived squared-value column
    before the shuffle and a variance/std post-step after it; both are
    recorded in ``extras`` (= {"derived": {col: source}, "post": [...]}).
    """
    [(mk, body)] = mspec.items()
    if mk == "stats":
        f = body["field"]
        for s in ("count", "min", "max", "sum", "avg"):
            aggs[f"{mname}_{s}"] = (s, f)
    elif mk == "extended_stats":
        f = body["field"]
        for s in ("count", "min", "max", "sum", "avg"):
            aggs[f"{mname}_{s}"] = (s, f)
        if extras is None:
            raise ValueError(
                "extended_stats is not supported in this aggregation "
                "position")
        sq = f"__sq_{f}"
        extras["derived"][sq] = f
        aggs[f"{mname}_sum_of_squares"] = ("sum", sq)
        extras["post"].append(mname)
    else:
        aggs[mname] = (_metric_kind(mk), body["field"])


def _metric_extras() -> dict:
    return {"derived": {}, "post": []}


def _apply_derived(ds: ray.data.Dataset, extras: dict) -> ray.data.Dataset:
    """Append derived value columns (x**2 for extended_stats) before the
    aggregation shuffle — partial aggregation stays one pass."""
    derived = extras["derived"]
    if not derived:
        return ds

    def add(batch: pa.Table) -> pa.Table:
        for name, src in derived.items():
            x = batch.column(src).to_numpy(zero_copy_only=False).astype(float)
            batch = batch.append_column(name, pa.array(x * x))
        return batch

    return ds.map_batches(add, batch_format="pyarrow", batch_size=None)


def _finish_extended(out: ray.data.Dataset, extras: dict) -> ray.data.Dataset:
    """Derive population variance / std_deviation from the aggregated
    sum / sum_of_squares / count columns (tantivy extended_stats)."""
    post = extras["post"]
    if not post:
        return out

    def fin(batch: pa.Table) -> pa.Table:
        for m in post:
            n = batch.column(f"{m}_count").to_numpy(
                zero_copy_only=False).astype(float)
            s = batch.column(f"{m}_sum").to_numpy(
                zero_copy_only=False).astype(float)
            sq = batch.column(f"{m}_sum_of_squares").to_numpy(
                zero_copy_only=False).astype(float)
            with np.errstate(divide="ignore", invalid="ignore"):
                var = np.where(n > 0, sq / n - (s / n) ** 2, np.nan)
                var = np.maximum(var, 0.0)  # clamp float cancellation
                std = np.sqrt(var)
            batch = batch.append_column(f"{m}_variance", pa.array(var))
            batch = batch.append_column(f"{m}_std_deviation", pa.array(std))
        return batch

    return out.map_batches(fin, batch_format="pyarrow", batch_size=None)


def _metric_kind(mk: str) -> str:
    m = {"avg": "avg", "sum": "sum", "min": "min", "max": "max",
         "value_count": "count", "cardinality": "cardinality"}
    if mk not in m:
        raise ValueError(f"unsupported metric {mk!r}")
    return m[mk]


#: high sentinel standing in for NULL string group keys through Ray's
#: range-partitioned sort (which cannot order None among strings) — the
#: same trick the reference uses for terms-agg NULL buckets
#: (`aggregate/mod.rs:576-705`); decoded back to NULL on output
_NULL_KEY_SENTINEL = "￿￿￿__pdb_null__"


def _sentinel_encode(t: pa.Table, cols) -> pa.Table:
    for k in cols:
        f = t.schema.field(k)
        if (pa.types.is_string(f.type) or pa.types.is_large_string(f.type)) \
                and t.column(k).null_count:
            t = t.set_column(t.schema.get_field_index(k), k,
                             pc.fill_null(t.column(k), _NULL_KEY_SENTINEL))
    return t


def _sentinel_decode(t: pa.Table, cols) -> pa.Table:
    for k in cols:
        f = t.schema.field(k)
        if pa.types.is_string(f.type) or pa.types.is_large_string(f.type):
            c = t.column(k)
            mask = pc.equal(c, _NULL_KEY_SENTINEL)
            if pc.any(mask).as_py():
                t = t.set_column(t.schema.get_field_index(k), k,
                                 pc.if_else(mask, pa.scalar(None, f.type), c))
    return t


def percentiles_agg(
    ds: ray.data.Dataset,
    group_by: list,
    col: str,
    percents: list = (25.0, 50.0, 75.0, 95.0),
    prefix: str = "p",
) -> ray.data.Dataset:
    """Exact interpolated percentiles per group (the ES ``percentiles``
    metric, `aggregate/mod.rs` percentile path — the reference uses a
    t-digest sketch; at our block sizes an exact per-group quantile via
    ``map_groups`` is both cheaper and oracle-comparable; a sketch drops in
    here if group cardinality explodes).

    Output columns: group keys + ``{prefix}{int(p)}`` per percentile.
    Interpolation is ``(1-f)*lo + f*hi`` — bit-identical to SQL
    ``quantile_cont`` (np.quantile's ``lo + f*(hi-lo)`` differs in the
    last ulp on ties)."""
    import math

    percents = list(percents)

    def group_quantiles(t: pa.Table) -> pa.Table:
        """Per-group quantiles VECTORIZED across all groups of a
        hash partition: one multi-key sort, reduceat group boundaries,
        fancy-indexed lo/hi interpolation (same float64 ops as the old
        per-group scalar path — bit-identical results)."""
        pnames = [f"{prefix}{int(p) if float(p).is_integer() else p}"
                  for p in percents]
        if t.num_rows == 0:
            return pa.table(
                {**{k: t.column(k) for k in group_by},
                 **{n: pa.array([], pa.float64()) for n in pnames}})
        t, start = sort_runs(t, group_by, [(col, "ascending")])
        starts = np.flatnonzero(start)
        x = t.column(col).to_numpy(zero_copy_only=False).astype(float)
        valid = ~np.isnan(x)
        nn = np.add.reduceat(valid.astype(np.int64), starts)
        out = {k: t.column(k).take(pa.array(starts, pa.int64()))
               for k in group_by}
        for p, name in zip(percents, pnames):
            h = (nn - 1) * (p / 100.0)
            lo = starts + np.floor(h).astype(np.int64)
            hi = starts + np.ceil(h).astype(np.int64)
            f = h - np.floor(h)
            lo = np.clip(lo, 0, len(x) - 1)
            hi = np.clip(hi, 0, len(x) - 1)
            v = (1.0 - f) * x[lo] + f * x[hi]
            v = np.where(nn > 0, v, np.nan)
            # NaN -> SQL NULL (all-null groups)
            out[name] = pa.array(v, pa.float64(), from_pandas=True)
        return pa.table(out)

    if group_by:
        pruned = ds.select_columns(list(group_by) + [col])
        return hash_partition_apply(pruned, group_by, group_quantiles)

    # ungrouped: exact DISTRIBUTED selection via histogram pruning — the
    # driver never sees the value column, only per-block histograms and
    # the handful of values inside the buckets that contain the target
    # ranks (VERDICT r1 wrong-list #6)
    ranks: set = set()
    out_row: dict = {}
    # rank math needs n first; collected below
    vals_ds = ds.select_columns([col])
    # the selection algorithm makes SEVERAL corpus passes; at 10^3+
    # blocks each pass pays a per-task scheduling floor, so coalesce the
    # single-column projection to O(CPUs) blocks ONCE (spill-backed
    # materialize — the projection is a tiny fraction of the corpus) and
    # every subsequent pass runs over the coalesced copy
    ncpus = cluster_cpus()
    vals_ds = vals_ds.materialize()
    if vals_ds.num_blocks() > 8 * ncpus:
        vals_ds = vals_ds.repartition(4 * ncpus).materialize()
    # ONE fused bootstrap pass: valid count + min + max (block counts of
    # 10^3+ put a per-task scheduling floor on every corpus pass, so
    # pass count is the cost driver — r5 microbench in BASELINE.md)
    n, blo, bhi = _dist_stats(vals_ds, col)
    for p in percents:
        key = f"{prefix}{int(p) if float(p).is_integer() else p}"
        if n == 0:
            out_row[key] = None
            continue
        h = (n - 1) * (p / 100.0)
        ranks.add(math.floor(h))
        ranks.add(math.ceil(h))
    if ranks:
        values = _dist_rank_values(vals_ds, col, sorted(ranks),
                                   bounds=(blo, bhi))
        for p in percents:
            key = f"{prefix}{int(p) if float(p).is_integer() else p}"
            if n == 0:
                continue
            h = (n - 1) * (p / 100.0)
            lo, hi = values[math.floor(h)], values[math.ceil(h)]
            f = h - math.floor(h)
            out_row[key] = float((1.0 - f) * lo + f * hi)
    return ray.data.from_items([out_row])


def percentiles_tdigest_agg(
    ds: ray.data.Dataset,
    group_by: list,
    col: str,
    percents: list = (25.0, 50.0, 75.0, 95.0),
    prefix: str = "p",
    compression: float = 200.0,
) -> ray.data.Dataset:
    """Approximate percentiles per group via a merging t-digest sketch —
    the reference's actual percentile machinery (tantivy keeps a t-digest
    per bucket, `aggregate/mod.rs` percentile path), for groups too large
    for ``percentiles_agg``'s exact per-group sort.

    Scale shape: pass 1 is a combiner — each block reduces to one
    O(compression) digest per group it contains, so the groupby shuffle
    moves digests, never values; per-group reducer state stays bounded
    no matter how many rows a group holds.  Output schema matches
    ``percentiles_agg`` (group keys + ``{prefix}{int(p)}``)."""
    import pandas as pd

    from paradedb_ray.functions.tdigest import TDigest

    percents = list(percents)

    def keyname(p):
        return f"{prefix}{int(p) if float(p).is_integer() else p}"

    def part(t: pa.Table) -> pa.Table:
        if not group_by:
            x = t.column(col).to_numpy(zero_copy_only=False).astype(float)
            d = TDigest.from_values(x, compression)
            return pa.table({"__td": pa.array([d.to_bytes()], pa.binary())})
        df = _sentinel_encode(t.select(group_by + [col]),
                              group_by).to_pandas()
        keys = {k: [] for k in group_by}
        tds = []
        for key, g in df.groupby(group_by, dropna=False, sort=False):
            if not isinstance(key, tuple):
                key = (key,)
            for k, v in zip(group_by, key):
                keys[k].append(None if pd.isna(v) else v)
            tds.append(TDigest.from_values(
                g[col].to_numpy(dtype=float, na_value=np.nan),
                compression).to_bytes())
        cols = {k: pa.array(v, t.schema.field(k).type)
                for k, v in keys.items()}
        cols["__td"] = pa.array(tds, pa.binary())
        return pa.table(cols)

    partials = ds.map_batches(part, batch_format="pyarrow", batch_size=None)
    if group_by:
        def fin(g: pa.Table) -> pa.Table:
            d = TDigest.merge_all(
                [TDigest.from_bytes(b.as_py(), compression)
                 for b in g.column("__td")], compression)
            out = {k: [g.column(k)[0].as_py()] for k in group_by}
            for p in percents:
                out[keyname(p)] = [d.percentile(p) if d.count else None]
            return pa.table(out)

        return partials.groupby(group_by).map_groups(
            fin, batch_format="pyarrow").map_batches(
            _sentinel_decode, fn_kwargs={"cols": group_by},
            batch_format="pyarrow", batch_size=None)
    # ungrouped: fan-in-32 tree-reduce of the per-block digests (t-digest
    # merge is the sketch's own combine op) — O(log B) task waves, the
    # driver unpickles exactly one O(compression) digest regardless of
    # block count
    refs = tree_reduce_refs(partials.to_arrow_refs(),
                            _merge_tdigest_parts, compression)
    if refs:
        d = TDigest.merge_all(
            [TDigest.from_bytes(b.as_py(), compression)
             for b in ray.get(refs[0]).column("__td")], compression)
    else:
        d = TDigest.empty(compression)
    row = {keyname(p): (d.percentile(p) if d.count else None)
           for p in percents}
    return ray.data.from_items([row])


@ray.remote
def _merge_tdigest_parts(compression: float, *tabs: pa.Table) -> pa.Table:
    """Tree-reduce node: merge the ``__td`` digests of up to fan-in child
    tables into one single-digest table (t-digest merge is the sketch's
    associative combine)."""
    from paradedb_ray.functions.tdigest import TDigest

    d = TDigest.merge_all(
        [TDigest.from_bytes(b.as_py(), compression)
         for t in tabs for b in t.column("__td")], compression)
    return pa.table({"__td": pa.array([d.to_bytes()], pa.binary())})


def _dist_stats(ds: ray.data.Dataset, col: str):
    """(valid count, min, max) in ONE corpus pass — per-block partials
    reduce through the scalar hash aggregate; min/max are None when no
    valid values exist."""
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    def st(t: pa.Table) -> pa.Table:
        x = t.column(col).to_numpy(zero_copy_only=False).astype(float)
        x = x[~np.isnan(x)]
        if not len(x):
            return pa.table({"n": pa.array([0], pa.int64()),
                             "lo": pa.array([None], pa.float64()),
                             "hi": pa.array([None], pa.float64())})
        return pa.table({"n": pa.array([len(x)], pa.int64()),
                         "lo": pa.array([float(x.min())]),
                         "hi": pa.array([float(x.max())])})

    partials = ds.map_batches(st, batch_format="pyarrow", batch_size=None)
    row = collect_table(hash_group_aggregate(
        partials, [], {"n": ("sum", "n"), "lo": ("min", "lo"),
                       "hi": ("max", "hi")})).to_pylist()[0]
    return int(row["n"] or 0), row["lo"], row["hi"]


#: fetch at most this many raw values onto the driver per refinement
_QUANTILE_FETCH_LIMIT = 2_000_000
_QUANTILE_BUCKETS = 4096


@ray.remote
def _merge_hist_parts(*tabs: pa.Table) -> pa.Table:
    """Tree-reduce node for `_dist_rank_values`: sum per-block bucket
    counts and min/max the per-bucket bounds (all associative — the tree
    is bit-identical to a flat driver merge)."""
    import pickle as _pickle

    counts = np.zeros(_QUANTILE_BUCKETS, np.int64)
    bmin = np.full(_QUANTILE_BUCKETS, np.inf)
    bmax = np.full(_QUANTILE_BUCKETS, -np.inf)
    for t in tabs:
        for buf in t.column("part").to_pylist():
            c, mn, mx = _pickle.loads(buf)
            counts += c
            bmin = np.minimum(bmin, mn)
            bmax = np.maximum(bmax, mx)
    payload = _pickle.dumps((counts, bmin, bmax))
    return pa.table({"part": pa.array([payload], pa.binary())})


def _dist_rank_values(ds: ray.data.Dataset, col: str, ranks: list,
                      bounds=None) -> dict:
    """Exact k-th-smallest for several ranks over a distributed column.

    Per round: one map_batches pass emits per-block bucket histograms
    (count + per-bucket min/max over a fixed [lo, hi) grid); the driver
    merges the tiny partials, locates each rank's bucket, resolves
    single-valued buckets immediately, and either fetches the few values
    in the remaining buckets or recurses into them.  O(log) passes, no
    column materialization."""
    import pickle as _pickle

    def histogram(lo: float, hi: float):
        width = (hi - lo) / _QUANTILE_BUCKETS or 1.0

        def part(t: pa.Table) -> pa.Table:
            x = t.column(col).to_numpy(zero_copy_only=False).astype(float)
            x = x[~np.isnan(x)]
            x = x[(x >= lo) & (x <= hi)]
            b = np.minimum(((x - lo) / width).astype(np.int64),
                           _QUANTILE_BUCKETS - 1)
            counts = np.bincount(b, minlength=_QUANTILE_BUCKETS)
            bmin = np.full(_QUANTILE_BUCKETS, np.inf)
            bmax = np.full(_QUANTILE_BUCKETS, -np.inf)
            if len(x):
                order = np.argsort(b, kind="stable")
                bs, xs = b[order], x[order]
                starts = np.searchsorted(bs, np.arange(_QUANTILE_BUCKETS))
                ends = np.searchsorted(bs, np.arange(_QUANTILE_BUCKETS),
                                       side="right")
                nz = np.flatnonzero(ends > starts)
                bmin[nz] = np.minimum.reduceat(xs, starts[nz])
                bmax[nz] = np.maximum.reduceat(xs, starts[nz])
            payload = _pickle.dumps((counts, bmin, bmax))
            return pa.table({"part": pa.array([payload], pa.binary())})

        # fan-in-32 tree-reduce: counts are integer sums, bmin/bmax are
        # min/max — associative, so the tree is bit-identical to the old
        # O(B) driver loop at any block count
        refs = tree_reduce_refs(
            ds.map_batches(part, batch_format="pyarrow",
                           batch_size=None).to_arrow_refs(),
            _merge_hist_parts)
        counts = np.zeros(_QUANTILE_BUCKETS, np.int64)
        bmin = np.full(_QUANTILE_BUCKETS, np.inf)
        bmax = np.full(_QUANTILE_BUCKETS, -np.inf)
        if refs:
            for buf in ray.get(refs[0]).column("part").to_pylist():
                c, mn, mx = _pickle.loads(buf)
                counts += c
                bmin = np.minimum(bmin, mn)
                bmax = np.maximum(bmax, mx)
        return counts, bmin, bmax

    def fetch_multi(ranges: list) -> dict:
        """ONE corpus pass for every pending (lo, hi) range — each pass
        costs O(blocks) task schedules, so ranges are fused."""
        rs = list(ranges)

        def keep(t: pa.Table) -> pa.Table:
            x = t.column(col).to_numpy(zero_copy_only=False).astype(float)
            x = x[~np.isnan(x)]
            vs, rids = [], []
            for ri, (lo, hi) in enumerate(rs):
                sel = x[(x >= lo) & (x <= hi)]
                vs.append(sel)
                rids.append(np.full(len(sel), ri, np.int8))
            return pa.table({"v": pa.array(np.concatenate(vs)
                                           if vs else []),
                             "r": pa.array(np.concatenate(rids)
                                           if rids else [], pa.int8())})

        rows = ds.map_batches(keep, batch_format="pyarrow",
                              batch_size=None).take_all()
        v = np.array([r["v"] for r in rows], dtype=float)
        rid = np.array([r["r"] for r in rows], dtype=np.int8)
        return {rs[i]: np.sort(v[rid == i]) for i in range(len(rs))}

    def resolve(lo, hi, rank_map: dict, depth: int, out: dict):
        """rank_map: global rank -> rank LOCAL to the values in [lo, hi]."""
        counts, bmin, bmax = histogram(lo, hi)
        cum = np.concatenate([[0], np.cumsum(counts)])
        by_bucket: dict = {}
        for grank, lrank in rank_map.items():
            b = int(np.searchsorted(cum, lrank, side="right") - 1)
            b = max(0, min(b, _QUANTILE_BUCKETS - 1))
            by_bucket.setdefault(b, {})[grank] = lrank - int(cum[b])
        pending_fetch: dict = {}
        for b, granks in by_bucket.items():
            if bmin[b] == bmax[b]:
                for g in granks:
                    out[g] = float(bmin[b])
            elif counts[b] <= _QUANTILE_FETCH_LIMIT or depth >= 3:
                pending_fetch.setdefault((bmin[b], bmax[b]), {}).update(
                    granks)
            else:
                resolve(bmin[b], bmax[b], granks, depth + 1, out)
        if pending_fetch:
            fetched = fetch_multi(list(pending_fetch))
            for (flo, fhi), granks in pending_fetch.items():
                vals = fetched[(flo, fhi)]
                for g, local in granks.items():
                    out[g] = float(vals[local])

    # bootstrap bounds: passed in by the caller's fused stats pass
    # (`_dist_stats`) when available, else one `_dist_stats` pass here
    if bounds is not None:
        lo, hi = bounds
    else:
        _, lo, hi = _dist_stats(ds, col)
    if lo is None or hi is None:
        return {}
    out: dict = {}
    if lo == hi:
        return {g: float(lo) for g in ranks}
    resolve(lo, hi, {g: g for g in ranks}, 0, out)
    return out


def top_hits_agg(
    ds: ray.data.Dataset,
    group_by: list,
    sort: list,
    size: int = 3,
    source_cols: Optional[list] = None,
) -> ray.data.Dataset:
    """tantivy ``top_hits`` metric: the top ``size`` documents per bucket
    under ``sort`` ([(col, "ascending"|"descending"), ...]), flattened to
    one row per hit with a ``hit_rank`` column (the reference returns the
    nested ES JSON; the flat layout is the Arrow/SQL-comparable twin).

    Hash-partitioned reduce with a block-local combiner: each block keeps
    only its own top ``size`` per bucket before the all-to-all, so the
    shuffle carries at most ``size x buckets`` rows per block — not the
    corpus.  Every output block has one schema: the group keys,
    ``hit_rank``, then the source columns."""
    order = [(c, d if d in ("ascending", "descending") else "ascending")
             for c, d in sort]

    head = functools.partial(group_heads, keys=group_by, order_by=order,
                             limit=size)

    def final(t: pa.Table) -> pa.Table:
        t = head(t, rank_col="hit_rank")
        keep = (group_by + ["hit_rank"]
                + [c for c in (source_cols or t.column_names)
                   if c not in group_by and c != "hit_rank"])
        return t.select([c for c in dict.fromkeys(keep)
                         if c in t.column_names])

    return hash_partition_apply(ds, group_by, reduce_fn=final, pre_fn=head)


def facet_terms(ds: ray.data.Dataset, field: str, size: Optional[int] = None,
                schema=None, filter_query=None) -> ray.data.Dataset:
    """Terms facet: value -> doc count, count desc (ties by key asc)."""
    out = sql_aggregate(ds, [field], {"doc_count": ("count_star", None)},
                        schema=schema, filter_query=filter_query)
    return order_dataset(out, [("doc_count", "descending"),
                               (field, "ascending")], size or None)


def partitioned_window(
    ds: ray.data.Dataset,
    partition_by: list,
    order_by: list,
    funcs: dict,
) -> ray.data.Dataset:
    """SQL window functions over partitions:
    ``row_number() / rank() / dense_rank() / lag(col) / lead(col) /
    sum(col) OVER (PARTITION BY ... ORDER BY ...)``.

    The reference leaves window functions to vanilla Postgres above its
    scans (`columnar_advanced_05_union_window_functions.sql`); here each
    partition is one ``map_groups`` group (one shuffle), ordered in-group
    and processed vectorized.  ``funcs``: name -> (kind, col|None) with
    kind in row_number | rank | dense_rank | lag | lead | running_sum,
    or name -> (rolling_sum|rolling_avg|rolling_min|rolling_max, col, P)
    for a ``ROWS BETWEEN P PRECEDING AND CURRENT ROW`` frame (SQL NULL
    frame semantics: NULL values are skipped, an all-NULL frame yields
    NULL).  Rolling frames are computed as P+1 vectorized shifted
    accumulations — O(P·n) numpy work with no per-row Python, bounded to
    small frames (P <= 256) which is the only shape a row-frame makes
    sense for.
    """
    ob_cols = [c for c, _ in order_by]

    def win_part(t: pa.Table) -> pa.Table:
        """All partitions of one hash slice, vectorized: one sort, then
        boundary-flag arithmetic — no per-partition Python call."""
        if t.num_rows == 0:
            for name, spec in funcs.items():
                kind = spec[0]
                typ = (pa.int64() if kind in
                       ("row_number", "rank", "dense_rank", "ntile")
                       else pa.bool_() if kind == "changed"
                       else pa.float64())
                t = t.append_column(name, pa.array([], typ))
            return t
        t, newp = sort_runs(
            t, partition_by,
            [(c, "descending" if d == "descending" else "ascending")
             for c, d in order_by])
        n = t.num_rows
        newtie = newp | row_changes(t, ob_cols)  # ORDER BY peer runs
        pstarts = np.flatnonzero(newp)
        pcounts = np.diff(np.r_[pstarts, n])
        pos = run_offsets(newp)  # 0-based in part
        row_number = pos + 1
        pstart_row = np.repeat(pstarts, pcounts)
        for name, spec in funcs.items():
            kind, col = spec[0], spec[1]
            if kind.startswith("rolling_"):
                p = int(spec[2])
                if p > 256:
                    raise ValueError("rolling frame bounded to P <= 256")
                v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
                valid = ~np.isnan(v)
                idx = np.arange(n)
                if kind in ("rolling_sum", "rolling_avg"):
                    acc = np.zeros(n)
                    cnt = np.zeros(n, np.int64)
                    # oldest -> newest accumulation order, bit-identical to
                    # a left-to-right SQL frame sum (masked-out lanes add
                    # 0.0 first, which is exact)
                    for s in range(min(p, n - 1), -1, -1):
                        vs = np.empty(n)
                        vs[s:] = v[:n - s] if s else v
                        ok = (idx - s >= pstart_row)
                        ok[:s] = False
                        m = ok & np.r_[np.zeros(s, bool),
                                       valid[:n - s]] if s else (ok & valid)
                        acc += np.where(m, vs, 0.0)
                        cnt += m
                    out = acc if kind == "rolling_sum" else (
                        acc / np.maximum(cnt, 1))
                    out = np.where(cnt > 0, out, np.nan)
                else:  # rolling_min / rolling_max
                    out = np.full(n, np.nan)
                    fn = np.fmin if kind == "rolling_min" else np.fmax
                    for s in range(min(p, n - 1) + 1):
                        vs = np.full(n, np.nan)
                        vs[s:] = v[:n - s] if s else v
                        ok = (idx - s >= pstart_row)
                        ok[:s] = False
                        out = fn(out, np.where(ok, vs, np.nan))
                t = t.append_column(
                    name, pa.array(out, pa.float64(), from_pandas=True))
                continue
            if kind == "row_number":
                t = t.append_column(name, pa.array(row_number, pa.int64()))
            elif kind == "rank":
                tstarts = np.flatnonzero(newtie)
                tcounts = np.diff(np.r_[tstarts, n])
                r = np.repeat(row_number[tstarts], tcounts)
                t = t.append_column(name, pa.array(r, pa.int64()))
            elif kind == "dense_rank":
                d = np.cumsum(newtie)
                base = np.repeat(d[pstarts], pcounts) - 1
                t = t.append_column(name, pa.array(d - base, pa.int64()))
            elif kind in ("lag", "lead"):
                # optional third spec element = offset (default 1)
                m = int(spec[2]) if len(spec) > 2 else 1
                v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
                if m == 0:  # SQL LAG(col, 0) is the value itself
                    t = t.append_column(
                        name, pa.array(v, pa.float64(), from_pandas=True))
                    continue
                out = np.full(n, np.nan)
                if kind == "lag":
                    if m < n:
                        out[m:] = v[:-m]
                    out[pos < m] = np.nan
                else:
                    if m < n:
                        out[:-m] = v[m:]
                    pcount_row = np.repeat(pcounts, pcounts)
                    out[pos >= pcount_row - m] = np.nan
                t = t.append_column(
                    name, pa.array(out, pa.float64(), from_pandas=True))
            elif kind == "first_value":
                v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
                t = t.append_column(
                    name, pa.array(v[pstart_row], pa.float64(),
                                   from_pandas=True))
            elif kind == "changed":
                # v IS DISTINCT FROM LAG(v) OVER (...): true at each
                # partition's first row and wherever the (any-typed)
                # value differs from the previous row — the
                # consecutive-dedup / state-transition primitive
                ch = row_changes(t, [col]) | newp
                t = t.append_column(name, pa.array(ch, pa.bool_()))
            elif kind == "fill_forward":
                # LAST_VALUE(col IGNORE NULLS) OVER (... ROWS UNBOUNDED
                # PRECEDING) — the standard imputation op: carry the last
                # non-NULL value forward within the partition
                v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
                iv = np.where(~np.isnan(v), np.arange(n), -1)
                last = np.maximum.accumulate(iv)
                ok = last >= pstart_row
                out = np.where(ok, v[np.maximum(last, 0)], np.nan)
                t = t.append_column(
                    name, pa.array(out, pa.float64(), from_pandas=True))
            elif kind == "percent_rank":
                # (rank - 1) / (partition_rows - 1); 0 for 1-row partitions
                tstarts = np.flatnonzero(newtie)
                tcounts = np.diff(np.r_[tstarts, n])
                r = np.repeat(row_number[tstarts], tcounts)
                pcount_row = np.repeat(pcounts, pcounts)
                out = (r - 1) / np.maximum(pcount_row - 1, 1)
                t = t.append_column(name, pa.array(out, pa.float64()))
            elif kind == "cume_dist":
                # rows with order-key <= current (= index of the LAST peer
                # in the partition + 1) / partition rows
                tstarts = np.flatnonzero(newtie)
                tcounts = np.diff(np.r_[tstarts, n])
                last_peer = np.repeat(tstarts + tcounts - 1, tcounts)
                pcount_row = np.repeat(pcounts, pcounts)
                out = (last_peer - pstart_row + 1) / pcount_row
                t = t.append_column(name, pa.array(out, pa.float64()))
            elif kind == "ntile":
                nt = int(spec[2])
                pcount_row = np.repeat(pcounts, pcounts)
                base = pcount_row // nt
                rem = pcount_row % nt
                boundary = rem * (base + 1)
                out = np.where(
                    pos < boundary,
                    pos // np.maximum(base + 1, 1),
                    rem + (pos - boundary) // np.maximum(base, 1)) + 1
                t = t.append_column(name, pa.array(out, pa.int64()))
            elif kind == "running_sum":
                v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
                valid = ~np.isnan(v)
                c = np.cumsum(np.where(valid, v, 0.0))
                base = np.where(pstarts > 0, c[pstarts - 1], 0.0)
                out = c - np.repeat(base, pcounts)
                out[~valid] = np.nan
                t = t.append_column(
                    name, pa.array(out, pa.float64(), from_pandas=True))
            else:
                raise ValueError(kind)
        return t

    return hash_partition_apply(ds, partition_by, win_part)


def rollup_aggregate(
    ds: ray.data.Dataset,
    group_by: list,
    aggs: dict,
    grouping_sets: Optional[list] = None,
) -> ray.data.Dataset:
    """``GROUP BY ROLLUP (c1, c2, ...)`` — the hierarchy of grouped
    aggregates (full keys, each prefix, grand total) unioned with NULL
    fill for rolled-up columns, exactly SQL's output shape.  Pass
    ``grouping_sets`` (list of key-subsets) for CUBE / arbitrary
    GROUPING SETS.

    Each level is one independent ``sql_aggregate`` (two-stage hash
    shuffle of PARTIALS, never rows); levels are tiny relative to the
    corpus and union as metadata.  A single-pass multi-level combiner
    would save corpus scans at very high level counts; with the ROLLUP
    ladder's n+1 levels (n small) the scan cost is the same family as
    the reference's one-aggregate-per-GROUP-BY SQL and keeps every level
    bit-identical to its standalone aggregate."""
    sets = (grouping_sets if grouping_sets is not None
            else [group_by[:i] for i in range(len(group_by), -1, -1)])
    in_sch = ds.schema()
    in_types = dict(zip(in_sch.names, in_sch.types))
    parts = []
    for lvl in sets:
        a = sql_aggregate(ds, list(lvl), aggs)

        def fill(batch: pa.Table, _lvl=tuple(lvl)) -> pa.Table:
            cols = {}
            for c in group_by:
                cols[c] = (batch.column(c) if c in _lvl
                           else pa.nulls(batch.num_rows, in_types[c]))
            for name in aggs:
                cols[name] = batch.column(name)
            return pa.table(cols)

        parts.append(a.map_batches(fill, batch_format="pyarrow",
                                   batch_size=None))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def cube_aggregate(ds: ray.data.Dataset, group_by: list,
                   aggs: dict) -> ray.data.Dataset:
    """``GROUP BY CUBE (...)``: every subset of the grouping keys."""
    from itertools import combinations

    sets = [list(c) for r in range(len(group_by), -1, -1)
            for c in combinations(group_by, r)]
    return rollup_aggregate(ds, group_by, aggs, grouping_sets=sets)


def time_rolling_window(
    ds: ray.data.Dataset,
    partition_by: list,
    ts_col: str,
    aggs: dict,
    window: str,
    tie_col: Optional[str] = None,
) -> ray.data.Dataset:
    """Time-based rolling window aggregates — SQL ``RANGE BETWEEN
    <window> PRECEDING AND CURRENT ROW`` per partition in ``ts_col``
    order.  ``aggs``: name -> (kind, col), kind in count|sum|avg|min|max.

    Exact SQL RANGE semantics including the peer-group rule: the frame of
    a row runs through the LAST row sharing its ``ts`` value (so every
    peer gets the same value and the result is a pure function of the
    input multiset — required for the driver's value-hash oracle).

    Fully vectorized across all partitions of a hash slice: one sort,
    a monotonic rebase of the ts axis (per-partition offsets so one
    global ``searchsorted`` finds every frame start without crossing a
    partition boundary), prefix-sum differences for count/sum/avg, and an
    O(n log n) sparse-table RMQ for min/max.  Sum/avg via prefix
    differences are bit-exact for integer-valued columns (the oracle
    discipline used by every sum/avg entry); the frame never crosses a
    partition because rebased partitions are separated by > window.
    Scale contract: one hash shuffle; a single partition-key's rows fit
    a worker (same as any per-session state).
    """
    win_us = _parse_fixed_interval(window)

    def roll_part(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            for name, (kind, col) in aggs.items():
                typ = pa.int64() if kind == "count" else pa.float64()
                t = t.append_column(name, pa.array([], typ))
            return t
        t, newp = sort_runs(
            t, partition_by, [(ts_col, "ascending")]
            + ([(tie_col, "ascending")] if tie_col else []))
        n = t.num_rows
        tc = t.column(ts_col)
        if pc.any(pc.is_null(tc)).as_py():
            # a NaN->int64 cast would silently corrupt the sorted-ts
            # precondition of every searchsorted below; fail loudly
            raise ValueError(
                "time_rolling_window: NULL timestamps unsupported — "
                "filter or fill them first")
        if pa.types.is_timestamp(tc.type) or pa.types.is_date(tc.type):
            tc = tc.cast(pa.timestamp("us"))  # window is parsed in us
        ts = tc.cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # monotonic rebase: shift each partition so the global ts axis is
        # nondecreasing with > window gaps at partition boundaries
        delta = np.zeros(n, dtype=np.int64)
        b = np.flatnonzero(newp[1:]) + 1  # partition starts except first
        if len(b):
            need = ts[b - 1] - ts[b] + win_us + 1
            delta[b] = np.maximum(need, 0)
        shift = np.cumsum(delta)
        tsm = ts + shift
        # int64 overflow guard — cheap O(n), run unconditionally
        if np.any(np.diff(tsm) < 0):
            raise OverflowError("time_rolling_window: ts rebase overflow")
        lo = np.searchsorted(tsm, tsm - win_us, side="left")
        hi = np.searchsorted(tsm, tsm, side="right") - 1  # last peer
        out_cols = {}
        for name, (kind, col) in aggs.items():
            v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
            valid = ~np.isnan(v)
            cv = np.cumsum(valid.astype(np.int64))
            cnt = cv[hi] - np.where(lo > 0, cv[lo - 1], 0)
            if kind == "count":
                out_cols[name] = pa.array(cnt, pa.int64())
                continue
            if kind in ("sum", "avg"):
                c = np.cumsum(np.where(valid, v, 0.0))
                s = c[hi] - np.where(lo > 0, c[lo - 1], 0.0)
                out = s if kind == "sum" else s / np.maximum(cnt, 1)
                out = np.where(cnt > 0, out, np.nan)
            else:  # min / max via sparse-table RMQ over [lo, hi]
                fn = np.fmin if kind == "min" else np.fmax
                vn = np.where(valid, v, np.nan)
                levels = [vn]
                size = 1
                while size * 2 <= n:
                    prev = levels[-1]
                    levels.append(fn(prev[:-size], prev[size:]))
                    size *= 2
                width = hi - lo + 1
                k_lev = np.zeros(n, np.int64)
                w = width >> 1
                while np.any(w > 0):
                    k_lev += (w > 0)
                    w >>= 1
                left = np.empty(n)
                right = np.empty(n)
                for kk in np.unique(k_lev):
                    lev = levels[int(kk)]
                    m = k_lev == kk
                    left[m] = lev[lo[m]]
                    right[m] = lev[hi[m] - (1 << int(kk)) + 1]
                out = fn(left, right)
            out_cols[name] = pa.array(out, pa.float64(), from_pandas=True)
        for name in aggs:
            t = t.append_column(name, out_cols[name])
        return t

    # no internal prune: all input columns pass through (the caller prunes
    # at the read, like every other window entry)
    return hash_partition_apply(ds, partition_by, roll_part)


def window_aggregate(ds: ray.data.Dataset, aggs: dict,
                     schema=None, filter_query=None) -> ray.data.Dataset:
    """``COUNT(*) OVER ()`` etc. — compute the scalar aggregate once as a
    side output and broadcast it back onto every row
    (`api/window_aggregate.rs:17-63`)."""
    if filter_query is not None:
        from paradedb_ray.pipelines.search import search

        assert schema is not None
        # the filtered rows feed the aggregate AND the returned rows
        ds = search(ds, schema, filter_query, with_score=False).materialize()
    row = sql_aggregate(ds, [], aggs).take_all()[0]

    def attach(batch: pa.Table) -> pa.Table:
        for name in aggs:
            batch = batch.append_column(
                name, pa.array([row[name]] * batch.num_rows))
        return batch

    return ds.map_batches(attach, batch_format="pyarrow", batch_size=None)
