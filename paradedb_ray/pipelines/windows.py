"""Streaming window operators (tumbling / sliding / session) over an
event-time column — the structured-streaming surface the north rule
requires.  Reference semantic anchors: the mutable segment as in-window
state and session-window close-on-watermark (SURVEY §2.12).

All three are expressed Ray-Data-first: window keys are derived vectorized
in ``map_batches``; the only wide step is one ``groupby`` hash shuffle.
Session windows use ``groupby(key).map_groups`` (per-key ordered scan),
which assumes per-key data fits a worker — the same assumption as any
per-session state store; hot keys are bounded by the session gap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from paradedb_ray.pipelines.aggregate import sql_aggregate, _parse_fixed_interval
from paradedb_ray.stages.hash_agg import hash_partition_apply
from paradedb_ray.stages.order import order_dataset, sort_runs


def _ts_us(batch: pa.Table, ts_col: str) -> np.ndarray:
    col = batch.column(ts_col)
    if pa.types.is_timestamp(col.type) or pa.types.is_date(col.type):
        col = col.cast(pa.timestamp("us"))  # normalize non-us units
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def tumbling_window(
    ds: ray.data.Dataset,
    ts_col: str,
    every: str,
    aggs: dict,
    keys: Optional[list] = None,
    window_col: str = "window_start",
) -> ray.data.Dataset:
    """Non-overlapping windows of width ``every`` ('30s'/'5m'/'1h'/'1d')."""
    us = _parse_fixed_interval(every)

    def assign(batch: pa.Table) -> pa.Table:
        t = _ts_us(batch, ts_col)
        w = (t // us) * us
        return batch.append_column(window_col,
                                   pa.array(w).cast(pa.timestamp("us")))

    ds2 = ds.map_batches(assign, batch_format="pyarrow", batch_size=None)
    group = [window_col] + list(keys or [])
    return order_dataset(sql_aggregate(ds2, group, aggs),
                         [(c, "ascending") for c in group])


def sliding_window(
    ds: ray.data.Dataset,
    ts_col: str,
    size: str,
    slide: str,
    aggs: dict,
    keys: Optional[list] = None,
    window_col: str = "window_start",
) -> ray.data.Dataset:
    """Overlapping windows: each row replicates into size/slide windows
    (flat_map expansion inside map_batches, still vectorized)."""
    size_us = _parse_fixed_interval(size)
    slide_us = _parse_fixed_interval(slide)
    if size_us % slide_us != 0:
        raise ValueError("size must be a multiple of slide")
    n = size_us // slide_us

    def expand(batch: pa.Table) -> pa.Table:
        t = _ts_us(batch, ts_col)
        idx = np.repeat(np.arange(batch.num_rows), n)
        offs = np.tile(np.arange(n, dtype=np.int64) * slide_us, batch.num_rows)
        base = (np.repeat(t, n) // slide_us) * slide_us
        w = base - offs
        keep = np.repeat(t, n) < w + size_us
        out = batch.take(pa.array(idx[keep], pa.int64()))
        return out.append_column(window_col,
                                 pa.array(w[keep]).cast(pa.timestamp("us")))

    ds2 = ds.map_batches(expand, batch_format="pyarrow", batch_size=None)
    group = [window_col] + list(keys or [])
    return order_dataset(sql_aggregate(ds2, group, aggs),
                         [(c, "ascending") for c in group])


def session_window(
    ds: ray.data.Dataset,
    ts_col: str,
    key: str,
    gap: str,
    aggs: Optional[dict] = None,
) -> ray.data.Dataset:
    """Gap-based sessions per key: a session closes when the next event for
    the key is more than ``gap`` later (watermark-expiry analogue of
    closing a conversation's segment, SURVEY §2.12).

    Output: one row per session with ``session_start``/``session_end``/
    ``n_events`` plus requested (kind, col) aggs.
    """
    gap_us = _parse_fixed_interval(gap)
    aggs = aggs or {}

    def sessions_part(t: pa.Table) -> pa.Table:
        """All keys of one hash partition, vectorized: one (key, ts)
        sort, boundary flags (key change OR gap exceeded), reduceat
        session aggregates — no per-key Python call."""
        pnames = list(aggs)
        if t.num_rows == 0:
            cols = {key: t.column(key) if key in t.column_names
                    else pa.array([], pa.string()),
                    "session_start": pa.array([], pa.timestamp("ns")),
                    "session_end": pa.array([], pa.timestamp("ns")),
                    "n_events": pa.array([], pa.int64())}
            for n in pnames:
                cols[n] = pa.array([], pa.float64())
            return pa.table(cols)
        t, new = sort_runs(t, [key], [(ts_col, "ascending")])
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        new[1:] |= np.diff(ts) > gap_us
        starts = np.flatnonzero(new)
        ends = np.r_[starts[1:], len(ts)]
        take = pa.array(starts, pa.int64())
        # ns timestamps mirror the previous pandas to_datetime output
        cols = {key: t.column(key).take(take),
                "session_start": pa.array(ts[starts] * 1000,
                                          pa.timestamp("ns")),
                "session_end": pa.array(ts[ends - 1] * 1000,
                                        pa.timestamp("ns")),
                "n_events": pa.array(ends - starts, pa.int64())}
        for name, (kind, col) in aggs.items():
            v = t.column(col).to_numpy(zero_copy_only=False).astype(float)
            valid = ~np.isnan(v)
            nv = np.add.reduceat(valid.astype(np.int64), starts)
            if kind == "count":
                cols[name] = pa.array(nv, pa.int64())
                continue
            if kind in ("sum", "avg"):
                s = np.add.reduceat(np.where(valid, v, 0.0), starts)
                out = s if kind == "sum" else s / np.maximum(nv, 1)
            elif kind == "min":
                out = np.minimum.reduceat(np.where(valid, v, np.inf), starts)
            else:  # max
                out = np.maximum.reduceat(np.where(valid, v, -np.inf), starts)
            out = np.where(nv > 0, out, np.nan)
            cols[name] = pa.array(out, pa.float64(), from_pandas=True)
        return pa.table(cols)

    need = list(dict.fromkeys(
        [key, ts_col] + [c for _, c in aggs.values()]))
    return hash_partition_apply(ds.select_columns(need), [key],
                                sessions_part)


def sequence_matches(t: pa.Table, keys: list, order_by: list, steps: list,
                     emit: list, within_us: Optional[int] = None,
                     ts_col: Optional[str] = None) -> pa.Table:
    """The one CEP scan, shared by the batch :func:`match_sequence` and
    the streaming session-close patterns (``engine._pattern_reducer``):
    sort ``t`` into runs of ``keys`` in ``order_by`` order, then k-1
    vectorized shifted ANDs find the starts of ``k = len(steps)``
    adjacent rows of one run where row ``i+j`` satisfies ``steps[j]``
    (and ``ts[last] - ts[first] <= within_us``).  Returns one row per
    match: the key columns, then each ``emit`` ``(step_idx, col,
    out_name)`` taken from that step's row."""
    k = len(steps)
    t, start = sort_runs(t, keys, order_by)
    m = max(t.num_rows - k + 1, 0)
    run = np.cumsum(start)
    hit = run[k - 1:] == run[:m]  # a match never spans two runs
    for j, step in enumerate(steps):
        if callable(step):
            mask = np.asarray(step(t), dtype=bool)
        else:
            col, value = step
            mask = pc.equal(t.column(col), value).fill_null(
                False).to_numpy(zero_copy_only=False)
        hit &= mask[j:j + m]
    if within_us is not None:
        ts = _ts_us(t, ts_col)
        hit &= (ts[k - 1:] - ts[:m]) <= within_us
    starts = np.flatnonzero(hit)
    cols = {kc: t.column(kc).take(starts) for kc in keys}
    for j, col, out in emit:
        cols[out] = t.column(col).take(starts + j)
    return pa.table(cols)


def match_sequence(
    ds: ray.data.Dataset,
    key,
    order_by: list,
    steps: list,
    emit: list,
    within: Optional[str] = None,
    ts_col: Optional[str] = None,
) -> ray.data.Dataset:
    """CEP sequence detection: find runs of ADJACENT rows (per ``key``, in
    ``order_by`` order) where row ``i+j`` satisfies ``steps[j]`` for every
    step, optionally bounded by ``ts[last] - ts[first] <= within`` — the
    MATCH_RECOGNIZE / followed-by primitive of a streaming CEP engine
    (north-rule surface; the reference leaves event-pattern SQL to
    Postgres above its scans).

    ``steps``: list of ``(col, value)`` equality predicates or callables
    ``pa.Table -> np.ndarray[bool]``.  ``emit``: ``(step_idx, col,
    out_name)`` projections taken from each matched step's row.  ``key``
    may be one column or a list (e.g. ``[user, session_id]`` for
    patterns confined to a session).  Output: one row per match, key
    column(s) + emitted columns.

    Plan: ONE hash shuffle on the key (every row of a key meets in one
    reducer), then per partition one :func:`sequence_matches` scan.
    Scale contract: a single key's rows fit a worker, the same
    assumption as any per-session state store.
    """
    k = len(steps)
    if k < 1:
        raise ValueError("steps must be non-empty")
    within_us = _parse_fixed_interval(within) if within else None
    if within_us is not None and ts_col is None:
        raise ValueError("within requires ts_col")

    keys = [key] if isinstance(key, str) else list(key)
    in_sch = ds.schema()
    in_types = dict(zip(in_sch.names, in_sch.types))
    out_schema = pa.schema(
        [pa.field(kc, in_types[kc]) for kc in keys]
        + [pa.field(out, in_types[col]) for _, col, out in emit])

    def seq_part(t: pa.Table) -> pa.Table:
        return sequence_matches(t, keys, order_by, steps, emit, within_us,
                                ts_col).cast(out_schema)

    if not any(callable(s) for s in steps):
        # prune at the shuffle; a callable step may read any column, so
        # pruning is the caller's job there
        need = list(dict.fromkeys(
            keys + [c for c, _ in order_by]
            + ([ts_col] if ts_col else [])
            + [s[0] for s in steps]
            + [c for _, c, _ in emit]))
        ds = ds.select_columns(need)
    return hash_partition_apply(ds, keys, seq_part)


def sessionize(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    gap: str,
    session_col: str = "session_id",
) -> ray.data.Dataset:
    """Row-level sessionization: append each row's gap-session ORDINAL
    (0, 1, 2, ... per key, in event-time order) — the row-preserving twin
    of :func:`session_window` (which aggregates), and the standard prelude
    to within-session CEP / per-session features.  A new session starts
    when the gap to the key's previous event exceeds ``gap`` (strictly —
    identical to the session-window close rule).

    One hash shuffle; per-partition one sort + one vectorized
    cumulative-break pass.  The ordinal is a pure function of the input
    multiset (ties in ts cannot flip a break: the gap between equal
    timestamps is 0), so it is SQL-reproducible as
    ``SUM(CASE WHEN ts - LAG(ts) > gap THEN 1 ELSE 0 END) OVER
    (PARTITION BY key ORDER BY ts ...)``.
    """
    gap_us = _parse_fixed_interval(gap)

    def part(t: pa.Table) -> pa.Table:
        t, newp = sort_runs(t, [key], [(ts_col, "ascending")])
        brk = ~newp
        brk[1:] &= np.diff(_ts_us(t, ts_col)) > gap_us
        g = np.cumsum(brk)
        sid = g - np.maximum.accumulate(np.where(newp, g, 0))
        return t.append_column(session_col, pa.array(sid, pa.int64()))

    return hash_partition_apply(ds, [key], part)
