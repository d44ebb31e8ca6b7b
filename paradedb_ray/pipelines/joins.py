"""Join pipelines — the Ray Data analogue of pg_search's JoinScan
(`postgres/customscan/joinscan/mod.rs:20-64`: INNER/SEMI/ANTI equi-joins)
and the hash-join IN-list pushdown (`gucs.rs:549-566`: small build side
broadcast into the probe side).

* ``broadcast_join``: small side is collected once, put in the object store
  (``ray.put`` — read per task, never re-shipped per batch) and hash-joined
  against every probe batch with pyarrow's native join kernel.
* ``semi_join_pushdown``: distinct build-side keys pushed down as a TermSet
  membership filter.
* ``repartition_join``: both sides hash-partitioned on the key via one
  groupby shuffle (big-big joins).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

import ray
import ray.data

from paradedb_ray.stages.blocks import cluster_cpus, collect_table

_PA_JOIN = {
    "inner": "inner",
    "left": "left outer",
    "semi": "left semi",
    "anti": "left anti",
}


class _BroadcastJoiner:
    def __init__(self, small_ref, keys, right_keys, join_type: str,
                 right_suffix: str = "_r"):
        self.small_ref = small_ref
        self.keys = keys
        self.right_keys = right_keys
        self.join_type = join_type
        self.right_suffix = right_suffix
        self._small = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._small is None:
            self._small = (ray.get(self.small_ref)
                           if isinstance(self.small_ref, ray.ObjectRef)
                           else self.small_ref)
        return batch.join(
            self._small,
            keys=self.keys,
            right_keys=self.right_keys,
            join_type=_PA_JOIN[self.join_type],
            right_suffix=self.right_suffix,
        )


def broadcast_join(
    left: ray.data.Dataset,
    right,  # small: ray Dataset | pa.Table
    on,
    right_on=None,
    how: str = "inner",
    right_columns: Optional[list] = None,
) -> ray.data.Dataset:
    """Join a large streaming side against a small broadcast side.

    The small side is materialized ONCE on the driver and broadcast via the
    object store; each probe batch joins zero-copy with pyarrow's hash join.
    """
    keys = [on] if isinstance(on, str) else list(on)
    rkeys = keys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    if isinstance(right, ray.data.Dataset):
        if right_columns:
            right = right.select_columns(sorted(set(right_columns) | set(rkeys)))
        small = collect_table(right)
    else:
        small = right
        if right_columns:
            small = small.select(sorted(set(right_columns) | set(rkeys)))
    small = small.combine_chunks()
    ref = ray.put(small)
    joiner = _BroadcastJoiner(ref, keys, rkeys, how)
    return left.map_batches(joiner, batch_format="pyarrow", batch_size=None)


def semi_join_pushdown(
    left: ray.data.Dataset, right: ray.data.Dataset, on: str, right_on=None,
    anti: bool = False,
) -> ray.data.Dataset:
    """IN-list pushdown: collect distinct build-side keys, broadcast, filter
    the probe side by membership (TermSet semantics)."""
    import pyarrow.compute as pc

    rkey = right_on or on
    keys_tbl = collect_table(right.select_columns([rkey]))
    ref = ray.put(pc.unique(keys_tbl.column(rkey).combine_chunks()))

    def member(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = pc.is_in(batch.column(on), value_set=ks)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask.fill_null(anti))

    return left.map_batches(member, batch_format="pyarrow", batch_size=None)


def semi_join_pushdown_disjunctive(
    left: ray.data.Dataset, right: ray.data.Dataset, ons: list,
    right_on: str, anti: bool = False,
) -> ray.data.Dataset:
    """EXISTS / NOT EXISTS with OR across multiple probe columns
    (`join_semi_anti_disjunctive.sql`, issue 4776: the reference absorbs
    the OR-join as a nested-loop cross-join + filter; here ONE distinct
    build-side IN-list broadcasts and the probe mask is the union of
    per-column memberships — no cross-join materializes).  NULL probe
    values fail their equality (never unknown-exclude the row), and NULL
    build keys are dropped (x = NULL is never true), matching SQL
    EXISTS semantics on both sides."""
    import pyarrow.compute as pc

    keys_tbl = collect_table(right.select_columns([right_on]))
    ref = ray.put(pc.unique(
        keys_tbl.column(right_on).combine_chunks().drop_null()))

    def member(batch: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        mask = None
        for c in ons:
            m = pc.is_in(batch.column(c), value_set=ks).fill_null(False)
            mask = m if mask is None else pc.or_(mask, m)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return left.map_batches(member, batch_format="pyarrow",
                            batch_size=None)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on,
    right_on=None,
    how: str = "inner",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Big-big equi-join on Ray Data's native hash-shuffle join (both sides
    repartitioned by key hash to joining aggregators) — the scale path when
    neither side fits a broadcast (`JoinScan`,
    `postgres/customscan/joinscan/mod.rs:20-64`).  Use
    :func:`broadcast_join` whenever one side is small."""
    keys = (on,) if isinstance(on, str) else tuple(on)
    rkeys = keys if right_on is None else (
        (right_on,) if isinstance(right_on, str) else tuple(right_on))
    jt = {"inner": "inner", "left": "left_outer", "right": "right_outer",
          "outer": "full_outer"}[how]
    # the join operator needs ALL partition aggregator actors live at
    # once — more partitions than CPUs deadlocks a small session
    num_partitions = max(2, min(num_partitions, cluster_cpus()))
    return left.join(right, join_type=jt, num_partitions=num_partitions,
                     on=keys, right_on=rkeys)


def payload_safe_join(lg: pa.Table, rg: pa.Table, keys: list, how: str,
                      right_suffix: str = "_r") -> pa.Table:
    """pyarrow hash join that tolerates nested payload columns (list /
    struct / map) on either side — acero rejects them as join inputs.
    Nested columns are swapped for a row-index column before the join and
    gathered back with ``take`` afterwards (outer-join null indices take
    to nulls), so e.g. ``list<float>`` embedding vectors ride through a
    join without a pandas round-trip."""
    import pyarrow.compute as pc

    jt = _PA_JOIN[how]
    lnested = [c for c in lg.column_names
               if c not in keys and pa.types.is_nested(lg.schema.field(c).type)]
    rnested = [c for c in rg.column_names
               if c not in keys and pa.types.is_nested(rg.schema.field(c).type)]
    if not lnested and not rnested:
        return lg.join(rg, keys=keys, join_type=jt, right_suffix=right_suffix)

    import numpy as np

    ls = lg.drop_columns(lnested) if lnested else lg
    if lnested:
        ls = ls.append_column("__lidx",
                              pa.array(np.arange(lg.num_rows), pa.int64()))
    if how in ("semi", "anti"):
        j = ls.join(rg.select(keys), keys=keys, join_type=jt)
        for c in lnested:
            j = j.append_column(c, pc.take(lg.column(c).combine_chunks(),
                                           j.column("__lidx")))
        if lnested:
            j = j.drop_columns(["__lidx"])
        return j.select(lg.column_names)
    rs = rg.drop_columns(rnested) if rnested else rg
    if rnested:
        rs = rs.append_column("__ridx",
                              pa.array(np.arange(rg.num_rows), pa.int64()))
    j = ls.join(rs, keys=keys, join_type=jt, right_suffix=right_suffix)
    for c in lnested:
        j = j.append_column(c, pc.take(lg.column(c).combine_chunks(),
                                       j.column("__lidx")))
    for c in rnested:
        name = c + right_suffix if c in lg.column_names else c
        j = j.append_column(name, pc.take(rg.column(c).combine_chunks(),
                                          j.column("__ridx")))
    drop = (["__lidx"] if lnested else []) + (["__ridx"] if rnested else [])
    j = j.drop_columns(drop)
    # restore a deterministic column order: left layout, then right extras
    out_cols = list(lg.column_names)
    for c in rg.column_names:
        if c in keys:
            continue
        out_cols.append(c + right_suffix if c in lg.column_names else c)
    return j.select(out_cols)


def repartition_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on,
    how: str = "inner",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Big-big equi-join: tag each side, union, hash-partition by key with
    the hash_agg splitter (every row of a key meets in ONE reducer), and
    join inside each partition with the vectorized pyarrow kernel
    (:func:`payload_safe_join`, so nested payloads like embedding vectors
    survive) — never a per-group pandas merge (VERDICT r3 #2)."""
    import numpy as np
    import pyarrow.compute as pc

    from paradedb_ray.stages.hash_agg import hash_partition_apply

    keys = [on] if isinstance(on, str) else list(on)

    lsch, rsch = left.schema(), right.schema()
    lcols = list(lsch.names)
    rcols = list(rsch.names)
    l_pa = pa.schema([pa.field(n, t) for n, t in zip(lsch.names, lsch.types)])
    r_pa = pa.schema([pa.field(n, t) for n, t in zip(rsch.names, rsch.types)])

    def tag(side):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "__side", pa.array(np.full(batch.num_rows, side, np.int8)))
        return f

    lt = left.map_batches(tag(0), batch_format="pyarrow", batch_size=None)
    rt = right.map_batches(tag(1), batch_format="pyarrow", batch_size=None)
    both = lt.union(rt)

    def join_partition(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        # union blocks concat with null-promotion: a side's rows carry the
        # other side's columns as nulls — filter by tag, project each
        # side's own layout, cast (an all-null promoted column types as
        # null and must come back to the declared type)
        lg = t.filter(pc.equal(side, 0)).select(
            [c for c in lcols if c in t.column_names]).cast(l_pa)
        rg = t.filter(pc.equal(side, 1)).select(
            [c for c in rcols if c in t.column_names]).cast(r_pa)
        return payload_safe_join(lg, rg, keys, how)

    return hash_partition_apply(both, keys, join_partition,
                                num_partitions=num_partitions)

def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on,
    left_ts: str,
    right_ts: str,
    right_cols: list,
    right_on=None,
    tie_col: Optional[str] = None,
    how: str = "left",
    direction: str = "backward",
    tolerance: Optional[str] = None,
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Temporal as-of (backward) join: each left row matches the right row
    of the same key with the greatest ``right_ts <= left_ts`` — the
    event-to-most-recent-state lookup every CEP/streaming engine needs and
    the reference leaves to application SQL above its scans (the join
    surface it does own is the equi-only JoinScan,
    `postgres/customscan/joinscan/mod.rs:20-64`).

    Ray-Data-first big-big plan (same shape as :func:`repartition_join`):
    tag each side, union, ONE hash shuffle on the key so every row of a
    key meets in one reducer, then a fully vectorized per-partition scan —
    sort by (key, ts, side, tie) with right rows ordered before left rows
    at equal ts (``<=`` semantics), one ``np.maximum.accumulate`` pass to
    propagate the latest right-row index, and a key-code check to stop
    matches crossing key boundaries.  No per-key Python loop; partitions
    only need a single key's rows to fit a worker, not the corpus.

    Ties on ``right_ts`` within a key break by ``tie_col`` (greatest wins)
    so the output is a pure function of the input multiset — required for
    the driver's value-hash oracle.  NULL timestamps never match (SQL
    comparison semantics); with ``how='left'`` the left row survives with
    NULL right columns, with ``how='inner'`` it is dropped.

    ``direction='forward'`` matches the SMALLEST ``right_ts >= left_ts``
    instead (implemented by negating the time axis — the same scan runs
    unchanged, ties still break by greatest tie_col).  ``tolerance``
    ('30m', '2d', ...) bounds the match gap like pandas ``merge_asof``:
    a candidate farther than the tolerance in the match direction is
    discarded (the left row then misses).
    """
    import numpy as np
    import pyarrow.compute as pc

    from paradedb_ray.stages.hash_agg import hash_partition_apply
    from paradedb_ray.stages.order import sort_runs

    if direction not in ("backward", "forward"):
        raise ValueError(direction)
    if how not in ("left", "inner"):
        raise ValueError(f"asof_join: how must be left|inner, got {how!r}")
    tol_us = None
    if tolerance is not None:
        from paradedb_ray.pipelines.aggregate import _parse_fixed_interval
        tol_us = _parse_fixed_interval(tolerance)

    keys = [on] if isinstance(on, str) else list(on)
    rkeys = keys if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on))
    lsch = left.schema()
    lcols = list(lsch.names)
    l_pa = pa.schema([pa.field(n, t) for n, t in zip(lsch.names, lsch.types)])
    right = right.select_columns(
        list(dict.fromkeys(rkeys + [right_ts] + list(right_cols))))
    rsch = right.schema()
    r_types = dict(zip(rsch.names, rsch.types))
    clash = (set(right_cols) | {right_ts}) & set(lcols)
    if clash:
        raise ValueError(f"asof_join: right columns collide with left: {clash}")

    def _ts_i64(col: pa.ChunkedArray) -> pa.ChunkedArray:
        t = col.type
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            col = col.cast(pa.timestamp("us"))
        col = col.cast(pa.int64())
        if direction == "forward":
            # negate the time axis: the backward scan then finds the
            # smallest right_ts >= left_ts
            col = pc.negate(col)
        return col

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = batch.append_column("__ts", _ts_i64(batch.column(left_ts)))
        batch = batch.append_column(
            "__tie", pa.array(np.zeros(batch.num_rows, np.int64)))
        return batch.append_column(
            "__side", pa.array(np.ones(batch.num_rows, np.int8)))

    def tag_right(batch: pa.Table) -> pa.Table:
        # align right key columns onto the left key names for the shuffle
        for lk, rk in zip(keys, rkeys):
            if lk != rk:
                batch = batch.append_column(lk, batch.column(rk))
                batch = batch.drop_columns([rk])
        tie = (batch.column(tie_col).cast(pa.int64()) if tie_col
               else pa.array(np.zeros(batch.num_rows, np.int64)))
        batch = batch.append_column("__ts", _ts_i64(batch.column(right_ts)))
        batch = batch.append_column("__tie", tie)
        return batch.append_column(
            "__side", pa.array(np.zeros(batch.num_rows, np.int8)))

    lt = left.map_batches(tag_left, batch_format="pyarrow", batch_size=None)
    rt = right.map_batches(tag_right, batch_format="pyarrow", batch_size=None)
    both = lt.union(rt)

    out_fields = ([pa.field(n, t) for n, t in zip(lsch.names, lsch.types)]
                  + [pa.field(c, r_types[c]) for c in right_cols])
    out_schema = pa.schema(out_fields)

    def asof_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        # a partition fed blocks of only ONE side lacks the other side's
        # columns after the promote-concat — add them as typed nulls (they
        # are only ever read from rows of the side that carries them)
        for f in out_fields:
            if f.name not in t.column_names:
                t = t.append_column(f.name, pa.nulls(t.num_rows, f.type))
        t, start = sort_runs(t, keys, [("__ts", "ascending"),
                                       ("__side", "ascending"),
                                       ("__tie", "ascending")])
        n = t.num_rows
        side = t.column("__side").to_numpy(zero_copy_only=False)
        ts_null = pc.is_null(t.column("__ts")).to_numpy(zero_copy_only=False)
        # a NULL in any key column equals nothing (SQL): such a left row
        # matches no right row, however the key runs below compare
        key_null = np.zeros(n, dtype=bool)
        for k in keys:
            key_null |= pc.is_null(t.column(k)).to_numpy(
                zero_copy_only=False)
        run = np.cumsum(start)
        pos = np.arange(n, dtype=np.int64)
        ridx = np.where((side == 0) & ~ts_null, pos, -1)
        last_r = np.maximum.accumulate(ridx)
        li = np.flatnonzero(side == 1)
        m = last_r[li]
        valid = (m >= 0) & ~ts_null[li] & ~key_null[li]
        valid &= np.where(valid, run[np.where(valid, m, 0)] == run[li],
                          False)
        if tol_us is not None:
            # gap in the (possibly negated) time axis is always >= 0 for
            # a candidate: left_ts - right_ts backward, right_ts -
            # left_ts forward.  int64 throughout: float64 steps by 2 us
            # past 2^53 us and would move gaps across the tolerance
            tsv = pc.fill_null(t.column("__ts"), 0).to_numpy(
                zero_copy_only=False)
            safe0 = np.where(valid, m, 0)
            gap = tsv[li] - tsv[safe0]
            valid &= np.where(valid, gap <= tol_us, False)
        lg = t.take(pa.array(li, pa.int64())).select(lcols).cast(l_pa)
        safe = np.where(valid, m, 0)
        rp = t.take(pa.array(safe, pa.int64()))
        va = pa.array(valid)
        cols = {c: lg.column(c) for c in lcols}
        for c in right_cols:
            col = rp.column(c)
            if col.type != r_types[c]:  # null-promoted union column
                col = col.cast(r_types[c])
            cols[c] = pc.if_else(va, col, pa.scalar(None, r_types[c]))
        out = pa.table(cols, schema=out_schema)
        if how == "inner":
            out = out.filter(va)
        return out

    return hash_partition_apply(both, keys, asof_partition,
                                num_partitions=num_partitions)


def _int64_and_nulls(col: pa.ChunkedArray):
    """(int64 values with NULLs as 0, NULL mask), timestamps and dates as
    µs: int64, because float64 steps by 2 past 2^53 and would move values
    across band, bucket and window edges."""
    import pyarrow.compute as pc

    t = col.type
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        col = col.cast(pa.timestamp("us"))
    col = col.cast(pa.int64())
    return (pc.fill_null(col, 0).to_numpy(zero_copy_only=False),
            pc.is_null(col).to_numpy(zero_copy_only=False))


def _comparable(cols: list) -> list:
    """Each column as (values, NULL mask) in one comparison domain: int64
    (:func:`_int64_and_nulls`) when every column is integer, timestamp or
    date, else float64."""
    import pyarrow.compute as pc

    def exact(t):
        return (pa.types.is_integer(t) or pa.types.is_timestamp(t)
                or pa.types.is_date(t))

    if all(exact(c.type) for c in cols):
        return [_int64_and_nulls(c) for c in cols]
    out = []
    for c in cols:
        c = c.cast(pa.float64())
        out.append((pc.fill_null(c, 0.0).to_numpy(zero_copy_only=False),
                    pc.is_null(c).to_numpy(zero_copy_only=False)))
    return out


class _RangeJoiner:
    """Broadcast interval join: the band table rides the object store once
    (``ray.put``), each probe batch scans it vectorized — one boolean-mask
    pass per band, so work is O(bands x batch_rows) with every comparison
    a numpy kernel.  Bands may overlap (each match emits a row)."""

    def __init__(self, bands_ref, value_col, lo_col, hi_col, closed):
        self.bands_ref = bands_ref
        self.value_col = value_col
        self.lo_col = lo_col
        self.hi_col = hi_col
        self.closed = closed
        self._bands = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        if self._bands is None:
            self._bands = (ray.get(self.bands_ref)
                           if isinstance(self.bands_ref, ray.ObjectRef)
                           else self.bands_ref)
        bands = self._bands
        # a NULL value or band edge matches nothing (SQL comparison)
        (v, v_null), (lo, lo_null), (hi, hi_null) = _comparable(
            [batch.column(self.value_col), bands.column(self.lo_col),
             bands.column(self.hi_col)])
        row_idx, band_idx = [], []
        for i in range(bands.num_rows):
            if lo_null[i] or hi_null[i]:
                continue
            ge = v >= lo[i]
            lt = (v <= hi[i]) if self.closed == "both" else (v < hi[i])
            hit = np.flatnonzero(ge & lt & ~v_null)
            row_idx.append(hit)
            band_idx.append(np.full(len(hit), i, np.int64))
        ri = (np.concatenate(row_idx) if row_idx
              else np.array([], np.int64)).astype(np.int64)
        bi = (np.concatenate(band_idx) if band_idx
              else np.array([], np.int64))
        out = batch.take(pa.array(ri, pa.int64()))
        bsel = bands.take(pa.array(bi, pa.int64()))
        for c in bsel.column_names:
            if c not in (self.lo_col, self.hi_col):
                out = out.append_column(c, bsel.column(c))
        return out


def range_join(
    left: ray.data.Dataset,
    bands,  # small: pa.Table | ray Dataset
    value_col: str,
    lo_col: str,
    hi_col: str,
    closed: str = "left",
) -> ray.data.Dataset:
    """Non-equi range join of a big streaming side against a SMALL interval
    table (``value >= lo AND value < hi``; ``closed='both'`` for ``<=``) —
    the banding/bucketing shape (price bands, latency SLO buckets, age
    ranges) the reference delegates to Postgres' nested-loop above its
    scans.  The band side broadcasts once; a big-big interval join would
    instead need interval partitioning, which no current entry requires
    (documented assumption, same contract as :func:`broadcast_join`)."""
    if closed not in ("left", "both"):
        raise ValueError(
            f"range_join: closed must be left|both, got {closed!r}")
    if isinstance(bands, ray.data.Dataset):
        bands = collect_table(bands)
    clash = ((set(bands.column_names) - {lo_col, hi_col})
             & set(left.schema().names))
    if clash:
        raise ValueError(
            f"range_join: band columns collide with left: {clash}")
    ref = ray.put(bands.combine_chunks())
    return left.map_batches(
        _RangeJoiner(ref, value_col, lo_col, hi_col, closed),
        batch_format="pyarrow", batch_size=None)

def interval_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    left_ts: str,
    right_start: str,
    right_end: str,
    bucket: str = "1d",
    right_on: Optional[str] = None,
    how: str = "inner",
    num_partitions: Optional[int] = None,
) -> ray.data.Dataset:
    """Big-big stream-stream interval join: emit every (left, right) pair
    of the same key with ``right_start <= left_ts <= right_end`` — the
    canonical time-bounded stream join (events-inside-session, impressions
    -inside-campaign).  Neither side broadcasts.  ``how='left'`` keeps
    left rows with no covering window (NULL right columns) — computable
    cell-locally because a left row's every match lives in its own
    (key, bucket) cell.

    Plan: each left row lands in ONE (key, time-bucket) cell; each right
    interval replicates into every bucket it spans (``ceil(len/bucket)+1``
    copies — pick ``bucket`` near the typical interval length to bound
    replication).  A pair can only meet in the left row's bucket, so the
    bucketed equi-join emits NO duplicates and needs no dedup pass.  One
    hash shuffle on (key, bucket); the in-partition join is pyarrow's
    vectorized hash-join (:func:`payload_safe_join`) plus one numpy range
    mask.  Skew contract: one (key, bucket) cell's rows fit a worker.
    """
    import numpy as np
    import pyarrow.compute as pc

    from paradedb_ray.pipelines.aggregate import _parse_fixed_interval
    from paradedb_ray.stages.hash_agg import hash_partition_apply

    if how not in ("inner", "left"):
        raise ValueError(
            f"interval_join: how must be inner|left, got {how!r}")
    b_us = _parse_fixed_interval(bucket)
    rkey = right_on or on

    lsch, rsch = left.schema(), right.schema()
    lcols = list(lsch.names)
    rcols = [c for c in rsch.names if c != rkey]
    clash = set(rcols) & set(lcols)
    if clash:
        raise ValueError(f"interval_join: column collision: {clash}")
    l_types = dict(zip(lsch.names, lsch.types))
    r_types = dict(zip(rsch.names, rsch.types))
    out_schema = pa.schema(
        [pa.field(c, l_types[c]) for c in lcols]
        + [pa.field(c, r_types[c]) for c in rcols])

    def tag_left(batch: pa.Table) -> pa.Table:
        tsv, null = _int64_and_nulls(batch.column(left_ts))
        # NULL left_ts can never satisfy the range (SQL comparison
        # semantics) — bucket 0 is fine, the range mask drops it (and a
        # LEFT join keeps the row with NULL right columns)
        bk = np.where(null, 0, tsv // b_us)
        batch = batch.append_column("__bucket", pa.array(bk, pa.int64()))
        return batch.append_column(
            "__side", pa.array(np.zeros(batch.num_rows, np.int8)))

    def tag_right(batch: pa.Table) -> pa.Table:
        if rkey != on:
            batch = batch.append_column(on, batch.column(rkey))
            batch = batch.drop_columns([rkey])
        b0, null0 = _int64_and_nulls(batch.column(right_start))
        b1, null1 = _int64_and_nulls(batch.column(right_end))
        # a window with a NULL bound matches nothing: replicate 0 times
        bad = null0 | null1
        b0 = np.where(bad, 0, b0 // b_us)
        b1 = np.where(bad, -1, b1 // b_us)
        cnt = np.maximum(b1 - b0 + 1, 0)
        idx = np.repeat(np.arange(batch.num_rows), cnt)
        first = np.repeat(np.cumsum(cnt) - cnt, cnt)
        bk = b0[idx] + (np.arange(len(idx)) - first)
        out = batch.take(pa.array(idx, pa.int64()))
        out = out.append_column("__bucket", pa.array(bk, pa.int64()))
        return out.append_column(
            "__side", pa.array(np.ones(out.num_rows, np.int8)))

    lt = left.map_batches(tag_left, batch_format="pyarrow", batch_size=None)
    rt = right.map_batches(tag_right, batch_format="pyarrow",
                           batch_size=None)
    both = lt.union(rt)

    l_sel = lcols + ["__bucket"]
    r_sel = [on] + [c for c in rcols] + ["__bucket"]
    l_pa = pa.schema([pa.field(c, l_types.get(c, pa.int64()))
                      for c in l_sel])
    r_pa = pa.schema([pa.field(c, r_types.get(c if c != on else rkey,
                                              pa.int64()))
                      for c in r_sel])

    def join_partition(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        for f in list(l_pa) + list(r_pa):
            if f.name not in t.column_names:
                t = t.append_column(f.name, pa.nulls(t.num_rows, f.type))
        side = t.column("__side")
        lg = t.filter(pc.equal(side, 0)).select(l_sel).cast(l_pa)
        rg = t.filter(pc.equal(side, 1)).select(r_sel).cast(r_pa)
        if how == "left":
            lg = lg.append_column(
                "__lrow", pa.array(np.arange(lg.num_rows), pa.int64()))
        j = payload_safe_join(lg, rg, [on, "__bucket"], "inner")
        (ts, ts_null), (start, start_null), (end, end_null) = (
            _int64_and_nulls(j.column(c))
            for c in (left_ts, right_start, right_end))
        mask = (~(ts_null | start_null | end_null) & (ts >= start)
                & (ts <= end))
        j = j.filter(pa.array(mask))
        if how == "left":
            matched = j.column("__lrow").to_numpy(zero_copy_only=False)
            miss = np.ones(lg.num_rows, dtype=bool)
            if len(matched):
                miss[matched.astype(np.int64)] = False
            lo = lg.filter(pa.array(miss)).drop_columns(["__lrow"])
            for c in rcols:
                lo = lo.append_column(c, pa.nulls(lo.num_rows, r_types[c]))
            j = pa.concat_tables(
                [j.drop_columns(["__lrow"]).select(out_schema.names),
                 lo.select(out_schema.names)],
                promote_options="default")
            return j.cast(out_schema)
        return j.drop_columns(
            ["__bucket"]).select(out_schema.names).cast(out_schema)

    return hash_partition_apply(both, [on, "__bucket"], join_partition,
                                num_partitions=num_partitions)
