"""Seeded randomized DuckDB-parity fuzz for the temporal operator family
(asof both directions + tolerance, interval join, time-range rolling,
row-frame rolling).  Each iteration draws a small random corpus with
adversarial properties (duplicate timestamps, NULL values, singleton and
missing keys, empty sides) and compares the FULL output hash against
DuckDB over the same frames — the same order-insensitive compare the
driver uses.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data

from paradedb_ray.pipelines.aggregate import (partitioned_window,
                                              time_rolling_window)
from paradedb_ray.pipelines.joins import (asof_join, interval_join,
                                         range_join)


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns),
                          kind="mergesort").reset_index(drop=True)


def to_pdf(obj):
    """Dataset -> pandas via arrow refs: Ray's Dataset.to_pandas() drops
    the schema of an ALL-EMPTY dataset (the blocks themselves are typed;
    verified), so convert at the Arrow level."""
    if isinstance(obj, ray.data.Dataset):
        tabs = ray.get(obj.to_arrow_refs())
        return pa.concat_tables(tabs,
                                promote_options="default").to_pandas()
    return obj


def assert_same(mine, orc: pd.DataFrame, what: str):
    a, b = canon(to_pdf(mine)), canon(orc)
    assert len(a) == len(b), (what, len(a), len(b))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=what)


def rand_events(rng: np.random.RandomState, n: int, n_keys: int,
                null_ts: bool = False):
    """ts drawn from a SMALL domain so duplicates are common; with
    ``null_ts`` ~10% of timestamps are NULL (joins must treat them as
    never-matching, SQL comparison semantics)."""
    ts = pa.array(rng.randint(0, 50, n).astype(np.int64) * 1_000_000
                  ).cast(pa.timestamp("us"))
    if null_ts:
        keep = rng.rand(n) >= 0.1
        ts = pa.array(
            [t if k else None for t, k in zip(ts.to_pylist(), keep)],
            pa.timestamp("us"))
    return pa.table({
        "k": pa.array(rng.randint(0, n_keys, n).astype(np.int64)),
        "ts": ts,
        "rid": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array(np.where(rng.rand(n) < 0.15, np.nan,
                               rng.randint(0, 100, n).astype(float)),
                      from_pandas=True),
    })


@pytest.mark.parametrize("seed", range(6))
def test_asof_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.RandomState(seed)
    nl, nr = rng.randint(1, 120), rng.randint(0, 120)
    left = rand_events(rng, nl, 5, null_ts=True)
    right = rand_events(rng, max(nr, 1), 5, null_ts=True).rename_columns(
        ["k", "rts", "qid", "rv"])
    if nr == 0:
        right = right.slice(0, 0)
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    lds = ray.data.from_arrow(left).repartition(3)
    rds = (ray.data.from_arrow(right).repartition(2)
           if right.num_rows else ray.data.from_arrow(right))

    out = asof_join(lds, rds, on="k", left_ts="ts", right_ts="rts",
                    right_cols=["qid", "rv"], tie_col="qid",
                    how="left")
    orc = con.execute("""
      SELECT l.*, r.qid, r.rv FROM l LEFT JOIN r
        ON r.k = l.k AND r.rts <= l.ts
      QUALIFY row_number() OVER (PARTITION BY l.rid
        ORDER BY r.rts DESC, r.qid DESC) = 1""").df()
    assert_same(out, orc, f"asof backward seed={seed}")

    fwd = asof_join(lds, rds, on="k", left_ts="ts", right_ts="rts",
                    right_cols=["qid"], tie_col="qid",
                    direction="forward", how="inner")
    orc2 = con.execute("""
      SELECT l.*, r.qid FROM l JOIN r ON r.k = l.k AND r.rts >= l.ts
      QUALIFY row_number() OVER (PARTITION BY l.rid
        ORDER BY r.rts ASC, r.qid DESC) = 1""").df()
    assert_same(fwd, orc2, f"asof forward seed={seed}")

    tol = asof_join(lds, rds, on="k", left_ts="ts", right_ts="rts",
                    right_cols=["qid"], tie_col="qid",
                    tolerance="7s", how="inner")
    orc3 = con.execute("""
      SELECT l.*, r.qid FROM l JOIN r ON r.k = l.k AND r.rts <= l.ts
        AND l.ts - r.rts <= INTERVAL 7 SECOND
      QUALIFY row_number() OVER (PARTITION BY l.rid
        ORDER BY r.rts DESC, r.qid DESC) = 1""").df()
    assert_same(tol, orc3, f"asof tolerance seed={seed}")


@pytest.mark.parametrize("seed", range(3))
def test_asof_null_keys_vs_duckdb(ray_session, seed):
    """A left row with a NULL in any key column matches nothing (SQL
    ``=`` never holds for NULL), even beside a right row whose key is
    NULL in the same places."""
    rng = np.random.RandomState(300 + seed)

    def null_keys(t: pa.Table) -> pa.Table:
        n = t.num_rows
        k = [None if drop else int(v) for v, drop in
             zip(t.column("k").to_pylist(), rng.rand(n) < 0.2)]
        g = [None if drop else v for v, drop in
             zip(rng.choice(["a", "b"], n).tolist(), rng.rand(n) < 0.2)]
        return t.set_column(0, "k", pa.array(k, pa.int64())).append_column(
            "g", pa.array(g, pa.string()))

    left = null_keys(rand_events(rng, rng.randint(30, 120), 3))
    right = null_keys(rand_events(rng, rng.randint(30, 120), 3)
                      .rename_columns(["k", "rts", "qid", "rv"]))
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    lds = ray.data.from_arrow(left).repartition(3)
    rds = ray.data.from_arrow(right).repartition(2)
    for how, join in (("left", "LEFT JOIN"), ("inner", "JOIN")):
        out = asof_join(lds, rds, on=["k", "g"], left_ts="ts",
                        right_ts="rts", right_cols=["qid", "rv"],
                        tie_col="qid", how=how)
        orc = con.execute(f"""
          SELECT l.*, r.qid, r.rv FROM l {join} r
            ON r.k = l.k AND r.g = l.g AND r.rts <= l.ts
          QUALIFY row_number() OVER (PARTITION BY l.rid
            ORDER BY r.rts DESC, r.qid DESC) = 1""").df()
        assert_same(out, orc, f"asof null keys {how} seed={seed}")


#: 2^53 us (year 2255): float64 steps by 2 us from here on
BIG_US = 2 ** 53


def test_asof_tolerance_past_2_53_us_vs_duckdb(ray_session):
    """The tolerance gap is exact past 2^53 us.  Right 2^53 + 3 rounds to
    + 4 in float64, so a left row at + 7,000,004 is 7,000,001 us away but
    looked exactly 7 s away; the plus-one cases sit on either side of
    the edge, backward and forward."""
    offs_r = [3, 10_000_003, 20_000_000]
    offs_l = [7_000_004, 7_000_002, 17_000_004, 27_000_000, 27_000_001,
              12_999_999, 3_000_003]
    left = pa.table({
        "k": pa.array([1] * len(offs_l), pa.int64()),
        "ts": pa.array([BIG_US + o for o in offs_l], pa.timestamp("us")),
        "rid": pa.array(np.arange(len(offs_l), dtype=np.int64))})
    right = pa.table({
        "k": pa.array([1] * len(offs_r), pa.int64()),
        "rts": pa.array([BIG_US + o for o in offs_r], pa.timestamp("us")),
        "qid": pa.array(np.arange(len(offs_r), dtype=np.int64))})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right)
    for direction, cmp, gap, order in (
            ("backward", "<=", "l.ts - r.rts", "DESC"),
            ("forward", ">=", "r.rts - l.ts", "ASC")):
        out = asof_join(lds, rds, on="k", left_ts="ts", right_ts="rts",
                        right_cols=["qid"], tie_col="qid",
                        direction=direction, tolerance="7s", how="left")
        orc = con.execute(f"""
          SELECT l.*, r.qid FROM l LEFT JOIN r ON r.k = l.k
            AND r.rts {cmp} l.ts AND {gap} <= INTERVAL 7 SECOND
          QUALIFY row_number() OVER (PARTITION BY l.rid
            ORDER BY r.rts {order}, r.qid DESC) = 1""").df()
        assert_same(out, orc, f"asof tolerance {direction} past 2^53")


def test_interval_join_past_2_53_us_vs_duckdb(ray_session):
    """Window edges are exact past 2^53 us.  One reducer holds every
    cell, so NULL-timestamp rows (bucket 0, beside the epoch window)
    share the joined table with the large ones, which numpy would then
    read as float64: + 3 rounds to + 4 = a window start, + 5,000,005 to
    + 5,000,004 = its end, and both looked inside."""
    ws = [0, BIG_US + 4, BIG_US + 20_000_001]
    we = [10_000_000, BIG_US + 5_000_004, BIG_US + 33_000_001]
    lts = [None, 5_000_000, None, BIG_US + 3, BIG_US + 4, BIG_US + 5_000_004,
           BIG_US + 5_000_005, BIG_US + 20_000_000, BIG_US + 20_000_001,
           BIG_US + 33_000_001, BIG_US + 33_000_002]
    left = pa.table({
        "k": pa.array([1] * len(lts), pa.int64()),
        "ts": pa.array(lts, pa.timestamp("us")),
        "rid": pa.array(np.arange(len(lts), dtype=np.int64))})
    right = pa.table({
        "k": pa.array([1] * len(ws), pa.int64()),
        "ws": pa.array(ws, pa.timestamp("us")),
        "we": pa.array(we, pa.timestamp("us")),
        "wid": pa.array(np.arange(len(ws), dtype=np.int64))})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    for how, join in (("inner", "JOIN"), ("left", "LEFT JOIN")):
        out = interval_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            on="k", left_ts="ts", right_start="ws", right_end="we",
            bucket="13s", how=how, num_partitions=1)
        orc = con.execute(f"""
          SELECT l.*, r.ws, r.we, r.wid FROM l {join} r
            ON l.k = r.k AND l.ts >= r.ws AND l.ts <= r.we""").df()
        assert_same(out, orc, f"interval {how} past 2^53")


def test_range_join_past_2_53_vs_duckdb(ray_session):
    """Band edges are exact past 2^53: + 3 rounds to + 4 in float64 and
    would land in the band [+4, +10).  Both edge closings are checked,
    and a NULL value matches no band."""
    vals = [None, BIG_US + 3, BIG_US + 4, BIG_US + 9, BIG_US + 10,
            BIG_US + 11, 5]
    left = pa.table({"rid": pa.array(np.arange(len(vals), dtype=np.int64)),
                     "v": pa.array(vals, pa.int64())})
    bands = pa.table({"lo": pa.array([BIG_US + 4, 0], pa.int64()),
                      "hi": pa.array([BIG_US + 10, 6], pa.int64()),
                      "band": ["big", "small"]})
    con = duckdb.connect()
    con.register("l", left)
    con.register("b", bands)
    lds = ray.data.from_arrow(left).repartition(2)
    for closed, cmp in (("left", "<"), ("both", "<=")):
        out = range_join(lds, bands, "v", "lo", "hi", closed=closed)
        orc = con.execute(f"""
          SELECT l.*, b.band FROM l JOIN b
            ON l.v >= b.lo AND l.v {cmp} b.hi""").df()
        assert_same(out, orc, f"range_join {closed} past 2^53")


@pytest.mark.parametrize("seed", range(4))
def test_interval_join_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.RandomState(100 + seed)
    left = rand_events(rng, rng.randint(1, 150), 4, null_ts=True)
    nr = rng.randint(1, 60)
    s = rng.randint(0, 50, nr).astype(np.int64) * 1_000_000
    # include zero-length and inverted (empty) windows
    dur = rng.randint(-5, 20, nr).astype(np.int64) * 1_000_000
    right = pa.table({
        "k": pa.array(rng.randint(0, 4, nr).astype(np.int64)),
        "ws": pa.array(s).cast(pa.timestamp("us")),
        "we": pa.array(s + dur).cast(pa.timestamp("us")),
        "wid": pa.array(np.arange(nr, dtype=np.int64)),
    })
    con = duckdb.connect()
    con.register("l", left.to_pandas())
    con.register("r", right.to_pandas())
    out = interval_join(
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(right).repartition(2),
        on="k", left_ts="ts", right_start="ws", right_end="we",
        bucket="13s")
    orc = con.execute("""
      SELECT l.*, r.ws, r.we, r.wid FROM l JOIN r
        ON l.k = r.k AND l.ts >= r.ws AND l.ts <= r.we""").df()
    assert_same(out, orc, f"interval seed={seed}")

    lo = interval_join(
        ray.data.from_arrow(left).repartition(3),
        ray.data.from_arrow(right).repartition(2),
        on="k", left_ts="ts", right_start="ws", right_end="we",
        bucket="13s", how="left")
    orc_l = con.execute("""
      SELECT l.*, r.ws, r.we, r.wid FROM l LEFT JOIN r
        ON l.k = r.k AND l.ts >= r.ws AND l.ts <= r.we""").df()
    assert_same(lo, orc_l, f"interval-left seed={seed}")


@pytest.mark.parametrize("seed", range(4))
def test_rolling_fuzz_vs_duckdb(ray_session, seed):
    rng = np.random.RandomState(200 + seed)
    t = rand_events(rng, rng.randint(2, 200), 3)
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    ds = ray.data.from_arrow(t).repartition(3)

    # time RANGE frame (count/min/max + integer-valued sum: exact)
    mine = time_rolling_window(
        ds, ["k"], "ts",
        {"c": ("count", "v"), "s": ("sum", "v"),
         "mn": ("min", "v"), "mx": ("max", "v")}, window="9s").to_pandas()
    orc = con.execute("""
      SELECT t.*, count(v) OVER w AS c, sum(v) OVER w AS s,
        min(v) OVER w AS mn, max(v) OVER w AS mx
      FROM t WINDOW w AS (PARTITION BY k ORDER BY ts
        RANGE BETWEEN INTERVAL 9 SECOND PRECEDING AND CURRENT ROW)""").df()
    assert_same(mine, orc, f"time_rolling seed={seed}")

    # ROWS frame over a UNIQUE order (rid) — deterministic under ties
    mine2 = partitioned_window(
        ds, ["k"], [("rid", "ascending")],
        {"rs": ("rolling_sum", "v", 3), "rmn": ("rolling_min", "v", 3),
         "pr": ("percent_rank", None), "cd": ("cume_dist", None),
         "nt": ("ntile", None, 3)}).to_pandas()
    orc2 = con.execute("""
      SELECT t.*, sum(v) OVER w AS rs, min(v) OVER w AS rmn,
        percent_rank() OVER w2 AS pr, cume_dist() OVER w2 AS cd,
        ntile(3) OVER w2 AS nt
      FROM t WINDOW
        w AS (PARTITION BY k ORDER BY rid
              ROWS BETWEEN 3 PRECEDING AND CURRENT ROW),
        w2 AS (PARTITION BY k ORDER BY rid)""").df()
    assert_same(mine2, orc2, f"rows_rolling seed={seed}")


def _cell(v):
    """A cell as a sortable token: NULL and NaN apart, -0.0 = 0.0."""
    if v is None:
        return (0, 0)
    if isinstance(v, float):
        return (1, 0) if v != v else (2, v + 0.0)
    return (2, v)


def _rows(obj, cols: list) -> list:
    """The multiset of ``cols`` rows of a Dataset or Arrow table, in
    Arrow (pandas would read NULL as NaN), timestamps as µs."""
    if isinstance(obj, ray.data.Dataset):
        obj = pa.concat_tables(ray.get(obj.to_arrow_refs()),
                               promote_options="default")
    obj = obj.select(cols)
    obj = pa.table([c.cast(pa.timestamp("us"))
                    if pa.types.is_timestamp(c.type) else c
                    for c in obj.columns], names=cols)
    return sorted(tuple(_cell(v) for v in r.values())
                  for r in obj.to_pylist())


def nan_null_events(seed: int, n: int) -> pa.Table:
    """Float key ``f`` and float order column ``g`` drawn from NaN, NULL,
    -0.0, 0.0 and two numbers; integer-valued ``v`` with NULLs."""
    rng = np.random.RandomState(seed)
    pool = [float("nan"), None, -0.0, 0.0, 1.5, 2.0]
    return pa.table({
        "f": pa.array([pool[i] for i in rng.randint(0, 6, n)], pa.float64()),
        "g": pa.array([pool[i] for i in rng.randint(0, 6, n)], pa.float64()),
        "ts": pa.array(rng.randint(0, 40, n).astype(np.int64) * 1_000_000
                       ).cast(pa.timestamp("us")),
        "rid": pa.array(np.arange(n, dtype=np.int64)),
        "v": pa.array([None if rng.rand() < 0.15 else float(x)
                       for x in rng.randint(0, 100, n)], pa.float64()),
        "e": pa.array([None if x == 2 else "ab"[x]
                       for x in rng.randint(0, 3, n)], pa.string()),
    })


@pytest.mark.parametrize("seed", range(2))
def test_float_key_nan_null_partitions_vs_duckdb(ray_session, seed):
    """A float key's NaN and NULL are separate partitions and separate
    ORDER BY peers, -0.0 and 0.0 one, as in SQL (DuckDB): every sorted
    per-key reducer takes its runs from ``sort_runs``."""
    from paradedb_ray.pipelines.aggregate import (percentiles_agg,
                                                  top_hits_agg)
    from paradedb_ray.pipelines.windows import (match_sequence,
                                                session_window, sessionize)

    t = nan_null_events(400 + seed, 160)
    con = duckdb.connect()
    con.register("t", t)
    ds = ray.data.from_arrow(t).repartition(3)

    def same(mine, sql: str, cols: list, what: str):
        assert _rows(mine, cols) == _rows(con.execute(sql).arrow(), cols), \
            f"{what} seed={seed}"

    same(partitioned_window(ds, ["f"], [("g", "ascending"),
                                        ("rid", "ascending")],
                            {"rn": ("row_number", None),
                             "ch": ("changed", "g")}),
         """SELECT rid, row_number() OVER w AS rn,
              row_number() OVER w = 1 OR g IS DISTINCT FROM lag(g) OVER w
                AS ch
            FROM t WINDOW w AS (PARTITION BY f ORDER BY g, rid)""",
         ["rid", "rn", "ch"], "row_number/changed")
    same(partitioned_window(ds, ["f"], [("g", "ascending")],
                            {"rk": ("rank", None),
                             "dr": ("dense_rank", None)}),
         """SELECT rid, rank() OVER w AS rk, dense_rank() OVER w AS dr
            FROM t WINDOW w AS (PARTITION BY f ORDER BY g)""",
         ["rid", "rk", "dr"], "rank/dense_rank")
    same(percentiles_agg(ds, ["f"], "v", [50.0]),
         "SELECT f, quantile_cont(v, 0.5) AS p50 FROM t GROUP BY f",
         ["f", "p50"], "percentiles")
    same(top_hits_agg(ds, ["f"], [("v", "descending"), ("rid", "ascending")],
                      size=2, source_cols=["rid"]),
         """SELECT * FROM (SELECT f, rid, row_number() OVER (PARTITION BY f
              ORDER BY v DESC NULLS LAST, rid) AS hit_rank FROM t)
            WHERE hit_rank <= 2""",
         ["f", "hit_rank", "rid"], "top_hits")
    same(time_rolling_window(ds, ["f"], "ts",
                             {"c": ("count", "v"), "s": ("sum", "v")},
                             window="9s"),
         """SELECT rid, count(v) OVER w AS c, sum(v) OVER w AS s
            FROM t WINDOW w AS (PARTITION BY f ORDER BY ts
              RANGE BETWEEN INTERVAL 9 SECOND PRECEDING AND CURRENT ROW)""",
         ["rid", "c", "s"], "time_rolling")
    sessions = """SELECT *, sum(b) OVER (PARTITION BY f ORDER BY ts)::BIGINT
                    AS session_id
                  FROM (SELECT *, CASE WHEN ts - lag(ts) OVER (PARTITION BY f
                    ORDER BY ts) > INTERVAL 5 SECOND THEN 1 ELSE 0 END AS b
                  FROM t)"""
    same(sessionize(ds, "f", "ts", "5s"), sessions,
         ["rid", "session_id"], "sessionize")
    same(session_window(ds, "ts", "f", "5s"),
         f"""SELECT f, min(ts) AS session_start, max(ts) AS session_end,
               count(*) AS n_events FROM ({sessions}) GROUP BY f, session_id""",
         ["f", "session_start", "session_end", "n_events"], "session_window")
    same(match_sequence(ds, "f", [("ts", "ascending"), ("rid", "ascending")],
                        steps=[("e", "a"), ("e", "b")],
                        emit=[(0, "rid", "r0"), (1, "rid", "r1")],
                        within="6s", ts_col="ts"),
         """SELECT f, r0, r1 FROM (SELECT f, e, ts, rid AS r0,
              lead(rid) OVER w AS r1, lead(e) OVER w AS e1,
              lead(ts) OVER w AS ts1
            FROM t WINDOW w AS (PARTITION BY f ORDER BY ts, rid))
            WHERE e = 'a' AND e1 = 'b' AND ts1 - ts <= INTERVAL 6 SECOND""",
         ["f", "r0", "r1"], "match_sequence")


def _sql_order(key) -> str:
    col, direction, nulls = key
    return (f"{col} {'DESC' if direction == 'descending' else 'ASC'} "
            f"NULLS {'FIRST' if nulls == 'nulls_first' else 'LAST'}")


@pytest.mark.parametrize("nulls", ["nulls_last", "nulls_first"])
@pytest.mark.parametrize("direction", ["ascending", "descending"])
@pytest.mark.parametrize("entry", ["rank_head", "topk_by"])
def test_order_by_nan_null_vs_duckdb(ray_session, entry, direction, nulls):
    """ORDER BY a float column of NaN, NULL, -0.0, 0.0 and numbers, in
    DuckDB's order: NaN is the greatest value (first on a descending
    key), NULLs last unless NULLS FIRST, -0.0 and 0.0 peers (tie-broken
    by ``rid``)."""
    from paradedb_ray.pipelines.relational import topk_by
    from paradedb_ray.stages.blocks import collect_table
    from paradedb_ray.stages.order import rank_head

    t = nan_null_events(500, 120)
    key = [("g", direction, nulls), ("rid", "ascending")]
    con = duckdb.connect()
    con.register("t", t)
    want = [r[0] for r in con.execute(
        f"SELECT rid FROM t ORDER BY {_sql_order(key[0])}, rid").fetchall()]
    if entry == "rank_head":
        got = rank_head(t, key, None).column("rid").to_pylist()
    else:
        want = want[:25]
        got = collect_table(topk_by(ray.data.from_arrow(t).repartition(3),
                                    key, 25, columns=["rid"])
                            ).column("rid").to_pylist()
    assert got == want


@pytest.mark.parametrize("entry", ["topn_per_group", "top_hits_agg",
                                   "row_number"])
def test_per_group_order_by_nan_desc_vs_duckdb(ray_session, entry):
    """Per-group heads and window ranks ordered by ``g DESC`` (NaN first,
    NULL last) within partitions of ``f``, against DuckDB."""
    from paradedb_ray.pipelines.aggregate import top_hits_agg
    from paradedb_ray.pipelines.relational import topn_per_group

    t = nan_null_events(600, 160)
    con = duckdb.connect()
    con.register("t", t)
    ds = ray.data.from_arrow(t).repartition(3)
    order = [("g", "descending"), ("rid", "ascending")]
    ranked = """SELECT f, rid, row_number() OVER (PARTITION BY f
                  ORDER BY g DESC NULLS LAST, rid) AS rn FROM t"""
    if entry == "topn_per_group":
        mine = topn_per_group(ds, ["f"], order, 3, rn_col="rn")
        sql = f"SELECT * FROM ({ranked}) WHERE rn <= 3"
    elif entry == "top_hits_agg":
        mine = top_hits_agg(ds, ["f"], order, size=3, source_cols=["rid"])
        mine = mine.map_batches(
            lambda b: b.rename_columns(
                ["rn" if c == "hit_rank" else c for c in b.column_names]),
            batch_format="pyarrow", batch_size=None)
        sql = f"SELECT * FROM ({ranked}) WHERE rn <= 3"
    else:
        mine = partitioned_window(ds, ["f"], order,
                                  {"rn": ("row_number", None)})
        sql = ranked
    cols = ["f", "rid", "rn"]
    assert _rows(mine, cols) == _rows(con.execute(sql).arrow(), cols)
