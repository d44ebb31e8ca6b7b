"""Round-2 aggregation coverage: sibling bucket aggs (flat layout),
calendar date_histogram intervals, distributed ungrouped percentiles."""

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest

import ray.data


@pytest.fixture(scope="module")
def events_tbl():
    rng = np.random.RandomState(12)
    n = 600
    t0 = dt.datetime(2023, 11, 20)
    ts = [t0 + dt.timedelta(hours=int(h)) for h in rng.randint(0, 24 * 90, n)]
    return pa.table({
        "event_type": pa.array([f"t{i % 4}" for i in range(n)]),
        "user_id": pa.array(rng.randint(0, 37, n), pa.int64()),
        "value": pa.array(rng.randint(0, 50, n).astype(float)),
        "ts": pa.array(ts, pa.timestamp("us")),
    })


def test_calendar_month_histogram_vs_duckdb(ray_session, events_tbl):
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"per_month": {
        "date_histogram": {"field": "ts", "calendar_interval": "1M"},
        "aggs": {"total": {"sum": {"field": "value"}}}}}).to_pandas()
    exp = duckdb.sql(
        "SELECT date_trunc('month', ts) AS k, count(*) AS doc_count,"
        " sum(value) AS total FROM events_tbl GROUP BY 1 ORDER BY 1").df()
    assert list(got["per_month_key"]) == list(exp["k"])
    assert list(got["doc_count"]) == list(exp["doc_count"])
    assert list(got["total"]) == list(exp["total"])


def test_calendar_quarter_year(ray_session, events_tbl):
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    for cal, trunc in (("quarter", "quarter"), ("1y", "year")):
        got = pdb_agg(ds, {"h": {"date_histogram": {
            "field": "ts", "calendar_interval": cal}}}).to_pandas()
        exp = duckdb.sql(
            f"SELECT date_trunc('{trunc}', ts) AS k, count(*) AS c"
            " FROM events_tbl GROUP BY 1 ORDER BY 1").df()
        assert list(got["h_key"]) == list(exp["k"]), cal
        assert list(got["doc_count"]) == list(exp["c"]), cal


def test_sibling_buckets_flat(ray_session, events_tbl):
    """Two sibling bucket aggs + a bare metric in one request -> one flat
    table tagged by agg_name (reference merges arbitrary sub-agg trees,
    aggregate/mod.rs:503-560)."""
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {
        "by_type": {"terms": {"field": "event_type"},
                    "aggs": {"avg_v": {"avg": {"field": "value"}}}},
        "by_month": {"date_histogram": {"field": "ts",
                                        "calendar_interval": "1M"}},
        "total_v": {"sum": {"field": "value"}},
    }).to_pandas()

    bt = got[got["agg_name"] == "by_type"]
    exp = duckdb.sql(
        "SELECT event_type, count(*) AS c, avg(value) AS a"
        " FROM events_tbl GROUP BY 1 ORDER BY 1").df()
    assert list(bt["key_1"]) == list(exp["event_type"])
    assert list(bt["doc_count"]) == list(exp["c"])
    assert list(bt["avg_v"]) == list(exp["a"])
    assert bt["key_2"].isna().all() if "key_2" in bt else True

    bm = got[got["agg_name"] == "by_month"]
    expm = duckdb.sql(
        "SELECT strftime(date_trunc('month', ts), '%Y-%m-%d %H:%M:%S') AS k,"
        " count(*) AS c FROM events_tbl GROUP BY 1 ORDER BY 1").df()
    assert list(bm["key_1"]) == list(expm["k"])
    assert list(bm["doc_count"]) == list(expm["c"])
    assert bm["avg_v"].isna().all()

    tv = got[got["agg_name"] == "total_v"]
    assert len(tv) == 1
    assert tv["total_v"].iloc[0] == duckdb.sql(
        "SELECT sum(value) FROM events_tbl").fetchone()[0]


def test_sibling_buckets_nested_level(ray_session, events_tbl):
    """Sibling buckets BELOW a terms level: each root-to-leaf chain is its
    own row group."""
    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"by_type": {
        "terms": {"field": "event_type"},
        "aggs": {
            "by_month": {"date_histogram": {"field": "ts",
                                            "calendar_interval": "1M"}},
            "by_bucket": {"histogram": {"field": "value", "interval": 25.0}},
        }}}).to_pandas()
    names = set(got["agg_name"])
    assert names == {"by_type.by_month", "by_type.by_bucket"}
    # leaf rows carry both key levels
    sub = got[got["agg_name"] == "by_type.by_bucket"]
    assert sub["key_1"].notna().all() and sub["key_2"].notna().all()
    # doc counts per chain both sum to the corpus size
    assert int(sub["doc_count"].sum()) == events_tbl.num_rows
    sub2 = got[got["agg_name"] == "by_type.by_month"]
    assert int(sub2["doc_count"].sum()) == events_tbl.num_rows


def test_extended_stats(ray_session, events_tbl):
    """tantivy extended_stats: stats + sum_of_squares / variance /
    std_deviation (population)."""
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"by_type": {
        "terms": {"field": "event_type"},
        "aggs": {"v": {"extended_stats": {"field": "value"}}}}}).to_pandas()
    exp = duckdb.sql(
        "SELECT event_type, count(value) AS c, sum(value) AS s,"
        " sum(value * value) AS sq, var_pop(value) AS vp,"
        " stddev_pop(value) AS sd"
        " FROM events_tbl GROUP BY 1 ORDER BY 1").df()
    got = got.sort_values("event_type").reset_index(drop=True)
    assert list(got["v_count"]) == list(exp["c"])
    assert list(got["v_sum"]) == list(exp["s"])
    assert list(got["v_sum_of_squares"]) == list(exp["sq"])
    assert np.allclose(got["v_variance"], exp["vp"], rtol=1e-12)
    assert np.allclose(got["v_std_deviation"], exp["sd"], rtol=1e-12)
    # ungrouped (bare metric) path
    got1 = pdb_agg(ds, {"v": {"extended_stats": {"field": "value"}}}
                   ).to_pandas()
    assert np.allclose(got1["v_variance"].iloc[0],
                       duckdb.sql("SELECT var_pop(value) FROM events_tbl"
                                  ).fetchone()[0], rtol=1e-12)


def test_percentiles_in_dsl(ray_session, events_tbl):
    """percentiles metric inside pdb.agg (per-bucket quantiles merged with
    the grouped metrics), bit-identical to quantile_cont."""
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"by_type": {
        "terms": {"field": "event_type"},
        "aggs": {"vmax": {"max": {"field": "value"}},
                 "q": {"percentiles": {"field": "value",
                                       "percents": [50, 90]}}}}}).to_pandas()
    exp = duckdb.sql(
        "SELECT event_type, count(*) AS c, max(value) AS m,"
        " quantile_cont(value, 0.50) AS p50,"
        " quantile_cont(value, 0.90) AS p90"
        " FROM events_tbl GROUP BY 1 ORDER BY 1").df()
    got = got.sort_values("event_type").reset_index(drop=True)
    assert list(got["doc_count"]) == list(exp["c"])
    assert list(got["vmax"]) == list(exp["m"])
    for g, e in (("q_p50", "p50"), ("q_p90", "p90")):
        assert [v.hex() for v in got[g]] == [v.hex() for v in exp[e]], g


def test_top_hits(ray_session, events_tbl):
    """tantivy top_hits: top-N docs per bucket under a sort, flattened
    with hit_rank — equivalent to SQL row_number() <= N per partition."""
    import duckdb

    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"by_type": {
        "terms": {"field": "event_type"},
        "aggs": {"best": {"top_hits": {
            "size": 2,
            "sort": [{"value": {"order": "desc"}},
                     {"user_id": "asc"}],
            "_source": ["value", "user_id"]}}},
    }}).to_pandas()
    exp = duckdb.sql(
        "SELECT * FROM (SELECT event_type, value, user_id,"
        " row_number() OVER (PARTITION BY event_type"
        " ORDER BY value DESC, user_id ASC) AS rk FROM events_tbl)"
        " WHERE rk <= 2 ORDER BY event_type, rk").df()
    got = got.sort_values(["event_type", "hit_rank"]).reset_index(drop=True)
    assert list(got["event_type"]) == list(exp["event_type"])
    assert list(got["hit_rank"]) == list(exp["rk"])
    assert list(got["value"]) == list(exp["value"])
    assert list(got["user_id"]) == list(exp["user_id"])


def test_top_hits_blocks_share_one_schema(ray_session):
    """One group over several hash partitions: the empty partitions'
    blocks carry the same columns, in the same order, as the one holding
    the group (group keys, ``hit_rank``, source columns)."""
    from paradedb_ray.pipelines.aggregate import top_hits_agg

    t = pa.table({"g": ["a"] * 5, "x": np.arange(5, dtype=np.int64),
                  "y": np.arange(5, dtype=np.float64)})
    for source in (None, ["x"]):
        out = top_hits_agg(ray.data.from_arrow(t), ["g"],
                           [("x", "descending")], size=2,
                           source_cols=source)
        blocks = ray.get(out.to_arrow_refs())
        assert len(blocks) > 1
        want = ["g", "hit_rank", "x"] + (["y"] if source is None else [])
        assert [b.schema.names for b in blocks] == [want] * len(blocks)
        assert len({b.schema for b in blocks}) == 1
        assert sum(b.num_rows for b in blocks) == 2


def test_bucket_limit_guard(ray_session, events_tbl):
    """The reference aborts aggregations that exceed max_term_agg_buckets
    (`api/aggregate.rs:70-110`); pdb_agg raises rather than returning a
    silently huge bucket table."""
    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    with pytest.raises(ValueError, match="bucket limit"):
        pdb_agg(ds, {"by_user": {"terms": {"field": "user_id",
                                           "size": 1000}}},
                bucket_limit=10)
    # within the limit: normal result
    out = pdb_agg(ds, {"t": {"terms": {"field": "event_type"}}},
                  bucket_limit=10).to_pandas()
    assert len(out) == 4


def test_memory_limit_guard(ray_session, events_tbl):
    """`pdb.agg` memory_limit (tantivy AggregationLimitsGuard through
    `api/aggregate.rs:70-110`, GUC default 500MB `api/aggregate.rs:143`):
    aggregation state beyond the byte budget ABORTS with an error instead
    of growing unbounded; within the budget the result is unchanged."""
    from paradedb_ray.pipelines.aggregate import AggregationLimitError, pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    spec = {"by_user": {"terms": {"field": "user_id", "size": 100000},
                        "aggs": {"v": {"avg": {"field": "value"}}}}}
    with pytest.raises(AggregationLimitError, match="memory limit"):
        pdb_agg(ds, spec, memory_limit=64)  # 64 bytes: always trips
    ok = pdb_agg(ds, spec).to_pandas()  # default 500MB: never trips here
    assert len(ok) == events_tbl.column("user_id").to_pandas().nunique()


def test_ungrouped_percentiles_distributed_bitwise(ray_session, events_tbl):
    """Ungrouped percentiles must not take_all() the column; the
    histogram-prune path stays bit-identical to DuckDB quantile_cont."""
    import duckdb

    from paradedb_ray.pipelines.aggregate import percentiles_agg

    ds = ray.data.from_arrow(events_tbl)
    got = percentiles_agg(ds, [], "value",
                          percents=[25, 50, 90, 99]).to_pandas()
    exp = duckdb.sql(
        "SELECT quantile_cont(value, 0.25) AS p25,"
        " quantile_cont(value, 0.50) AS p50,"
        " quantile_cont(value, 0.90) AS p90,"
        " quantile_cont(value, 0.99) AS p99 FROM events_tbl").df()
    for c in ("p25", "p50", "p90", "p99"):
        assert got[c].iloc[0].hex() == exp[c].iloc[0].hex(), c


def test_json_path_aggregation(ray_session):
    """JSON projection aggregation (`json_agg.sql`): terms on a JSON
    dot-path and a metric over another path of the same column — the
    JSON parses once per row for all paths."""
    import pyarrow as pa
    import ray.data

    from paradedb_ray.pipelines.aggregate import pdb_agg
    from paradedb_ray.schema import IndexSchema

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "meta": pa.array(['{"color":"red","n":1}', '{"color":"blue","n":2}',
                          '{"color":"red","n":5}', '{"n":9}', None])})
    schema = IndexSchema.build("id", meta={"type": "json"})
    out = pdb_agg(ray.data.from_arrow(t),
                  {"colors": {"terms": {"field": "meta.color"},
                              "aggs": {"total": {"sum": {"field": "meta.n"}}}}},
                  schema=schema).to_pandas()
    got = {r["meta.color"]: (r["doc_count"], r["total"])
           for _, r in out.iterrows()}
    assert got["red"] == (2, 6)
    assert got["blue"] == (1, 2)
    assert got[None][0] == 2  # missing path + null row group together


# -- t-digest percentile sketch (reference: tantivy t-digest percentile
# path, aggregate/mod.rs) --------------------------------------------------

def test_tdigest_accuracy_and_tails():
    """Sketch quantiles within ~1% rank error of exact on a skewed
    distribution; exact at the extremes (min/max are tracked)."""
    from paradedb_ray.functions.tdigest import TDigest

    rng = np.random.RandomState(7)
    x = np.concatenate([rng.lognormal(0, 2, 50_000),
                        rng.normal(1000, 1, 1000)])
    d = TDigest.from_values(x, compression=200)
    xs = np.sort(x)
    assert d.quantile(0.0) == xs[0]
    assert d.quantile(1.0) == xs[-1]
    for q in (0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999):
        got = d.quantile(q)
        # rank of the estimate must be within 1% of the target rank
        rank = np.searchsorted(xs, got) / len(xs)
        assert abs(rank - q) < 0.01, (q, got, rank)


def test_tdigest_merge_matches_single_build():
    """Merging shard digests approximates the same quantiles as one
    digest over the whole stream (the distributed combine path)."""
    from paradedb_ray.functions.tdigest import TDigest

    rng = np.random.RandomState(11)
    x = rng.gamma(2.0, 10.0, 40_000)
    whole = TDigest.from_values(x, 200)
    parts = [TDigest.from_values(c, 200) for c in np.array_split(x, 17)]
    merged = TDigest.merge_all(parts, 200)
    rt = TDigest.from_bytes(merged.to_bytes(), 200)  # serialization survives
    xs = np.sort(x)
    assert merged.count == len(x)
    for q in (0.05, 0.5, 0.95):
        r_whole = np.searchsorted(xs, whole.quantile(q)) / len(xs)
        r_merged = np.searchsorted(xs, rt.quantile(q)) / len(xs)
        assert abs(r_merged - q) < 0.01
        assert abs(r_merged - r_whole) < 0.01


def test_tdigest_agg_grouped_vs_exact(ray_session, events_tbl):
    """Distributed sketch agg: same schema as percentiles_agg, values
    within tolerance of the exact quantiles, NULL groups preserved."""
    from paradedb_ray.pipelines.aggregate import (percentiles_agg,
                                                  percentiles_tdigest_agg)

    tbl = events_tbl.set_column(
        0, "event_type",
        pa.array([None if i % 7 == 0 else f"t{i % 4}"
                  for i in range(events_tbl.num_rows)]))
    ds = ray.data.from_arrow(tbl).repartition(6)
    exact = percentiles_agg(ds, ["event_type"], "value",
                            percents=[50.0, 95.0]).to_pandas()
    approx = percentiles_tdigest_agg(ds, ["event_type"], "value",
                                     percents=[50.0, 95.0]).to_pandas()
    assert sorted(exact.columns) == sorted(approx.columns)
    key = lambda df: df.sort_values("event_type", na_position="first")
    e, a = key(exact).reset_index(drop=True), key(approx).reset_index(drop=True)
    assert list(e["event_type"].fillna("~")) == list(a["event_type"].fillna("~"))
    span = events_tbl.column("value").to_pandas().max()
    for c in ("p50", "p95"):
        assert np.allclose(e[c], a[c], atol=0.05 * span), c


def test_tdigest_in_dsl(ray_session, events_tbl):
    """percentiles metric with method=tdigest inside pdb.agg."""
    from paradedb_ray.pipelines.aggregate import pdb_agg

    ds = ray.data.from_arrow(events_tbl)
    got = pdb_agg(ds, {"by_type": {
        "terms": {"field": "event_type", "size": 10},
        "aggs": {"q": {"percentiles": {
            "field": "value", "percents": [50.0],
            "method": "tdigest"}}}}}).to_pandas()
    assert "q_p50" in got.columns
    assert got["q_p50"].notna().all()
    med = np.median(events_tbl.column("value").to_numpy())
    assert np.allclose(got["q_p50"], med, atol=10.0)


def test_empty_aggregate_keeps_schema(ray_session, events_tbl):
    """`empty_aggregate.sql` (reference issue #2996): aggregates over an
    empty match set keep their column shape instead of Ray's schema-less
    empty frame."""
    from paradedb_ray.pipelines.aggregate import pdb_agg

    empty = ray.data.from_arrow(events_tbl.slice(0, 0))

    def shape(out):
        # Ray's to_pandas() drops columns on zero rows; the DATASET keeps
        # the restored schema — assert on that (it's what union/write
        # and further pipeline stages consume)
        return list(out.schema().names), out.count()

    # terms bucket + metric sub-agg
    out = pdb_agg(empty, {"t": {"terms": {"field": "event_type"},
                                "aggs": {"s": {"sum": {"field": "value"}}}}})
    assert shape(out) == (["event_type", "doc_count", "s"], 0)

    # histogram / date_histogram keep typed key columns
    out = pdb_agg(empty, {"h": {"histogram": {"field": "value",
                                              "interval": 10.0}}})
    assert shape(out) == (["h_key", "doc_count"], 0)
    sch = out.schema()
    assert sch.types[sch.names.index("h_key")] == pa.float64()
    out = pdb_agg(empty, {"d": {"date_histogram": {
        "field": "ts", "fixed_interval": "1d"}}})
    assert shape(out) == (["d_key", "doc_count"], 0)

    # nested bucket chain
    out = pdb_agg(empty, {"t": {
        "terms": {"field": "event_type"},
        "aggs": {"byday": {"date_histogram": {"field": "ts",
                                              "fixed_interval": "1d"},
                           "aggs": {"m": {"avg": {"field": "value"}}}}}}})
    assert shape(out) == (["event_type", "byday_key", "doc_count", "m"], 0)

    # bare metric over empty input stays a single row of nulls
    out = pdb_agg(empty, {"m": {"avg": {"field": "value"}}}).to_pandas()
    assert list(out.columns) == ["m"] and len(out) == 1


def test_bool_terms_agg(ray_session):
    """`agg-bool-terms.sql`: terms aggregation over a boolean field,
    NULL bools forming their own group."""
    from paradedb_ray.pipelines.aggregate import pdb_agg

    t = pa.table({
        "id": pa.array(range(7), pa.int64()),
        "has_attachment": pa.array(
            [True, False, True, True, False, False, None], pa.bool_()),
    })
    out = pdb_agg(ray.data.from_arrow(t),
                  {"a": {"terms": {"field": "has_attachment",
                                   "size": 10}}}).to_pandas()
    got = {(None if v is None or v is pd_NA(v) else bool(v)): int(c)
           for v, c in zip(out["has_attachment"], out["doc_count"])}
    assert got == {True: 3, False: 3, None: 1}


def pd_NA(v):
    import pandas as pd
    return v if v is pd.NA else object()
