"""Two-stage hash aggregate (stages/hash_agg.py) vs a pandas oracle:
random multi-block inputs with NULL keys/values, every agg kind grouped
and ungrouped, and the distinct-count path; plus the guard that keeps
Ray's native aggregates out of the package."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


def _mk(rng, n, null_keys=True):
    keys = rng.choice(["a", "b", "c", None] if null_keys else ["a", "b", "c"],
                      n).tolist()
    k2 = rng.randint(0, 3, n)
    vals = rng.randint(0, 100, n).astype(float)
    vals[rng.rand(n) < 0.15] = np.nan
    t = pa.table({
        "k": pa.array(keys, pa.string()),
        "k2": pa.array(k2, pa.int64()),
        "v": pa.array([None if np.isnan(x) else float(x) for x in vals],
                      pa.float64()),
        "w": pa.array(rng.randint(0, 10, n), pa.int64()),
    })
    return ray.data.from_arrow(t).repartition(7)


@pytest.mark.parametrize("seed,keys", [
    (0, ["k", "k2"]), (1, ["k", "k2"]), (2, ["k", "k2"]), (3, []), (4, [])],
    ids=["0", "1", "2", "ungrouped-3", "ungrouped-4"])
def test_hash_group_aggregate_matches_pandas(ray_session, seed, keys):
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    rng = np.random.RandomState(seed)
    ds = _mk(rng, 500)
    out = hash_group_aggregate(ds, keys, {
        "n": ("count_star", None),
        "nv": ("count", "v"),
        "s": ("sum", "v"),
        "m": ("avg", "v"),
        "lo": ("min", "v"),
        "hi": ("max", "w"),
        "card": ("cardinality", "v"),
    }).to_pandas()

    df = ds.to_pandas()
    if not keys:
        # the scalar aggregate is the GROUP BY over one constant key
        assert list(out.columns) == ["n", "nv", "s", "m", "lo", "hi", "card"]
        assert len(out) == 1
        out = out.assign(k=None, k2=0)
        df = df.assign(k=None, k2=0)
    exp = df.groupby(["k", "k2"], dropna=False).agg(
        n=("k2", "size"), nv=("v", "count"), s=("v", "sum"),
        m=("v", "mean"), lo=("v", "min"), hi=("w", "max"),
        card=("v", "nunique")).reset_index()

    key = lambda d: d.sort_values(["k", "k2"], na_position="last").reset_index(drop=True)
    got, exp = key(out), key(exp)
    assert len(got) == len(exp)
    assert got["k"].fillna("~").tolist() == exp["k"].fillna("~").tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    assert got["nv"].tolist() == exp["nv"].tolist()
    # all-null groups: pandas sum() gives 0.0, ours NULL (SQL) — compare
    # only groups with values for sum/mean
    has = exp["nv"] > 0
    assert np.allclose(got.loc[has, "s"], exp.loc[has, "s"])
    assert np.allclose(got.loc[has, "m"], exp.loc[has, "m"])
    assert np.allclose(got.loc[has, "lo"], exp.loc[has, "lo"])
    assert got["hi"].tolist() == exp["hi"].tolist()
    assert got.loc[~has, "s"].isna().all()
    assert got.loc[~has, "m"].isna().all()
    # COUNT(DISTINCT v) skips NULLs: an all-NULL group counts 0
    assert got["card"].tolist() == exp["card"].tolist()


@pytest.mark.parametrize("grouped", [True, False])
def test_hash_distinct_count_matches_pandas(ray_session, grouped):
    from paradedb_ray.stages.hash_agg import hash_distinct_count

    rng = np.random.RandomState(5)
    ds = _mk(rng, 400)
    keys = ["k"] if grouped else []
    out = hash_distinct_count(ds, keys, "w", "card").to_pandas()
    df = ds.to_pandas()
    if grouped:
        exp = df.groupby("k", dropna=False)["w"].nunique().reset_index(
            name="card")
        got = out.sort_values("k", na_position="last").reset_index(drop=True)
        exp = exp.sort_values("k", na_position="last").reset_index(drop=True)
        assert got["card"].tolist() == exp["card"].tolist()
    else:
        assert out["card"].tolist() == [df["w"].nunique()]


def test_hash_distinct_count_excludes_null_values(ray_session):
    from paradedb_ray.stages.hash_agg import hash_distinct_count

    t = pa.table({"k": ["a", "a", "b", "b"],
                  "v": pa.array([1, None, None, None], pa.int64())})
    ds = ray.data.from_arrow(t).repartition(2)
    out = hash_distinct_count(ds, ["k"], "v", "card").to_pandas()
    got = dict(zip(out["k"], out["card"]))
    # SQL COUNT(DISTINCT v): NULLs never count; all-null groups report 0
    assert got == {"a": 1, "b": 0}
    out = hash_distinct_count(ds, [], "v", "card").to_pandas()
    assert out["card"].tolist() == [1]


def test_empty_input_scalar_and_grouped_shapes(ray_session):
    """Over zero rows the scalar aggregate is one SQL row (counts 0, the
    rest NULL, MIN/MAX typed as their column) and the grouped one is a
    typed zero-row table; a schema-less input gets SQL's default types."""
    from paradedb_ray.stages.blocks import collect_table
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    aggs = {"n": ("count_star", None), "c": ("cardinality", "v"),
            "s": ("sum", "v"), "hi": ("max", "v"), "m": ("avg", "v")}
    typed = pa.table({"k": pa.array([], pa.int32()),
                      "v": pa.array([], pa.int32())})
    schemaless = ray.data.from_items([{"k": 1, "v": 1}]).filter(
        lambda r: False)
    for ds, kt, vt in ((ray.data.from_arrow(typed), pa.int32(), pa.int32()),
                       (schemaless, pa.string(), pa.float64())):
        one = collect_table(hash_group_aggregate(ds, [], aggs))
        assert one.to_pylist() == [
            {"n": 0, "c": 0, "s": None, "hi": None, "m": None}]
        assert one.schema.field("hi").type == vt
        grouped = collect_table(hash_group_aggregate(ds, ["k"], aggs))
        assert grouped.num_rows == 0
        assert grouped.column_names == ["k", "n", "c", "s", "hi", "m"]
        assert grouped.schema.field("k").type == kt


def test_nullable_int_key_groups_meet_across_blocks(ray_session):
    """An integer key with NULLs in one block and none in the other:
    every key still reaches ONE reducer, so each group is one row."""
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    keys = list(range(20))
    with_null = pa.table({"k": pa.array(keys + [None], pa.int64())})
    without = pa.table({"k": pa.array(keys, pa.int64())})
    out = hash_group_aggregate(
        ray.data.from_arrow([with_null, without]), ["k"],
        {"n": ("count_star", None)}, num_partitions=4).to_pandas()
    got = sorted(zip(out["k"].fillna(-1).astype(int), out["n"]))
    assert got == [(-1, 1)] + [(k, 2) for k in keys]


def test_distinct_is_the_aggregate_without_aggregates(ray_session):
    from paradedb_ray.pipelines.relational import distinct

    rng = np.random.RandomState(7)
    ds = _mk(rng, 300)
    got = distinct(ds, ["k", "k2"]).to_pandas()
    exp = ds.to_pandas()[["k", "k2"]].drop_duplicates()
    assert list(got.columns) == ["k", "k2"]
    norm = lambda d: sorted(zip(d["k"].fillna("~"), d["k2"]))
    assert norm(got) == norm(exp)


def _native_aggregate_imports(src: str) -> list:
    """Lines importing ``ray.data.aggregate`` (Ray's native aggregate
    functions) in any form."""
    out = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Import):
            bad = any(a.name.startswith("ray.data.aggregate")
                      for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            bad = (mod.startswith("ray.data.aggregate")
                   or (mod == "ray.data"
                       and any(a.name == "aggregate" for a in node.names)))
        else:
            continue
        if bad:
            out.append(node.lineno)
    return out


def test_no_native_aggregate_guard():
    """Every aggregate runs through ``hash_group_aggregate``: nothing in
    the package imports Ray's native aggregate functions."""
    assert _native_aggregate_imports(
        "import ray.data\n"
        "from ray.data.aggregate import Count, Sum\n"
        "import ray.data.aggregate as agg\n"
        "from ray.data import aggregate\n"
        "from ray.data import Dataset\n") == [2, 3, 4]
    pkg = pathlib.Path(__file__).resolve().parents[1] / "paradedb_ray"
    offenders = [f"{p.relative_to(pkg.parent)}:{line}"
                 for p in sorted(pkg.rglob("*.py"))
                 for line in _native_aggregate_imports(p.read_text())]
    assert offenders == [], (
        "aggregate through stages.hash_agg.hash_group_aggregate, not "
        f"ray.data.aggregate: {offenders}")
