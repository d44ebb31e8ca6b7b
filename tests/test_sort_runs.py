"""The sorted-run kernel (`stages/hash_agg.py::sort_runs` / `row_changes` /
`run_offsets`) against a Python tuple oracle — NULL = NULL, NaN = NaN,
NaN != NULL, -0.0 = 0.0 — and the guard that every sorted per-key
reducer takes its runs from it."""

import datetime as dt
import decimal
import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from paradedb_ray.stages.hash_agg import row_changes, run_offsets, sort_runs

PKG = pathlib.Path(__file__).resolve().parents[1] / "paradedb_ray"

#: one value pool per key type, NULL in each
POOLS = {
    "s": (pa.string(), ["a", "b", "", None]),
    "i": (pa.int64(), [1, 2, -1, None]),
    "f": (pa.float64(), [float("nan"), -0.0, 0.0, 1.5, None]),
    "ts": (pa.timestamp("us"), [dt.datetime(2020, 1, 1),
                                dt.datetime(2020, 1, 2), None]),
    "b": (pa.bool_(), [True, False, None]),
    "d": (pa.decimal128(5, 2), [decimal.Decimal("1.10"),
                                decimal.Decimal("2.00"), None]),
}


def table(rng: np.random.RandomState, n: int) -> pa.Table:
    cols = {c: pa.array([pool[i] for i in rng.randint(0, len(pool), n)],
                        typ) for c, (typ, pool) in POOLS.items()}
    cols["o"] = pa.array(rng.randint(0, 4, n).astype(np.int64))
    cols["rid"] = pa.array(np.arange(n, dtype=np.int64))
    return pa.table(cols)


def token(v):
    """A key cell's identity: NULL and NaN apart, -0.0 = 0.0."""
    if v is None:
        return ("null",)
    if isinstance(v, float) and v != v:
        return ("nan",)
    return ("v", v)


def rank(v):
    """Ascending sort position: values, then NaN, then NULL."""
    if v is None:
        return (2,)
    if isinstance(v, float) and v != v:
        return (1,)
    return (0, v)


def oracle_changes(rows: list, keys: list) -> list:
    return [i == 0 or any(token(rows[i][k]) != token(rows[i - 1][k])
                          for k in keys) for i in range(len(rows))]


KEY_SETS = [[k] for k in POOLS] + [list(POOLS)]


@pytest.mark.parametrize("n", [0, 1, 2, 200])
@pytest.mark.parametrize("keys", KEY_SETS, ids="+".join)
def test_sort_runs_vs_tuple_oracle(keys, n):
    t = table(np.random.RandomState(n), n)
    rows = t.to_pylist()
    # stable: keys ascending, then o descending, then input order
    want = sorted(rows, key=lambda r: (tuple(rank(r[k]) for k in keys),
                                       -r["o"]))
    got, start = sort_runs(t, keys, [("o", "descending")])
    assert got.column("rid").to_pylist() == [r["rid"] for r in want]
    assert start.dtype == bool
    assert start.tolist() == oracle_changes(want, keys)


@pytest.mark.parametrize("n", [0, 1, 200])
@pytest.mark.parametrize("keys", KEY_SETS, ids="+".join)
def test_row_changes_unsorted_vs_tuple_oracle(keys, n):
    """Adjacency alone, on rows in input order."""
    t = table(np.random.RandomState(100 + n), n)
    assert row_changes(t, keys).tolist() == oracle_changes(t.to_pylist(),
                                                           keys)


def test_nan_null_zero_runs():
    t = pa.table({"f": pa.array([float("nan"), None, float("nan"), None,
                                 -0.0, 0.0, 1.5], pa.float64())})
    got, start = sort_runs(t, ["f"])
    assert [token(v) for v in got.column("f").to_pylist()] == [
        ("v", 0.0), ("v", 0.0), ("v", 1.5), ("nan",), ("nan",),
        ("null",), ("null",)]
    assert start.tolist() == [True, False, True, True, False, True, False]
    assert run_offsets(start).tolist() == [0, 1, 0, 0, 1, 0, 1]


def test_run_offsets():
    start = np.array([True, False, False, True, True, False])
    assert run_offsets(start).tolist() == [0, 1, 2, 0, 0, 1]
    assert run_offsets(np.zeros(0, bool)).tolist() == []


#: a per-key run derived outside the kernel: factorize codes, an int64
#: composite key code, a hand-rolled adjacency mask
_OWN_RUNS = re.compile(
    r"\bfactorize\(|int\(\w+\.max\(\)\) \+ 1|\[1:\]\s*!=\s*\w+\[:-1\]")


def test_one_run_kernel_guard():
    assert len(_OWN_RUNS.findall(
        "ck, _ = pd.factorize(x)\n"
        "c = c * (int(ck.max()) + 1) + ck\n"
        "new = np.r_[True, c[1:] != c[:-1]]\n")) == 3
    files = sorted((PKG / "pipelines").glob("*.py")) + [
        PKG / "streaming" / "engine.py"]
    offenders = [
        f"{p.relative_to(PKG.parent)}:{i}"
        for p in files
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if _OWN_RUNS.search(line)]
    assert offenders == [], (
        "take per-key runs from stages.hash_agg.sort_runs / row_changes: "
        f"{offenders}")
