"""Driver-mimicking correctness check: run every queries() entry at a given
sf and compare against oracle_sql() via DuckDB (row count + schema +
order-insensitive value hash).  Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
    python tools/check_correctness.py --chunked [N] [sf_dir]

``--chunked`` runs the entries in chunks of N (default 20) in SEPARATE
subprocesses (fresh Ray session each), retrying a chunk once if the
process dies — Ray 2.49's cancel-vs-completion race (task_manager.cc
check failure) can abort a long single session at tiny SFs, and chunking
bounds the blast radius to one chunk.  The default single-session mode
mirrors the driver exactly.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# this checkout's package and __ray_entry__, whoever loads the tool
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, pd.DataFrame):
        return obj
    raise TypeError(type(obj))


def canon(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df):
    import pandas as pd
    from pandas.util import hash_pandas_object

    return int(hash_pandas_object(canon(df), index=False).sum())


def chunked_main(argv):
    import re
    import subprocess

    n = 20
    rest = []
    it = iter(argv)
    for a in it:
        if a.isdigit():
            n = int(a)
        else:
            rest.append(a)
    sf = rest[0] if rest else "/root/testdata/sf0.01"
    import __ray_entry__ as entrymod

    names = list(entrymod.queries().keys())
    tot_ok = tot_fail = tot_rows = 0
    for i in range(0, len(names), n):
        chunk = names[i:i + n]
        for attempt in (1, 2):
            p = subprocess.run(
                [sys.executable, __file__, sf, *chunk],
                capture_output=True, text=True, timeout=1800)
            m = re.search(r"(\d+) ok, (\d+) fail, (\d+) rows-only",
                          p.stdout)
            if m:
                print(p.stdout[:p.stdout.rfind("\n\n")])
                tot_ok += int(m.group(1))
                tot_fail += int(m.group(2))
                tot_rows += int(m.group(3))
                break
            print(f"chunk {i//n} attempt {attempt} CRASHED "
                  f"(rc={p.returncode}); tail:\n" +
                  "\n".join(p.stdout.splitlines()[-3:]))
        else:
            tot_fail += len(chunk)
    print(f"\nTOTAL: {tot_ok} ok, {tot_fail} fail, {tot_rows} rows-only")
    return 1 if tot_fail else 0


def main():
    import duckdb
    import ray

    argv = sys.argv[1:]
    if argv and argv[0] == "--chunked":
        return chunked_main(argv[1:])
    sf = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")

    n_pass = n_fail = n_rowsonly = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        el = time.time() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"rows  {name}: {len(got)} rows ({el:.1f}s) [no oracle]")
            n_rowsonly += 1
            continue
        try:
            exp = con.sql(sql).df()
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(map(str.lower, got.columns)) != sorted(map(str.lower, exp.columns)):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        if not problems:
            # The driver's compare is the canon'd value hash, bit-exact —
            # int64 vs float64 with identical values MUST fail here too
            # (the lenient check_dtype=False compare masked json_agg in r2).
            if value_hash(got) != value_hash(exp):
                g, e_ = canon(got), canon(exp)
                e_.columns = g.columns
                dt_g = [str(t) for t in g.dtypes]
                dt_e = [str(t) for t in e_.dtypes]
                if dt_g != dt_e:
                    detail = f"dtypes {dt_g} != {dt_e}"
                else:
                    try:
                        import pandas.testing as pt

                        pt.assert_frame_equal(g, e_, check_exact=True)
                        detail = "hash differs but frames compare equal"
                    except AssertionError as err:
                        detail = str(err).split("\n")[0]
                problems.append("value-hash mismatch: " + detail)
        if problems:
            print(f"FAIL  {name}: {'; '.join(problems)} ({el:.1f}s)")
            if len(got) and not only:
                pass
            n_fail += 1
        else:
            print(f"ok    {name}: {len(got)} rows ({el:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} ok, {n_fail} fail, {n_rowsonly} rows-only")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
