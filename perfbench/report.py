"""One command for every metric: runs each workload untraced and traced.

    python3 perfbench/report.py [--seed N]

Run from the repository root.  Every run lasts BENCHMARK.json's
``run_seconds``.  For each workload it prints every end-to-end metric
with its unit, the workload's own metrics with the sample count behind
each percentile, the failed share, the per-layer metrics of the traced
run, and the tracing overhead (traced end-to-end value minus the
untraced one).  The traced run's span file and per-layer
table are written under ``.perfbench/traces/``; both runs' full results
go to ``.perfbench/report/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.getcwd())
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int,
             out: str) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace} failed "
                         f"(exit {proc.returncode})")
    with open(out) as f:
        return json.load(f)


def main(argv=None) -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    out_dir = os.path.join(".perfbench", "report")
    os.makedirs(out_dir, exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for wl in WORKLOADS:
        plain = run_once(wl, args.seed, seconds, 0,
                         os.path.join(out_dir, f"{wl}-trace0.json"))
        traced = run_once(wl, args.seed, seconds, 1,
                          os.path.join(out_dir, f"{wl}-trace1.json"))
        n_ops = plain["attempted"]
        n_timed = len(plain["latencies_ms"])
        print(f"== {wl}  (seed {args.seed}, {plain['window_s']:.1f} s "
              f"measured, {n_timed} timed operations)")
        for name, value in plain["e2e"].items():
            samples = (f"  (samples {len(plain['setup_reps_s'])})"
                       if name == "setup_s" else
                       f"  (samples {n_timed})" if "latency" in name else "")
            print(f"  {name:<30} {value:>14.6g} {units[name]}{samples}")
        for name, (value, unit, n) in sorted(plain["details"].items()):
            print(f"  {name:<30} {value:>14.6g} {unit}  (samples {n})")
        print(f"  {'failed_frac':<30} "
              f"{plain['failed'] / max(1, n_ops):>14.6g}  "
              f"({plain['failed']}/{n_ops})")
        print("  -- per layer (traced run)")
        for name, value in sorted(traced["layers"].items()):
            print(f"  {name:<30} {value:>14.6g} {units.get(name, '')}")
        print("  -- tracing overhead (traced - untraced)")
        for name, value in plain["e2e"].items():
            delta = traced["e2e"][name] - value
            share = delta / value if value else 0.0
            print(f"  {name:<30} {delta:>+14.6g} {units[name]} "
                  f"({share:+.1%})")
        stem = os.path.join(".perfbench", "traces", f"{wl}-seed{args.seed}")
        print(f"  spans: {stem}.spans.jsonl  table: {stem}.layers.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
