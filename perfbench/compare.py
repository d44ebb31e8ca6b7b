"""Compare two sets of benchmark runs, one row per workload x metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one JSON file per run: either the file written by
``run.py --out`` or the JSON last line ``run.py`` prints, saved as
``<workload>-<anything>.json``.  Runs pair by seed when both sides ran
the same seeds, otherwise in file-name order.  The verdict follows the
rule for a small sandbox: "improved" needs the change to win at least
nine tenths of all pairs (ties count for neither) and the medians to
differ by more than the parent's own quartile spread; a metric whose
parent spread is wider than its bound is "unresolved" unless every
change run beats every parent run; otherwise the change is "worse" when
its median is worse than the parent's by more than the bound, else
"no worse".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
from perfbench.workloads import WORKLOADS  # noqa: E402


def load_runs(directory: str) -> dict:
    """workload -> list of (seed, {metric: value}), in file-name order."""
    runs: dict = {}
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(directory, fname)) as f:
            doc = json.load(f)
        wl = doc.get("workload") or next(
            (w for w in WORKLOADS if fname.startswith(w)), None)
        if wl is None or doc.get("trace"):
            continue
        if "e2e" in doc:
            values = doc["e2e"]
        else:
            values = {k: v["value"] for k, v in doc["metrics"].items()}
        runs.setdefault(wl, []).append((doc.get("seed", fname), values))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a: list, b: list) -> list:
    seeds_a = {s for s, _ in a}
    if seeds_a == {s for s, _ in b}:
        bb = dict(b)
        return [(va, bb[s]) for s, va in a]
    return list(zip([v for _, v in a], [v for _, v in b]))


def verdict(a: list, b: list, paired: list, bound: float,
            higher: bool) -> tuple:
    sign = 1.0 if higher else -1.0
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    wins = sum(sign * (y - x) > 0 for x, y in paired)
    share = wins / len(paired) if paired else 0.0
    spread_a = (q3a - q1a) / abs(med_a) if med_a else float("inf")
    gain = sign * (med_b - med_a)
    if share >= 0.9 and gain > (q3a - q1a):
        return "improved", share
    if spread_a > bound:
        best_a = max(a) if higher else min(a)
        beats_all = all(sign * (y - best_a) > 0 for y in b)
        return ("no worse" if beats_all else "unresolved"), share
    if -gain > bound * abs(med_a):
        return "worse", share
    return "no worse", share


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=os.path.join(HERE, "..",
                                                   "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    head = (f"{'workload':<13} {'metric':<15} {'parent q1/med/q3':>30} "
            f"{'change q1/med/q3':>30} {'won':>5}  verdict")
    print(head)
    print("-" * len(head))
    for wl in WORKLOADS:
        if wl not in a_runs or wl not in b_runs:
            continue
        paired_runs = pairs(a_runs[wl], b_runs[wl])
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [v[name] for _, v in a_runs[wl]]
            b = [v[name] for _, v in b_runs[wl]]
            paired = [(x[name], y[name]) for x, y in paired_runs]
            word, share = verdict(a, b, paired, m["bound"],
                                  m["better"] == "higher")
            fa = "/".join(f"{x:.4g}" for x in quartiles(a))
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            print(f"{wl:<13} {name:<15} {fa:>30} {fb:>30} "
                  f"{share:>5.0%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
