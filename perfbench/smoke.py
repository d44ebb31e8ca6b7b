"""The benchmark's smoke test, at a tiny corpus (about three minutes).

    python3 perfbench/smoke.py

Run from the repository root.  Checks that each workload runs, that
every metric BENCHMARK.json names is reported (untraced and traced),
that a changed seed changes the inputs but not the metric names, that
an injected wrong result is counted as a failure, and that the
benchmark refuses to run outside a checkout of the repository.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
sys.path.insert(0, ROOT)
from perfbench.workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, trace: int, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "2",
           "--trace", str(trace), "--size", "smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if proc.returncode == 0
                             else None), lines


def input_fingerprint(workload: str, seed: int) -> str:
    """Digest of the generated inputs (no Ray needed)."""
    import hashlib

    from perfbench.tracing import Tracer

    work = os.path.join(ROOT, ".perfbench", f"smoke-inputs-{seed}")
    try:
        wl = WORKLOADS[workload](work, seed, 2, "smoke", Tracer(False))
        wl.make_inputs()
        h = hashlib.sha256()
        if workload == "batch":
            import pyarrow.dataset as pads

            h.update(repr(wl.terms).encode())
            h.update(pads.dataset(wl.path).to_table().to_string().encode())
        else:
            h.update(repr(wl.standing).encode())
            h.update(wl.epochs[0].to_string().encode())
        return h.hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []

    def check(cond: bool, what: str):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for wl in WORKLOADS:
        rc, res, lines = bench(wl, 1, 0)
        check(rc == 0 and res["correct"] and res["failed"] == 0
              and res["attempted"] >= 1, f"{wl}: runs and is correct")
        check(rc == 0 and set(res["metrics"]) == e2e,
              f"{wl}: every end-to-end metric is reported")
        check(any("failed_frac" in ln for ln in lines),
              f"{wl}: failed_frac is printed")
        rc2, res2, _ = bench(wl, 2, 1)
        check(rc2 == 0 and set(res2["metrics"]) == layers,
              f"{wl}: every per-layer metric is reported (seed 2, traced)")
        check(input_fingerprint(wl, 1) != input_fingerprint(wl, 2),
              f"{wl}: a changed seed changes the inputs")
        rc3, res3, _ = bench(wl, 1, 0, "--inject-wrong")
        check(rc3 == 0 and res3["failed"] > 0 and not res3["correct"],
              f"{wl}: an injected wrong result counts as failed")

    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch",
             "--seed", "1", "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run without the repository")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("smoke: " + ("PASS" if not problems else
                       f"{len(problems)} FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
