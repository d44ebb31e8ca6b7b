"""Benchmark entry point: one workload, one closed-loop client.

    python3 perfbench/run.py --workload {batch,stream_mixed} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Inputs are generated from ``--seed``
(excluded from every metric); set-up runs three times and reports the
median; the closed loop then runs for ``--seconds`` (``stream_mixed``: a
fixed count of epochs set by ``--seconds``); outputs are checked against
an independent reference after the loop.  The last stdout line is
one JSON object: ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics (spans and the
per-layer table go to ``.perfbench/traces/``).  Lines before it name
every workload-specific metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict

SETUP_REPS = 3
#: an operation still running after this is interrupted and counts as
#: failed (timed out)
OP_TIMEOUT_S = 60
#: Ray's unix-socket paths must fit in 107 bytes below the temp dir
MAX_RAY_TMP_LEN = 40
OBJECT_STORE_BYTES = 256 * 1024 * 1024


def _descendants(root_pid: int) -> list:
    """``root_pid`` and every process below it (the driver, the Ray
    daemons it started, and their workers), read from /proc."""
    children = defaultdict(list)
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rfind(")") + 2:].split()[1])
        children[ppid].append(int(d))
    out, stack = [], [root_pid]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, ()))
    return out


def _tree_rss_bytes(root_pid: int) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in _descendants(root_pid):
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except OSError:
            pass
    return total


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def _wait_ended(pids: list, timeout_s: float = 20.0) -> None:
    """Wait until every process in ``pids`` has exited; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass


class RssSampler(threading.Thread):
    def __init__(self, period_s: float = 0.25):
        super().__init__(daemon=True)
        self.period_s = period_s
        self.active = False
        self.peak = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.period_s):
            if self.active:
                self.peak = max(self.peak, _tree_rss_bytes(os.getpid()))

    def stop(self):
        self._halt.set()
        self.join(timeout=5)


def _ray_tmp(root: str) -> str:
    tmp = os.path.join(root, ".perfbench", "ray")
    if len(tmp) <= MAX_RAY_TMP_LEN:
        os.makedirs(tmp, exist_ok=True)
        return tmp
    return tempfile.mkdtemp(prefix="pb-ray-")


def start_ray(tmp: str) -> None:
    import logging

    import ray
    import ray.data

    from perfbench.workloads import NPROC

    # address="local": always a fresh cluster of our own, never one
    # already running on the machine
    ray.init(address="local", num_cpus=NPROC, include_dashboard=False,
             log_to_driver=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=tmp,
             # keep idle workers: with one CPU, Ray otherwise kills a worker
             # idle for 1 s and the next pass that needs a second one pays
             # a process start and imports (~0.8 s) at random
             _system_config={"idle_worker_killing_time_threshold_ms":
                             3_600_000})
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    """``ray.shutdown()``, then wait until every process it ran has ended."""
    import ray

    started = [p for p in _descendants(os.getpid()) if p != os.getpid()]
    ray.shutdown()
    _wait_ended(started)


TIMED_OUT = threading.Event()


def _on_alarm(signum, frame):
    # Ray's blocking calls turn only a KeyboardInterrupt into an interrupt
    TIMED_OUT.set()
    raise KeyboardInterrupt(f"operation still running after {OP_TIMEOUT_S} s")


def _median(values):
    import numpy as np

    return float(np.median(values))


def run(args, root: str) -> dict:
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, percentile

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer(args.trace == 1)
    work = os.path.join(root, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tmp = _ray_tmp(root)
    wl = WORKLOADS[args.workload](work, args.seed, args.seconds, args.size,
                                  tracer, inject_wrong=args.inject_wrong)
    rss = RssSampler()
    rss.start()
    phases = {}
    t_start = time.monotonic()
    try:
        wl.make_inputs()
        phases["inputs_s"] = time.monotonic() - t_start
        setups, setup_oks, ray_start_s = [], [], 0.0
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            rss.active = last
            t0 = time.monotonic()
            if rep == 0 or wl.restart_ray_each_setup:
                start_ray(tmp)
                ray_start_s = time.monotonic() - t0
            t1 = time.monotonic()
            setup_oks.extend(wl.setup())
            setups.append(ray_start_s + time.monotonic() - t1)
            if not last:
                wl.teardown()
                if wl.restart_ray_each_setup:
                    stop_ray()

        phases["setup_reps_s"] = time.monotonic() - t_start - phases["inputs_s"]
        wl.wrap_layers()
        tracer.spans.clear()
        tracer.counts.clear()
        records = []
        w0 = time.monotonic()
        deadline = w0 + args.seconds * wl.TIME_CAP
        while (not records or time.monotonic() < deadline) and wl.has_more():
            tracer.op = len(records)
            t0 = time.monotonic()
            signal.alarm(OP_TIMEOUT_S)
            try:
                recs = wl.step()
            except (Exception, KeyboardInterrupt) as exc:
                if (isinstance(exc, KeyboardInterrupt)
                        and not TIMED_OUT.is_set()):
                    raise
                # the operation failed or timed out; the run reports it
                traceback.print_exc(file=sys.stderr)
                records.append({"latency_s": time.monotonic() - t0,
                                "ok": False, "error": True})
                break
            finally:
                signal.alarm(0)
            records.extend(recs)
        window = time.monotonic() - w0
        rss.active = False
        covered = tracer.top_level_cover(w0, w0 + window)
        tracer.unwrap_all()
        done = [r for r in records if not r.get("error")]
        t_check = time.monotonic()
        wl.finish(done)
        phases["check_s"] = time.monotonic() - t_check
        # checked set-up operations count as attempted operations too
        attempted = len(records) + len(setup_oks)
        failed = (sum(not r["ok"] for r in records)
                  + sum(not ok for ok in setup_oks))

        lat = [r["latency_s"] * 1e3 for r in done] or [0.0]
        e2e = {"setup_s": _median(setups),
               "ops_per_s": len(done) / window,
               "latency_p50_ms": percentile(lat, 50),
               "peak_rss_mb": rss.peak / 2 ** 20}
        details = wl.details(done, window) if done else {}
        layers = {}
        if tracer.enabled:
            layers = wl.layers(done)
            layers["unattributed_s"] = window - covered
            layers["trace.coverage"] = covered / window
            tdir = os.path.join(root, ".perfbench", "traces")
            os.makedirs(tdir, exist_ok=True)
            stem = os.path.join(tdir, f"{args.workload}-seed{args.seed}")
            tracer.write(stem + ".spans.jsonl")
            with open(stem + ".layers.json", "w") as f:
                json.dump({"layers": tracer.layer_table(),
                           "metrics": layers}, f, indent=1, sort_keys=True)
        return {"attempted": attempted, "failed": failed,
                "window_s": window, "setup_reps_s": setups, "phases": phases,
                "e2e": e2e, "details": details, "layers": layers,
                "latencies_ms": lat}
    finally:
        rss.stop()
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="input sizes; smoke is for the smoke test")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one top-k score before it is checked")
    ap.add_argument("--out", help="also write the full result as JSON")
    args = ap.parse_args(argv)
    # a terminated run still stops the Ray processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "paradedb_ray", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("run from the repository root: paradedb_ray/ and "
              "BENCHMARK.json are required", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, root)
    # Ray workers import paradedb_ray and the benchmark's UDFs from here
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    res = run(args, root)
    print(f"{args.workload} run phases: " + ", ".join(
        f"{k} {v:.2f}" for k, v in res["phases"].items())
        + ", set-up reps " + ", ".join(f"{v:.2f}" for v in res["setup_reps_s"]))
    for name, (value, unit, n) in sorted(res["details"].items()):
        print(f"{args.workload} {name} = {value:.6g} {unit} (samples {n})")
    attempted = res["attempted"]
    print(f"{args.workload} failed_frac = "
          f"{res['failed'] / max(1, attempted):.6g} "
          f"({res['failed']}/{attempted} operations)")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a layer the workload never calls did no work on it
    values = ({**{m["name"]: 0.0 for m in declared}, **res["layers"]}
              if args.trace else res["e2e"])
    if args.trace:
        for name, value in sorted(res["e2e"].items()):
            print(f"{args.workload} traced {name} = {value:.6g}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(res, workload=args.workload, seed=args.seed,
                           trace=args.trace), f, indent=1, default=str)
    print(json.dumps({"correct": attempted >= 1 and res["failed"] == 0,
                      "attempted": attempted, "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
