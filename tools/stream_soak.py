"""Streaming scale soak: N transcript turns through the sharded BM25
stream engine in E epochs with checkpoints + sessions-sink compaction.

Reports per-epoch ingest wall time (flat per-turn cost is the invariant),
end-to-end throughput, and the read_sessions cost AFTER compaction —
asserting that the sessions read touches only the bounded snapshot
(16 hash shards) plus an un-folded tail that the log-structured fold
trigger bounds: right after the last checkpoint tick the tail holds
fewer rows than the snapshot and fewer bytes than the first merge-ladder
rung, and at most checkpoint_every - 1 epoch files arrived since —
never the full emission history (VERDICT r2 #6).

Usage: RAY_GRAFT_CPUS=32 python tools/stream_soak.py [n_turns] [n_epochs]
"""

import os
import shutil
import sys
import time

import json

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from paradedb_ray.query import builders as pdb  # noqa: E402
from paradedb_ray.schema import transcripts_schema  # noqa: E402
from paradedb_ray.streaming import (  # noqa: E402
    EpochRunner,
    StreamConfig,
    StreamEngine,
)
from paradedb_ray.streaming.merge_policy import DEFAULT_LAYER_SIZES  # noqa: E402
from paradedb_ray.testing.transcripts import transcripts_path  # noqa: E402

CHECKPOINT_EVERY = 4


def main(n_turns: int, n_epochs: int):
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False)
    t = pads.dataset(transcripts_path(n_turns)).to_table()
    idx = pa.compute.sort_indices(t, sort_keys=[("ts", "ascending")])
    t = t.take(idx)
    n = t.num_rows

    sink = "/tmp/paradedb_ray_soak/stream_sink"
    ckpt = "/tmp/paradedb_ray_soak/ckpt"
    shutil.rmtree("/tmp/paradedb_ray_soak", ignore_errors=True)
    eng = StreamEngine(
        transcripts_schema(),
        StreamConfig(num_partitions=max(4, num_cpus // 2),
                     mutable_rows=10000),
        checkpoint_dir=ckpt)
    eng.warm()
    try:
        r = EpochRunner(eng, sink, {"q": pdb.term("text", "merge")},
                        topk=10, columns=["conv_id", "turn_idx", "score"],
                        checkpoint_every=CHECKPOINT_EVERY)
        epochs = [t.slice(i * n // n_epochs, n // n_epochs)
                  for i in range(n_epochs - 1)]
        epochs.append(t.slice((n_epochs - 1) * (n // n_epochs)))
        t0 = time.perf_counter()
        per = []
        for i, ep in enumerate(epochs):
            e0 = time.perf_counter()
            r.run_epoch(i, ep)
            per.append(time.perf_counter() - e0)
        wall = time.perf_counter() - t0
        print(f"turns={n} epochs={n_epochs} wall={wall:.1f}s "
              f"throughput={n / wall:,.0f} turns/s")
        print("per-epoch s: "
              + " ".join(f"{x:.1f}" for x in per))

        # --- compaction invariant: bounded sessions read -----------------
        sdir = os.path.join(sink, "sessions")
        epoch_files = [f for f in os.listdir(sdir)
                       if f.startswith("epoch=")]
        shards = os.listdir(os.path.join(sdir, "compact"))
        print(f"sessions dir: {len(shards)} compact shards + "
              f"{len(epoch_files)} uncompacted epoch files "
              f"(emitted over {n_epochs} epochs)")
        # the tail as the last checkpoint tick left it: files no newer
        # than the tick (no fold can have run since)
        tick = (n_epochs - 1) // CHECKPOINT_EVERY * CHECKPOINT_EVERY
        at_tick = [f for f in epoch_files if int(f[6:-8]) <= tick]
        tail_rows = sum(pq.read_metadata(os.path.join(sdir, f)).num_rows
                        for f in at_tick)
        tail_bytes = sum(os.path.getsize(os.path.join(sdir, f))
                         for f in at_tick)
        snap_rows = sum(
            pq.read_metadata(os.path.join(sdir, "compact", f)).num_rows
            for f in shards)
        with open(os.path.join(sink, "metrics",
                               f"epoch={tick:06d}.json")) as f:
            m = json.load(f)
        print(f"after tick {tick}: tail {tail_rows} rows / {tail_bytes} B, "
              f"snapshot {snap_rows} rows, folded={m['sessions_folded']}")
        assert (m["sessions_tail_rows"], m["sessions_snapshot_rows"]) \
            == (tail_rows, snap_rows), m
        assert tail_rows < snap_rows, (tail_rows, snap_rows)
        assert tail_bytes < DEFAULT_LAYER_SIZES[0], tail_bytes
        assert len(epoch_files) - len(at_tick) <= CHECKPOINT_EVERY - 1, \
            epoch_files
        s0 = time.perf_counter()
        sess = r.read_sessions()
        s_dt = time.perf_counter() - s0
        print(f"read_sessions: {sess.num_rows} closed sessions "
              f"in {s_dt:.2f}s from {len(shards) + len(epoch_files)} files")
        assert sess.num_rows > 0
        # distributed twin: per-shard fold TASKS, no driver-side concat
        # (VERDICT r4 #2) — must see the same row count
        d0 = time.perf_counter()
        n_ds = r.read_sessions_dataset().count()
        d_dt = time.perf_counter() - d0
        print(f"read_sessions_dataset: {n_ds} rows in {d_dt:.2f}s "
              f"(distributed per-shard fold)")
        assert n_ds == sess.num_rows
        print("stream soak OK: compacted read is bounded")
    finally:
        eng.shutdown()
        ray.shutdown()


if __name__ == "__main__":
    n_turns = int(sys.argv[1]) if len(sys.argv) > 1 else 8_000_000
    n_epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    main(n_turns, n_epochs)
