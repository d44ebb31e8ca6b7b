"""Packet-path block-count microbench (BASELINE.md, round-4).

Times the single-scan ``search_topk`` over the sf0.1 transcript table at
increasing block counts on a fixed CPU budget.  At the 100-TB design
point a corpus pass is 10^5-10^6 blocks; this measures the per-block
overhead floor of the packet path (map task + raw-task submissions),
which round 4 cut by chunking the post-packet raw tasks to O(CPUs)
submissions (`stages/blocks.py::chunk_refs`).

Usage: python tools/packet_block_bench.py [block_counts...]
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    import ray
    import ray.data

    counts = [int(a) for a in sys.argv[1:]] or [32, 512, 2048]
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    from paradedb_ray.pipelines.search import search_topk
    from paradedb_ray.query import builders as pdb
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.testing.transcripts import transcripts_path

    path = transcripts_path(1_000_000)
    schema = transcripts_schema()
    q = pdb.boolean(should=[pdb.term("text", "checkpoint"),
                            pdb.term("text", "epoch"),
                            pdb.term("text", "watermark")])

    def run(nblocks: int) -> float:
        ds = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"],
                                   override_num_blocks=nblocks)
        t0 = time.perf_counter()
        out = search_topk(ds, schema, q, limit=10,
                          order_by=[("score", "descending"),
                                    ("conv_id", "ascending"), ("turn_idx", "ascending")],
                          output_columns=["conv_id", "turn_idx", "score"]).take_all()
        dt = time.perf_counter() - t0
        assert len(out) == 10
        return dt

    run(32)  # warm the worker pool
    for n in counts:
        dt = run(n)
        print(f"blocks={n:5d}  wall={dt:6.2f}s")
    ray.shutdown()


if __name__ == "__main__":
    main()
