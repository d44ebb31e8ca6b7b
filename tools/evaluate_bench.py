"""In-process standing-evaluation bench over ``stream_mixed``'s state.

Replays the perfbench ``stream_mixed`` workload's partition state without
Ray actors: the same epochs of transcript turns (``--seed``), routed to
``perfbench.workloads.PARTITIONS`` in-process ``Bm25PartitionStore``
instances by the engine's own ``_route_batch``, then per epoch the
stores' ``seal`` (with the stats of the 8 standing top-k queries and the
facet) and ``settle`` — the partition calls of ``EpochRunner.run_epoch``.
At epochs 20, 40 and 80 it times one evaluation round — every
partition's ``evaluate`` call, the partition-local work of
``StreamEngine.evaluate_bound`` — as the minimum of 15 runs, and prints a
hash of the merge-ranked results, so two checkouts can be compared for
cost and for output identity with no Ray noise.

Usage: python tools/evaluate_bench.py [--seed 21]
"""

import argparse
import hashlib
import os
import pickle
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

#: the epochs whose evaluation round is timed, and the runs per timing
REPORT_EPOCHS = (20, 40, 80)
REPS = 15


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args()

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from paradedb_ray.index.searcher import GlobalStats
    from paradedb_ray.query.parser import bind
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.stages.search_stages import (collect_stat_requests,
                                                   merge_stat_requests,
                                                   rank_head, terms_facet)
    from paradedb_ray.streaming.engine import StreamConfig, _route_batch
    from paradedb_ray.streaming.state_store import (Bm25PartitionStore,
                                                    EvalSpec)
    from paradedb_ray.testing.transcripts import transcript_turns
    from perfbench import oracle
    from perfbench import workloads as wl

    schema = transcripts_schema()
    cfg = StreamConfig(num_partitions=wl.PARTITIONS,
                       hot_threshold=wl.HOT_THRESHOLD)
    sp = pickle.dumps(schema)
    stores = [Bm25PartitionStore.__ray_actor_class__(
        p, sp, mutable_rows=cfg.mutable_rows,
        session_gap_us=cfg.session_gap_us, lateness_us=cfg.lateness_us,
        key_cols=cfg.key_cols, ts_col=cfg.ts_col,
        layer_sizes=cfg.layer_sizes) for p in range(cfg.num_partitions)]

    # stream_mixed's inputs (StreamMixed.make_inputs, "full" size)
    rng = np.random.RandomState(args.seed)
    vocab = wl.vocab()
    rows = wl.SIZES["full"]["epoch_rows"]
    n_epochs = REPORT_EPOCHS[-1]
    t = transcript_turns(rows * (n_epochs + 1), seed=args.seed)
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("ts", "ascending"), ("conv_id", "ascending"),
        ("turn_idx", "ascending")]))
    kinds = ("term", "or", "and", "phrase")
    specs = []
    for j in range(wl.StreamMixed.N_STANDING):
        w1 = wl.band_term(rng, vocab, j)
        w2 = wl.band_term(rng, vocab, j + 2)
        specs.append(EvalSpec(wl.query_string(kinds[j % 4], w1, w2), 10,
                              columns=oracle.TOPK_COLUMNS))
    specs.append(EvalSpec(wl.band_term(rng, vocab, 1),
                          facet_field=wl.FACET_FIELD))
    specs = [EvalSpec(bind(s.query, schema), s.k, s.with_score, s.columns,
                      s.snippet_cfg, s.facet_field) for s in specs]
    rp = pickle.dumps(merge_stat_requests(
        [collect_stat_requests(s.query, schema) for s in specs]))
    specs_p = pickle.dumps(specs)

    hot: set = set()
    arr_next = 0
    for epoch in range(n_epochs + 1):
        et = t.slice(epoch * rows, rows)
        base = max(arr_next, epoch << 40)  # StreamEngine._arr_base
        arr_next = base + et.num_rows
        et = et.append_column("__arr", pa.array(
            np.arange(base, base + et.num_rows), pa.int64()))
        for p, method, a in _route_batch(et, cfg.num_partitions, cfg.salt_k,
                                         cfg.key_cols, hot, epoch):
            getattr(stores[p], method)(*a)
        wm = int(pc.max(et.column("ts").cast(pa.int64())).as_py()) \
            - cfg.lateness_us
        stats = GlobalStats()
        for s in stores:
            stats.merge(pickle.loads(s.seal(wm, epoch, rp)[2]))
        stp = pickle.dumps(stats)
        if epoch in REPORT_EPOCHS:
            best = float("inf")
            for _ in range(REPS):
                t0 = time.perf_counter()
                per = [s.evaluate(specs_p, stp) for s in stores]
                best = min(best, time.perf_counter() - t0)
            digest = hashlib.sha256()
            for i, spec in enumerate(specs):
                parts = [p[i] for p in per]
                if spec.facet_field:
                    out = terms_facet(spec.facet_field, parts)
                else:
                    parts = [x for x in parts if x.num_rows]
                    out = (rank_head(pa.concat_tables(parts), oracle.ORDER,
                                     spec.k) if parts else pa.table({}))
                digest.update(repr(out.to_pydict()).encode())
            segs = sum(len(s._all_segments()) for s in stores)
            print(f"epoch={epoch:3d} segments={segs:3d} "
                  f"evaluate_ms={1e3 * best:8.2f} "
                  f"result={digest.hexdigest()[:16]}", flush=True)
        for s in stores:
            s.settle(cfg.merge_max_segments)
        hot = {c for s in stores for c in s.hot_convs(cfg.hot_threshold)}


if __name__ == "__main__":
    main()
