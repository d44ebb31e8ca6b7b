"""The benchmark's closed-loop workloads (one process, one client).

* ``batch``: the Ray Data path with no actors -- index build, standing
  top-k over the single-scan packet path, and a filtered grouped
  aggregate through the hash shuffle; one operation is one round of the
  three passes over the corpus.
* ``stream_mixed``: an ``EpochRunner`` with standing queries, a facet and
  a checkpoint every epoch; one operation is one epoch, and a run is a
  fixed count of epochs.

Inputs come only from ``transcript_turns`` under the run's seed.  Every
operation's output is checked against :mod:`perfbench.oracle`; a wrong
result counts as a failed operation.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from perfbench import oracle


def nproc() -> int:
    """The count ``nproc`` prints: the CPUs this process may use, capped
    by ``OMP_NUM_THREADS``/``OMP_THREAD_LIMIT`` when they are set."""
    import subprocess

    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


#: Ray's CPU count; partition actors: one per CPU, at least two so
#: routing across partitions is exercised
NPROC = nproc()
PARTITIONS = max(2, NPROC)

SIZES = {
    "full": {"batch_turns": 40_000, "epoch_rows": 1_000},
    "smoke": {"batch_turns": 3_000, "epoch_rows": 300},
}
#: Parquet files of the batch corpus: few and large, so the passes spend
#: their time in the layers rather than in per-task Ray overhead
BATCH_FILES = 2

#: Zipf-rank bands of the generator's vocabulary (rank 0 is the most
#: frequent word); drawing one term per band keeps the work per seed
#: comparable while still mixing frequent and rare postings
BANDS = [(0, 3), (3, 10), (10, 25), (25, 45), (45, None)]
FACET_FIELD = "role"
#: turns a conversation needs before it is salted across partitions; the
#: generator's hot conversations hold 200-1000 turns
HOT_THRESHOLD = 150


def vocab():
    from paradedb_ray.testing.transcripts import _VOCAB

    return [str(w) for w in _VOCAB]


def band_term(rng, vocabulary, band) -> str:
    lo, hi = BANDS[band % len(BANDS)]
    return vocabulary[rng.randint(lo, hi if hi is not None
                                  else len(vocabulary))]


def query_string(kind: str, w1: str, w2: str) -> str:
    return {"term": w1, "facet": w1, "or": f"{w1} OR {w2}",
            "and": f"{w1} AND {w2}", "phrase": f'"{w1} {w2}"'}[kind]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total


def op_stats(ds) -> list:
    """(operator name, wall s, udf s) for every operator
    ``Dataset.stats()`` recorded for ``ds`` and its parents."""
    out = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        for o in summary.operators_stats:
            out.append((o.operator_name,
                        (o.wall_time or {}).get("sum", 0.0),
                        (o.udf_time or {}).get("sum", 0.0)))

    walk(ds._get_stats_summary())
    return out


class Workload:
    name = ""
    #: the loop stops ``seconds`` x this after it started; a workload that
    #: runs a fixed count of operations (``has_more``) has this only as a
    #: safety cap
    TIME_CAP = 1
    #: a set-up repetition starts Ray afresh (batch: its cold cost is the
    #: worker pool); stream_mixed re-spawns its actors instead
    restart_ray_each_setup = False

    def __init__(self, work_dir: str, seed: int, seconds: float, size: str,
                 tracer, inject_wrong: bool = False):
        from paradedb_ray.schema import transcripts_schema

        self.work = work_dir
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        self.tr = tracer
        self.inject_wrong = inject_wrong
        self.schema = transcripts_schema()
        self.rng = np.random.RandomState(seed)
        self.vocab = vocab()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> list:
        """Start the workload; returns whether each checked operation it
        ran gave the right result."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def has_more(self) -> bool:
        return True

    def step(self) -> list:
        """Run the next operation(s); one record per operation."""
        raise NotImplementedError

    def finish(self, records: list) -> None:
        """Post-loop checks; mark records ``ok=False`` on a mismatch."""

    def details(self, records: list, window_s: float) -> dict:
        raise NotImplementedError

    def layers(self, records: list) -> dict:
        return {}

    def corrupt(self, rows: list) -> list:
        """The smoke test's injected wrong result: one score nudged."""
        if self.inject_wrong and rows:
            c, t, s = rows[0]
            rows = [(c, t, float(np.nextafter(np.float32(s),
                                              np.float32(np.inf))))] + rows[1:]
        return rows


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


class IndexBlock:
    """``map_batches`` UDF of the index pass: ``build_segment`` on each
    block.  Traced, it first runs a standalone ``batch_tokenize_arrow``
    on the same block (work ``build_segment`` repeats) and returns both
    timings with the block's counts."""

    def __init__(self, schema, traced: bool):
        self.schema = schema
        self.traced = traced

    def __call__(self, batch: pa.Table) -> pa.Table:
        from paradedb_ray.index.segment import build_segment

        t0 = time.monotonic()
        tokens = 0
        if self.traced:
            from paradedb_ray.text.batch_tokenize import batch_tokenize_arrow

            got = batch_tokenize_arrow(batch.column("text"),
                                       self.schema.fields["text"].analyzer)
            tokens = int(got[3].sum()) if got is not None else 0
        t1 = time.monotonic()
        seg = build_segment(batch, self.schema)
        t2 = time.monotonic()
        return pa.table({
            "rows": pa.array([batch.num_rows], pa.int64()),
            "seg_tokens": pa.array([seg.text["text"].total_tokens], pa.int64()),
            "tok_tokens": pa.array([tokens], pa.int64()),
            "t0": [t0], "t1": [t1], "t2": [t2],
        })


class Batch(Workload):
    name = "batch"
    restart_ray_each_setup = True
    AGGS = {"n": ("count_star", None), "convs": ("cardinality", "conv_id")}

    def make_inputs(self):
        import pyarrow.parquet as pq

        from paradedb_ray.query import ast
        from paradedb_ray.testing.transcripts import transcript_turns

        table = transcript_turns(self.size["batch_turns"], seed=self.seed)
        self.path = os.path.join(self.work, "batch")
        os.makedirs(self.path, exist_ok=True)
        per_file = -(-table.num_rows // BATCH_FILES)
        for i in range(BATCH_FILES):
            pq.write_table(table.slice(i * per_file, per_file),
                           os.path.join(self.path, f"part-{i}.parquet"),
                           row_group_size=per_file)
        self.n_turns = table.num_rows
        self.terms = [band_term(self.rng, self.vocab, b)
                      for b in range(len(BANDS))]
        self.queries = {f"q{i}": ast.Term("text", w)
                        for i, w in enumerate(self.terms)}
        self.agg_term = band_term(self.rng, self.vocab, 1)
        ref = oracle.Reference(table, self.schema)
        self.ref_tokens = ref.total_tokens()
        self.ref_topk = {name: ref.topk(q, 10)
                         for name, q in self.queries.items()}
        self.ref_agg = oracle.duckdb_grouped_count(self.path, self.agg_term)

    # -- the three passes ---------------------------------------------------

    def index_pass(self) -> bool:
        import ray
        import ray.data

        ds = ray.data.read_parquet(self.path).map_batches(
            IndexBlock(self.schema, self.tr.enabled),
            batch_format="pyarrow", batch_size=None)
        out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        if self.tr.enabled:
            for r in out.to_pylist():
                if r["t1"] > r["t0"]:
                    self.tr.add("text.tokenize", r["t0"], r["t1"])
                self.tr.add("index.build_segment", r["t1"], r["t2"])
            self.tr.count("text.tokens", sum(out.column("tok_tokens")
                                             .to_pylist()))
            self.tr.count("index.segments", out.num_rows)
            self.tr.count("sources.read_rows",
                          sum(out.column("rows").to_pylist()))
            self._count_read(ds)
        return (sum(out.column("rows").to_pylist()) == self.n_turns
                and sum(out.column("seg_tokens").to_pylist())
                == self.ref_tokens)

    def topk_pass(self) -> bool:
        import ray
        import ray.data

        from paradedb_ray.pipelines.search import search_topk_multi

        ds = ray.data.read_parquet(self.path)
        with self.tr.span("pipelines.topk_call"):
            out = search_topk_multi(
                ds, self.schema, self.queries, limit=10,
                order_by=oracle.ORDER, output_columns=oracle.TOPK_COLUMNS)
        with self.tr.span("pipelines.topk_consume"):
            res = pa.concat_tables(ray.get(out.to_arrow_refs()))
        ok = True
        qid = res.column("query_id")
        for name, want in self.ref_topk.items():
            got = res.filter(pc.equal(qid, name))
            got = got.take(pc.sort_indices(got, sort_keys=oracle.ORDER))
            ok &= self.corrupt(oracle.topk_rows(got)) == want
        return ok

    def agg_pass(self) -> bool:
        import ray.data

        from paradedb_ray.pipelines.aggregate import sql_aggregate
        from paradedb_ray.query import ast

        with self.tr.span("pipelines.sql_aggregate"):
            out = sql_aggregate(
                ray.data.read_parquet(self.path), ["role", "tool"], self.AGGS,
                schema=self.schema,
                filter_query=ast.Term("text", self.agg_term))
            df = out.to_pandas()
        self.tr.count("stages.agg_groups", len(df))
        got = sorted(zip(df["role"], df["tool"], df["n"].astype(int),
                         df["convs"].astype(int)))
        return [tuple(r) for r in got] == self.ref_agg

    def _count_read(self, ds) -> None:
        for name, wall, udf in op_stats(ds):
            if name.startswith("ReadParquet"):
                self.tr.count("sources.read_s", max(0.0, wall - udf))

    # -- workload interface ---------------------------------------------------

    def _round(self) -> dict:
        lat, ok = {}, True
        for kind, fn in (("index", self.index_pass),
                         ("topk", self.topk_pass),
                         ("agg", self.agg_pass)):
            t0 = time.monotonic()
            with self.tr.span(f"batch.{kind}"):
                ok &= fn()
            lat[kind] = time.monotonic() - t0
        return {"latency_s": sum(lat.values()), "ok": ok, "passes": lat}

    def setup(self):
        # the first round is the cold one (worker start, imports,
        # first-call costs): users pay it once
        return [self._round()["ok"]]

    def step(self):
        return [self._round()]

    def wrap_layers(self):
        import ray.data

        from paradedb_ray.stages import hash_agg, search_stages

        tr = self.tr
        tr.wrap(search_stages, "reduce_stats_partials", "stages.stats_reduce")
        tr.wrap(hash_agg, "hash_group_aggregate", "stages.hash_group_aggregate")
        tr.wrap(hash_agg, "hash_distinct_count", "stages.hash_distinct_count")
        tr.wrap(hash_agg, "_exec_blocks_schema", "stages.agg_input")

        def packets(rec, ds):
            # the packet dataset is materialized inside the top-k call
            for name, wall, udf in op_stats(ds):
                if "QueryPacketBuilder" in name:
                    tr.count("stages.packet_build_s", udf)
                    tr.count("sources.read_s", max(0.0, wall - udf))
                    self._last_packets = ds

        tr.wrap(ray.data.Dataset, "materialize", "ray_data.materialize",
                on_result=packets)

    def details(self, records, window_s):
        out = {}
        for kind in ("index", "topk", "agg"):
            lat = [r["passes"][kind] for r in records]
            out[f"batch.{kind}_turns_per_s"] = (
                self.n_turns / float(np.median(lat)), "turns/s", len(lat))
        return out

    def layers(self, records):
        tr = self.tr
        table = tr.layer_table()
        n = max(1, len(records))

        def total(name):
            return table.get(name, {}).get("total_s", 0.0)

        # times and counts per pass of the kind that runs them
        packet_rows = 0
        pk = getattr(self, "_last_packets", None)
        if pk is not None:
            import pickle

            import ray

            for t in ray.get(pk.to_arrow_refs()):
                for blob in t.column("packet").to_pylist():
                    packet_rows += pickle.loads(blob).num_docs
        agg_self = total("batch.agg") - total("stages.agg_input")
        return {
            "sources.read_s": tr.counts["sources.read_s"] / n,
            "sources.read_rows": tr.counts["sources.read_rows"] / n,
            "text.tokenize_s": total("text.tokenize") / n,
            "text.tokens": tr.counts["text.tokens"] / n,
            "index.build_segment_s": total("index.build_segment") / n,
            "index.segments": tr.counts["index.segments"] / n,
            "stages.packet_build_s": tr.counts["stages.packet_build_s"] / n,
            "stages.packet_rows": packet_rows,
            "stages.packet_selectivity": packet_rows / self.n_turns,
            "stages.stats_reduce_s": total("stages.stats_reduce") / n,
            "stages.hash_agg_s": agg_self / n,
            "stages.agg_groups": tr.counts["stages.agg_groups"] / n,
            "pipelines.topk_call_s": total("pipelines.topk_call") / n,
            "pipelines.topk_consume_s": total("pipelines.topk_consume") / n,
        }


# ---------------------------------------------------------------------------
# stream_mixed
# ---------------------------------------------------------------------------


class StreamMixed(Workload):
    name = "stream_mixed"
    N_STANDING = 8
    #: every epoch grows the index, and a top-k costs about in proportion
    #: to it, so a later epoch costs more than an earlier one.  A run is
    #: therefore a fixed count of epochs, ``seconds`` x this (about the
    #: epochs/s seen on a one-CPU VM): a run that stopped at a deadline
    #: would reach a smaller index on slower code and flatter it
    EPOCHS_PER_S = 4
    TIME_CAP = 3

    ENGINE_SPANS = ("ingest", "drain_dead_letters", "advance_watermark",
                    "global_stats", "query_topk", "facet", "merge_tick",
                    "checkpoint", "refresh_hot", "metrics")

    def _engine(self, checkpoint_dir=None, **cfg):
        from paradedb_ray.streaming import StreamConfig, StreamEngine

        eng = StreamEngine(self.schema,
                           StreamConfig(num_partitions=PARTITIONS, **cfg),
                           checkpoint_dir=checkpoint_dir)
        eng.warm()
        return eng

    def wrap_engine(self, eng) -> None:
        from paradedb_ray.query import parser

        tr = self.tr

        def rows(key):
            def on(rec, out):
                n = (out["rows"] if isinstance(out, dict)
                     else (out.num_rows if out is not None else 0))
                tr.count(f"streaming.{key}_rows", n)
            return on

        hooks = {"ingest": rows("ingest"),
                 "advance_watermark": rows("sessions"),
                 "drain_dead_letters": rows("dead_letter")}
        for m in self.ENGINE_SPANS:
            tr.wrap(eng, m, f"streaming.{m}", on_result=hooks.get(m))
        tr.wrap(parser, "parse_query_string", "query.parse")

    def engine_layers(self, eng) -> dict:
        mean = self.tr.mean_s
        parts = eng.metrics()
        docs = [p["live_keys"] for p in parts]
        return {
            "query.parse_us": 1e6 * mean("query.parse"),
            "streaming.global_stats_ms": 1e3 * mean("streaming.global_stats"),
            "streaming.topk_self_ms": 1e3 * mean("streaming.query_topk",
                                                 "self_s"),
            "streaming.facet_ms": 1e3 * mean("streaming.facet"),
            "streaming.segments": sum(p["sealed_segments"]
                                      + (p["mutable_rows"] > 0)
                                      for p in parts),
            "streaming.partition_skew": (max(docs) / np.mean(docs)
                                         if docs and np.mean(docs) else 0.0),
            "streaming.hot_convs": len(eng.hot),
        }

    def make_inputs(self):
        from paradedb_ray.testing.transcripts import transcript_turns

        self.max_epochs = max(2, round(self.seconds * self.EPOCHS_PER_S))
        e = self.size["epoch_rows"]
        t = transcript_turns(e * (self.max_epochs + 1), seed=self.seed)
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("ts", "ascending"), ("conv_id", "ascending"),
            ("turn_idx", "ascending")]))
        self.epochs = [t.slice(i * e, e) for i in range(self.max_epochs + 1)]
        kinds = ("term", "or", "and", "phrase")
        self.standing = {}
        for j in range(self.N_STANDING):
            w1 = band_term(self.rng, self.vocab, j)
            w2 = band_term(self.rng, self.vocab, j + 2)
            self.standing[f"q{j}"] = query_string(kinds[j % 4], w1, w2)
        self.facet_q = band_term(self.rng, self.vocab, 1)
        self.eng = None

    def setup(self):
        from paradedb_ray.streaming import EpochRunner

        for d in ("sink", "ckpt"):
            shutil.rmtree(os.path.join(self.work, d), ignore_errors=True)
        self.sink = os.path.join(self.work, "sink")
        self.ckpt = os.path.join(self.work, "ckpt")
        self.eng = self._engine(checkpoint_dir=self.ckpt,
                                hot_threshold=HOT_THRESHOLD)
        self.runner = EpochRunner(
            self.eng, self.sink, self.standing, topk=10,
            columns=oracle.TOPK_COLUMNS, checkpoint_every=1,
            facets={"roles": (self.facet_q, FACET_FIELD)})
        self.runner.run_epoch(0, self.epochs[0])
        self.eng.refresh_hot()
        self.next_epoch = 1
        # epoch 0's rows are in the reference the final check uses
        return []

    def teardown(self):
        self.eng.shutdown()

    def wrap_layers(self):
        self.wrap_engine(self.eng)
        self.tr.wrap(self.runner, "run_epoch", "stream.run_epoch")

    def has_more(self):
        return self.next_epoch <= self.max_epochs

    def step(self):
        e = self.next_epoch
        self.next_epoch += 1
        with self.tr.span("stream.epoch", epoch=e):
            t0 = time.monotonic()
            info = self.runner.run_epoch(e, self.epochs[e])
            lat = time.monotonic() - t0
            self.eng.refresh_hot()
        return [{"latency_s": lat, "ok": True, "epoch": e,
                 "rows": info.get("rows", 0)}]

    def finish(self, records):
        import pyarrow.parquet as pq

        for r in records:
            r["ok"] = r["ok"] and self.runner.epoch_done(r["epoch"])
        if not records:
            return
        last = records[-1]["epoch"]
        ref = oracle.Reference(pa.concat_tables(self.epochs[:last + 1]),
                               self.schema)
        ok = True
        for name, q in self.standing.items():
            got = pq.read_table(os.path.join(self.sink, name,
                                             f"epoch={last:06d}.parquet"))
            ok &= self.corrupt(oracle.topk_rows(got)) == ref.topk(q, 10)
        got = pq.read_table(os.path.join(self.sink, "facets", "roles",
                                         f"epoch={last:06d}.parquet"))
        ok &= (oracle.facet_rows(got, FACET_FIELD)
               == ref.facet(self.facet_q, FACET_FIELD))
        records[-1]["ok"] = records[-1]["ok"] and ok

    def details(self, records, window_s):
        lat = [r["latency_s"] * 1e3 for r in records]
        rows = sum(r["rows"] for r in records)
        return {"stream.turns_per_s": (rows / window_s, "turns/s",
                                       len(records)),
                "stream.epoch_latency_p50_ms": (percentile(lat, 50), "ms",
                                                len(lat)),
                "stream.epoch_latency_p90_ms": (percentile(lat, 90), "ms",
                                                len(lat))}

    def layers(self, records):
        tr = self.tr
        out = self.engine_layers(self.eng)
        out.update({
            # run_epoch minus the engine calls it makes
            "sources.sink_s": tr.mean_s("stream.run_epoch", "self_s"),
            "sources.sink_bytes": dir_bytes(self.sink),
            "streaming.ingest_ms": 1e3 * tr.mean_s("streaming.ingest"),
            "streaming.ingest_rows": tr.counts["streaming.ingest_rows"],
            "streaming.watermark_ms":
                1e3 * tr.mean_s("streaming.advance_watermark"),
            "streaming.sessions_closed": tr.counts["streaming.sessions_rows"],
            "streaming.dead_letter_rows":
                tr.counts["streaming.dead_letter_rows"],
            "streaming.merge_tick_ms": 1e3 * tr.mean_s("streaming.merge_tick"),
            "streaming.checkpoint_ms": 1e3 * tr.mean_s("streaming.checkpoint"),
            "streaming.checkpoint_bytes": dir_bytes(self.ckpt),
        })
        return out


WORKLOADS = {w.name: w for w in (Batch, StreamMixed)}
