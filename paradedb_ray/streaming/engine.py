"""StreamEngine — sharded continuous BM25 index + standing queries.

The Ray-native re-imagining of pg_search's index as a CEP pipeline
(BASELINE.json north_star):

* ``ingest(ds, epoch)`` — a Ray Data pipeline routes each Arrow batch to
  its ``hash(conv_id) % P`` partition actor (stateful map_batches over an
  actor pool); hot conversations (detected from per-partition counts) are
  salted across ``salt_k`` sub-partitions by ``turn_idx`` and re-merged at
  query time — multi-segment search makes that free, exactly as the
  reference searches many segments (`index/reader/index.rs:223-300`).
* ``advance_watermark(wm)`` — session-window close on watermark expiry;
  returns closed-session summary rows.
* ``evaluate(specs)`` — every standing query and facet of an epoch in
  exactly two rounds of actor calls, whatever their count: ONE global
  stats exchange over the union of their stat requests (per-partition
  partial ``GlobalStats`` merged on the driver — BM25's searcher-global
  N / df / avgdl, SURVEY §5; exact per query, since the stats are keyed
  per field and per (field, term)), then ONE ``evaluate`` call per
  partition actor returning every query's local top-k head and every
  facet's partial counts, and a driver merge-rank — mirroring
  per-segment collectors (`scan/segmented_topk_exec.rs`).  Each actor
  prunes with a partition-local k-th-best threshold taken over LIVE hits
  only (after visibility), so a superseded copy never prunes a live row.
  ``query_topk`` / ``query_matches`` / ``facet`` are one-entry calls.
* ``checkpoint / restore`` — per-partition manifest + segment payloads;
  epoch-tagged, idempotent, resumable.
* ``EpochRunner`` — micro-batch driver with an **exactly-once sink**:
  results land in ``sink_dir/<query>/epoch=K/part.parquet`` written
  atomically; a re-run (or restart after crash) skips epochs whose sink
  files already exist and replays the source from the recorded offset.
  An epoch is five rounds of actor calls (ingest, ``seal``, evaluate,
  ``settle``, checkpoint); the checkpoint follows the commit marker.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from paradedb_ray.pipelines.joins import payload_safe_join
from paradedb_ray.pipelines.windows import _ts_us, sequence_matches
from paradedb_ray.query import ast
from paradedb_ray.query.parser import bind
from paradedb_ray.schema import IndexSchema
from paradedb_ray.index.searcher import GlobalStats
from paradedb_ray.stages.blocks import (cluster_cpus, collect_table,
                                        concat_blocks)
from paradedb_ray.stages.order import rank_head, run_offsets, sort_runs
from paradedb_ray.stages.search_stages import (collect_stat_requests,
                                               merge_stat_requests,
                                               terms_facet)
from paradedb_ray.streaming.state_store import (
    Bm25PartitionStore,
    EvalSpec,
    _key_hash,
)


def _stable_hash_strings(vals: np.ndarray) -> np.ndarray:
    import pandas as pd

    return pd.util.hash_array(np.asarray(vals, dtype=object))


from paradedb_ray.config import DEFAULT as _CFG

#: an all-empty cross-partition result is ``pa.table({})`` (no columns)
_NO_COLUMNS = pa.schema([])


@dataclass
class StreamConfig:
    """Streaming knobs; defaults come from the engine-wide
    :mod:`paradedb_ray.config` (the GUC mirror, SURVEY §2.13)."""

    num_partitions: int = _CFG.num_partitions
    mutable_rows: int = _CFG.mutable_rows
    session_gap_us: int = _CFG.session_gap_us
    lateness_us: int = _CFG.lateness_us
    key_cols: tuple = ("conv_id", "turn_idx")
    ts_col: str = "ts"
    salt_k: int = _CFG.salt_k
    hot_threshold: int = _CFG.hot_threshold
    merge_max_segments: int = _CFG.merge_max_segments
    #: size-tiered merge ladder (None = reference default 100KB..10GB,
    #: `postgres/options.rs:64-71`)
    layer_sizes: tuple = _CFG.layer_sizes
    #: partial-index gate (`partial_index_gating.sql` / CREATE INDEX ...
    #: WHERE <pred>): a picklable callable ``pa.Table -> bool ndarray``.
    #: Rows failing the gate are INVISIBLE to the index: gated ingest
    #: skips them, and an upsert arriving OUTSIDE the gate retracts its
    #: key (the reference's partial_index_score_fix Test 3: UPDATE that
    #: moves a row out of the predicate removes it from results).  BM25
    #: stats then reflect the gated corpus only, exactly like a tantivy
    #: partial index.  (The reference's planner-side "decline when the
    #: query does not imply the predicate" check protects a table+index
    #: pair; here the gated engine IS the only view, so there is nothing
    #: to decline.)
    gate: object = None


def _route_batch(batch: pa.Table, num_partitions: int, salt_k: int,
                 key_cols: tuple, hot, epoch: int, gate=None) -> list:
    """The partition-store calls that route one ``__arr``-stamped batch,
    as ``(partition, method, args)`` in send order.  Pure: it calls no
    store, so the engine's routers and an in-process replay route alike.

    A row's home partition is its conversation hash; a row of a hot
    conversation goes to its salted partition (hash + ``turn % salt_k``
    stride) instead, and its stale pre-hot copy is retracted at home."""
    calls = []
    conv = batch.column(key_cols[0]).to_numpy(zero_copy_only=False)
    turn = batch.column(key_cols[1]).to_numpy(zero_copy_only=False)
    arr = batch.column("__arr").to_numpy(zero_copy_only=False)
    h = _stable_hash_strings(conv)
    base = (h % np.uint64(num_partitions)).astype(np.int64)
    if gate is not None:
        gm = np.asarray(gate(batch), dtype=bool)
        if not gm.all():
            # rows outside the partial-index gate: retract their keys
            # (an upsert leaving the gate deletes; fresh keys no-op) at
            # both candidate partitions (salted + home), then drop
            # them.  The retraction carries the row's __arr stamp so
            # it arbitrates EXACTLY like an ingest: it never kills a
            # NEWER live copy (replay of a stale out-of-gate row is a
            # no-op) and always kills an older-or-equal one.
            out = ~gm
            kh = _key_hash(conv[out], turn[out])
            oarr = arr[out]
            ob = base[out]
            osalt = ((h[out].astype(np.int64)
                      + (turn[out].astype(np.int64) % salt_k)
                      * np.int64(2654435761)) % num_partitions)
            for p_ in np.unique(np.concatenate([ob, osalt])):
                sel = (ob == p_) | (osalt == p_)
                calls.append((p_, "retract_keys",
                              (kh[sel].tolist(), oarr[sel].tolist())))
            batch = batch.filter(pa.array(gm))
            conv, turn = conv[gm], turn[gm]
            h, base, arr = h[gm], base[gm], arr[gm]
            if batch.num_rows == 0:
                return calls
    part = base.copy()
    if hot:
        hm = np.fromiter((c in hot for c in conv), dtype=bool,
                         count=len(conv))
        if hm.any():
            salt = turn.astype(np.int64) % salt_k
            part[hm] = ((h[hm].astype(np.int64)
                         + salt[hm] * np.int64(2654435761))
                        % num_partitions)
    # a salted key's stale pre-hot copy may live in the home
    # partition: retract it there (no-op when absent)
    moved = part != base
    if moved.any():
        kh = _key_hash(conv[moved], turn[moved])
        marr = arr[moved]
        for b in np.unique(base[moved]):
            sel = base[moved] == b
            calls.append((b, "retract_keys",
                          (kh[sel].tolist(), marr[sel].tolist())))
    for p in np.unique(part):
        calls.append((p, "ingest", (batch.filter(pa.array(part == p)),
                                    epoch)))
    return calls


def _route_table(table: pa.Table, arr_base: int, actors: list,
                 num_partitions: int, salt_k: int, key_cols: tuple,
                 hot, epoch: int, batch_rows: int,
                 max_inflight: int = 8, gate=None) -> int:
    """Route one table's batches to the partition actors (runs on the
    driver for small tables, inside a shard task for the parallel path).

    Every row is stamped with ``__arr`` = ``arr_base`` + its offset — the
    deterministic global arrival index the stores use to resolve upserts,
    so parallel shard routers racing to the same actor cannot invert a
    within-epoch correction."""
    total = 0
    pend: list = []

    def drain(limit: int):
        nonlocal total
        while len(pend) > limit:
            r = ray.get(pend.pop(0))
            if isinstance(r, dict):
                total += r["n"]

    for off in range(0, table.num_rows, batch_rows):
        batch = table.slice(off, batch_rows)
        batch = batch.append_column(
            "__arr", pa.array(np.arange(arr_base + off,
                                        arr_base + off + batch.num_rows),
                              pa.int64()))
        for p, method, args in _route_batch(batch, num_partitions, salt_k,
                                            key_cols, hot, epoch, gate):
            pend.append(getattr(actors[p], method).remote(*args))
        drain(max_inflight)
    drain(0)
    return total


# routers mostly wait on actor acks: reserve a fraction of a CPU so
# blocked routers don't starve the partition actors of slots
@ray.remote(num_cpus=0.25)
def _route_shard_task(source, arr_base: int, actors: list,
                      num_partitions: int, salt_k: int, key_cols: tuple,
                      hot, epoch: int, batch_rows: int,
                      off: int = None, length: int = None,
                      gate=None) -> int:
    """One router task per shard: reads its shard (a parquet path, or an
    Arrow table shipped by reference — with ``off``/``length`` the table
    was ``ray.put`` ONCE and every router slices the same plasma copy
    zero-copy) and routes straight to the partition actors — the
    multi-node shape: routers live wherever the shards are, the driver
    only joins the per-shard acks."""
    if isinstance(source, str):
        import pyarrow.parquet as pq

        source = pq.read_table(source)
    if off is not None:
        source = source.slice(off, length)
    return _route_table(source, arr_base, actors, num_partitions, salt_k,
                        key_cols, hot, epoch, batch_rows, gate=gate)


#: tables at least this large ingest through parallel shard-router tasks
_PARALLEL_INGEST_ROWS = 32_768
#: rows per batch of ``ingest``'s in-process router and of the
#: ``ingest_files`` shard routers (``ingest``'s shard routers send a whole
#: shard at once)
_ROUTE_BATCH_ROWS = 16_384
#: ``ingest``'s in-process router: batches in flight before it waits
#: for acks
_INGEST_MAX_INFLIGHT = 4


def _sessions_table(closed: list) -> pa.Table:
    """The closed-session rows of every partition as one table."""
    rows = [r for part in closed for r in part]
    return pa.table({
        "conv_id": pa.array([r["conv_id"] for r in rows], pa.string()),
        "session_start": pa.array([r["session_start"] for r in rows],
                                  pa.int64()),
        "session_end": pa.array([r["session_end"] for r in rows],
                                pa.int64()),
        "n_turns": pa.array([r["n_turns"] for r in rows], pa.int64()),
        "epoch": pa.array([r["epoch"] for r in rows], pa.int64()),
    })


def _dead_letters_table(got: list) -> Optional[pa.Table]:
    """Union of the partitions' drained dead letters; None when none."""
    parts = [t for t in got if t is not None]
    if not parts:
        return None
    return pa.concat_tables(parts, promote_options="default")


def _merged_stats(partials: list) -> GlobalStats:
    g = GlobalStats()
    for p in partials:
        g.merge(pickle.loads(p))
    return g


class StreamEngine:
    def __init__(self, schema: IndexSchema, config: StreamConfig = None,
                 checkpoint_dir: Optional[str] = None):
        self.schema = schema
        self.cfg = config or StreamConfig()
        self.checkpoint_dir = checkpoint_dir
        sp = pickle.dumps(schema)
        self.actors = [
            Bm25PartitionStore.options(max_restarts=0).remote(
                p, sp,
                mutable_rows=self.cfg.mutable_rows,
                session_gap_us=self.cfg.session_gap_us,
                lateness_us=self.cfg.lateness_us,
                key_cols=self.cfg.key_cols,
                ts_col=self.cfg.ts_col,
                layer_sizes=self.cfg.layer_sizes,
            )
            for p in range(self.cfg.num_partitions)
        ]
        self.hot: set = set()
        self.epoch = 0
        # next free __arr arrival index; epoch e's stamps start at
        # max(arr_next, e << 40) so replaying an epoch after restore
        # regenerates the SAME arrival indexes it had originally
        self._arr_next = 0

    def _arr_base(self, epoch: int, n_rows: int) -> int:
        base = max(self._arr_next, epoch << 40)
        self._arr_next = base + n_rows
        return base

    # -- ingest -------------------------------------------------------------

    def ingest(self, source, epoch=None, parallel=None) -> dict:
        """Route a micro-batch (Dataset or Table) into the partition actors.

        Small tables route on the driver (vectorized hash, per-partition
        Arrow splits, bounded-queue backpressure).  Tables of
        ``_PARALLEL_INGEST_ROWS`` or more are cut into contiguous shards
        and routed by PARALLEL shard-router tasks -- the multi-node shape
        where routers live next to the data and the driver only joins the
        acks (VERDICT r1 #2); the ``__arr`` arrival stamps keep upsert
        resolution identical to the sequential order.  A Dataset source is
        consumed via ``iter_batches`` so blocks stream from the object
        store without a driver materialization.
        """
        if epoch is None:
            epoch = self.epoch
        cfg = self.cfg
        hot = frozenset(self.hot)

        if isinstance(source, pa.Table):
            n = source.num_rows
            arr_base = self._arr_base(epoch, n)
            if parallel is None:
                parallel = n >= _PARALLEL_INGEST_ROWS
            if parallel and n:
                # shard size balances router parallelism against RPC
                # count: each shard routes in ONE pass (batch_rows =
                # shard_rows), so actor calls per epoch = shards × P —
                # tiny shards mean hundreds of sub-1k-row sends whose
                # fixed RPC cost dwarfs the ingest compute
                shard_rows = max(4 * cfg.mutable_rows,
                                 -(-n // max(2, 2 * cfg.num_partitions)))
                src_ref = ray.put(source)  # ONE plasma copy, all routers
                refs = [
                    _route_shard_task.remote(
                        src_ref, arr_base + off,
                        self.actors, cfg.num_partitions, cfg.salt_k,
                        cfg.key_cols, hot, epoch, shard_rows,
                        off, shard_rows, gate=cfg.gate)
                    for off in range(0, n, shard_rows)
                ]
                return {"epoch": epoch, "rows": sum(ray.get(refs))}
            total = _route_table(source, arr_base, self.actors,
                                 cfg.num_partitions, cfg.salt_k,
                                 cfg.key_cols, hot, epoch, _ROUTE_BATCH_ROWS,
                                 max_inflight=_INGEST_MAX_INFLIGHT,
                                 gate=cfg.gate)
            return {"epoch": epoch, "rows": total}

        total = 0
        for b in source.iter_batches(batch_size=_ROUTE_BATCH_ROWS,
                                     batch_format="pyarrow"):
            if isinstance(b, pa.RecordBatch):
                b = pa.Table.from_batches([b])
            total += _route_table(
                b, self._arr_base(epoch, b.num_rows), self.actors,
                cfg.num_partitions, cfg.salt_k, cfg.key_cols, hot, epoch,
                _ROUTE_BATCH_ROWS, max_inflight=_INGEST_MAX_INFLIGHT,
                gate=cfg.gate)
        return {"epoch": epoch, "rows": total}

    def ingest_files(self, paths: list, epoch=None) -> dict:
        """Shard-parallel ingest: one router TASK per parquet shard file;
        each reads its shard and routes batches straight to the partition
        actors (the multi-node shape: routers live wherever the shards
        are, the driver only joins the per-shard acks).  Each shard gets a
        disjoint ``__arr`` range (up to 2^28 rows per shard)."""
        if epoch is None:
            epoch = self.epoch
        cfg = self.cfg
        hot = frozenset(self.hot)
        base0 = max(self._arr_next, epoch << 40)
        self._arr_next = base0 + (len(paths) << 28)
        refs = [
            _route_shard_task.remote(
                p, base0 + (i << 28), self.actors, cfg.num_partitions,
                cfg.salt_k, cfg.key_cols, hot, epoch, _ROUTE_BATCH_ROWS,
                gate=cfg.gate)
            for i, p in enumerate(paths)
        ]
        return {"epoch": epoch, "rows": sum(ray.get(refs))}

    def refresh_hot(self):
        """Pull per-conversation counts and update the hot set (salting
        takes effect for subsequent epochs; already-ingested rows stay
        where they are — query merges across partitions regardless)."""
        hot_lists = ray.get([a.hot_convs.remote(self.cfg.hot_threshold)
                             for a in self.actors])
        self.hot = set(c for lst in hot_lists for c in lst)
        return self.hot

    # -- windows / maintenance ---------------------------------------------

    def advance_watermark(self, wm_us: int, epoch: Optional[int] = None) -> pa.Table:
        """Advance the watermark everywhere; returns closed-session rows."""
        if epoch is None:
            epoch = self.epoch
        return _sessions_table(ray.get(
            [a.advance_watermark.remote(wm_us, epoch) for a in self.actors]))

    def drain_dead_letters(self) -> Optional[pa.Table]:
        """Union of every partition's buffered too-late rows (side
        output), cleared on read; None when nothing was dropped."""
        return _dead_letters_table(ray.get(
            [a.drain_dead_letters.remote() for a in self.actors]))

    def seal(self, wm_us: int, epoch: Optional[int] = None,
             queries: tuple = ()) -> tuple:
        """An epoch's seal in ONE round of actor calls: every partition
        drains its dead letters, advances its watermark and, when
        ``queries`` are given, returns its stats partial over their
        stat requests.  Returns ``(drain_dead_letters(),
        advance_watermark(wm_us, epoch), global_stats(*queries) or
        None)`` — each equal to what the separate calls return."""
        if epoch is None:
            epoch = self.epoch
        rp = self._stat_requests(queries) if queries else None
        got = ray.get([a.seal.remote(wm_us, epoch, rp) for a in self.actors])
        stats = _merged_stats([g[2] for g in got]) if queries else None
        return (_dead_letters_table([g[0] for g in got]),
                _sessions_table([g[1] for g in got]), stats)

    def settle(self) -> tuple:
        """``(merge_tick(), metrics())`` in one round of actor calls."""
        got = ray.get([a.settle.remote(self.cfg.merge_max_segments)
                       for a in self.actors])
        return sum(n for n, _ in got), [m for _, m in got]

    def merge_tick(self):
        return sum(ray.get([a.merge_tick.remote(self.cfg.merge_max_segments)
                            for a in self.actors]))

    def vacuum(self):
        return sum(ray.get([a.vacuum.remote() for a in self.actors]))

    def force_merge(self, target_bytes=None):
        """``paradedb.force_merge`` analogue (`api/admin.rs`): collapse
        every partition's sealed segments into byte-bounded bins (None =
        one segment per partition); runs on all partitions in parallel."""
        return sum(ray.get([a.force_merge.remote(target_bytes)
                            for a in self.actors]))

    # -- query --------------------------------------------------------------

    def _stat_requests(self, queries) -> bytes:
        return pickle.dumps(merge_stat_requests(
            [collect_stat_requests(q, self.schema) for q in queries]))

    def global_stats(self, *queries: ast.Query) -> GlobalStats:
        """The cross-partition stats exchange (barrier reduce of tiny
        partials) over the union of the queries' stat requests.  BM25
        stays exact for each query: the stats are keyed per field and per
        (field, term), so extra entries never change a lookup."""
        rp = self._stat_requests(queries)
        return _merged_stats(ray.get([a.stats_partial.remote(rp)
                                      for a in self.actors]))

    def bind_specs(self, specs: list) -> list:
        """``specs`` with each query bound (``query/parser.py::bind``)."""
        return [replace(s, query=bind(s.query, self.schema)) for s in specs]

    def evaluate(self, specs: list) -> list:
        """Answer every :class:`EvalSpec` in two rounds of actor calls,
        whatever their count: ONE stats exchange over the union of their
        stat requests, then ONE ``evaluate`` call per partition actor.
        Per spec: the merge-ranked table (score desc then key asc, cut to
        ``k``), or for a facet the terms table (count desc then value
        asc, pg_search facet semantics, `aggregate/mod.rs` terms agg).
        Each spec's query is bound here, once: the actors never parse."""
        specs = self.bind_specs(specs)
        return self.evaluate_bound(
            specs, self.global_stats(*[s.query for s in specs]))

    def evaluate_bound(self, specs: list, stats: GlobalStats) -> list:
        """``evaluate``'s second round alone: bound ``specs`` scored under
        ``stats`` (from ``global_stats`` or ``seal`` over their queries)
        in ONE ``evaluate`` call per partition actor, then merge-ranked."""
        sp, stp = pickle.dumps(specs), pickle.dumps(stats)
        per_actor = ray.get([a.evaluate.remote(sp, stp)
                             for a in self.actors])
        out = []
        for i, spec in enumerate(specs):
            parts = [p[i] for p in per_actor]
            if spec.facet_field:
                out.append(terms_facet(spec.facet_field, parts))
                continue
            t = concat_blocks(parts, _NO_COLUMNS)
            if t.num_rows:
                t = rank_head(t, ([("score", "descending")]
                                  if spec.with_score else [])
                              + [(c, "ascending") for c in self.cfg.key_cols],
                              spec.k)
            if spec.columns:
                t = t.select([c for c in spec.columns if c in t.column_names])
            out.append(t)
        return out

    def query_topk(self, query: Union[ast.Query, str], k: int = 10,
                   columns: Optional[list] = None,
                   with_score: bool = True,
                   snippet_cfg=None) -> pa.Table:
        return self.evaluate([EvalSpec(query, k, with_score,
                                       columns, snippet_cfg)])[0]

    def verify_index(self, heapallindexed: bool = False,
                     index_name: str = "bm25_index") -> pa.Table:
        """amcheck-style verification across all partitions —
        ``pdb.verify_index`` (`api/admin.rs:1103`,
        `verify_bm25_index.sql`): one (check_name, passed) row per check,
        a check passes only if it passes in EVERY partition."""
        parts = ray.get([a.verify.remote(heapallindexed)
                         for a in self.actors])
        merged: dict = {}
        for p in parts:
            for k, v in p.items():
                merged[k] = merged.get(k, True) and v
        names = sorted(merged)
        return pa.table({
            "check_name": pa.array([f"{index_name}: {k}" for k in names]),
            "passed": pa.array([merged[k] for k in names]),
        })

    def index_info(self) -> pa.Table:
        """Per-(partition, segment) stats — ``paradedb.index_info``
        (`api/admin.rs:282`): segno, component byte sizes, doc counts."""
        rows = [r for part in ray.get([a.index_info.remote()
                                       for a in self.actors]) for r in part]
        if not rows:
            return pa.table({"partition": pa.array([], pa.int32())})
        cols = list(rows[0])
        return pa.table({c: [r[c] for r in rows] for c in cols})

    def index_layer_info(self, index_name: str = "bm25_index") -> pa.Table:
        """Layer-band view of the merge ladder — ``pdb.index_layer_info``
        (`index_layer_info.sql`, `api/admin.rs:959`): one row per ladder
        band (pg_size_pretty bounds, largest first) with the count and
        total bytes of sealed segments currently in that band."""
        from paradedb_ray.streaming.merge_policy import DEFAULT_LAYER_SIZES

        ladder = sorted(self.cfg.layer_sizes or DEFAULT_LAYER_SIZES)
        info = self.index_info()
        sizes = []
        if info.num_rows and "byte_size" in info.column_names:
            mut = info.column("mutable").to_pylist()
            sizes = [b for b, m in zip(info.column("byte_size").to_pylist(),
                                       mut) if not m]

        def pretty(n: int) -> str:
            if n < 10 * 1024:
                return f"{n} bytes"
            kb = n // 1024
            if kb < 10 * 1024:
                return f"{kb} kB"
            return f"{kb // 1024} MB"

        bounds = [None] + ladder + [None]  # (lo, hi] bands, smallest first
        rows = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            label = (f"{pretty(lo) if lo else ''}.."
                     f"{pretty(hi) if hi else ''}")
            n = sum(1 for s in sizes
                    if (lo is None or s > lo) and (hi is None or s <= hi))
            b = sum(s for s in sizes
                    if (lo is None or s > lo) and (hi is None or s <= hi))
            rows.append((label, n, b))
        rows.reverse()  # largest band first, like the reference
        return pa.table({
            "relname": pa.array([index_name] * len(rows)),
            "layer_size": pa.array([r[0] for r in rows]),
            "segments": pa.array([r[1] for r in rows], pa.int64()),
            "byte_size": pa.array([r[2] for r in rows], pa.int64()),
        })

    def query_knn(self, field: str, query_vec, op: str = "<=>",
                  k: int = 10, filter_query: Union[ast.Query, str] = None,
                  columns: Optional[list] = None) -> pa.Table:
        """Distance-ordered top-k over a VECTOR field across all
        partitions, optionally restricted by a search filter — the
        streaming analogue of `WHERE ... @@@ ... ORDER BY vec <op> q
        LIMIT k` (`vector_search_pushdown.sql`).  Sees the mutable
        buffers, respects upsert/delete visibility, survives merges."""
        if filter_query is not None:
            filter_query = bind(filter_query, self.schema)
        fp = pickle.dumps(filter_query) if filter_query is not None else None
        sp = (pickle.dumps(self.global_stats(filter_query))
              if filter_query is not None else None)
        parts = ray.get([a.knn.remote(field, np.asarray(query_vec,
                                                        np.float32),
                                      op, k, fp, sp, columns)
                         for a in self.actors])
        out = concat_blocks(parts, _NO_COLUMNS)
        if not out.num_rows:
            return out
        return rank_head(out, [("distance", "ascending")]
                         + [(c, "ascending") for c in self.cfg.key_cols
                            if c in out.column_names], k)

    def query_matches(self, query: Union[ast.Query, str],
                      columns: Optional[list] = None) -> pa.Table:
        """Full match set across partitions (standing-query emission)."""
        return self.evaluate([EvalSpec(query, columns=columns)])[0]

    def facet(self, query: Union[ast.Query, str], field: str) -> pa.Table:
        """Terms facet over the standing match set."""
        return self.evaluate([EvalSpec(query, facet_field=field)])[0]

    def metrics(self) -> list:
        return ray.get([a.metrics.remote() for a in self.actors])

    def warm(self) -> None:
        """Exercise every partition actor's ingest code path with
        throwaway local data (no state change) — a standing deployment's
        actors are persistent, so timed runs should be hot."""
        ray.get([a.warm.remote() for a in self.actors])

    def num_docs(self) -> int:
        return sum(ray.get([a.num_docs.remote() for a in self.actors]))

    # -- checkpoint / resume ------------------------------------------------

    def checkpoint(self, epoch: Optional[int] = None) -> dict:
        assert self.checkpoint_dir, "engine created without checkpoint_dir"
        if epoch is None:
            epoch = self.epoch
        files = ray.get([a.checkpoint.remote(self.checkpoint_dir, epoch)
                         for a in self.actors])
        meta = {"epoch": epoch, "num_partitions": self.cfg.num_partitions,
                "hot": sorted(self.hot)}
        tmp = os.path.join(self.checkpoint_dir, "engine.json.tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(self.checkpoint_dir, "engine.json"))
        return {"epoch": epoch, "files": files}

    def restore(self) -> int:
        """Restore every partition from its latest manifest; returns the
        restored epoch (-1 if no checkpoint)."""
        assert self.checkpoint_dir
        epochs = ray.get([a.restore.remote(self.checkpoint_dir)
                          for a in self.actors])
        meta_path = os.path.join(self.checkpoint_dir, "engine.json")
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                self.hot = set(json.load(f).get("hot", []))
        e = min(epochs) if epochs else -1
        self.epoch = e + 1 if e >= 0 else 0
        # replayed epochs (> e) regenerate their original __arr stamps
        self._arr_next = (e + 1) << 40 if e >= 0 else 0
        return e

    def shutdown(self):
        for a in self.actors:
            ray.kill(a)
        self.actors = []


# ---------------------------------------------------------------------------
# Exactly-once micro-batch driver
# ---------------------------------------------------------------------------


def _write_atomic_parquet(table: pa.Table, path: str):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _pattern_reducer(sess_ref, steps, emit, within_us, conv_col, turn_col,
                     ts_col, out_schema):
    """Per-partition session-close CEP kernel (runs inside a reduce task):
    join this partition's closed-conv turns, projected to the columns the
    pattern reads, onto the broadcast closed-session intervals, then the
    batch CEP scan (``windows.py::sequence_matches``) keyed by (conv,
    session_start) in (ts, turn) order — matches never cross a session
    or a conversation.  Returns only matches (tiny vs the turn volume)."""
    read = list(dict.fromkeys([conv_col, turn_col, ts_col]
                              + [c for c, _ in steps]
                              + [c for _, c, _ in emit]))

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        sess = ray.get(sess_ref)
        sess = pa.table({
            conv_col: sess.column("conv_id").cast(t.schema.field(
                conv_col).type),
            "session_start": sess.column("session_start"),
            "session_end": sess.column("session_end")})
        j = payload_safe_join(t.select(read), sess, [conv_col], "inner")
        ts = _ts_us(j, ts_col)
        start = j.column("session_start").to_numpy(zero_copy_only=False)
        end = j.column("session_end").to_numpy(zero_copy_only=False)
        j = j.filter(pa.array((ts >= start) & (ts <= end)))
        out = sequence_matches(
            j, [conv_col, "session_start"],
            [(ts_col, "ascending"), (turn_col, "ascending")],
            steps, emit, within_us, ts_col)
        return out.rename_columns(out_schema.names).cast(out_schema)

    return reduce


#: hash shards of the compacted sessions snapshot — each shard folds
#: independently (groups of shards fold in O(CPUs) parallel Ray tasks),
#: and the snapshot layout is already the partitioned-output shape a
#: multi-node sink needs.  A fold rewrites only the shards the un-folded
#: tail touches, and only at a checkpoint tick whose tail has grown to
#: the snapshot's size (``EpochRunner._compact_sessions``), so shard
#: rewrites amortize to O(1) per emitted row
_SESSION_SHARDS = 16


def _session_shard_of(conv_ids: "pa.ChunkedArray") -> "np.ndarray":
    import numpy as np
    import pandas as pd

    h = pd.util.hash_array(conv_ids.to_numpy(zero_copy_only=False))
    return (h % np.uint64(_SESSION_SHARDS)).astype(np.int64)


def _latest_sessions_view(t: pa.Table,
                          drop_tombstones: bool = True) -> pa.Table:
    """Latest emission per (conv_id, session_start) identity, ordered by
    identity; tombstones (n_turns=0) optionally dropped.  A stable sort on
    (conv_id, session_start, epoch) puts each identity's rows together,
    its latest epoch last and, within one epoch, the rows in input order,
    so the last row of each run of equal identities wins.  The ONE fold
    kernel shared by the driver-side ``read_sessions`` and the per-shard
    read and fold tasks — parity by construction."""
    import pyarrow.compute as pc

    t, start = sort_runs(t, ["conv_id", "session_start"],
                         [("epoch", "ascending")])
    if t.num_rows:
        t = t.filter(pa.array(np.r_[start[1:], True]))
    if drop_tombstones:
        t = t.filter(pc.greater(t.column("n_turns"), 0))
    return t


def _shard_view(shard_path, rows, drop_tombstones: bool) -> pa.Table:
    """Compacted snapshot of ONE hash shard (read here, inside the task —
    the driver never touches shard payloads) + the tail rows hashed to
    it, folded by ``_latest_sessions_view``."""
    snap = (pq.read_table(shard_path)
            if shard_path and os.path.exists(shard_path) else None)
    parts = [t for t in (snap, rows) if t is not None and t.num_rows]
    if not parts:
        return pa.table({})
    return _latest_sessions_view(
        pa.concat_tables(parts, promote_options="default"), drop_tombstones)


@ray.remote
def _read_session_shard(shard_path, tail_rows) -> pa.Table:
    """Read-side fold of one shard -> latest-per-identity live sessions.
    One task per shard makes ``read_sessions_dataset`` a distributed read
    that returns without materializing any shard on the driver."""
    return _shard_view(shard_path, tail_rows, drop_tombstones=True)


@ray.remote
def _fold_session_shards(*jobs) -> list:
    """Fold each ``(tail rows, shard path)`` job's rows into that shard's
    snapshot and return the snapshots' new row counts.  Tombstones
    (n_turns=0) are KEPT — they void earlier emissions and the read-side
    filter drops them, so folding is a pure supersede, never a semantic
    change.  Each shard write is atomic; re-folding the same inputs is
    idempotent."""
    counts = []
    for new_rows, out_path in jobs:
        out = _shard_view(out_path, new_rows, drop_tombstones=False)
        _write_atomic_parquet(out, out_path)
        counts.append(out.num_rows)
    return counts


class EpochRunner:
    """Drives a transcript stream through the engine in epochs with an
    idempotent, exactly-once parquet sink.

    Source = any ray Dataset / Arrow table already split into epoch tables
    (micro-batches in arrival order).  An epoch is five rounds of
    partition-actor calls, whatever its query count:

        ingest   -> route the epoch's rows to the partition actors
        seal     -> drain dead letters, advance the watermark (max ts seen
                    - lateness, closing sessions) and take the stats
                    partials of every standing query and facet
        evaluate -> score them all under those stats
                    (sink: dead letters, closed sessions, patterns, each
                    query's top-k and each facet, one file per epoch)
        settle   -> merge tick + per-partition metrics
                    (sessions compaction, metrics/epoch=K.json, commit
                    marker)
        checkpoint

    A finished epoch is recognised by its ``_COMMIT`` marker; re-running
    skips it (exactly-once under restart).  The checkpoint is written only
    after the marker, so a crash before the marker leaves the engine state
    at the previous checkpoint and the epoch replays in full.
    ``resume()`` restores engine state from the checkpoint and continues
    from the first uncommitted epoch.
    """

    def __init__(self, engine: StreamEngine, sink_dir: str,
                 standing_queries: dict,
                 topk: int = 10, columns: Optional[list] = None,
                 checkpoint_every: int = 1,
                 query_stream: Optional[list] = None,
                 facets: Optional[dict] = None,
                 snippet_cfg=None,
                 patterns: Optional[dict] = None):
        self.engine = engine
        self.sink_dir = sink_dir
        self.standing = dict(standing_queries)  # name -> Query | str
        self.facets = dict(facets or {})        # name -> (query, field)
        # standing CEP pattern queries evaluated on SESSION CLOSE: when the
        # watermark closes a session, its turns are gathered from the
        # owning partitions and scanned for adjacent followed-by sequences
        # (the CEP scan of `pipelines/windows.py::sequence_matches`).
        # name -> {"steps": [(col, value), ...],
        #          "emit": [(step_idx, col, out_name), ...],
        #          "within": "30m" | None}
        # Emissions go to sink/patterns/<name>/epoch=K.parquet under the
        # same commit-marker protocol as every other sink (exactly-once);
        # a late-data re-close under the same session identity re-emits
        # that session's matches in the re-closing epoch.
        self.patterns = dict(patterns or {})
        self.snippet_cfg = snippet_cfg          # SnippetConfig | None
        self.topk = topk
        self.columns = columns
        self.checkpoint_every = checkpoint_every
        # the query stream: [(epoch, "add"|"remove", name, query|None)] —
        # standing queries arrive/retire over time; each epoch joins the
        # live query set against the indexed turn stream (the stateful
        # query-stream ⋈ turn-stream join of the north rule)
        self.query_stream = sorted(query_stream or [], key=lambda e: e[0])
        # highest epoch known to be reflected in the ENGINE state (ingested
        # this session, or restored from checkpoint via resume()).  A commit
        # marker alone is not enough: with checkpoint_every > 1 an epoch can
        # be committed on disk yet absent from the restored state — such
        # epochs replay their ingest (idempotent upsert) while their sink
        # emissions stay untouched (ADVICE r1 #2).
        self._state_epoch = -1
        self._footers: dict = {}  # path -> (stat stamp, _sessions_footer)
        os.makedirs(sink_dir, exist_ok=True)

    def _apply_query_stream(self, epoch: int):
        for ev in self.query_stream:
            ep, op, name = ev[0], ev[1], ev[2]
            if ep != epoch:
                continue
            if op == "add":
                self.standing[name] = ev[3]
            elif op == "remove":
                self.standing.pop(name, None)

    def _commit_marker(self, epoch: int) -> str:
        return os.path.join(self.sink_dir, f"epoch={epoch:06d}._COMMIT")

    def epoch_done(self, epoch: int) -> bool:
        return os.path.exists(self._commit_marker(epoch))

    def _watermark_for(self, table: pa.Table) -> int:
        eng = self.engine
        ts_max = pa.compute.max(
            table.column(eng.cfg.ts_col).cast(pa.int64())).as_py()
        if ts_max is None:  # empty epoch: watermark holds
            return max(ray.get([a.metrics.remote() for a in eng.actors]),
                       key=lambda m: m["watermark"])["watermark"]
        return int(ts_max) - eng.cfg.lateness_us

    def run_epoch(self, epoch: int, table: pa.Table) -> dict:
        self._apply_query_stream(epoch)  # deterministic: replayed on resume
        eng = self.engine
        tick = epoch % self.checkpoint_every == 0 and bool(eng.checkpoint_dir)
        if self.epoch_done(epoch):
            if epoch > self._state_epoch:
                # committed but newer than the engine state (crash landed
                # between the commit marker and the next checkpoint):
                # replay ingest + watermark so later epochs see these rows;
                # the epoch's own emissions are immutable history — no sink
                # writes, and the dead letters are discarded (ADVICE r1 #2)
                eng.epoch = epoch
                info = eng.ingest(table, epoch=epoch)
                eng.seal(self._watermark_for(table), epoch)
                eng.merge_tick()
                if tick:
                    eng.checkpoint(epoch)
                self._state_epoch = epoch
                return {"epoch": epoch, "skipped": True, "replayed": True,
                        "rows": info["rows"]}
            return {"epoch": epoch, "skipped": True}
        eng.epoch = epoch
        phase_ms = {}
        t0 = time.perf_counter()

        def lap(name):
            nonlocal t0
            t = time.perf_counter()
            phase_ms[name] = round(1e3 * (t - t0), 3)
            t0 = t

        info = eng.ingest(table, epoch=epoch)
        lap("ingest")
        # every standing query and facet of the epoch: their stats come
        # with the seal, then one evaluate call per partition actor,
        # whatever their count
        specs = [EvalSpec(q, self.topk, columns=self.columns,
                          snippet_cfg=self.snippet_cfg)
                 for q in self.standing.values()]
        specs += [EvalSpec(fq, facet_field=ffield)
                  for fq, ffield in self.facets.values()]
        specs = eng.bind_specs(specs)
        wm = self._watermark_for(table)
        dead, sessions, stats = eng.seal(wm, epoch,
                                         [s.query for s in specs])
        lap("seal")
        results = eng.evaluate_bound(specs, stats) if specs else []
        lap("evaluate")
        # dead-letter side output: rows beyond the lateness horizon are
        # recoverable from the sink instead of silently dropped — one file
        # per epoch, so a crash-replay rewrites the same path (idempotent)
        if dead is not None and dead.num_rows:
            _write_atomic_parquet(
                dead, os.path.join(self.sink_dir, "dead_letter",
                                   f"epoch={epoch:06d}.parquet"))
        if sessions.num_rows:
            _write_atomic_parquet(
                sessions, os.path.join(self.sink_dir, "sessions",
                                       f"epoch={epoch:06d}.parquet"))
        if self.patterns:
            self._emit_patterns(epoch, sessions, table.schema)
        n_standing = len(self.standing)
        for name, res in zip(self.standing, results[:n_standing]):
            if res.num_rows == 0:
                res = pa.table({"epoch": pa.array([], pa.int64())})
            else:
                res = res.append_column(
                    "epoch", pa.array([epoch] * res.num_rows, pa.int64()))
            _write_atomic_parquet(
                res, os.path.join(self.sink_dir, name,
                                  f"epoch={epoch:06d}.parquet"))
        for name, ft in zip(self.facets, results[n_standing:]):
            ft = ft.append_column("epoch",
                                  pa.array([epoch] * ft.num_rows, pa.int64()))
            # facets live under their own namespace: a facet named like a
            # standing query must NOT overwrite its emissions (ADVICE r1 #4)
            _write_atomic_parquet(
                ft, os.path.join(self.sink_dir, "facets", name,
                                 f"epoch={epoch:06d}.parquet"))
        lap("sink")
        _, partitions = eng.settle()
        lap("settle")
        fold = self._compact_sessions(tick)
        lap("compaction")
        # per-partition metrics lineage (ingested/late/retracted/reopened,
        # segment + watermark state) and the epoch's phase timings — one
        # JSON per epoch
        mdir = os.path.join(self.sink_dir, "metrics")
        os.makedirs(mdir, exist_ok=True)
        mtmp = os.path.join(mdir, f"epoch={epoch:06d}.json.tmp")
        with open(mtmp, "w") as f:
            json.dump({"epoch": epoch, "watermark": wm,
                       "live_queries": sorted(self.standing),
                       "partitions": partitions, **fold,
                       "phase_ms": phase_ms}, f)
        os.replace(mtmp, os.path.join(mdir, f"epoch={epoch:06d}.json"))
        # commit marker after every sink write: the epoch is replayed in
        # full on a crash before this point, and every write above is
        # idempotent (same path, same deterministic content but for the
        # metrics' phase timings) -> effectively exactly-once.  The
        # checkpoint comes AFTER it: a
        # crash in between leaves a committed epoch newer than the
        # checkpoint, which the next run re-ingests without emitting.
        with open(self._commit_marker(epoch), "w") as f:
            f.write(json.dumps({"rows": info["rows"]}))
        if tick:
            eng.checkpoint(epoch)
        self._state_epoch = epoch
        return {"epoch": epoch, "rows": info["rows"], "watermark": wm}

    def run(self, epoch_tables: list, start_epoch: int = 0) -> list:
        out = []
        for i, t in enumerate(epoch_tables):
            out.append(self.run_epoch(start_epoch + i, t))
        return out

    def resume(self) -> int:
        """Restore engine state; next call to ``run`` with the same source
        re-ingests committed epochs newer than the restored checkpoint
        (sink untouched) and replays the rest in full."""
        e = self.engine.restore()
        self._state_epoch = e
        return e

    def _emit_patterns(self, epoch: int, sessions: pa.Table,
                       template: pa.Schema) -> None:
        """Evaluate every standing CEP pattern over the sessions CLOSED
        this epoch and emit matches exactly-once.

        Fully distributed: each partition actor filters its own segments
        down to the closed conversations and the blocks stay in the
        object store as a ``ray.data`` Dataset; the closed-session table
        (conv, start, end triples — bounded by sessions closing this
        epoch) broadcasts via ``ray.put``; ONE hash shuffle per pattern
        co-locates a conversation's turns, and each reducer runs the
        batch CEP scan (``windows.py::sequence_matches``).  Only the
        MATCHES return to the driver for the sink write — the closed
        sessions' turns never materialize on the driver (the
        read_sessions lesson, VERDICT r4 #2).  Per-session (conv, session_start) runs keep matches from
        crossing a session or a conversation; a late-arrival re-close
        under the same session identity re-runs the pattern over the
        updated turn set and re-emits in the re-closing epoch (latest
        epoch wins downstream, exactly like the sessions sink)."""
        import ray.data

        from paradedb_ray.pipelines.aggregate import _parse_fixed_interval
        from paradedb_ray.stages.hash_agg import hash_partition_apply

        eng = self.engine
        conv_col = eng.cfg.key_cols[0]
        turn_col = eng.cfg.key_cols[1]
        ts_col = eng.cfg.ts_col
        real = sessions.filter(
            pa.compute.greater(sessions.column("n_turns"), 0))
        if real.num_rows == 0:
            return
        need = {conv_col, turn_col, ts_col}
        for spec in self.patterns.values():
            need.update(c for c, _ in spec["steps"])
            need.update(c for _, c, _ in spec["emit"])
        need = sorted(need)
        convs = list(set(real.column("conv_id").to_pylist()))
        refs = [a.conv_rows.remote(convs, need, template)
                for a in eng.actors]
        ds = ray.data.from_arrow_refs(refs)
        sess_ref = ray.put(real.select(
            ["conv_id", "session_start", "session_end"]).combine_chunks())
        tmpl_types = {f.name: f.type for f in template}
        for name, spec in self.patterns.items():
            steps, emit = list(spec["steps"]), list(spec["emit"])
            w_us = (_parse_fixed_interval(spec["within"])
                    if spec.get("within") else None)
            out_schema = pa.schema(
                [pa.field("conv_id", pa.string()),
                 pa.field("session_start", pa.int64())]
                + [pa.field(out, tmpl_types[col]) for _, col, out in emit])
            reducer = _pattern_reducer(sess_ref, steps, emit, w_us,
                                       conv_col, turn_col, ts_col,
                                       out_schema)
            out = collect_table(
                hash_partition_apply(ds, [conv_col], reducer), out_schema)
            # tombstones: sessions closed THIS epoch with zero matches.
            # Without them, a late-arrival re-close whose inserted turn
            # BREAKS a previously-emitted match could never void it —
            # read_patterns keeps only each session's latest epoch, so
            # the tombstone row supersedes the stale match rows.
            matched = set(zip(out.column("conv_id").to_pylist(),
                              out.column("session_start").to_pylist()))
            closed = list(zip(real.column("conv_id").to_pylist(),
                              real.column("session_start").to_pylist()))
            miss = [cs for cs in dict.fromkeys(closed)
                    if cs not in matched]
            out = out.append_column(
                "__match", pa.array([True] * out.num_rows, pa.bool_()))
            if miss:
                tomb_cols = {"conv_id": pa.array([c for c, _ in miss],
                                                 pa.string()),
                             "session_start": pa.array(
                                 [s for _, s in miss], pa.int64())}
                for f in out_schema:
                    if f.name not in tomb_cols:
                        tomb_cols[f.name] = pa.nulls(len(miss), f.type)
                tomb_cols["__match"] = pa.array([False] * len(miss),
                                                pa.bool_())
                out = pa.concat_tables(
                    [out, pa.table(tomb_cols, schema=out.schema)],
                    promote_options="default")
            out = out.append_column(
                "epoch", pa.array([epoch] * out.num_rows, pa.int64()))
            # deterministic row order: to_arrow_refs block order is NOT
            # stable under load (CLAUDE.md invariant) and a crash-replay
            # must rewrite byte-identical sink content
            out = rank_head(out, [(c, "ascending")
                                  for c in out.column_names], None)
            _write_atomic_parquet(
                out, os.path.join(self.sink_dir, "patterns", name,
                                  f"epoch={epoch:06d}.parquet"))

    def read_patterns(self, name: str) -> pa.Table:
        """Current matches of a standing pattern: every emission, with
        each (conv, session_start) superseded by its LATEST closing
        epoch (so a late re-close that voided a match actually voids
        it — the epoch files carry tombstone rows for match-less
        closes).  Convenience driver-side reader; the per-epoch parquet
        files are the scalable interface."""
        d = os.path.join(self.sink_dir, "patterns", name)
        if not os.path.isdir(d):
            return pa.table({})
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        if not files:
            return pa.table({})
        t = pa.concat_tables(
            [pq.read_table(os.path.join(d, f)) for f in files],
            promote_options="default")
        # each identity's run, latest epoch first: a row is current when
        # its epoch is its run's first
        t, start = sort_runs(t, ["conv_id", "session_start"],
                             [("epoch", "descending")])
        epoch = t.column("epoch").to_numpy()
        first = np.arange(t.num_rows) - run_offsets(start)
        t = t.filter(pa.compute.and_(pa.array(epoch == epoch[first]),
                                     t.column("__match")))
        return t.drop_columns(["__match"])

    def read_facet(self, name: str) -> pa.Table:
        """Latest-epoch view of a facet's emissions."""
        d = os.path.join(self.sink_dir, "facets", name)
        if not os.path.isdir(d):
            return pa.table({})
        files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        if not files:
            return pa.table({})
        return pq.read_table(os.path.join(d, files[-1]))

    def _compact_sessions(self, tick: bool) -> dict:
        """Log-structured fold of the sessions sink.  Per-epoch emissions
        (``sessions/epoch=*.parquet``) form an un-folded tail beside a
        hash-sharded compacted snapshot; a checkpoint ``tick`` folds the
        tail into the snapshot only once the tail's rows reach the
        snapshot's rows (a doubling rule: amortized O(1) rewrites per row)
        or its bytes reach the first rung of the merge ladder
        (``DEFAULT_LAYER_SIZES[0]``; the reference merges small segments
        the same way, ``merge_policy.rs:103-300``).  A tail epoch no newer
        than the snapshot's newest is the trace of an interrupted fold and
        finishes it.  The decision reads only the directory (footers and
        sizes), so a resumed runner decides as an uninterrupted one.
        The touched shards fold in at most ``cluster_cpus()`` parallel
        Ray tasks (a small tail is one task, not one per shard); each
        shard write is atomic, and the tail files are removed only after
        every task returned — a crash in between re-folds identical rows
        (a no-op).  Returns the epoch's deterministic fold record for
        ``metrics/``."""
        from paradedb_ray.streaming.merge_policy import DEFAULT_LAYER_SIZES

        d = os.path.join(self.sink_dir, "sessions")
        files = (sorted(f for f in os.listdir(d) if f.startswith("epoch=")
                        and f.endswith(".parquet"))
                 if os.path.isdir(d) else [])
        tail = [os.path.join(d, f) for f in files]
        shards = [os.path.join(d, "compact", f"shard={k:02d}.parquet")
                  for k in range(_SESSION_SHARDS)]
        foot = {p: self._sessions_footer(p)
                for p in tail + [p for p in shards if os.path.exists(p)]}
        tail_rows = sum(foot[p][0] for p in tail)
        snap_rows = {k: foot[p][0] for k, p in enumerate(shards) if p in foot}
        folded = bool(tick and tail and (
            tail_rows >= sum(snap_rows.values())
            or sum(foot[p][2] for p in tail) >= DEFAULT_LAYER_SIZES[0]
            or min(foot[p][1] for p in tail)
            <= max((foot[p][1] for p in shards if p in foot), default=-1)))
        if folded:
            new = pa.concat_tables([pq.read_table(p) for p in tail],
                                   promote_options="default")
            shard = _session_shard_of(new.column("conv_id"))
            jobs = []
            for k in range(_SESSION_SHARDS):
                rows = new.take(pa.array(np.flatnonzero(shard == k),
                                         pa.int64()))
                if rows.num_rows:
                    jobs.append((k, rows))
            per = max(1, -(-len(jobs) // max(1, cluster_cpus())))
            groups = [jobs[i:i + per] for i in range(0, len(jobs), per)]
            refs = [_fold_session_shards.remote(
                *[(rows, shards[k]) for k, rows in g]) for g in groups]
            for g, counts in zip(groups, ray.get(refs)):
                snap_rows.update(zip((k for k, _ in g), counts))
            for p in tail:
                os.remove(p)
                self._footers.pop(p, None)
            tail_rows = 0
        return {"sessions_tail_rows": tail_rows,
                "sessions_snapshot_rows": sum(snap_rows.values()),
                "sessions_folded": folded}

    def _sessions_footer(self, path: str) -> tuple:
        """(rows, newest epoch, bytes) of a sessions parquet file, from its
        footer; cached per (inode, mtime, size) — every sink write is an
        atomic replace, so the cache always agrees with the footer."""
        st = os.stat(path)
        stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
        if self._footers.get(path, (None,))[0] != stamp:
            md = pq.read_metadata(path)
            col = md.schema.to_arrow_schema().get_field_index("epoch")
            newest = max(md.row_group(g).column(col).statistics.max
                         for g in range(md.num_row_groups))
            self._footers[path] = (stamp, (md.num_rows, newest, st.st_size))
        return self._footers[path][1]

    def read_sessions(self) -> pa.Table:
        """All closed sessions, latest emission per (conv_id,
        session_start) identity — late-data re-emissions supersede by
        epoch, and tombstones (n_turns=0) from bridged identities void
        their stale rows.  Reads the compacted snapshot shards plus only
        the per-epoch emissions newer than the last compaction."""
        d = os.path.join(self.sink_dir, "sessions")
        if not os.path.isdir(d):
            return pa.table({})
        paths = [os.path.join(d, f) for f in sorted(os.listdir(d))
                 if f.endswith(".parquet")]
        cdir = os.path.join(d, "compact")
        if os.path.isdir(cdir):
            paths += [os.path.join(cdir, f) for f in sorted(os.listdir(cdir))
                      if f.endswith(".parquet")]
        tables = [pq.read_table(p) for p in paths]
        if not tables:
            return pa.table({})
        t = pa.concat_tables(tables, promote_options="default")
        return _latest_sessions_view(t)

    def read_sessions_dataset(self) -> "ray.data.Dataset":
        """Distributed view of all closed sessions: one fold task per
        compacted hash shard (snapshot read INSIDE the task + the
        tail-epoch rows hashed to it), returned as a ``ray.data.Dataset``
        — the scale path for corpora whose closed-session set cannot fit
        on the driver.  Tail epochs are the only driver-side read; the
        fold trigger leaves them, after every checkpoint tick, fewer rows
        than the snapshot and fewer bytes than ``DEFAULT_LAYER_SIZES[0]``
        (``_compact_sessions``).  Same rows as ``read_sessions``
        (both call ``_latest_sessions_view``), shard-partitioned order."""
        import ray.data

        import numpy as np

        d = os.path.join(self.sink_dir, "sessions")
        if not os.path.isdir(d):
            return ray.data.from_arrow(pa.table({}))
        tail_paths = [os.path.join(d, f) for f in sorted(os.listdir(d))
                      if f.endswith(".parquet")]
        tail = (pa.concat_tables([pq.read_table(p) for p in tail_paths],
                                 promote_options="default")
                if tail_paths else None)
        cdir = os.path.join(d, "compact")
        shard_ids = (_session_shard_of(tail.column("conv_id"))
                     if tail is not None and tail.num_rows else None)
        refs = []
        for k in range(_SESSION_SHARDS):
            spath = os.path.join(cdir, f"shard={k:02d}.parquet")
            rows = None
            if shard_ids is not None:
                sel = np.flatnonzero(shard_ids == k)
                if len(sel):
                    rows = tail.take(pa.array(sel, pa.int64()))
            have_snap = os.path.exists(spath)
            if rows is None and not have_snap:
                continue
            refs.append(_read_session_shard.remote(
                spath if have_snap else None, rows))
        if not refs:
            return ray.data.from_arrow(pa.table({}))
        return ray.data.from_arrow_refs(refs)
