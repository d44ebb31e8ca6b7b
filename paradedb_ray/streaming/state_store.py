"""Per-partition BM25 state-store actor — the streaming heart of the engine.

One actor owns one ``hash(conv_id) % P`` partition (single-writer-per-
partition discipline, mirroring pg_search's merge/vacuum locks
`postgres/storage/merge.rs`).  State:

* **mutable buffer** — the LSM memtable: incoming turn batches accumulate
  until ``mutable_rows`` (default 1000, max 10k — the reference's mutable
  segment, `pg_search/src/postgres/options.rs:73-74`), then freeze into an
  immutable :class:`Segment`.
* **sealed segments** — immutable postings built via ``build_segment``;
  background `merge_tick` compacts them in size tiers (layered merge policy,
  `pg_search/src/index/merge_policy.rs:103-300`).
* **keys / tombstones** — upsert on the ``(conv_id, turn_idx)`` key: a
  re-arrival replaces the old row (watermark-bounded retraction); the old
  copy is tombstoned and physically dropped at the next merge/vacuum
  (MVCC visibility + vacuum, `directory/mvcc.rs`, `delete.rs`).
* **session windows** — ``advance_watermark`` closes every conversation
  whose gap-extended interval the watermark passes and emits a session
  summary row (per-session, gap-merge semantics — same as the batch
  session oracle); a
  post-close arrival inside the lateness bound re-opens the session
  (re-emitted under a later epoch; the exactly-once sink keeps the latest).
* **checkpoint** — per-partition manifest (JSON lineage: epoch, seq,
  watermark, segment files) + segment payloads; ``restore`` resumes.

Everything row-level is vectorized numpy/Arrow; actor methods receive whole
Arrow tables through the object store (zero-copy).
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa

import ray

from paradedb_ray.index.searcher import GlobalStats, Hits, Searcher
from paradedb_ray.index.segment import Segment, build_segment
from paradedb_ray.schema import IndexSchema


_ZSTD_CODEC = None


def _zstd_compress(data: bytes) -> bytes:
    """zstd (level 1 default) for checkpoint segment payloads — text-heavy
    pickles compress 3-4x, and checkpoint epochs are IO-bound in the soak;
    pyarrow bundles the codec, so no new dependency."""
    global _ZSTD_CODEC
    if _ZSTD_CODEC is None:
        _ZSTD_CODEC = pa.Codec("zstd")
    # pyarrow's zstd decompress needs the raw size: prepend it (8 LE bytes)
    return (len(data).to_bytes(8, "little")
            + _ZSTD_CODEC.compress(data, asbytes=True))


def _zstd_decompress(data: bytes) -> bytes:
    global _ZSTD_CODEC
    if _ZSTD_CODEC is None:
        _ZSTD_CODEC = pa.Codec("zstd")
    n = int.from_bytes(data[:8], "little")
    return _ZSTD_CODEC.decompress(data[8:], decompressed_size=n,
                                  asbytes=True)


def _key_hash(conv: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """Vectorized, process-stable 64-bit key for (conv_id, turn_idx)
    (pandas' fixed-key siphash — safe to persist in checkpoints; Python's
    ``hash`` is randomized per process and must NOT be used here)."""
    import pandas as pd

    h = pd.util.hash_array(np.asarray(conv, dtype=object)).astype(np.int64)
    return h * np.int64(1_000_003) + turn.astype(np.int64)


@dataclass
class EvalSpec:
    """One request of an epoch's shared evaluation
    (:meth:`Bm25PartitionStore.evaluate`): the ``k`` best hits by score
    desc then key asc (``k=None``: every match), or, with
    ``facet_field``, that field's value counts over the matches."""

    query: object
    k: Optional[int] = None
    with_score: bool = True
    columns: Optional[list] = None
    snippet_cfg: object = None
    facet_field: Optional[str] = None


@ray.remote
class Bm25PartitionStore:
    def __init__(self, part_id: int, schema_pickle: bytes,
                 mutable_rows: int = 1000,
                 session_gap_us: int = 1_800_000_000,
                 lateness_us: int = 3_600_000_000,
                 key_cols=("conv_id", "turn_idx"),
                 ts_col: str = "ts",
                 layer_sizes=None):
        self.part_id = part_id
        self.schema: IndexSchema = pickle.loads(schema_pickle)
        self.mutable_rows = mutable_rows
        self.session_gap_us = session_gap_us
        self.lateness_us = lateness_us
        self.key_cols = tuple(key_cols)
        self.ts_col = ts_col
        self.layer_sizes = tuple(layer_sizes) if layer_sizes else None

        self.mutable: list = []          # list[pa.Table]
        self.mutable_count = 0
        # the buffer's searchable segment, built on first query and
        # dropped whenever ``mutable`` changes
        self._mutable_seg = None
        self.sealed: list = []           # list[Segment]
        # key hash -> __seq of the LIVE copy; a stored row is visible iff
        # live_seq[key] == row.__seq (MVCC-style visibility, one dict per
        # partition instead of ctid heap checks)
        self.live_seq: dict = {}
        # key hash -> arrival index (__arr) of the live copy.  __arr is a
        # deterministic global arrival order stamped by the ROUTER, so
        # upserts resolve identically whether batches arrive through the
        # sequential driver path or out-of-order from parallel shard
        # routers: highest __arr wins, a stale arrival is dead-on-arrival.
        self.live_arr: dict = {}
        self.row_seq = 0                 # monotone per-partition row counter
        self.n_dead = 0                  # superseded/retracted copies pending
        # conv_id -> sorted list of merged session intervals
        # [start, end, n_turns, emitted_start|None] — standard gap-merge
        # session windows (two turns share a session iff their gap-extended
        # intervals touch).  ``emitted_start`` is the session's STABLE sink
        # identity, frozen at first emission; a late merge that changes an
        # emitted session re-emits under the same identity (exactly-once
        # sink keeps the latest epoch).  Sessions past the lateness horizon
        # are EVICTED, so per-partition session state is bounded by churn,
        # not by total history.
        self.sessions: dict = {}
        self.conv_counts: dict = {}      # conv_id -> n turns (hot detection)
        self.absorbed: list = []         # (conv, emitted_start) tombstones
        self.n_emitted = 0               # emitted-session counter (metrics)
        self.watermark = -(1 << 62)
        self.seq = 0                     # ingest sequence (lineage)
        # monotone per-partition segment uid: sealed segments are immutable,
        # so a uid identifies its payload forever — checkpoints only write
        # uids they have not persisted yet (incremental, like tantivy
        # segment files surviving across commits)
        self.next_seg_uid = 0
        # live-map checkpoint deltas: arrival triples since the last
        # checkpoint — checkpoints persist only NEW upsert decisions, a
        # periodic base snapshot compacts the replay chain (same shape as
        # the incremental segment files: cost ~ new data, not total keys)
        self._live_delta: list = []
        self._live_files: list = []   # persisted delta files, replay order
        self._live_base: str = None   # latest base snapshot file
        self._live_rows_persisted = 0
        self.metrics_ = {"ingested": 0, "late_dropped": 0, "retractions": 0,
                         "reopened": 0, "freezes": 0, "merges": 0}
        # dead-letter side output: rows beyond the lateness horizon are
        # dropped from the index but buffered here (epoch, table) until
        # the runner drains them to the sink — the streaming analogue of
        # Flink/Beam late-data side outputs, so "late_dropped" is a
        # recoverable stream, not silent data loss
        self._dead_letter: list = []

    def _new_uid(self) -> int:
        u = self.next_seg_uid
        self.next_seg_uid += 1
        return u

    # -- ingest -------------------------------------------------------------

    def ingest(self, table: pa.Table, epoch: int = 0) -> dict:
        if table.num_rows == 0:
            return {"part": self.part_id, "n": 0}
        conv = table.column(self.key_cols[0]).to_numpy(zero_copy_only=False)
        turn = table.column(self.key_cols[1]).to_numpy(zero_copy_only=False)
        ts = table.column(self.ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)

        # drop rows later than the lateness bound behind the watermark
        ok = ts >= self.watermark - self.lateness_us
        n_late = int((~ok).sum())
        self.metrics_["late_dropped"] += n_late
        if n_late:
            dead = table.filter(pa.array(~ok))
            if "__arr" in dead.column_names:
                dead = dead.drop_columns(["__arr"])
            self._dead_letter.append((epoch, dead))
            table = table.filter(pa.array(ok))
            conv, turn, ts = conv[ok], turn[ok], ts[ok]
        if table.num_rows == 0:
            return {"part": self.part_id, "n": 0, "late": n_late}

        keys_np = _key_hash(conv, turn)
        keys = keys_np.tolist()
        seqs = np.arange(self.row_seq, self.row_seq + len(keys),
                         dtype=np.int64)
        self.row_seq += len(keys)
        arr = (table.column("__arr").to_numpy(zero_copy_only=False)
               if "__arr" in table.column_names else None)
        self._live_delta.append((keys_np, seqs, arr))
        live_seq, live_arr = self.live_seq, self.live_arr
        n_retract = 0
        n_doa = 0  # dead on arrival (stale __arr raced a newer copy)
        fresh = np.empty(len(keys), dtype=bool)  # first arrival of its key
        # fast path: no in-batch duplicate keys (the common case) — probe
        # collisions with C-speed set intersection + np.isin, bulk-update
        # the live maps for the disjoint remainder, and run the sequential
        # arbitration only on the (usually tiny) colliding subset
        key_set = set(keys)
        if len(key_set) == len(keys):
            # membership must probe live_seq (a superset of live_arr: a
            # key first ingested without a router stamp has no live_arr
            # entry but still supersedes)
            inter = live_seq.keys() & key_set
            if not inter:
                fresh[:] = True
                live_seq.update(zip(keys, seqs.tolist()))
                if arr is not None:
                    live_arr.update(zip(keys, arr.tolist()))
            else:
                hit = np.isin(keys_np,
                              np.fromiter(inter, dtype=keys_np.dtype,
                                          count=len(inter)))
                fresh[:] = ~hit
                miss_rows = np.flatnonzero(~hit)
                ks = [keys[i] for i in miss_rows]
                live_seq.update(zip(ks, seqs[miss_rows].tolist()))
                if arr is not None:
                    live_arr.update(zip(ks, arr[miss_rows].tolist()))
                    for i in np.flatnonzero(hit).tolist():
                        k, a = keys[i], int(arr[i])
                        prev = live_arr.get(k)  # None: legacy-stamped key
                        if prev is None or a >= prev:
                            n_retract += 1
                            live_seq[k] = int(seqs[i])
                            live_arr[k] = a
                        else:
                            n_doa += 1
                else:
                    for i in np.flatnonzero(hit).tolist():
                        n_retract += 1
                        live_seq[keys[i]] = int(seqs[i])
            if n_retract:
                self.metrics_["retractions"] += n_retract
            self.n_dead += n_retract + n_doa
            return self._ingest_tail(table, conv, ts, fresh, seqs, n_late)
        if arr is None:
            # no router stamp: arrival order == call order (legacy path)
            for i, (k, s) in enumerate(zip(keys, seqs.tolist())):
                if k in live_seq:
                    n_retract += 1
                    fresh[i] = False
                else:
                    fresh[i] = True
                live_seq[k] = s
        else:
            for i, (k, s, a) in enumerate(zip(keys, seqs.tolist(),
                                              arr.tolist())):
                prev = live_arr.get(k)
                if prev is None or a >= prev:
                    if prev is not None or k in live_seq:
                        n_retract += 1  # supersedes an existing live copy
                        fresh[i] = False
                    else:
                        fresh[i] = True
                    live_seq[k] = s
                    live_arr[k] = a
                else:
                    n_doa += 1
                    fresh[i] = False
        if n_retract:
            self.metrics_["retractions"] += n_retract
        self.n_dead += n_retract + n_doa
        return self._ingest_tail(table, conv, ts, fresh, seqs, n_late)

    def _ingest_tail(self, table: pa.Table, conv, ts, fresh, seqs,
                     n_late: int) -> dict:
        if "__arr" in table.column_names:
            # arbitration state lives in live_arr; dropping the stamp
            # keeps one schema across stamped/legacy batches (freeze
            # concatenates the buffer) and shrinks stored segments
            table = table.drop_columns(["__arr"])
        table = table.append_column("__seq", pa.array(seqs, pa.int64()))

        # session-window maintenance: merge each turn into the conv's
        # interval set (gap-merge semantics, identical to the batch
        # session oracle); merging into an already-emitted session marks
        # it for re-emission (late-data correction / "reopen").  Only the
        # FIRST arrival of a key counts toward n_turns — upserts replace a
        # live turn (the batch oracle sees one row) and stale arrivals are
        # dead; a re-arrival still widens the interval it falls inside.
        gap = self.session_gap_us
        if fresh.all() and len(conv):
            # all-fresh fast path (the steady-stream common case): group
            # rows by conv and gap-split each conv's ts chain in numpy,
            # then merge per CHAIN instead of per row.  Point-by-point
            # gap-merge of a fresh point set is its connectivity closure,
            # so chain-merge is result-identical (processing in ts order;
            # re-arrival edge cases never reach here — any non-fresh row
            # falls back to the per-row loop below).
            self._sessions_merge_fresh(conv, ts, gap)
            return self._ingest_finish(table, n_late)
        for c, t, f in zip(conv, ts, fresh):
            t = int(t)
            if f:
                self.conv_counts[c] = self.conv_counts.get(c, 0) + 1
            lst = self.sessions.get(c)
            if lst is None:
                if not f:
                    continue
                self.sessions[c] = [[t, t, 1, None, False]]
                continue
            # sessions are few per conv (churn-bounded): linear scan
            joined = None
            for s in lst:
                if s[0] - gap <= t <= s[1] + gap:
                    joined = s
                    break
            if joined is None:
                if not f:
                    continue  # a re-arrival never opens a new session
                lst.append([t, t, 1, None, False])
                lst.sort(key=lambda s: s[0])
                continue
            if not f and joined[0] <= t <= joined[1]:
                continue  # re-arrival inside the interval: nothing changes
            if joined[3] is not None and not joined[4]:
                # an emitted session absorbs a late turn: re-emission due
                joined[4] = True
                self.metrics_["reopened"] += 1
            joined[0] = min(joined[0], t)
            joined[1] = max(joined[1], t)
            joined[2] += 1 if f else 0
            # bridge neighbours the widened interval now touches
            lst.sort(key=lambda s: s[0])
            i = lst.index(joined)

            def absorb(other):
                joined[0] = min(joined[0], other[0])
                joined[1] = max(joined[1], other[1])
                joined[2] += other[2]
                if other[3] is not None:
                    if joined[3] is None:
                        joined[3] = other[3]
                    else:
                        # two emitted identities merged: the losing one
                        # gets a tombstone emission (n_turns=0) so the
                        # sink's latest row for it voids the stale session
                        self.absorbed.append((c, other[3]))
                    joined[4] = True

            while i + 1 < len(lst) and lst[i + 1][0] - gap <= joined[1]:
                absorb(lst.pop(i + 1))
            while i > 0 and lst[i - 1][1] + gap >= joined[0]:
                absorb(lst.pop(i - 1))
                i -= 1

        return self._ingest_finish(table, n_late)

    def _ingest_finish(self, table: pa.Table, n_late: int) -> dict:
        self.mutable.append(table)
        self.mutable_count += table.num_rows
        self._mutable_seg = None
        self.metrics_["ingested"] += table.num_rows
        self.seq += 1
        if self.mutable_count >= self.mutable_rows:
            self._freeze()
        return {"part": self.part_id, "n": table.num_rows, "late": n_late}

    def _sessions_merge_fresh(self, conv, ts, gap: int):
        """Merge an all-fresh batch into the session interval sets, one
        gap-chain at a time (semantics identical to the per-row loop in
        ``_ingest_tail`` for fresh rows, processed in ts order)."""
        import pandas as pd

        codes, uconv = pd.factorize(conv)
        order = np.lexsort((ts, codes))
        cs = codes[order]
        tss = ts[order]
        brk = np.empty(len(cs), dtype=bool)
        brk[0] = True
        brk[1:] = (cs[1:] != cs[:-1]) | ((tss[1:] - tss[:-1]) > gap)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(cs))
        conv_counts = self.conv_counts
        sessions = self.sessions
        for s, e in zip(starts.tolist(), ends.tolist()):
            c = uconv[cs[s]]
            lo, hi, n = int(tss[s]), int(tss[e - 1]), e - s
            conv_counts[c] = conv_counts.get(c, 0) + n
            lst = sessions.get(c)
            if lst is None:
                sessions[c] = [[lo, hi, n, None, False]]
                continue
            joined = None
            for sess in lst:
                if sess[0] - gap <= hi and lo <= sess[1] + gap:
                    joined = sess
                    break
            if joined is None:
                lst.append([lo, hi, n, None, False])
                lst.sort(key=lambda x: x[0])
                continue
            if joined[3] is not None and not joined[4]:
                # an emitted session absorbs fresh turns: re-emission due
                joined[4] = True
                self.metrics_["reopened"] += 1
            joined[0] = min(joined[0], lo)
            joined[1] = max(joined[1], hi)
            joined[2] += n
            lst.sort(key=lambda x: x[0])
            i = lst.index(joined)

            def absorb(other):
                joined[0] = min(joined[0], other[0])
                joined[1] = max(joined[1], other[1])
                joined[2] += other[2]
                if other[3] is not None:
                    if joined[3] is None:
                        joined[3] = other[3]
                    else:
                        self.absorbed.append((c, other[3]))
                    joined[4] = True

            while i + 1 < len(lst) and lst[i + 1][0] - gap <= joined[1]:
                absorb(lst.pop(i + 1))
            while i > 0 and lst[i - 1][1] + gap >= joined[0]:
                absorb(lst.pop(i - 1))
                i -= 1

    def _freeze(self):
        if not self.mutable:
            return
        t = pa.concat_tables(self.mutable).combine_chunks()
        # within-buffer upsert: drop copies already superseded
        t = self._visible_only(t)
        seg = build_segment(t, self.schema)
        seg.uid = self._new_uid()
        self.sealed.append(seg)
        self.mutable = []
        self.mutable_count = 0
        self._mutable_seg = None
        self.metrics_["freezes"] += 1

    def drain_dead_letters(self) -> Optional[pa.Table]:
        """Return and clear the buffered too-late rows (with an ``epoch``
        column stamping the ingest epoch that rejected each row); None
        when the buffer is empty.  The runner writes one sink file per
        epoch, so an epoch replay rewrites the same path (idempotent)."""
        if not self._dead_letter:
            return None
        parts = []
        for epoch, t in self._dead_letter:
            parts.append(t.append_column(
                "epoch", pa.array([epoch] * t.num_rows, pa.int64())))
        self._dead_letter = []
        return pa.concat_tables(parts, promote_options="default")

    # -- windows / watermark ------------------------------------------------

    def advance_watermark(self, wm_us: int, epoch: int = 0) -> list:
        """Session-window close: freeze the buffer, emit every session
        whose gap-extended interval the watermark has passed (first
        emission or late-data re-emission under the same stable
        ``session_start`` identity), evict sessions past the lateness
        horizon (bounded state), and emit tombstones for identities lost
        to a late bridge."""
        self.watermark = max(self.watermark, wm_us)
        self._freeze()
        gap, late = self.session_gap_us, self.lateness_us
        out = []
        for c, sid in self.absorbed:
            out.append({"conv_id": c, "session_start": int(sid),
                        "session_end": int(sid), "n_turns": 0,
                        "epoch": epoch})
        self.absorbed = []
        for c in list(self.sessions):
            lst = self.sessions[c]
            keep = []
            for s in lst:
                start, end, n, sid, dirty = s
                if end + gap < self.watermark and (sid is None or dirty):
                    if sid is None:
                        s[3] = sid = start  # identity frozen at 1st emit
                        self.n_emitted += 1
                    s[4] = False
                    out.append({"conv_id": c, "session_start": int(sid),
                                "session_end": int(end),
                                "n_turns": int(n), "epoch": epoch})
                if s[3] is not None and not s[4] \
                        and end + gap + late < self.watermark:
                    continue  # no in-bound arrival can touch it: evict
                keep.append(s)
            if keep:
                self.sessions[c] = keep
            else:
                # conv fully beyond the horizon: evict its hot-detection
                # count too — per-partition state tracks churn, not history
                del self.sessions[c]
                self.conv_counts.pop(c, None)
        return out

    # -- compaction ---------------------------------------------------------

    def merge_tick(self, max_segments: int = 8) -> int:
        """Size-tiered LSM merge (`pg_search/src/index/merge_policy.rs:
        103-330`): the layered policy packs same-rung segments into merge
        candidates (layer + 1/3 fudge, min 2 segments); superseded copies
        are vacuumed away during each merge rewrite.  A count cap backstop
        (``max_segments``, the foreground analogue of merge_on_insert)
        bounds per-partition segment count for query cost even when every
        segment is below the smallest layer."""
        from paradedb_ray.streaming.merge_policy import (
            DEFAULT_LAYER_SIZES,
            LayeredMergePolicy,
            SegmentInfo,
        )

        layer_sizes = self.layer_sizes or DEFAULT_LAYER_SIZES
        infos = [SegmentInfo(seg_id=i, byte_size=s.table.nbytes,
                             num_docs=s.num_docs)
                 for i, s in enumerate(self.sealed)]
        candidates = LayeredMergePolicy(layer_sizes).compute_merge_candidates(
            infos)
        from paradedb_ray.index.segment import merge_segments

        def merge(victims):
            # postings-list merge — never re-tokenizes (`merge_policy.rs`
            # merges segments, not raw rows); superseded copies drop here
            keeps = [self._visible_mask(s.table) for s in victims]
            m = merge_segments(victims, self.schema, keeps)
            m.uid = self._new_uid()
            self.metrics_["merges"] += 1
            return m if m.num_docs else None

        merged_ids: set = set()
        new_segments = []
        n_merged = 0
        for ids in candidates:
            m = merge([self.sealed[i] for i in ids])
            if m is not None:
                new_segments.append(m)
            merged_ids.update(ids)
            n_merged += len(ids)
        keepers = [s for i, s in enumerate(self.sealed)
                   if i not in merged_ids]
        self.sealed = keepers + new_segments
        # count-cap backstop: sub-layer segments still compact eventually
        if len(self.sealed) > max_segments:
            by_size = sorted(self.sealed, key=lambda s: s.num_docs)
            merge_n = len(self.sealed) - max_segments + 1
            victims, keepers = by_size[:merge_n], by_size[merge_n:]
            m = merge(victims)
            self.sealed = keepers + ([m] if m is not None else [])
            n_merged += merge_n
        return n_merged

    def force_merge(self, target_bytes: Optional[int] = None) -> int:
        """``paradedb.force_merge(index, bytes)`` (`api/admin.rs`
        force_merge_pretty_bytes/raw_bytes): merge this partition's sealed
        segments into as few as possible, each at most ``target_bytes``
        (None = everything into one segment).  Greedy first-fit over the
        size-sorted list; superseded copies vacuum away in the rewrite,
        exactly like ``merge_tick``'s merges."""
        from paradedb_ray.index.segment import merge_segments

        if len(self.sealed) < 2:
            return 0
        bins: list = []
        for s in sorted(self.sealed, key=lambda s: s.table.nbytes,
                        reverse=True):
            placed = False
            if target_bytes is not None:
                for b in bins:
                    if b[0] + s.table.nbytes <= target_bytes:
                        b[0] += s.table.nbytes
                        b[1].append(s)
                        placed = True
                        break
            elif bins:
                bins[0][1].append(s)
                placed = True
            if not placed:
                bins.append([s.table.nbytes, [s]])
        out = []
        n_merged = 0
        for _, group in bins:
            if len(group) < 2:
                out.extend(group)
                continue
            keeps = [self._visible_mask(s.table) for s in group]
            m = merge_segments(group, self.schema, keeps)
            m.uid = self._new_uid()
            self.metrics_["merges"] += 1
            n_merged += len(group)
            if m.num_docs:
                out.append(m)
        self.sealed = out
        return n_merged

    def vacuum(self) -> int:
        """Rewrite every segment dropping superseded copies (exact stats);
        postings filter through the visibility mask — no re-tokenization."""
        from paradedb_ray.index.segment import merge_segments

        if not self.n_dead:
            return 0
        self._freeze()
        n = 0
        new = []
        for s in self.sealed:
            keep = self._visible_mask(s.table)
            if keep.all():
                new.append(s)
                continue
            n += int((~keep).sum())
            m = merge_segments([s], self.schema, [keep])
            m.uid = self._new_uid()
            if m.num_docs:
                new.append(m)
        self.sealed = new
        self.n_dead = 0
        return n

    def retract_keys(self, key_hashes: list, arrs: list = None) -> int:
        """Drop keys whose live copy migrated to another partition (a
        conversation turning hot re-routes new copies to salted partitions;
        the stale copy here must not answer queries) or left a partial-
        index gate.

        ``arrs`` (parallel to ``key_hashes``): the retracting row's
        ``__arr`` arrival stamp — the retraction wins only against live
        copies with an OLDER-OR-EQUAL stamp, the same arbitration rule
        ingest uses.  Without it a replayed stale out-of-gate copy could
        delete a NEWER live in-gate copy (or a gate-exit delete racing a
        parallel shard router could lose), breaking replay idempotence.
        ``arrs=None`` keeps the unconditional semantics for callers that
        retract by construction-newer knowledge."""
        n = 0
        if arrs is None:
            arrs = [None] * len(key_hashes)
        for k, a in zip(key_hashes, arrs):
            if k in self.live_seq:
                if a is not None and self.live_arr.get(k, -1) > a:
                    continue  # a newer copy owns the key: stale retraction
                del self.live_seq[k]
                self.live_arr.pop(k, None)
                self.n_dead += 1
                n += 1
        self.metrics_["retractions"] += n
        return n

    def _visible_mask(self, t: pa.Table) -> np.ndarray:
        """bool mask: row is the live copy of its key
        (``live_seq[key] == __seq``)."""
        conv = t.column(self.key_cols[0]).to_numpy(zero_copy_only=False)
        turn = t.column(self.key_cols[1]).to_numpy(zero_copy_only=False)
        seqs = t.column("__seq").to_numpy(zero_copy_only=False).tolist()
        keys = _key_hash(conv, turn).tolist()
        get = self.live_seq.get
        return np.fromiter((get(k, -1) == s for k, s in zip(keys, seqs)),
                           dtype=bool, count=len(keys))

    def _visible_only(self, t: pa.Table, force: bool = False) -> pa.Table:
        """Filter a stored table down to rows that are the live copy of
        their key (``live_seq[key] == __seq``)."""
        if t.num_rows == 0 or (not self.n_dead and not force):
            return t
        keep = self._visible_mask(t)
        if keep.all():
            return t
        return t.filter(pa.array(keep))

    # -- query --------------------------------------------------------------

    def _all_segments(self) -> list:
        if not self.mutable:
            return list(self.sealed)
        if self._mutable_seg is None:
            self._mutable_seg = build_segment(
                pa.concat_tables(self.mutable).combine_chunks(), self.schema)
        return self.sealed + [self._mutable_seg]

    def stats_partial(self, requests_pickle: bytes) -> bytes:
        """Partial GlobalStats for the driver's stats exchange barrier.

        Text-field stats come from the postings; KEYWORD / numeric / JSON
        fields are counted by ``search_stages.add_column_stats``, the same
        helper the batch ``StatsCollector`` uses, so idf and avgdl — and
        thus BM25 ranking — are identical across partitions and identical
        to the stateless batch pipeline (ADVICE r1 #3)."""
        from paradedb_ray.stages.search_stages import add_column_stats

        req = pickle.loads(requests_pickle)
        g = GlobalStats()
        by_field: dict = {}
        for f, t in req["terms"]:
            by_field.setdefault(f.split(".")[0], []).append((f, t))
        need_fields = req["fields"] | set(by_field)
        for seg in self._all_segments():
            g.num_docs += seg.num_docs
            for fname in need_fields:
                ti = seg.text.get(fname)
                if ti is not None:
                    g.field_total_tokens[fname] = (
                        g.field_total_tokens.get(fname, 0) + ti.total_tokens)
                    g.field_doc_count[fname] = (
                        g.field_doc_count.get(fname, 0) + ti.doc_count)
                    for key in by_field.get(fname, ()):
                        g.term_df[key] = (g.term_df.get(key, 0)
                                          + ti.doc_freq(key[1]))
                    continue
                fdef = self.schema.fields.get(fname)
                if fdef is None or fname not in seg.table.column_names:
                    continue
                add_column_stats(g, seg, fdef, fname, by_field.get(fname, ()))
        return pickle.dumps(g)

    def evaluate(self, specs_pickle: bytes, stats_pickle: bytes) -> list:
        """Score every :class:`EvalSpec` of one evaluation round against
        this partition: one segment list, one ``Searcher`` per segment
        shared by all specs (and so are its norm caches), and each row's
        liveness looked up at most once.  Per spec it returns the local
        head (merge-rank happens on the driver across partitions, like
        per-segment collectors) or, for a facet, value -> doc count (the
        partial side of a terms facet, merged on the driver)."""
        specs = pickle.loads(specs_pickle)
        stats = pickle.loads(stats_pickle)
        segs = self._all_segments()
        searchers = [Searcher(seg, self.schema, stats) for seg in segs]
        visible = self._visibility(segs)
        return [self._facet_counts(spec, searchers, visible)
                if spec.facet_field else self._head(spec, searchers, visible)
                for spec in specs]

    def _visibility(self, segs: list):
        """``visible(i, ids)`` -> live mask of rows ``ids`` of ``segs[i]``;
        each row is looked up in the live map at most once."""
        if not self.n_dead:
            return lambda i, ids: np.ones(len(ids), dtype=bool)
        known = [None] * len(segs)  # per row: 0 unknown, 1 live, -1 dead
        cols = list(self.key_cols) + ["__seq"]

        def visible(i, ids):
            if known[i] is None:
                known[i] = np.zeros(segs[i].table.num_rows, dtype=np.int8)
            kn = known[i]
            todo = ids[kn[ids] == 0]
            if len(todo):
                rows = segs[i].table.select(cols).take(
                    pa.array(todo, pa.int64()))
                kn[todo] = np.where(self._visible_mask(rows), 1, -1)
            return kn[ids] == 1

        return visible

    def _head(self, spec: EvalSpec, searchers: list, visible) -> pa.Table:
        """The partition's ``spec.k`` best live hits by score desc then
        key asc (every live hit when ``k`` is None), with the optional
        highlighted snippet column.

        A scored top-k keeps a partition-local k-th-best threshold over
        LIVE hits only: a superseded copy never raises it, so it never
        prunes a live row.  Hits strictly below it never materialize
        (ties are kept for the key-ordered tie-break)."""
        import pyarrow.compute as pc

        k = spec.k
        prune = bool(k) and spec.with_score
        kth = np.float32(-np.inf)
        best = np.empty(0, dtype=np.float32)  # k best live scores so far
        if spec.snippet_cfg is not None:
            from paradedb_ray.index.snippet import (
                query_terms_for_field,
                snippet_column,
            )

            snip_terms = query_terms_for_field(spec.query, self.schema,
                                               spec.snippet_cfg.field)
        parts = []
        for i, s in enumerate(searchers):
            hits = s.eval(spec.query)
            if len(hits) == 0:
                continue
            ids = np.asarray(hits.ids, dtype=np.int64)
            scores = np.asarray(hits.scores, dtype=np.float32)
            if prune:
                order = np.argsort(-scores, kind="stable")
                ids, scores = ids[order], scores[order]
                n = int(np.searchsorted(-scores, -kth, side="right"))
                keep = np.zeros(n, dtype=bool)
                lo = 0
                # score order: liveness is only looked up while a chunk
                # can still reach the running k-th best
                while lo < n and scores[lo] >= kth:
                    hi = min(n, lo + max(k, 64))
                    m = visible(i, ids[lo:hi]) & (scores[lo:hi] >= kth)
                    keep[lo:hi] = m
                    best = np.concatenate([best, scores[lo:hi][m]])
                    if len(best) >= k:
                        best = np.sort(best)[-k:]
                        kth = best[0]
                    lo = hi
                ids, scores = ids[:n][keep], scores[:n][keep]
            else:
                live = visible(i, ids)
                ids, scores = ids[live], scores[live]
            if not len(ids):
                continue
            t = s.seg.table
            if spec.columns:
                want = set(spec.columns) | set(self.key_cols)
                t = t.select([c for c in t.column_names if c in want])
            sub = t.take(pa.array(ids, pa.int64()))
            if spec.with_score:
                sub = sub.append_column("score",
                                        pa.array(scores, pa.float32()))
            if spec.snippet_cfg is not None:
                sub = sub.append_column(
                    spec.snippet_cfg.output_name,
                    snippet_column(s, Hits(ids, scores), spec.snippet_cfg,
                                   snip_terms))
            parts.append(sub)
        if not parts:
            return pa.table({})
        out = pa.concat_tables(parts, promote_options="default")
        sort_keys = ([("score", "descending")] if spec.with_score else []) \
            + [(c, "ascending") for c in self.key_cols]
        idx = pc.sort_indices(out, sort_keys=sort_keys)
        out = out.take(idx if k is None else idx.slice(0, k))
        # the driver merge-ranks on score and key, then selects columns
        return out.drop_columns([c for c in ("__seq", "__arr")
                                 if c in out.column_names
                                 and c not in (spec.columns or ())])

    def _facet_counts(self, spec: EvalSpec, searchers: list,
                      visible) -> dict:
        """value -> doc count of ``spec.facet_field`` over this
        partition's live matches."""
        import pyarrow.compute as pc

        counts: dict = {}
        for i, s in enumerate(searchers):
            hits = s.eval(spec.query)
            if len(hits) == 0:
                continue
            ids = np.asarray(hits.ids, dtype=np.int64)
            ids = ids[visible(i, ids)]
            if not len(ids):
                continue
            vc = pc.value_counts(s.seg.table.column(spec.facet_field).take(
                pa.array(ids, pa.int64())).combine_chunks())
            for v, n in zip(vc.field("values").to_pylist(),
                            vc.field("counts").to_pylist()):
                counts[v] = counts.get(v, 0) + n
        return counts

    def knn(self, field: str, qvec, op: str, k: int,
            filter_pickle: bytes = None,
            stats_pickle: bytes = None,
            columns=None) -> pa.Table:
        """Partition-local distance top-k over a VECTOR field — mutable
        buffer included, visibility mask applied (the streaming legs of
        `vector_mutable_segment.sql` / `vector_delete_all_docs.sql`).
        Merge-rank across partitions happens on the driver."""
        import warnings

        fq = pickle.loads(filter_pickle) if filter_pickle else None
        stats = pickle.loads(stats_pickle) if stats_pickle else None
        out = []
        for seg in self._all_segments():
            mask = (self._visible_mask(seg.table)
                    if "__seq" in seg.table.column_names else None)
            s = Searcher(seg, self.schema, stats=stats)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ids, dist = s.knn(field, qvec, op, k, filter_query=fq,
                                  candidate_mask=mask)
            if not len(ids):
                continue
            cols = columns or [c for c in seg.table.column_names
                               if not c.startswith("__") and c != field]
            sub = seg.table.select(cols).take(pa.array(ids, pa.int64()))
            out.append(sub.append_column(
                "distance", pa.array(dist, pa.float64())))
        if not out:
            return pa.table({})
        t = pa.concat_tables(out, promote_options="default")
        import pyarrow.compute as pc

        keys = [c for c in self.key_cols if c in t.column_names]
        idx = pc.sort_indices(t, sort_keys=[("distance", "ascending")]
                              + [(c, "ascending") for c in keys])
        return t.take(idx.slice(0, k))

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self, ckpt_dir: str, epoch: int) -> str:
        """Incremental checkpoint: sealed segments are immutable, so each
        is persisted ONCE under its uid (postings included — restore never
        re-tokenizes); per-epoch we write only the new segment files, the
        small mutable state, and the manifest (the commit point, renamed
        atomically).  Files no longer referenced are GC'd after commit.
        Mirrors tantivy segment files surviving across commits with
        ``meta.json`` as the authority (pg_search `directory/` layout)."""
        self._freeze()
        d = os.path.join(ckpt_dir, f"part-{self.part_id:05d}")
        os.makedirs(d, exist_ok=True)
        for s in self.sealed:
            seg_file = os.path.join(d, f"seg-{s.uid:08d}.pkl.zst")
            if os.path.exists(seg_file) or os.path.exists(seg_file[:-4]):
                continue  # immutable: written once (either format)
            s._json_cache = {}
            s._vec_cache = {}
            tmp = seg_file + ".tmp"
            with open(tmp, "wb") as f:
                f.write(_zstd_compress(pickle.dumps(s, protocol=4)))
            os.replace(tmp, seg_file)
        # live-map deltas: persist only the arrival triples since the last
        # checkpoint; once the persisted replay chain outgrows the live
        # map, compact into one base snapshot (arrays, not dicts)
        if self._live_delta:
            delta_file = os.path.join(d, f"live-{epoch:06d}.pkl")
            tmp = delta_file + ".tmp"
            with open(tmp, "wb") as f:
                pickle.dump(self._live_delta, f, protocol=4)
            os.replace(tmp, delta_file)
            self._live_rows_persisted += sum(len(k) for k, _, _ in
                                             self._live_delta)
            self._live_files.append(os.path.basename(delta_file))
            self._live_delta = []
        if (self._live_rows_persisted >
                max(100_000, 2 * len(self.live_seq))):
            base_file = os.path.join(d, f"live-base-{epoch:06d}.pkl")
            keys = np.fromiter(self.live_seq.keys(), dtype=np.int64,
                               count=len(self.live_seq))
            seqs = np.fromiter(self.live_seq.values(), dtype=np.int64,
                               count=len(self.live_seq))
            arrs = np.array([self.live_arr.get(int(k), -1) for k in keys],
                            dtype=np.int64)
            tmp = base_file + ".tmp"
            with open(tmp, "wb") as f:
                pickle.dump((keys, seqs, arrs), f, protocol=4)
            os.replace(tmp, base_file)
            self._live_base = os.path.basename(base_file)
            self._live_files = []
            self._live_rows_persisted = len(self.live_seq)
        state_file = os.path.join(d, f"epoch-{epoch:06d}.state.pkl")
        state = {
            "row_seq": self.row_seq,
            "n_dead": self.n_dead,
            "sessions": self.sessions,
            "absorbed": self.absorbed,
            "n_emitted": self.n_emitted,
            "conv_counts": self.conv_counts,
            "watermark": self.watermark,
            "seq": self.seq,
            "next_seg_uid": self.next_seg_uid,
            "metrics": self.metrics_,
        }
        tmp = state_file + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(state, f, protocol=4)
        os.replace(tmp, state_file)
        manifest = {
            "format": 2,
            "part": self.part_id, "epoch": epoch, "seq": self.seq,
            "watermark": self.watermark,
            "state_file": os.path.basename(state_file),
            "live_base": self._live_base,
            "live_deltas": list(self._live_files),
            "segments": [{"uid": s.uid, "num_docs": s.num_docs}
                         for s in self.sealed],
            "n_live_keys": len(self.live_seq),
        }
        mtmp = os.path.join(d, "manifest.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, os.path.join(d, "manifest.json"))
        # GC: anything the committed manifest doesn't reference
        live = {f"seg-{s.uid:08d}.pkl" for s in self.sealed}
        live |= {f"seg-{s.uid:08d}.pkl.zst" for s in self.sealed}
        live.add(os.path.basename(state_file))
        live.update(self._live_files)
        if self._live_base:
            live.add(self._live_base)
        for fn in os.listdir(d):
            if fn.endswith((".pkl", ".pkl.zst")) and fn not in live:
                try:
                    os.remove(os.path.join(d, fn))
                except OSError:
                    pass
        return state_file

    def restore(self, ckpt_dir: str) -> int:
        """Load the latest checkpoint; returns the restored epoch (-1 if
        none).  Segments load with their postings — no re-tokenization."""
        d = os.path.join(ckpt_dir, f"part-{self.part_id:05d}")
        mpath = os.path.join(d, "manifest.json")
        if not os.path.exists(mpath):
            return -1
        with open(mpath) as f:
            manifest = json.load(f)
        epoch = manifest["epoch"]
        with open(os.path.join(d, manifest["state_file"]), "rb") as f:
            state = pickle.load(f)
        self.sealed = []
        for m in manifest["segments"]:
            zpath = os.path.join(d, f"seg-{m['uid']:08d}.pkl.zst")
            if os.path.exists(zpath):
                with open(zpath, "rb") as f:
                    self.sealed.append(
                        pickle.loads(_zstd_decompress(f.read())))
            else:  # legacy uncompressed checkpoint
                with open(zpath[:-4], "rb") as f:
                    self.sealed.append(pickle.load(f))
        # rebuild the live maps: base snapshot, then replay delta files in
        # arrival order with the same highest-__arr-wins rule as ingest
        self.live_seq = {}
        self.live_arr = {}
        self._live_base = manifest.get("live_base")
        self._live_files = list(manifest.get("live_deltas", []))
        self._live_delta = []
        if self._live_base:
            with open(os.path.join(d, self._live_base), "rb") as f:
                keys, seqs, arrs = pickle.load(f)
            self.live_seq = dict(zip(keys.tolist(), seqs.tolist()))
            self.live_arr = {k: a for k, a in zip(keys.tolist(),
                                                  arrs.tolist())
                             if a >= 0}
        self._live_rows_persisted = len(self.live_seq)
        for fn in self._live_files:
            with open(os.path.join(d, fn), "rb") as f:
                triples = pickle.load(f)
            for keys, seqs, arrs in triples:
                self._live_rows_persisted += len(keys)
                if arrs is None:
                    for k, s in zip(keys.tolist(), seqs.tolist()):
                        self.live_seq[k] = s
                else:
                    get = self.live_arr.get
                    for k, s, a in zip(keys.tolist(), seqs.tolist(),
                                       arrs.tolist()):
                        prev = get(k)
                        if prev is None or a >= prev:
                            self.live_seq[k] = s
                            self.live_arr[k] = a
        if "live_seq" in state:  # legacy full-dict checkpoints
            self.live_seq = state["live_seq"]
            self.live_arr = state.get("live_arr", {})
        self.row_seq = state["row_seq"]
        self.n_dead = state["n_dead"]
        self.sessions = state["sessions"]
        self.absorbed = state.get("absorbed", [])
        self.n_emitted = state.get("n_emitted", 0)
        self.conv_counts = state["conv_counts"]
        self.watermark = state["watermark"]
        self.seq = state["seq"]
        self.next_seg_uid = state.get(
            "next_seg_uid",
            1 + max((m["uid"] for m in manifest["segments"]), default=-1))
        self.metrics_ = state["metrics"]
        self.mutable = []
        self.mutable_count = 0
        self._mutable_seg = None
        return epoch

    # -- introspection ------------------------------------------------------

    def verify(self, heapallindexed: bool = False) -> dict:
        """amcheck-style partition checks (`pdb.verify_index`,
        `api/admin.rs:1103`): structural checks per sealed segment plus
        the visibility-map <-> stored-row agreement pass (the
        heap-reference analogue — the docstore IS the heap here)."""
        from paradedb_ray.index.verify import verify_segment

        ok = {"schema_valid": True, "index_readable": True,
              "checksums_valid": True, "segment_metadata_valid": True}
        for seg in self.sealed:
            for k, v in verify_segment(seg, self.schema).items():
                ok[k] = ok[k] and v
        if heapallindexed:
            live_seen: dict = {}
            valid = True
            for t in [s.table for s in self.sealed] + self.mutable:
                if t.num_rows == 0 or "__seq" not in t.column_names:
                    continue
                conv = t.column(self.key_cols[0]).to_numpy(
                    zero_copy_only=False)
                turn = t.column(self.key_cols[1]).to_numpy(
                    zero_copy_only=False)
                seqs = t.column("__seq").to_numpy(zero_copy_only=False)
                for k, s in zip(_key_hash(conv, turn).tolist(),
                                seqs.tolist()):
                    if self.live_seq.get(k) == s:
                        if k in live_seen:
                            valid = False  # two live copies of one key
                        live_seen[k] = s
            # every live-map entry must resolve to exactly one stored row
            if len(live_seen) != len(self.live_seq):
                valid = False
            ok["heap_references_valid"] = valid
        return ok

    def index_info(self) -> list:
        """Per-segment stats rows (`paradedb.index_info`,
        `api/admin.rs:282`): segno, sizes by component, doc counts."""
        rows = []

        def seg_row(seg, segno, mutable):
            term_b = post_b = pos_b = norm_b = 0
            n_del = 0
            for ti in seg.text.values():
                term_b += sum(len(str(v)) for v in ti.vocab)
                post_b += ti.g_doc.nbytes + ti.g_tf.nbytes
                if ti.pos_flat is not None:
                    pos_b += ti.pos_flat.nbytes
                norm_b += ti.fieldnorm_ids.nbytes
            if self.n_dead and "__seq" in seg.table.column_names:
                n_del = int((~self._visible_mask(seg.table)).sum())
            return {"partition": self.part_id, "segno": str(segno),
                    "mutable": mutable, "byte_size": int(seg.table.nbytes),
                    "num_docs": seg.num_docs, "num_deleted": n_del,
                    "termdict_bytes": int(term_b),
                    "postings_bytes": int(post_b),
                    "positions_bytes": int(pos_b),
                    "fieldnorms_bytes": int(norm_b),
                    "store_bytes": int(seg.table.nbytes)}

        for seg in self.sealed:
            rows.append(seg_row(seg, getattr(seg, "uid", -1), False))
        if self.mutable_count:
            t = pa.concat_tables(self.mutable).combine_chunks()
            rows.append({"partition": self.part_id, "segno": "mutable",
                         "mutable": True, "byte_size": int(t.nbytes),
                         "num_docs": t.num_rows, "num_deleted": 0,
                         "termdict_bytes": 0, "postings_bytes": 0,
                         "positions_bytes": 0, "fieldnorms_bytes": 0,
                         "store_bytes": int(t.nbytes)})
        return rows

    def warm(self) -> bool:
        """Exercise the ingest code path once with throwaway data so the
        first REAL epoch doesn't pay per-actor import/codegen cost
        (hot-protocol warmup; a standing deployment's actors are long-
        lived).  No state mutation — everything is local."""
        import pyarrow as pa

        from paradedb_ray.index.segment import build_segment

        cols: dict = {}
        for f in self.schema.fields.values():
            if f.ftype == "text":
                cols[f.name] = pa.array(["warm up tokens"])
            elif f.ftype == "keyword":
                cols[f.name] = pa.array(["w"])
            elif f.ftype == "date":
                cols[f.name] = pa.array([0], pa.timestamp("us"))
            elif f.ftype in ("i64", "u64"):
                cols[f.name] = pa.array([0], pa.int64())
            elif f.ftype == "f64":
                cols[f.name] = pa.array([0.0], pa.float64())
            else:
                continue
        try:
            build_segment(pa.table(cols), self.schema)
        except Exception:
            pass
        return True

    def metrics(self) -> dict:
        return dict(self.metrics_, part=self.part_id,
                    sealed_segments=len(self.sealed),
                    mutable_rows=self.mutable_count,
                    live_keys=len(self.live_seq),
                    tombstones=self.n_dead,
                    watermark=self.watermark,
                    closed_sessions=self.n_emitted,
                    open_sessions=sum(len(v) for v in
                                      self.sessions.values()))

    def hot_convs(self, threshold: int) -> list:
        return [c for c, n in self.conv_counts.items() if n >= threshold]

    def conv_rows(self, convs: list, columns: list, template=None):
        """Visible (live-copy) rows of the given conversations — the
        session-close CEP gather: when a session closes on watermark
        expiry, the runner fetches its turns to evaluate standing pattern
        queries.  Hot convs are salted ACROSS partitions, so the caller
        asks every actor; the results stay in the object store as blocks
        of a ``ray.data`` Dataset (the driver never materializes the
        turns).  Cost is one vectorized ``is_in`` scan per segment over
        the small closed-conv set; only matching rows leave the actor.
        ``template``: a ``pa.Schema`` used to type the empty result when
        this partition holds none (None is returned without it)."""
        import pyarrow.compute as pc

        ckey = self.key_cols[0]
        vs = pa.array(list(convs), pa.string())
        need = list(dict.fromkeys(columns))
        tabs = []
        for seg in self._all_segments():
            t = seg.table
            sub = t.filter(pc.is_in(t.column(ckey), value_set=vs))
            if sub.num_rows:
                sub = self._visible_only(sub, force=True)
                if sub.num_rows:
                    tabs.append(sub.select(need))
        if not tabs:
            if template is None:
                return None
            return pa.schema(
                [template.field(c) for c in need]).empty_table()
        return pa.concat_tables(tabs, promote_options="default")

    def num_docs(self) -> int:
        return sum(s.num_docs for s in self.sealed) + self.mutable_count
