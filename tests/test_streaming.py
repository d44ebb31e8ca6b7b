"""Streaming engine tests: sharded ingest, session windows, retraction,
checkpoint/resume, exactly-once sink (north_rule conformance).

Semantics anchors: mutable segment `pg_search/src/postgres/insert.rs:56-70`,
MVCC retraction `pg_search/src/index/directory/mvcc.rs`, segment manifest
`pg_search/src/postgres/storage/block.rs`.
"""

import os

import numpy as np
import pyarrow as pa
import pytest

from paradedb_ray.query import ast, builders as pdb
from paradedb_ray.schema import transcripts_schema
from paradedb_ray.streaming import EpochRunner, StreamConfig, StreamEngine
from paradedb_ray.testing.transcripts import transcript_turns

GAP_US = 1_800_000_000  # 30 min


def _engine(tmp=None, parts=4, **kw):
    cfg = StreamConfig(num_partitions=parts, mutable_rows=500, **kw)
    return StreamEngine(transcripts_schema(), cfg, checkpoint_dir=tmp)


def _brute_term_ids(table: pa.Table, term: str) -> set:
    conv = table.column("conv_id").to_pylist()
    turn = table.column("turn_idx").to_pylist()
    text = table.column("text").to_pylist()
    return {(c, t) for c, t, x in zip(conv, turn, text)
            if term in x.split(" ")}


def _result_ids(t: pa.Table) -> set:
    return set(zip(t.column("conv_id").to_pylist(),
                   t.column("turn_idx").to_pylist()))


@pytest.fixture(scope="module")
def turns():
    return transcript_turns(3000, seed=7)


def test_ingest_matches_brute_force(ray_session, turns):
    eng = _engine()
    try:
        eng.ingest(turns)
        assert eng.num_docs() == turns.num_rows
        for term in ("checkpoint", "merge", "watermark"):
            got = eng.query_matches(pdb.term("text", term),
                                    columns=["conv_id", "turn_idx", "score"])
            assert _result_ids(got) == _brute_term_ids(turns, term)
    finally:
        eng.shutdown()


def test_topk_is_global_and_stable(ray_session, turns):
    eng = _engine(parts=3)
    try:
        eng.ingest(turns)
        full = eng.query_matches(pdb.term("text", "segment"),
                                 columns=["conv_id", "turn_idx", "score"])
        top = eng.query_topk(pdb.term("text", "segment"), k=10,
                             columns=["conv_id", "turn_idx", "score"])
        assert top.num_rows == min(10, full.num_rows)
        # the global top-k scores == the 10 best scores of the full match set
        all_scores = sorted(full.column("score").to_pylist(), reverse=True)
        got_scores = top.column("score").to_pylist()
        assert got_scores == sorted(got_scores, reverse=True)
        assert np.allclose(got_scores, all_scores[:top.num_rows])
    finally:
        eng.shutdown()


def test_upsert_retraction(ray_session):
    eng = _engine(parts=2)
    try:
        t0 = 1_700_000_000_000_000

        def row(text, ts):
            return pa.table({
                "conv_id": pa.array(["c0"]), "turn_idx": pa.array([0], pa.int32()),
                "role": pa.array(["user"]), "text": pa.array([text]),
                "tool": pa.array([""]),
                "ts": pa.array([ts], pa.timestamp("us"))})

        eng.ingest(row("alpha beta", t0))
        eng.ingest(row("gamma delta", t0 + 1))  # same key -> upsert
        assert eng.query_matches(pdb.term("text", "alpha")).num_rows == 0
        got = eng.query_matches(pdb.term("text", "gamma"),
                                columns=["conv_id", "turn_idx", "score"])
        assert _result_ids(got) == {("c0", 0)}
        m = eng.metrics()
        assert sum(x["retractions"] for x in m) == 1
        # vacuum physically drops the tombstoned copy
        eng.vacuum()
        assert eng.num_docs() == 1
    finally:
        eng.shutdown()


def test_session_window_close_and_reopen(ray_session):
    eng = _engine(parts=2)
    try:
        t0 = 1_700_000_000_000_000
        t = pa.table({
            "conv_id": pa.array(["a", "a", "b"]),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "role": pa.array(["user"] * 3),
            "text": pa.array(["one", "two", "three"]),
            "tool": pa.array([""] * 3),
            "ts": pa.array([t0, t0 + 10_000_000, t0 + GAP_US * 3],
                           pa.timestamp("us"))})
        eng.ingest(t)
        # watermark far past conv a's last ts + gap, but not b's
        closed = eng.advance_watermark(t0 + GAP_US * 2, epoch=0)
        assert closed.column("conv_id").to_pylist() == ["a"]
        assert closed.column("n_turns").to_pylist() == [2]
        # late arrival for a reopens the session (inside lateness bound)
        late = pa.table({
            "conv_id": pa.array(["a"]), "turn_idx": pa.array([2], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array(["four"]),
            "tool": pa.array([""]),
            "ts": pa.array([t0 + 20_000_000], pa.timestamp("us"))})
        eng.ingest(late)
        closed2 = eng.advance_watermark(t0 + GAP_US * 2 + 1, epoch=1)
        assert closed2.column("conv_id").to_pylist() == ["a"]
        assert closed2.column("n_turns").to_pylist() == [3]
        m = eng.metrics()
        assert sum(x["reopened"] for x in m) == 1
    finally:
        eng.shutdown()


def test_late_beyond_lateness_dropped(ray_session):
    eng = _engine(parts=1, lateness_us=1_000_000)
    try:
        t0 = 1_700_000_000_000_000
        eng.advance_watermark(t0)
        old = pa.table({
            "conv_id": pa.array(["z"]), "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array(["ancient"]),
            "tool": pa.array([""]),
            "ts": pa.array([t0 - 10_000_000], pa.timestamp("us"))})
        eng.ingest(old)
        assert eng.num_docs() == 0
        assert sum(x["late_dropped"] for x in eng.metrics()) == 1
        # the dropped row is recoverable from the dead-letter side output
        dead = eng.drain_dead_letters()
        assert dead.num_rows == 1
        assert dead.column("conv_id").to_pylist() == ["z"]
        assert dead.column("text").to_pylist() == ["ancient"]
        assert "epoch" in dead.column_names
        assert "__arr" not in dead.column_names
        # drain clears the buffer
        assert eng.drain_dead_letters() is None
    finally:
        eng.shutdown()


def test_dead_letter_sink_files(ray_session, tmp_path):
    """EpochRunner writes too-late rows under sink/dead_letter, one file
    per epoch; replaying a committed epoch does not duplicate them."""
    import pyarrow.parquet as pq

    t0 = 1_700_000_000_000_000

    def turn(conv, idx, text, ts):
        return pa.table({
            "conv_id": pa.array([conv]),
            "turn_idx": pa.array([idx], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array([text]),
            "tool": pa.array([""]),
            "ts": pa.array([ts], pa.timestamp("us"))})

    e0 = pa.concat_tables([turn("a", 0, "hello world", t0),
                           turn("b", 0, "more data", t0 + 5_000_000)])
    # epoch 1 carries one fresh row and one row far beyond the lateness
    # horizon established by epoch 0's watermark
    e1 = pa.concat_tables([turn("c", 0, "fresh row", t0 + 6_000_000),
                           turn("z", 9, "ancient row", t0 - 9_000_000_000)])
    sink = str(tmp_path / "sink")
    eng = _engine(parts=2, lateness_us=1_000_000)
    try:
        r = EpochRunner(eng, sink, {"q": pdb.term("text", "hello")},
                        topk=5, columns=["conv_id", "turn_idx", "score"])
        r.run([e0, e1])
        dl_dir = os.path.join(sink, "dead_letter")
        files = sorted(os.listdir(dl_dir))
        assert files == ["epoch=000001.parquet"]
        got = pq.read_table(os.path.join(dl_dir, files[0]))
        assert got.num_rows == 1
        assert got.column("conv_id").to_pylist() == ["z"]
        assert got.column("epoch").to_pylist() == [1]
        # replay: both epochs are committed -> skipped, no new files, no
        # duplicated dead letters
        r2 = EpochRunner(eng, sink, {"q": pdb.term("text", "hello")},
                         topk=5, columns=["conv_id", "turn_idx", "score"])
        r2.run([e0, e1])
        got2 = pq.read_table(os.path.join(dl_dir, "epoch=000001.parquet"))
        assert got2.num_rows == 1
        assert sorted(os.listdir(dl_dir)) == ["epoch=000001.parquet"]
    finally:
        eng.shutdown()


def test_checkpoint_restore_roundtrip(ray_session, turns, tmp_path):
    ckpt = str(tmp_path / "ckpt")
    eng = _engine(ckpt, parts=3)
    try:
        eng.ingest(turns)
        want = _result_ids(eng.query_matches(
            pdb.term("text", "watermark"), columns=["conv_id", "turn_idx"]))
        eng.checkpoint(epoch=0)
    finally:
        eng.shutdown()

    eng2 = _engine(ckpt, parts=3)
    try:
        assert eng2.restore() == 0
        assert eng2.num_docs() == turns.num_rows
        got = _result_ids(eng2.query_matches(
            pdb.term("text", "watermark"), columns=["conv_id", "turn_idx"]))
        assert got == want
    finally:
        eng2.shutdown()


def test_exactly_once_epoch_runner(ray_session, turns, tmp_path):
    """Crash mid-stream -> resume from checkpoint -> identical sink as an
    uninterrupted run; committed epochs are never re-emitted."""
    import pyarrow.parquet as pq

    # split into 3 arrival-ordered epochs by ts
    idx = pa.compute.sort_indices(turns, sort_keys=[("ts", "ascending")])
    ordered = turns.take(idx)
    n = ordered.num_rows
    epochs = [ordered.slice(0, n // 3), ordered.slice(n // 3, n // 3),
              ordered.slice(2 * (n // 3))]
    standing = {"q_merge": pdb.term("text", "merge")}

    sink_a = str(tmp_path / "sink_a")
    eng = _engine(str(tmp_path / "ck_a"), parts=2)
    try:
        r = EpochRunner(eng, sink_a, standing, topk=5,
                        columns=["conv_id", "turn_idx", "score"])
        out = r.run(epochs)
        assert [o["epoch"] for o in out] == [0, 1, 2]
        # re-run: all epochs skipped, sink untouched
        out2 = r.run(epochs)
        assert all(o.get("skipped") for o in out2)
    finally:
        eng.shutdown()

    # interrupted run: do epoch 0, "crash", resume with a fresh engine
    sink_b = str(tmp_path / "sink_b")
    ck_b = str(tmp_path / "ck_b")
    eng1 = _engine(ck_b, parts=2)
    try:
        r1 = EpochRunner(eng1, sink_b, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"])
        r1.run_epoch(0, epochs[0])
    finally:
        eng1.shutdown()  # crash

    eng2 = _engine(ck_b, parts=2)
    try:
        r2 = EpochRunner(eng2, sink_b, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"])
        assert r2.resume() == 0
        out = r2.run(epochs)
        assert out[0].get("skipped")  # epoch 0 committed, not re-emitted
        # final emissions identical to the uninterrupted run
        for e in (0, 1, 2):
            a = pq.read_table(os.path.join(sink_a, "q_merge",
                                           f"epoch={e:06d}.parquet"))
            b = pq.read_table(os.path.join(sink_b, "q_merge",
                                           f"epoch={e:06d}.parquet"))
            assert a.equals(b)
    finally:
        eng2.shutdown()


def test_hot_conv_salting_preserves_results(ray_session):
    eng = _engine(parts=4, hot_threshold=50)
    try:
        # one huge conversation + some small ones
        n_hot = 400
        hot = pa.table({
            "conv_id": pa.array(["hot"] * n_hot),
            "turn_idx": pa.array(np.arange(n_hot, dtype=np.int32)),
            "role": pa.array(["user"] * n_hot),
            "text": pa.array(["salted shard query"] * n_hot),
            "tool": pa.array([""] * n_hot),
            "ts": pa.array(np.int64(1_700_000_000_000_000)
                           + np.arange(n_hot, dtype=np.int64) * 1_000_000,
                           pa.timestamp("us"))})
        eng.ingest(hot.slice(0, 100))
        assert "hot" in eng.refresh_hot()
        eng.ingest(hot.slice(100))  # now salted across actors
        got = eng.query_matches(pdb.term("text", "salted"),
                                columns=["conv_id", "turn_idx"])
        assert got.num_rows == n_hot
        assert _result_ids(got) == {("hot", i) for i in range(n_hot)}
        # salting actually spread the hot conv over >1 partition
        m = eng.metrics()
        parts_with_rows = sum(1 for x in m if x["ingested"] > 0)
        assert parts_with_rows > 1
    finally:
        eng.shutdown()


def test_query_stream_join_and_metrics(ray_session, turns, tmp_path):
    """Queries arrive/retire over epochs (query-stream ⋈ turn-stream);
    per-epoch metrics lineage is emitted alongside results."""
    import json as _json

    idx = pa.compute.sort_indices(turns, sort_keys=[("ts", "ascending")])
    ordered = turns.take(idx)
    n = ordered.num_rows
    epochs = [ordered.slice(0, n // 2), ordered.slice(n // 2)]
    sink = str(tmp_path / "sink")
    eng = _engine(parts=2)
    try:
        r = EpochRunner(
            eng, sink, {"q0": pdb.term("text", "merge")}, topk=5,
            columns=["conv_id", "turn_idx", "score"],
            query_stream=[(1, "add", "q1", pdb.term("text", "epoch")),
                          (1, "remove", "q0", None)])
        r.run(epochs)
        # epoch 0: only q0 emitted; epoch 1: q1 in, q0 retired
        assert os.path.exists(os.path.join(sink, "q0", "epoch=000000.parquet"))
        assert not os.path.exists(os.path.join(sink, "q0", "epoch=000001.parquet"))
        assert os.path.exists(os.path.join(sink, "q1", "epoch=000001.parquet"))
        m0 = _json.load(open(os.path.join(sink, "metrics", "epoch=000000.json")))
        m1 = _json.load(open(os.path.join(sink, "metrics", "epoch=000001.json")))
        assert m0["live_queries"] == ["q0"]
        assert m1["live_queries"] == ["q1"]
        assert sum(p["ingested"] for p in m1["partitions"]) == n
        assert all("watermark" in p for p in m1["partitions"])
    finally:
        eng.shutdown()


def test_late_turn_corrects_standing_query(ray_session, tmp_path):
    """A late-arriving correction (same key, new text) retracts the old
    copy; the standing query's next emission reflects the corrected text
    and the superseded emission is superseded BY EPOCH, never rewritten
    (watermark-bounded retraction + exactly-once, north_rule)."""
    import pyarrow.parquet as pq

    t0 = 1_700_000_000_000_000

    def turn(conv, idx, text, ts):
        return pa.table({
            "conv_id": pa.array([conv]), "turn_idx": pa.array([idx], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array([text]),
            "tool": pa.array([""]), "ts": pa.array([ts], pa.timestamp("us"))})

    e0 = pa.concat_tables([turn("c1", 0, "alert fired", t0),
                           turn("c2", 0, "routine message", t0 + 1_000_000)])
    # epoch 1: late CORRECTION of (c1, 0) — no longer matches 'alert'
    e1 = pa.concat_tables([turn("c1", 0, "false alarm resolved", t0 + 2),
                           turn("c3", 0, "alert escalated", t0 + 2_000_000)])
    sink = str(tmp_path / "sink")
    eng = _engine(parts=2)
    try:
        r = EpochRunner(eng, sink, {"q": pdb.term("text", "alert")}, topk=10,
                        columns=["conv_id", "turn_idx", "score"])
        r.run_epoch(0, e0)
        ep0 = pq.read_table(os.path.join(sink, "q", "epoch=000000.parquet"))
        assert _result_ids(ep0) == {("c1", 0)}
        r.run_epoch(1, e1)
        ep1 = pq.read_table(os.path.join(sink, "q", "epoch=000001.parquet"))
        # corrected view: c1 retracted, c3 present
        assert _result_ids(ep1) == {("c3", 0)}
        # epoch-0 emission is immutable history
        again = pq.read_table(os.path.join(sink, "q", "epoch=000000.parquet"))
        assert again.equals(ep0)
    finally:
        eng.shutdown()


def test_streaming_topk_with_snippets(ray_session, turns):
    from paradedb_ray.index.snippet import SnippetConfig

    eng = _engine(parts=2)
    try:
        eng.ingest(turns)
        cfg = SnippetConfig(field="text", mode="single", max_num_chars=60)
        out = eng.query_topk(pdb.term("text", "checkpoint"), k=5,
                             columns=["conv_id", "turn_idx", "score",
                                      "snippet"],
                             snippet_cfg=cfg)
        assert out.num_rows == 5
        snips = out.column("snippet").to_pylist()
        assert all(s and "<b>checkpoint</b>" in s for s in snips)
    finally:
        eng.shutdown()


def test_streaming_facets(ray_session, turns, tmp_path):
    """Per-role facet over the standing match set (per-partition partial
    counts merged driver-side), emitted exactly-once per epoch."""
    import collections

    import pyarrow.parquet as pq

    eng = _engine(parts=3)
    try:
        r = EpochRunner(eng, str(tmp_path / "s"),
                        {"q": pdb.term("text", "merge")},
                        facets={"facet_role": (pdb.term("text", "merge"),
                                               "role")},
                        topk=5, columns=["conv_id", "turn_idx", "score"])
        r.run_epoch(0, turns)
        got = pq.read_table(os.path.join(str(tmp_path / "s"), "facets",
                                         "facet_role",
                                         "epoch=000000.parquet"))
        want = collections.Counter(
            ro for ro, tx in zip(turns.column("role").to_pylist(),
                                 turns.column("text").to_pylist())
            if "merge" in tx.split(" "))
        assert dict(zip(got.column("role").to_pylist(),
                        got.column("doc_count").to_pylist())) == dict(want)
        # sorted count desc
        counts = got.column("doc_count").to_pylist()
        assert counts == sorted(counts, reverse=True)
    finally:
        eng.shutdown()


def test_stream_matches_batch_pipeline_bitwise(ray_session, turns):
    """The sharded streaming engine and the stateless batch pipeline must
    produce IDENTICAL rows and bit-identical f32 scores for the same query
    over the same corpus — the searcher-global stats exchange makes
    partitioning invisible (SURVEY §5 BM25 parity)."""
    import ray.data

    from paradedb_ray.pipelines.search import search
    from paradedb_ray.schema import transcripts_schema

    q = pdb.match_disjunction("text", "merge checkpoint")
    batch = search(ray.data.from_arrow(turns), transcripts_schema(), q,
                   output_columns=["conv_id", "turn_idx", "score"]).to_pandas()
    eng = _engine(parts=3)
    try:
        eng.ingest(turns)
        stream = eng.query_matches(
            q, columns=["conv_id", "turn_idx", "score"]).to_pandas()
    finally:
        eng.shutdown()
    b = batch.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    s = stream.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(b) == len(s)
    assert (b["conv_id"] == s["conv_id"]).all()
    assert (b["turn_idx"].to_numpy() == s["turn_idx"].to_numpy()).all()
    assert (b["score"].to_numpy(np.float32)
            == s["score"].to_numpy(np.float32)).all()


def test_empty_epoch(ray_session, turns, tmp_path):
    """An empty micro-batch commits cleanly: watermark holds, standing
    queries still emit, the epoch is marked done."""
    eng = _engine(parts=2)
    try:
        r = EpochRunner(eng, str(tmp_path / "s"),
                        {"q": pdb.term("text", "merge")}, topk=3,
                        columns=["conv_id", "turn_idx", "score"])
        r.run_epoch(0, turns)
        empty = turns.slice(0, 0)
        out = r.run_epoch(1, empty)
        assert out["epoch"] == 1 and out["rows"] == 0
        assert r.epoch_done(1)
    finally:
        eng.shutdown()


def test_partition_count_invariance(ray_session, turns):
    """Top-k emissions are identical regardless of the partition count
    (N-vs-4N clusters must agree row-for-row — the north rule's
    exactly-once-under-scaling requirement)."""
    outs = []
    for parts in (1, 2, 5):
        eng = _engine(parts=parts)
        try:
            eng.ingest(turns)
            t = eng.query_topk(pdb.match_disjunction("text", "epoch scan"),
                               k=20, columns=["conv_id", "turn_idx", "score"])
            outs.append(t.to_pandas().reset_index(drop=True))
        finally:
            eng.shutdown()
    for other in outs[1:]:
        assert outs[0].equals(other)


def test_query_parse_string_over_stream(ray_session, turns):
    eng = _engine(parts=2)
    try:
        eng.ingest(turns)
        got = eng.query_matches("checkpoint AND epoch",
                                columns=["conv_id", "turn_idx"])
        want = {k for k in _brute_term_ids(turns, "checkpoint")
                if k in _brute_term_ids(turns, "epoch")}
        assert _result_ids(got) == want
    finally:
        eng.shutdown()


def test_verify_index_and_info(ray_session, turns):
    """pdb.verify_index / paradedb.index_info analogues
    (`verify_bm25_index.sql`, `api/admin.rs:282,1103`): all checks pass
    on a healthy multi-segment index, heapallindexed adds the
    visibility-map pass, and info rows cover every sealed segment."""
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.streaming import StreamConfig, StreamEngine

    eng = StreamEngine(transcripts_schema(),
                       StreamConfig(num_partitions=2, mutable_rows=200))
    try:
        eng.ingest(turns.slice(0, 1500))
        eng.advance_watermark(0)
        # upsert some rows so tombstones exist
        eng.ingest(turns.slice(100, 200))
        t = eng.verify_index()
        checks = dict(zip(t.column("check_name").to_pylist(),
                          t.column("passed").to_pylist()))
        assert set(checks) == {
            "bm25_index: checksums_valid", "bm25_index: index_readable",
            "bm25_index: schema_valid",
            "bm25_index: segment_metadata_valid"}
        assert all(checks.values())
        t2 = eng.verify_index(heapallindexed=True)
        checks2 = dict(zip(t2.column("check_name").to_pylist(),
                           t2.column("passed").to_pylist()))
        assert checks2["bm25_index: heap_references_valid"]
        info = eng.index_info().to_pandas()
        assert info["num_docs"].sum() == 1700  # superseded copies counted
        assert (info["num_deleted"].sum()) == 200
        assert set(info.columns) >= {"partition", "segno", "mutable",
                                     "byte_size", "num_docs", "num_deleted",
                                     "termdict_bytes", "postings_bytes",
                                     "positions_bytes", "fieldnorms_bytes",
                                     "store_bytes"}
    finally:
        eng.shutdown()


def test_verify_segment_detects_corruption():
    """The corruption leg of `verify_bm25_index.sql`: a damaged postings
    structure fails index_readable; mismatched stats fail
    checksums_valid."""
    import numpy as np
    import pyarrow as pa

    from paradedb_ray.index.segment import build_segment
    from paradedb_ray.index.verify import verify_segment
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.testing.transcripts import transcript_turns

    schema = transcripts_schema()
    seg = build_segment(transcript_turns(200, seed=2), schema)
    assert all(verify_segment(seg, schema).values())
    ti = seg.text["text"]
    good_tf = ti.g_tf.copy()
    ti.g_tf = ti.g_tf[:-1]  # misaligned postings
    assert not verify_segment(seg, schema)["index_readable"]
    ti.g_tf = good_tf
    ti.total_tokens += 7  # stats drift
    assert not verify_segment(seg, schema)["checksums_valid"]


def test_multi_session_per_conv_counts(ray_session):
    """A new turn after a closed gap starts a NEW session with its own
    n_turns (gap-merge semantics, same as the batch session oracle) —
    previously the count accumulated across sessions."""
    eng = _engine(parts=1)
    try:
        t0 = 1_700_000_000_000_000
        g = GAP_US

        def tbl(rows):
            return pa.table({
                "conv_id": pa.array([r[0] for r in rows]),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array(["user"] * len(rows)),
                "text": pa.array(["x"] * len(rows)),
                "tool": pa.array([""] * len(rows)),
                "ts": pa.array([t0 + r[2] for r in rows],
                               pa.timestamp("us"))})

        eng.ingest(tbl([("a", 0, 0), ("a", 1, 10_000_000)]))
        c1 = eng.advance_watermark(t0 + g * 2, epoch=0)
        assert c1.column("n_turns").to_pylist() == [2]
        assert c1.column("session_start").to_pylist() == [t0]
        # second session, three gaps later
        eng.ingest(tbl([("a", 2, g * 3)]))
        c2 = eng.advance_watermark(t0 + g * 5, epoch=1)
        assert c2.column("n_turns").to_pylist() == [1]
        assert c2.column("session_start").to_pylist() == [t0 + g * 3]
        # horizon eviction bounds per-partition session state
        m = eng.metrics()[0]
        assert m["open_sessions"] == 1  # only session 2 is inside lateness
        assert m["closed_sessions"] == 2
    finally:
        eng.shutdown()


def test_session_identity_stable_across_late_merge(ray_session):
    """A late arrival extending an EMITTED session backward re-emits
    under the SAME (conv, session_start) identity, so the sink's
    dedupe-by-identity keeps exactly one corrected row."""
    eng = _engine(parts=1)
    try:
        t0 = 1_700_000_000_000_000
        g = GAP_US
        t = pa.table({
            "conv_id": pa.array(["a"]),
            "turn_idx": pa.array([1], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array(["x"]),
            "tool": pa.array([""]),
            "ts": pa.array([t0], pa.timestamp("us"))})
        eng.ingest(t)
        c1 = eng.advance_watermark(t0 + g + 1, epoch=0)
        assert c1.column("session_start").to_pylist() == [t0]
        # late arrival 10 min EARLIER (inside lateness), same session
        late = pa.table({
            "conv_id": pa.array(["a"]),
            "turn_idx": pa.array([0], pa.int32()),
            "role": pa.array(["user"]), "text": pa.array(["w"]),
            "tool": pa.array([""]),
            "ts": pa.array([t0 - 600_000_000], pa.timestamp("us"))})
        eng.ingest(late)
        c2 = eng.advance_watermark(t0 + g + 2, epoch=1)
        # identity unchanged (frozen at first emission), count corrected
        assert c2.column("session_start").to_pylist() == [t0]
        assert c2.column("n_turns").to_pylist() == [2]
    finally:
        eng.shutdown()


def test_engine_sessions_match_batch_oracle(ray_session, tmp_path):
    """End-to-end session parity: random multi-session traffic through
    epoched ingest + watermarks must reproduce the batch gap-merge
    session table (the same SQL shape as the session_30m oracle)."""
    import duckdb
    import numpy as np

    from paradedb_ray.query import builders as pdb
    from paradedb_ray.streaming import EpochRunner, StreamConfig, StreamEngine
    from paradedb_ray.schema import transcripts_schema

    rng = np.random.RandomState(17)
    t0 = 1_700_000_000_000_000
    n = 3000
    convs = [f"c{rng.randint(40)}" for _ in range(n)]
    # bursty arrivals over ~4 days -> many sessions per conv at a 30m gap
    ts = np.sort(t0 + (rng.rand(n) * 4 * 86400 * 1e6).astype(np.int64))
    t = pa.table({
        "conv_id": pa.array(convs),
        "turn_idx": pa.array(np.arange(n), pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array(["hello world"] * n),
        "tool": pa.array([""] * n),
        "ts": pa.array(ts, pa.timestamp("us"))})
    eng = StreamEngine(transcripts_schema(),
                       StreamConfig(num_partitions=4, mutable_rows=500))
    try:
        r = EpochRunner(eng, str(tmp_path / "sink"),
                        {"q": pdb.term("text", "hello")}, topk=5,
                        columns=["conv_id", "turn_idx", "score"])
        epochs = [t.slice(i * n // 6, n // 6) for i in range(6)]
        r.run(epochs)
        # final watermark far past everything closes the tail sessions
        final = eng.advance_watermark(int(ts[-1]) + GAP_US * 3, epoch=99)
        _write = pa.concat_tables  # (collect final emissions too)
        import pyarrow.parquet as pq_

        if final.num_rows:
            pq_.write_table(final, str(
                tmp_path / "sink" / "sessions" / "epoch=000099.parquet"))
        got = r.read_sessions().to_pandas()
        got = got.sort_values(["conv_id", "session_start"]).reset_index(
            drop=True)
        ref = duckdb.sql(f"""
            WITH o AS (SELECT conv_id, epoch_us(ts) AS ts,
              CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {GAP_US}
              THEN 1 ELSE 0 END AS new FROM t WINDOW w AS
              (PARTITION BY conv_id ORDER BY ts, turn_idx)),
            s AS (SELECT conv_id, ts, sum(new) OVER
              (PARTITION BY conv_id ORDER BY ts
               ROWS UNBOUNDED PRECEDING) AS sid FROM o)
            SELECT conv_id, min(ts) AS session_start,
                   max(ts) AS session_end, count(*) AS n_turns
            FROM s GROUP BY conv_id, sid
            ORDER BY conv_id, session_start
        """).df()
        assert got[["conv_id", "session_start", "session_end",
                    "n_turns"]].reset_index(drop=True).equals(
            ref.reset_index(drop=True).astype(
                {"session_start": "int64", "session_end": "int64",
                 "n_turns": "int64"}))
        assert len(ref) > 80  # genuinely multi-session traffic
    finally:
        eng.shutdown()


def test_large_values_and_long_keys(ray_session):
    """TOAST-sized text values and very long key strings flow through
    mutable buffer -> freeze -> merge -> query (`mutable-toast.sql`,
    `string_id_limit.sql` robustness)."""
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.streaming import StreamConfig, StreamEngine

    eng = StreamEngine(transcripts_schema(),
                       StreamConfig(num_partitions=2, mutable_rows=4))
    try:
        t0 = 1_700_000_000_000_000
        big = "needle " + ("x" * 200_000)  # ~200KB value
        longkey = "k" * 2000
        n = 12
        t = pa.table({
            "conv_id": pa.array([longkey + str(i % 3) for i in range(n)]),
            "turn_idx": pa.array(list(range(n)), pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array([big if i == 7 else f"turn {i}"
                              for i in range(n)]),
            "tool": pa.array([""] * n),
            "ts": pa.array([t0 + i * 1000 for i in range(n)],
                           pa.timestamp("us"))})
        eng.ingest(t)
        eng.advance_watermark(0)
        eng.merge_tick()
        got = eng.query_matches(
            __import__("paradedb_ray.query.builders",
                       fromlist=["x"]).term("text", "needle"),
            columns=["conv_id", "turn_idx"])
        assert got.num_rows == 1
        assert got.column("turn_idx").to_pylist() == [7]
        assert got.column("conv_id").to_pylist()[0].startswith("k" * 100)
    finally:
        eng.shutdown()


def test_upsert_does_not_double_count_session_turns(ray_session):
    """An upsert replaces a live turn — session n_turns must match the
    batch oracle's one-row view, not count physical arrivals."""
    eng = _engine(parts=1)
    try:
        t0 = 1_700_000_000_000_000
        t = pa.table({
            "conv_id": pa.array(["a", "a", "a"]),
            "turn_idx": pa.array([0, 1, 2], pa.int32()),
            "role": pa.array(["user"] * 3),
            "text": pa.array(["one", "two", "three"]),
            "tool": pa.array([""] * 3),
            "ts": pa.array([t0, t0 + 1_000_000, t0 + 2_000_000],
                           pa.timestamp("us"))})
        eng.ingest(t)
        # upsert turn 1 twice (text corrections, same ts)
        up = t.slice(1, 1)
        eng.ingest(up)
        eng.ingest(up)
        closed = eng.advance_watermark(t0 + GAP_US * 2, epoch=0)
        assert closed.column("n_turns").to_pylist() == [3]
        # a corrected LATE turn re-opens an emitted session but its key
        # was already counted
        eng.ingest(t.slice(0, 1))
        closed2 = eng.advance_watermark(t0 + GAP_US * 2 + 1, epoch=1)
        assert closed2.num_rows == 0  # bounds and counts unchanged
    finally:
        eng.shutdown()


def test_incremental_live_map_checkpoints_with_compaction(ray_session,
                                                          tmp_path):
    """Live-map checkpoints persist only new arrival deltas; churn-heavy
    upserts trigger base-snapshot compaction; restore replays the chain
    with highest-__arr-wins and answers identically."""
    import os

    ck = str(tmp_path / "ck")
    eng = _engine(ck, parts=1)
    try:
        t0 = 1_700_000_000_000_000
        n = 60_000

        def batch(round_i):
            texts = [f"round{round_i} filler" for _ in range(n)]
            return pa.table({
                "conv_id": pa.array([f"c{i % 997}" for i in range(n)]),
                "turn_idx": pa.array(np.arange(n), pa.int32()),
                "role": pa.array(["user"] * n),
                "text": pa.array(texts),
                "tool": pa.array([""] * n),
                "ts": pa.array([t0 + i for i in range(n)],
                               pa.timestamp("us"))})

        for r in range(3):  # same keys upserted three times
            eng.ingest(batch(r))
            eng.checkpoint(epoch=r)
        d = os.path.join(ck, "part-00000")
        files = os.listdir(d)
        assert any(f.startswith("live-base-") for f in files), files
        want = _result_ids(eng.query_matches(
            pdb.term("text", "round2"), columns=["conv_id", "turn_idx"]))
        assert len(want) == n  # only the last round's copies are live
    finally:
        eng.shutdown()
    eng2 = _engine(ck, parts=1)
    try:
        assert eng2.restore() == 2
        got = _result_ids(eng2.query_matches(
            pdb.term("text", "round2"), columns=["conv_id", "turn_idx"]))
        assert got == want
        assert eng2.query_matches(pdb.term("text", "round0")).num_rows == 0
        # resume keeps ingesting + checkpointing cleanly
        eng2.ingest(batch(3))
        eng2.checkpoint(epoch=3)
        assert eng2.query_matches(pdb.term("text", "round2")).num_rows == 0
        assert eng2.query_matches(
            pdb.term("text", "round3")).num_rows == n
    finally:
        eng2.shutdown()


def test_sessions_sink_compaction(ray_session, turns, tmp_path):
    """Checkpoint-tick compaction (VERDICT r2 #6): superseded per-epoch
    sessions emissions fold into hash-sharded snapshots, epoch files are
    removed, and read_sessions is IDENTICAL to the uncompacted history —
    including across a crash/resume."""
    import pyarrow.parquet as pq  # noqa: F401

    idx = pa.compute.sort_indices(turns, sort_keys=[("ts", "ascending")])
    ordered = turns.take(idx)
    n = ordered.num_rows
    epochs = [ordered.slice(i * n // 4, n // 4) for i in range(3)]
    epochs.append(ordered.slice(3 * (n // 4)))
    standing = {"q": pdb.term("text", "merge")}

    def sessions_df(t):
        return (t.to_pandas()
                 .sort_values(["conv_id", "session_start"])
                 .reset_index(drop=True))

    # reference run: NO checkpoint dir -> no compaction, full history
    sink_a = str(tmp_path / "sink_a")
    eng_a = _engine(parts=2)
    try:
        ra = EpochRunner(eng_a, sink_a, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"],
                         checkpoint_every=2)
        ra.run(epochs)
        want = sessions_df(ra.read_sessions())
        assert len(os.listdir(os.path.join(sink_a, "sessions"))) >= 4
    finally:
        eng_a.shutdown()

    # compacted run: checkpoints every 2 epochs -> compaction fires
    sink_b = str(tmp_path / "sink_b")
    eng_b = _engine(str(tmp_path / "ck_b"), parts=2)
    try:
        rb = EpochRunner(eng_b, sink_b, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"],
                         checkpoint_every=2)
        rb.run(epochs)
        got = sessions_df(rb.read_sessions())
        sdir = os.path.join(sink_b, "sessions")
        epoch_files = [f for f in os.listdir(sdir) if f.startswith("epoch=")]
        # epochs 0..4 folded at ticks 2 and 4... the last tick is epoch 3
        # (0-indexed), which is odd -> epochs 3 remains; ticks at 0 and 2
        assert len(epoch_files) <= 2, epoch_files
        shards = os.listdir(os.path.join(sdir, "compact"))
        assert shards and all(s.startswith("shard=") for s in shards)
    finally:
        eng_b.shutdown()
    assert want.equals(got), "compacted read_sessions diverged"

    # crash after epoch 1 (post-compaction tick at epoch 0), resume, finish
    sink_c = str(tmp_path / "sink_c")
    ck_c = str(tmp_path / "ck_c")
    eng_c = _engine(ck_c, parts=2)
    try:
        rc = EpochRunner(eng_c, sink_c, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"],
                         checkpoint_every=2)
        rc.run_epoch(0, epochs[0])
        rc.run_epoch(1, epochs[1])
    finally:
        eng_c.shutdown()  # crash
    eng_d = _engine(ck_c, parts=2)
    try:
        rd = EpochRunner(eng_d, sink_c, standing, topk=5,
                         columns=["conv_id", "turn_idx", "score"],
                         checkpoint_every=2)
        rd.resume()
        out = rd.run(epochs)
        assert out[0].get("skipped") and out[1].get("skipped")
        got_c = sessions_df(rd.read_sessions())
    finally:
        eng_d.shutdown()
    assert want.equals(got_c), "post-resume read_sessions diverged"


def test_checkpoint_segments_compressed_and_other_formats_rejected(
        ray_session, turns, tmp_path):
    """Segment checkpoint files are zstd-compressed and round-trip; a
    manifest of any other checkpoint format makes ``restore`` raise."""
    import glob
    import json
    import os
    import pickle

    from paradedb_ray.index.segment import Segment
    from paradedb_ray.streaming.state_store import _zstd_decompress

    ckpt = str(tmp_path / "ckpt")
    eng = _engine(ckpt, parts=2)
    try:
        eng.ingest(turns)
        want = _result_ids(eng.query_matches(
            pdb.term("text", "watermark"), columns=["conv_id", "turn_idx"]))
        eng.checkpoint(epoch=0)
    finally:
        eng.shutdown()

    seg_files = glob.glob(os.path.join(ckpt, "part-*", "seg-*.pkl.zst"))
    assert seg_files, "segments must be written compressed"
    for p in seg_files:
        with open(p, "rb") as f:
            assert isinstance(pickle.loads(_zstd_decompress(f.read())),
                              Segment)

    eng2 = _engine(ckpt, parts=2)
    try:
        assert eng2.restore() == 0
        got = _result_ids(eng2.query_matches(
            pdb.term("text", "watermark"), columns=["conv_id", "turn_idx"]))
        assert got == want
    finally:
        eng2.shutdown()

    # an older layout (format 2 read uncompressed segments, unstamped
    # deltas and partial state) is refused, not guessed at
    mpath = os.path.join(ckpt, "part-00000", "manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    manifest["format"] = 2
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    eng3 = _engine(ckpt, parts=2)
    try:
        with pytest.raises(ValueError, match="format 2"):
            eng3.restore()
    finally:
        eng3.shutdown()


def _stamped_turns(rows) -> pa.Table:
    """One conv's turns ``(turn_idx, text, __arr)``, ts = t0 + turn_idx."""
    t0 = 1_700_000_000_000_000
    return pa.table({
        "conv_id": pa.array(["c"] * len(rows)),
        "turn_idx": pa.array([r[0] for r in rows], pa.int32()),
        "role": pa.array(["user"] * len(rows)),
        "text": pa.array([r[1] for r in rows]),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([t0 + r[0] for r in rows], pa.timestamp("us")),
        "__arr": pa.array([r[2] for r in rows], pa.int64())})


def _partition_store():
    import pickle

    from paradedb_ray.streaming.state_store import Bm25PartitionStore

    return Bm25PartitionStore.__ray_actor_class__(
        0, pickle.dumps(transcripts_schema()), mutable_rows=1000)


def _visible_turns(s) -> list:
    """(turn_idx, text) of the live copies in a partition store."""
    s._freeze()
    cols = ["conv_id", "turn_idx", "text", "__seq"]
    vis = s._visible_only(pa.concat_tables(
        [seg.table.select(cols) for seg in s.sealed]).combine_chunks(),
        force=True)
    return sorted(zip(vis.column("turn_idx").to_pylist(),
                      vis.column("text").to_pylist()))


def test_ingest_arbitration_in_arrival_order():
    """Upserts arbitrate in arrival order by the router's ``__arr``
    stamp, within a batch and across batches: no live copy -> fresh, a
    newer-or-equal stamp supersedes, a staler one is dead on arrival, and
    a stale retraction is a no-op.  Only fresh keys count as session
    turns."""
    from paradedb_ray.streaming.state_store import _key_hash

    s = _partition_store()
    # one key three times in a batch: 5 fresh, 3 dead, 7 supersedes
    s.ingest(_stamped_turns([(0, "arr five", 5), (0, "arr three", 3),
                             (0, "arr seven", 7), (1, "other", 4)]))
    assert s.metrics_["retractions"] == 1
    assert s.n_dead == 2
    assert _visible_turns(s) == [(0, "arr seven"), (1, "other")]
    # a later batch: 6 is stale against 7, 9 supersedes, turn 2 is fresh
    s.ingest(_stamped_turns([(0, "arr six", 6), (0, "arr nine", 9),
                             (2, "fresh", 8)]))
    assert s.metrics_["retractions"] == 2
    assert s.n_dead == 4
    # a retraction stamped 8 loses against the live copy stamped 9
    kh = _key_hash(np.array(["c"], dtype=object), np.array([0])).tolist()
    assert s.retract_keys(kh, [8]) == 0
    assert s.metrics_["retractions"] == 2
    assert s.n_dead == 4
    assert _visible_turns(s) == [(0, "arr nine"), (1, "other"),
                                 (2, "fresh")]
    assert [x[2] for x in s.sessions["c"]] == [3]


def test_ingest_arbitration_matches_sequential_reference():
    """Random stamped batches with in-batch duplicates, re-arrivals of
    live keys and stale stamps: the store's bulk-update-plus-loop
    arbitration leaves the same live maps and counters as arbitrating
    every row one at a time in arrival order."""
    from paradedb_ray.streaming.state_store import _key_hash

    rng = np.random.RandomState(11)
    s = _partition_store()
    live_seq, live_arr = {}, {}
    n_retract = n_dead = seq = 0
    for b in range(12):
        turns = rng.randint(0, 40, size=int(rng.randint(1, 30)))
        arrs = rng.randint(0, 1000, size=len(turns)) + 500 * b
        s.ingest(_stamped_turns([(int(t), "x", int(a))
                                 for t, a in zip(turns, arrs)]))
        keys = _key_hash(np.array(["c"] * len(turns), dtype=object),
                         turns).tolist()
        for k, a in zip(keys, arrs.tolist()):
            prev = live_arr.get(k)
            if prev is None or a >= prev:
                n_retract += prev is not None
                live_seq[k], live_arr[k] = seq, a
            n_dead += prev is not None
            seq += 1
    assert s.live_seq == live_seq and s.live_arr == live_arr
    assert s.metrics_["retractions"] == n_retract
    assert s.n_dead == n_dead


def test_restore_replays_checkpointed_retraction(tmp_path):
    """A retraction committed by a checkpoint stays applied after
    ``restore``: the live-map delta logs it in order with the upserts,
    so the retracted copy does not come back and a later upsert of the
    key still wins."""
    from paradedb_ray.streaming.state_store import _key_hash

    ckpt = str(tmp_path / "ckpt")
    s = _partition_store()
    s.ingest(_stamped_turns([(0, "zero", 10), (1, "one", 11)]))
    s.checkpoint(ckpt, 0)
    kh = _key_hash(np.array(["c", "c"], dtype=object),
                   np.array([0, 1])).tolist()
    assert s.retract_keys(kh, [12, 5]) == 1  # turn 1's stamp 11 > 5
    s.ingest(_stamped_turns([(1, "one again", 13)]))
    s.checkpoint(ckpt, 1)
    want = _visible_turns(s)
    assert want == [(1, "one again")]

    r = _partition_store()
    assert r.restore(ckpt) == 1
    assert r.live_seq == s.live_seq and r.live_arr == s.live_arr
    assert _visible_turns(r) == want


def test_checkpoint_keeps_live_segment_caches(tmp_path):
    """A checkpoint pickles each sealed segment without its caches and
    leaves the live segment's cached phrase matches in place; a restored
    segment starts with empty caches and answers the same."""
    from paradedb_ray.index.searcher import Searcher

    ckpt = str(tmp_path / "ckpt")
    schema = transcripts_schema()
    phrase = ast.PhraseArray("text", ["red", "fox"], slop=0)
    s = _partition_store()
    s.ingest(_stamped_turns([(0, "red fox jumps", 10),
                             (1, "a red dog", 11), (2, "the red fox", 12)]))
    s._freeze()
    [seg] = s.sealed
    want = Searcher(seg, schema).eval(phrase).ids.tolist()
    cached = dict(seg._json_cache)
    assert any(k[0] == "_phrase" for k in cached)
    s.checkpoint(ckpt, 0)
    assert s.sealed[0] is seg and seg._json_cache == cached

    r = _partition_store()
    assert r.restore(ckpt) == 0
    [back] = r.sealed
    assert back._json_cache == {} and back._vec_cache == {}
    assert Searcher(back, schema).eval(phrase).ids.tolist() == want


def test_force_merge_collapses_segments(ray_session, turns):
    """`paradedb.force_merge` analogue (`api/admin.rs`
    force_merge_pretty_bytes): collapses each partition's sealed segments
    into byte-bounded bins — None means one segment per partition — with
    query results identical before and after."""
    eng = _engine(parts=2)
    try:
        for i in range(0, 3000, 500):
            eng.ingest(turns.slice(i, 500))
        before = eng.query_matches(pdb.term("text", "the"),
                                   columns=["conv_id", "turn_idx"])
        assert any(m["sealed_segments"] >= 2 for m in eng.metrics())
        n_merged = eng.force_merge(None)
        assert n_merged > 0
        after = eng.query_matches(pdb.term("text", "the"),
                                  columns=["conv_id", "turn_idx"])
        assert _result_ids(before) == _result_ids(after)
        for m in eng.metrics():
            assert m["sealed_segments"] <= 1
        # byte-bounded variant: every partition obeys the bin cap
        eng2 = _engine(parts=2)
        try:
            for i in range(0, 3000, 500):
                eng2.ingest(turns.slice(i, 500))
            eng2.force_merge(64 * 1024)
            got = eng2.query_matches(pdb.term("text", "the"),
                                     columns=["conv_id", "turn_idx"])
            assert _result_ids(got) == _result_ids(before)
        finally:
            eng2.shutdown()
    finally:
        eng.shutdown()


def test_pattern_sink_on_session_close(ray_session, tmp_path):
    """Standing CEP patterns evaluate on session close: a user turn
    immediately followed by an assistant tool call inside one session;
    matches emit exactly-once under sink/patterns/<name>, adjacency never
    crosses sessions, and replaying committed epochs adds nothing."""
    import pyarrow.parquet as pq

    t0 = 1_700_000_000_000_000
    MIN = 60_000_000

    def turn(conv, idx, role, tool, ts):
        return pa.table({
            "conv_id": pa.array([conv]),
            "turn_idx": pa.array([idx], pa.int32()),
            "role": pa.array([role]), "text": pa.array(["w x"]),
            "tool": pa.array([tool]),
            "ts": pa.array([ts], pa.timestamp("us"))})

    # conv a, session 1: user -> assistant(tool=search) adjacent = MATCH
    # conv a, session 2 (after > gap): assistant first (no match), then a
    #   user turn ENDING the session — the next assistant turn opens
    #   session 3, so user->assistant must NOT match across the gap
    # conv b: user -> user -> assistant: exactly ONE match (turns 1->2)
    e0 = pa.concat_tables([
        turn("a", 0, "user", "", t0),
        turn("a", 1, "assistant", "search", t0 + MIN),
        turn("b", 0, "user", "", t0),
        turn("b", 1, "user", "", t0 + MIN),
        turn("b", 2, "assistant", "grep", t0 + 2 * MIN),
        turn("a", 2, "assistant", "", t0 + 120 * MIN),
        turn("a", 3, "user", "", t0 + 121 * MIN),
        turn("a", 4, "assistant", "calc", t0 + 300 * MIN),
    ])
    # a late epoch far in the future closes everything
    e1 = turn("zz", 0, "user", "", t0 + 10_000 * MIN)
    sink = str(tmp_path / "sink")
    eng = _engine(parts=2, session_gap_us=30 * MIN,
                  lateness_us=1_000_000)
    try:
        pat = {"user_then_tool": {
            "steps": [("role", "user"), ("role", "assistant")],
            "emit": [(0, "turn_idx", "user_turn"),
                     (1, "turn_idx", "asst_turn"), (1, "tool", "tool")],
            "within": "30m"}}
        r = EpochRunner(eng, sink, {"q": pdb.term("text", "w")},
                        topk=5, columns=["conv_id", "turn_idx", "score"],
                        patterns=pat)
        r.run([e0, e1])
        got = r.read_patterns("user_then_tool").to_pandas()
        got = got.sort_values(["conv_id", "user_turn"]).reset_index(
            drop=True)
        matches = list(zip(got["conv_id"], got["user_turn"],
                           got["asst_turn"], got["tool"]))
        # a: (0 -> 1, search); NOT (3 -> 4): session gap between them
        # b: (1 -> 2, grep) only — (0 -> 1) is user->user
        assert matches == [("a", 0, 1, "search"), ("b", 1, 2, "grep")]
        # exactly-once: replay of committed epochs adds no files
        pdir = os.path.join(sink, "patterns", "user_then_tool")
        before = sorted(os.listdir(pdir))
        r2 = EpochRunner(eng, sink, {"q": pdb.term("text", "w")},
                         topk=5, columns=["conv_id", "turn_idx", "score"],
                         patterns=pat)
        r2.run([e0, e1])
        assert sorted(os.listdir(pdir)) == before
        assert r2.read_patterns("user_then_tool").num_rows == 2
    finally:
        eng.shutdown()


def test_streaming_content_dedup_exactly_once(ray_session, tmp_path):
    """First arrival of each distinct text survives across epochs; a
    replayed epoch reproduces its original survivor set; restore from
    checkpoint keeps deduping against everything seen before."""
    from paradedb_ray.streaming.dedup_stream import StreamingDeduper

    ck = str(tmp_path / "dedup_ck")

    def tbl(rows):
        return pa.table({
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows])})

    e0 = tbl([(1, "alpha"), (2, "beta"), (3, "alpha"), (4, "gamma")])
    e1 = tbl([(5, "beta"), (6, "delta"), (7, "delta"), (8, "alpha")])
    d = StreamingDeduper(num_shards=4, checkpoint_dir=ck)
    try:
        s0 = d.ingest(e0, epoch=0)
        # within-epoch dup (doc 3) drops; first occurrences survive
        assert s0.column("doc_id").to_pylist() == [1, 2, 4]
        d.checkpoint(0)
        s1 = d.ingest(e1, epoch=1)
        # beta/alpha seen in epoch 0; delta first-wins within epoch 1
        assert s1.column("doc_id").to_pylist() == [6]
        d.checkpoint(1)
        # replay of epoch 1 (same state, same table) is bit-identical
        s1b = d.ingest(e1, epoch=1)
        assert s1b.column("doc_id").to_pylist() == [6]
        assert d.num_seen() == 4  # alpha beta gamma delta
    finally:
        d.shutdown()

    # restart: restore from checkpoint, epoch 2 still dedupes history
    d2 = StreamingDeduper(num_shards=4, checkpoint_dir=ck)
    try:
        assert d2.restore() == 1
        e2 = tbl([(9, "gamma"), (10, "epsilon")])
        s2 = d2.ingest(e2, epoch=2)
        assert s2.column("doc_id").to_pylist() == [10]
    finally:
        d2.shutdown()


def test_pattern_late_reclose_voids_stale_match(ray_session, tmp_path):
    """A late turn that re-opens an emitted session and BREAKS the
    pattern adjacency must void the stale match: the re-closing epoch
    writes a tombstone row for the match-less session and read_patterns
    keeps only each session's latest epoch."""
    t0 = 1_700_000_000_000_000
    MIN = 60_000_000

    def turn(conv, idx, role, ts):
        return pa.table({
            "conv_id": pa.array([conv]),
            "turn_idx": pa.array([idx], pa.int32()),
            "role": pa.array([role]), "text": pa.array(["w"]),
            "tool": pa.array([""]),
            "ts": pa.array([ts], pa.timestamp("us"))})

    # e0: c1 user -> assistant adjacent (a match); zz far ahead pushes
    # the watermark past c1's close (wm = t0+4h - 3h lateness = t0+1h)
    e0 = pa.concat_tables([
        turn("c1", 0, "user", t0),
        turn("c1", 1, "assistant", t0 + MIN),
        turn("zz", 0, "user", t0 + 240 * MIN)])
    # e1: a LATE c1 turn lands BETWEEN the matched pair (within the 3h
    # lateness) and breaks user->assistant adjacency
    e1 = turn("c1", 2, "system", t0 + 30_000_000)
    sink = str(tmp_path / "sink")
    eng = _engine(parts=2, session_gap_us=30 * MIN,
                  lateness_us=180 * MIN)
    try:
        pat = {"ua": {"steps": [("role", "user"), ("role", "assistant")],
                      "emit": [(0, "turn_idx", "u"), (1, "turn_idx", "a")]}}
        r = EpochRunner(eng, sink, {"q": pdb.term("text", "w")},
                        topk=5, columns=["conv_id", "turn_idx", "score"],
                        patterns=pat)
        r.run_epoch(0, e0)
        got0 = r.read_patterns("ua").to_pandas()
        assert list(zip(got0["conv_id"], got0["u"], got0["a"])) == [
            ("c1", 0, 1)]
        r.run_epoch(1, e1)
        got1 = r.read_patterns("ua").to_pandas()
        # the re-close (same session identity) found no match: the
        # epoch-1 tombstone supersedes the epoch-0 match
        assert len(got1[got1["conv_id"] == "c1"]) == 0
    finally:
        eng.shutdown()


@pytest.mark.parametrize("seed", range(3))
def test_pattern_stream_batch_parity(ray_session, seed):
    """The session-close CEP reducer finds exactly the matches of the
    batch ``match_sequence`` over the same turns keyed by (conv_id,
    session_start): random conversations of several sessions, NULL step
    values, equal timestamps, turns of still-open sessions, a ``within``
    bound."""
    import ray
    import ray.data

    from paradedb_ray.pipelines.windows import match_sequence
    from paradedb_ray.stages.blocks import collect_table
    from paradedb_ray.streaming.engine import _pattern_reducer

    rng = np.random.RandomState(seed)
    MIN = 60_000_000
    rows, sess = [], []
    for c in range(12):
        ts = start = 1_700_000_000_000_000 + c * MIN
        for i in range(rng.randint(1, 60)):
            step = int(rng.choice([0, 1, 3, 8, 45])) if i else 0
            if step > 30:  # a gap: the session closes at the last turn
                sess.append((f"c{c}", start, ts))
                start = ts + step * MIN
            ts += step * MIN
            rows.append({"conv_id": f"c{c}", "turn_idx": i,
                         "role": rng.choice(["user", "assistant", "system",
                                             None]),
                         "tool": rng.choice(["search", "", None]),
                         "ts": ts, "session_start": start})
        sess.append((f"c{c}", start, ts))
    closed = [s for s in sess if rng.rand() < 0.8]  # the rest stay open
    sessions = pa.table({
        "conv_id": pa.array([s[0] for s in closed], pa.string()),
        "session_start": pa.array([s[1] for s in closed], pa.int64()),
        "session_end": pa.array([s[2] for s in closed], pa.int64())})

    def turn_table(rs):
        return pa.table({
            "conv_id": pa.array([r["conv_id"] for r in rs], pa.string()),
            "turn_idx": pa.array([r["turn_idx"] for r in rs], pa.int32()),
            "role": pa.array([r["role"] for r in rs], pa.string()),
            "tool": pa.array([r["tool"] for r in rs], pa.string()),
            "ts": pa.array([r["ts"] for r in rs], pa.int64()).cast(
                pa.timestamp("us")),
            "session_start": pa.array([r["session_start"] for r in rs],
                                      pa.int64())})

    steps = [("role", "user"), ("role", "assistant"), ("tool", "search")]
    emit = [(0, "turn_idx", "u"), (2, "turn_idx", "a"), (2, "tool", "tool")]
    out_schema = pa.schema([("conv_id", pa.string()),
                            ("session_start", pa.int64()),
                            ("u", pa.int32()), ("a", pa.int32()),
                            ("tool", pa.string())])
    reduce = _pattern_reducer(ray.put(sessions), steps, emit, 20 * MIN,
                              "conv_id", "turn_idx", "ts", out_schema)
    # the stream side never sees session_start: it joins it on
    turns = turn_table([rows[i] for i in rng.permutation(len(rows))])
    got = reduce(turns.drop_columns(["session_start"]))
    assert got.schema == out_schema

    in_closed = {s[:2] for s in closed}
    bt = turn_table([r for r in rows
                     if (r["conv_id"], r["session_start"]) in in_closed])
    want = collect_table(match_sequence(
        ray.data.from_arrow(bt).repartition(2),
        ["conv_id", "session_start"],
        [("ts", "ascending"), ("turn_idx", "ascending")], steps, emit,
        within="20m", ts_col="ts"))

    def key(t):
        return sorted(tuple(r.values())
                      for r in t.select(out_schema.names).to_pylist())

    assert key(got) == key(want)
    assert got.num_rows > 0


def test_gate_retraction_arbitrates_by_arrival_stamp(ray_session):
    """A retraction carrying an OLDER __arr stamp than the live copy must
    lose (replayed stale out-of-gate row), and one carrying a newer stamp
    must win — the same arbitration rule ingest uses."""
    import pickle

    import ray

    from paradedb_ray.streaming.state_store import (Bm25PartitionStore,
                                                    _key_hash)

    store = Bm25PartitionStore.remote(
        0, pickle.dumps(transcripts_schema()))
    t0 = 1_700_000_000_000_000
    row = pa.table({
        "conv_id": pa.array(["c"]), "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"]), "text": pa.array(["hello"]),
        "tool": pa.array([""]),
        "ts": pa.array([t0], pa.timestamp("us")),
        "__arr": pa.array([10], pa.int64())})
    ray.get(store.ingest.remote(row, 0))
    kh = _key_hash(np.array(["c"], dtype=object),
                   np.array([0])).tolist()
    # stale retraction (arr 5 < live arr 10): must be a no-op
    assert ray.get(store.retract_keys.remote(kh, [5])) == 0
    assert ray.get(store.num_docs.remote()) == 1
    # newer retraction (arr 12 > 10): wins
    assert ray.get(store.retract_keys.remote(kh, [12])) == 1
    ray.kill(store)


def _zebra_row(conv: str, text: str) -> pa.Table:
    return pa.table({
        "conv_id": pa.array([conv]), "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"]), "text": pa.array([text]),
        "tool": pa.array([""]),
        "ts": pa.array([1_700_000_000_000_000], pa.timestamp("us"))})


@pytest.mark.parametrize("parts", [1, 2])
def test_dead_copy_never_prunes_live_topk(ray_session, parts):
    """The top-k threshold counts live hits only: the superseded copy of
    ``x`` (the best "zebra" score) must not raise the k-th best and
    prune the live ``z`` in a later segment."""
    from paradedb_ray.index import Searcher, build_segment

    batches = [[("x", "zebra zebra zebra"), ("y", "zebra foo bar baz")],
               [("x", "nothing here at all"), ("f", "filler words")],
               [("z", "zebra foo bar baz qux"), ("g", "more filler")]]
    eng = StreamEngine(transcripts_schema(),
                       StreamConfig(num_partitions=parts, mutable_rows=2))
    try:
        for e, rows in enumerate(batches):
            eng.ingest(pa.concat_tables([_zebra_row(c, t) for c, t in rows]),
                       epoch=e)
        got = eng.query_topk(pdb.term("text", "zebra"), k=2,
                             columns=["conv_id", "turn_idx", "score"])
        stats = eng.global_stats(pdb.term("text", "zebra"))
    finally:
        eng.shutdown()
    # scored under the engine's own stats: a superseded copy counts in
    # them until a freeze, merge or vacuum drops it (like a tantivy
    # deleted doc), and which of those ran depends on the partitioning
    live = pa.concat_tables([_zebra_row("y", "zebra foo bar baz"),
                             _zebra_row("z", "zebra foo bar baz qux")])
    ref = Searcher(build_segment(live, transcripts_schema()),
                   transcripts_schema(), stats).eval(pdb.term("text", "zebra"))
    assert got.column("conv_id").to_pylist() == ["y", "z"]
    assert (np.asarray(got.column("score"), np.float32).tolist()
            == np.asarray(ref.scores, np.float32).tolist())


def _parity_queries(n: int) -> dict:
    """``n`` standing queries cycling term / OR / AND / phrase over the
    transcript vocabulary; ``q0`` is the same for every ``n``."""
    from paradedb_ray.testing.transcripts import _VOCAB

    words = [str(w) for w in _VOCAB]
    out = {}
    for j in range(n):
        w1 = words[(7 * j + 13) % len(words)]
        w2 = words[(11 * j + 3) % len(words)]
        kind = j % 4
        out[f"q{j}"] = (f"{w1} OR {w2}" if kind == 0
                        else pdb.term("text", w1) if kind == 1
                        else f"{w1} AND {w2}" if kind == 2
                        else f'"{w1} {w2}"')
    return out


def _parity_epochs(n_epochs: int = 6, per: int = 300) -> list:
    """Arrival-ordered epochs of transcript turns.  Epochs 1..n-2 also
    correct 15 keys of earlier epochs (new text, arriving now); the last
    epoch corrects 10 of its own keys within the epoch."""
    base = transcript_turns(n_epochs * per, seed=3)
    base = base.take(pa.compute.sort_indices(base, sort_keys=[
        ("ts", "ascending"), ("conv_id", "ascending"),
        ("turn_idx", "ascending")]))
    epochs = []
    for e in range(n_epochs):
        t = base.slice(e * per, per)
        if 0 < e < n_epochs - 1:
            fix = base.slice((e - 1) * per + 5 * e, 15)
        elif e == n_epochs - 1:
            fix = t.slice(40, 10)
        else:
            fix = None
        if fix is not None:
            texts = t.column("text").to_pylist()[100:100 + fix.num_rows]
            ts = t.column("ts").cast(pa.int64()).to_pylist()[-1]
            fix = fix.set_column(fix.schema.get_field_index("text"), "text",
                                 pa.array(texts))
            fix = fix.set_column(fix.schema.get_field_index("ts"), "ts",
                                 pa.array([ts] * fix.num_rows,
                                          pa.timestamp("us")))
            t = pa.concat_tables([t, fix])
        epochs.append(t)
    return epochs


def _live_rows(epochs: list) -> pa.Table:
    """The latest copy of every (conv_id, turn_idx) key."""
    t = pa.concat_tables(epochs)
    latest = {}
    for i, k in enumerate(zip(t.column("conv_id").to_pylist(),
                              t.column("turn_idx").to_pylist())):
        latest[k] = i
    return t.take(pa.array(sorted(latest.values()), pa.int64()))


def test_shared_evaluation_parity_across_query_counts(ray_session, tmp_path):
    """A standing query's emissions do not depend on how many other
    queries share its epoch's stats exchange and evaluate round, and the
    last epoch equals a whole-corpus searcher over the live rows."""
    import collections

    import pyarrow.parquet as pq

    from paradedb_ray.index import Searcher, build_segment
    from paradedb_ray.index.searcher import Hits
    from paradedb_ray.index.snippet import (
        SnippetConfig,
        query_terms_for_field,
        snippet_column,
    )

    epochs = _parity_epochs()
    last = len(epochs) - 1
    cfg = SnippetConfig(field="text", mode="single", max_num_chars=60)
    cols = ["conv_id", "turn_idx", "score", "snippet"]
    facets = {"roles": ("merge", "role"), "tools": ("epoch", "tool")}
    sinks = {}
    for n_q in (1, 8, 32):
        sink = str(tmp_path / f"q{n_q}")
        eng = _engine(parts=2, hot_threshold=20)
        try:
            r = EpochRunner(eng, sink, _parity_queries(n_q), topk=7,
                            columns=cols, facets=facets, snippet_cfg=cfg)
            salted = False
            for e, t in enumerate(epochs):
                if e == last:
                    # drop the superseded copies, so that the stats of
                    # the last epoch are those of the live rows
                    eng.vacuum()
                r.run_epoch(e, t)
                salted |= bool(eng.refresh_hot())
            assert salted, "hot-conversation salting was not exercised"
            assert sum(m["retractions"] for m in eng.metrics()) >= 15
        finally:
            eng.shutdown()
        sinks[n_q] = sink

    def sink_bytes(sink, *path):
        with open(os.path.join(sink, *path), "rb") as f:
            return f.read()

    for e in range(len(epochs)):
        name = f"epoch={e:06d}.parquet"
        assert (sink_bytes(sinks[1], "q0", name)
                == sink_bytes(sinks[8], "q0", name)
                == sink_bytes(sinks[32], "q0", name))

    schema = transcripts_schema()
    live = _live_rows(epochs)
    ref = Searcher(build_segment(live, schema), schema)
    name = f"epoch={last:06d}.parquet"
    matched = 0
    for qn, q in _parity_queries(32).items():
        qa = ast.Parse(q) if isinstance(q, str) else q
        hits = ref.eval(qa)
        ids = np.asarray(hits.ids, np.int64)
        scores = np.asarray(hits.scores, np.float32)
        top = live.take(pa.array(ids)).append_column(
            "score", pa.array(scores, pa.float32()))
        order = pa.compute.sort_indices(top, sort_keys=[
            ("score", "descending"), ("conv_id", "ascending"),
            ("turn_idx", "ascending")]).to_numpy()[:7]
        snips = snippet_column(ref, Hits(ids[order], scores[order]), cfg,
                               query_terms_for_field(qa, schema, "text"))
        want = list(zip(top.column("conv_id").take(order).to_pylist(),
                        top.column("turn_idx").take(order).to_pylist(),
                        scores[order].tolist(), snips.to_pylist()))
        got = pq.read_table(os.path.join(sinks[32], qn, name))
        if not want:
            assert got.num_rows == 0, qn
            continue
        matched += 1
        assert list(zip(got.column("conv_id").to_pylist(),
                        got.column("turn_idx").to_pylist(),
                        np.asarray(got.column("score"), np.float32).tolist(),
                        got.column("snippet").to_pylist())) == want, qn
    assert matched >= 24
    for fname, (word, field) in facets.items():
        counts = collections.Counter(
            v for v, x in zip(live.column(field).to_pylist(),
                              live.column("text").to_pylist())
            if word in x.split(" "))
        want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for n_q in (1, 8, 32):
            got = pq.read_table(os.path.join(sinks[n_q], "facets", fname,
                                             name))
            assert list(zip(got.column(field).to_pylist(),
                            got.column("doc_count").to_pylist())) == want


class _CountingActor:
    """A partition-actor handle that logs ``(method, partition)`` for
    every ``.remote`` call made through it."""

    def __init__(self, handle, part: int, calls: list):
        self._handle, self._part, self._calls = handle, part, calls

    def __getattr__(self, name):
        method = getattr(self._handle, name)
        calls, part = self._calls, self._part

        class _Method:
            def remote(self, *args, **kwargs):
                calls.append((name, part))
                return method.remote(*args, **kwargs)

        return _Method()


def test_epoch_scores_all_queries_in_two_rounds(ray_session, tmp_path):
    """One run_epoch is five rounds of partition-actor calls, whatever its
    query count: ingest, seal (dead letters, watermark and the stats of
    every standing query and facet), evaluate, settle (merge tick and
    metrics) and checkpoint — so all queries and facets are scored in
    two rounds, the seal's stats and one evaluate call per actor."""
    for n_q in (1, 32):
        eng = _engine(str(tmp_path / f"ck{n_q}"), parts=2)
        real = eng.actors
        calls: list = []
        eng.actors = [_CountingActor(a, p, calls) for p, a in enumerate(real)]
        sink = tmp_path / f"s{n_q}"
        try:
            r = EpochRunner(eng, str(sink), _parity_queries(n_q),
                            facets={"roles": ("merge", "role")}, topk=5,
                            columns=["conv_id", "turn_idx", "score"])
            r.run_epoch(0, transcript_turns(500, seed=9))
            rounds = [m for i, (m, _) in enumerate(calls)
                      if i == 0 or calls[i - 1][0] != m]
            assert rounds == ["ingest", "seal", "evaluate", "settle",
                              "checkpoint"], calls
            for m in rounds[1:]:
                assert sorted(p for c, p in calls if c == m) == [0, 1], m
            assert all(os.path.exists(str(sink / f"q{j}"
                                          / "epoch=000000.parquet"))
                       for j in range(n_q))
        finally:
            eng.actors = real
            eng.shutdown()


def test_epoch_metrics_record_phase_timings(ray_session, turns, tmp_path):
    """Each ``metrics/epoch=*.json`` records the epoch's phase timings in
    ms under ``phase_ms``, one key per phase."""
    import json

    eng = _engine(str(tmp_path / "ck"), parts=2)
    try:
        r = EpochRunner(eng, str(tmp_path / "s"),
                        {"q": pdb.term("text", "merge")},
                        facets={"roles": ("merge", "role")})
        r.run(_ts_epochs(turns, 2))
    finally:
        eng.shutdown()
    for e in range(2):
        with open(str(tmp_path / "s" / "metrics"
                      / f"epoch={e:06d}.json")) as f:
            phase = json.load(f)["phase_ms"]
        assert list(phase) == ["ingest", "seal", "evaluate", "sink",
                               "settle", "compaction"]
        assert all(isinstance(v, float) and v >= 0 for v in phase.values())


def test_crash_before_commit_marker_replays_epoch_once(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """A crash after an epoch's sink writes but before its commit marker
    (the sessions compaction raising at epoch 1 of 3) leaves no
    checkpoint of that epoch: resume restores epoch 0, replays epoch 1 in
    full, and the engine and every emission equal an uninterrupted run."""
    import pyarrow.parquet as pq

    turns = transcript_turns(1200, seed=3)
    epochs = _ts_epochs(turns, 3)
    standing = {"merge": pdb.term("text", "merge"),
                "merge_or_shard": "merge OR shard"}
    cols = ["conv_id", "turn_idx", "score"]

    def runner(eng, sink):
        return EpochRunner(eng, sink, standing, topk=10, columns=cols)

    clean = str(tmp_path / "clean")
    eng = _engine(str(tmp_path / "ck_clean"), parts=2)
    try:
        runner(eng, clean).run(epochs)
        want_docs = eng.num_docs()
    finally:
        eng.shutdown()

    sink, ck = str(tmp_path / "crash"), str(tmp_path / "ck_crash")
    real = EpochRunner._compact_sessions

    def crash(self, tick):
        raise RuntimeError("crash before the commit marker")

    eng = _engine(ck, parts=2)
    try:
        r = runner(eng, sink)
        r.run_epoch(0, epochs[0])
        monkeypatch.setattr(EpochRunner, "_compact_sessions", crash)
        with pytest.raises(RuntimeError, match="commit marker"):
            r.run_epoch(1, epochs[1])
        monkeypatch.setattr(EpochRunner, "_compact_sessions", real)
        assert not r.epoch_done(1)
    finally:
        eng.shutdown()  # crash
    eng = _engine(ck, parts=2)
    try:
        r = runner(eng, sink)
        assert r.resume() == 0
        out = r.run(epochs)
        assert out[0].get("skipped") and not out[1].get("skipped")
        assert eng.num_docs() == want_docs == turns.num_rows
    finally:
        eng.shutdown()
    for name in standing:
        for e in range(len(epochs)):
            path = os.path.join(name, f"epoch={e:06d}.parquet")
            assert pq.read_table(os.path.join(sink, path)).equals(
                pq.read_table(os.path.join(clean, path))), (name, e)


def test_incomparable_term_counts_zero_df(ray_session, turns):
    """A keyword/integer term of a type with no equality kernel against
    its column matches no row: its df is 0, and the other counts hold."""
    eng = _engine(parts=2)
    try:
        eng.ingest(turns)
        g = eng.global_stats(pdb.term("role", 5), pdb.term("turn_idx", "x"),
                             pdb.term("role", "user"))
    finally:
        eng.shutdown()
    assert g.num_docs == turns.num_rows
    assert g.df("role", 5) == 0 and g.df("turn_idx", "x") == 0
    assert g.df("role", "user") == turns.column("role").to_pylist().count(
        "user")


# ---------------------------------------------------------------------------
# log-structured sessions fold: the tail folds into the snapshot only once
# it has grown to the snapshot's rows (or the first merge-ladder rung)
# ---------------------------------------------------------------------------

_FOLD_KEYS = ("sessions_tail_rows", "sessions_snapshot_rows",
              "sessions_folded")


def _ts_epochs(turns: pa.Table, n: int) -> list:
    t = turns.take(pa.compute.sort_indices(turns,
                                           sort_keys=[("ts", "ascending")]))
    cuts = [i * t.num_rows // n for i in range(n + 1)]
    return [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]


def _canon_sessions(df):
    """Sessions rows in identity order; None when there are none."""
    if len(df) == 0:
        return None
    return (df.sort_values(["conv_id", "session_start"])
              .reset_index(drop=True))


def _fold_record(sink: str, epoch: int) -> dict:
    import json

    with open(os.path.join(sink, "metrics", f"epoch={epoch:06d}.json")) as f:
        m = json.load(f)
    return {k: m[k] for k in _FOLD_KEYS}


def _sessions_files(sink: str) -> tuple:
    sdir = os.path.join(sink, "sessions")
    cdir = os.path.join(sdir, "compact")
    return (sorted(f for f in os.listdir(sdir) if f.startswith("epoch=")),
            sorted(os.listdir(cdir)) if os.path.isdir(cdir) else [])


def _fold_runner(eng, sink: str) -> EpochRunner:
    return EpochRunner(eng, sink, {"q": pdb.term("text", "merge")}, topk=5,
                       columns=["conv_id", "turn_idx", "score"],
                       checkpoint_every=1)


def test_read_facet_before_first_emission(ray_session, tmp_path):
    """A facet with no emissions yet reads as an empty table, like a
    pattern with none (it raised FileNotFoundError)."""
    eng = _engine(parts=1)
    try:
        r = EpochRunner(eng, str(tmp_path / "s"), {},
                        facets={"roles": ("merge", "role")})
        assert r.read_facet("roles").num_rows == 0
        assert r.read_patterns("none").num_rows == 0
    finally:
        eng.shutdown()


def test_sessions_fold_is_log_structured(ray_session, turns, tmp_path):
    """With a checkpoint every epoch, the sessions tail folds only when
    it has grown to the snapshot's rows; after EVERY epoch — deferred
    ticks and folding ticks alike — read_sessions and
    read_sessions_dataset equal a run that never folds, and the epoch's
    metrics record the fold exactly as the sink directory shows it."""
    import pyarrow.parquet as pq

    from paradedb_ray.streaming.merge_policy import DEFAULT_LAYER_SIZES

    epochs = _ts_epochs(turns, 14)
    ref_sink, sink = str(tmp_path / "ref"), str(tmp_path / "fold")
    ref_eng = _engine(parts=2)  # no checkpoint dir -> never folds
    eng = _engine(str(tmp_path / "ck"), parts=2)
    records = []
    try:
        ref, r = _fold_runner(ref_eng, ref_sink), _fold_runner(eng, sink)
        for e, t in enumerate(epochs):
            ref.run_epoch(e, t)
            r.run_epoch(e, t)
            want = _canon_sessions(ref.read_sessions().to_pandas())
            got = _canon_sessions(r.read_sessions().to_pandas())
            got_ds = _canon_sessions(r.read_sessions_dataset().to_pandas())
            if want is None:
                assert got is None and got_ds is None, e
            else:
                assert want.equals(got), e
                assert want.equals(got_ds[want.columns]), e
            rec = _fold_record(sink, e)
            records.append(rec)
            tail, shards = _sessions_files(sink)
            sdir = os.path.join(sink, "sessions")
            assert rec["sessions_tail_rows"] == sum(
                pq.read_metadata(os.path.join(sdir, f)).num_rows
                for f in tail), e
            assert rec["sessions_snapshot_rows"] == sum(
                pq.read_metadata(os.path.join(sdir, "compact", f)).num_rows
                for f in shards), e
            if rec["sessions_folded"]:
                assert not tail, e
            elif tail:
                # deferred: the trigger bounds the driver-side tail read
                assert (rec["sessions_tail_rows"]
                        < rec["sessions_snapshot_rows"]), e
                assert sum(os.path.getsize(os.path.join(sdir, f))
                           for f in tail) < DEFAULT_LAYER_SIZES[0], e
            # the reference never folds and records its whole history
            assert not _fold_record(ref_sink, e)["sessions_folded"]
    finally:
        ref_eng.shutdown()
        eng.shutdown()
    folded = [rec["sessions_folded"] for rec in records]
    assert any(folded), records
    assert any(not f and rec["sessions_tail_rows"]
               for f, rec in zip(folded, records)), records
    assert len(_sessions_files(sink)[0]) > 1, "tail never spans epochs"


def test_sessions_fold_crash_before_tail_delete(ray_session, turns,
                                                tmp_path, monkeypatch):
    """A crash after every shard folded but before the tail files are
    deleted: the resumed runner finishes that fold and ends with the same
    sessions sink and read_sessions as a run that never crashed."""
    epochs = _ts_epochs(turns, 12)
    clean_sink = str(tmp_path / "clean")
    eng = _engine(str(tmp_path / "ck_clean"), parts=2)
    try:
        r = _fold_runner(eng, clean_sink)
        r.run(epochs)
        want = _canon_sessions(r.read_sessions().to_pandas())
    finally:
        eng.shutdown()
    clean = [_fold_record(clean_sink, e) for e in range(len(epochs))]
    # a fold over a non-empty snapshot and a tail spanning epochs
    crash_at = next(e for e in range(1, len(epochs))
                    if clean[e]["sessions_folded"]
                    and clean[e - 1]["sessions_tail_rows"])

    sink, ck = str(tmp_path / "crash"), str(tmp_path / "ck_crash")
    sdir = os.path.join(sink, "sessions")
    real_remove = os.remove

    def remove(path, *a, **kw):
        if os.path.dirname(path) == sdir:
            raise OSError("crash before the tail delete")
        return real_remove(path, *a, **kw)

    eng = _engine(ck, parts=2)
    try:
        r = _fold_runner(eng, sink)
        r.run(epochs[:crash_at])
        monkeypatch.setattr(os, "remove", remove)
        with pytest.raises(OSError, match="tail delete"):
            r.run_epoch(crash_at, epochs[crash_at])
        monkeypatch.setattr(os, "remove", real_remove)
        assert not r.epoch_done(crash_at)
        assert len(_sessions_files(sink)[0]) >= 2  # folded, not deleted
    finally:
        eng.shutdown()  # crash
    eng = _engine(ck, parts=2)
    try:
        r = _fold_runner(eng, sink)
        assert r.resume() == crash_at - 1
        out = r.run(epochs)
        assert all(o.get("skipped") for o in out[:crash_at])
        assert not out[crash_at].get("skipped")
        got = _canon_sessions(r.read_sessions().to_pandas())
    finally:
        eng.shutdown()
    assert want.equals(got)
    assert _sessions_files(sink) == _sessions_files(clean_sink)
    assert [_fold_record(sink, e) for e in range(len(epochs))] == clean


def test_sessions_fold_resume_from_deferred_tail(ray_session, turns,
                                                 tmp_path):
    """Resume from a checkpoint whose sessions tail is deferred (several
    epoch files un-folded): every later tick makes the same fold decision
    as an uninterrupted run — the first one included, which folds."""
    epochs = _ts_epochs(turns, 14)
    clean_sink = str(tmp_path / "clean")
    eng = _engine(str(tmp_path / "ck_clean"), parts=2)
    tail_files = []
    try:
        r = _fold_runner(eng, clean_sink)
        for e, t in enumerate(epochs):
            r.run_epoch(e, t)
            tail_files.append(len(_sessions_files(clean_sink)[0]))
        want = _canon_sessions(r.read_sessions().to_pandas())
    finally:
        eng.shutdown()
    clean = [_fold_record(clean_sink, e) for e in range(len(epochs))]
    stop = next(e for e in range(len(epochs) - 1)
                if tail_files[e] >= 2 and clean[e + 1]["sessions_folded"])

    sink, ck = str(tmp_path / "resumed"), str(tmp_path / "ck_resumed")
    eng = _engine(ck, parts=2)
    try:
        _fold_runner(eng, sink).run(epochs[:stop + 1])
    finally:
        eng.shutdown()  # crash after epoch `stop` committed
    assert len(_sessions_files(sink)[0]) >= 2
    eng = _engine(ck, parts=2)
    try:
        r = _fold_runner(eng, sink)
        assert r.resume() == stop
        out = r.run(epochs)
        assert all(o.get("skipped") for o in out[:stop + 1])
        got = _canon_sessions(r.read_sessions().to_pandas())
    finally:
        eng.shutdown()
    assert [_fold_record(sink, e) for e in range(len(epochs))] == clean
    assert want.equals(got)
