"""VECTOR fast fields: per-opclass distance top-k pushdown, filtered
vector search, streaming ingest/merge/upsert visibility — mirroring the
reference's `vector_search_pushdown.sql`, `vector_ingest.sql`,
`vector_mutable_segment.sql`, `vector_merge.sql`,
`vector_delete_all_docs.sql` regress corpus."""

import warnings

import numpy as np
import pyarrow as pa
import pytest

from paradedb_ray.index.searcher import Searcher
from paradedb_ray.index.segment import build_segment, merge_segments
from paradedb_ray.query import builders as pdb
from paradedb_ray.schema import IndexSchema


def _vsp(metric: str):
    """The reference's 5-row vsp corpus (`vector_search_pushdown.sql`)."""
    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "label": ["east wind", "east gate", "north wind", "up draft",
                  "mid point"],
        "vec": pa.array([[1, 0, 0], [0.9, 0, 0.1], [0, 1, 0], [0, 0, 1],
                         [0.7, 0.7, 0]], pa.list_(pa.float32())),
    })
    schema = IndexSchema.build(
        key_field="id", label={"type": "text"},
        vec={"type": "vector", "dim": 3, "metric": metric})
    seg = build_segment(t, schema)
    return t, schema, Searcher(seg, schema)


def _ids(t, ids):
    return t.column("id").take(pa.array(ids)).to_pylist()


@pytest.mark.parametrize("metric,op", [("l2", "<->"), ("cosine", "<=>"),
                                       ("ip", "<#>")])
def test_opclass_match_ordering(metric, op):
    t, schema, s = _vsp(metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # matching opclass must NOT warn
        ids, dist = s.knn("vec", [1, 0, 0], op, 2)
    # K=2 ordering is unambiguous under all three metrics for q=[1,0,0]
    assert _ids(t, ids) == [1, 2]
    assert np.all(np.diff(dist) >= 0)


def test_opclass_mismatch_falls_back_with_warning():
    t, schema, s = _vsp("l2")
    for op in ("<=>", "<#>"):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            ids, _ = s.knn("vec", [1, 0, 0], op, 2)
        assert any("mismatch" in str(x.message) for x in w)
        assert _ids(t, ids) == [1, 2]  # same answer, different plan


def test_ip_is_negative_inner_product():
    t, schema, s = _vsp("ip")
    ids, dist = s.knn("vec", [1, 0, 0], "<#>", 5)
    # <#> returns the NEGATIVE inner product, ascending
    assert dist[0] == pytest.approx(-1.0)
    assert _ids(t, ids)[0] == 1


def test_search_filtered_knn_segment():
    t, schema, s = _vsp("l2")
    ids, _ = s.knn("vec", [1, 0, 0], "<->", 2,
                   filter_query=pdb.term("label", "wind"))
    assert _ids(t, ids) == [1, 3]  # only 'wind' docs compete


def test_nonfinite_rejected_at_ingest():
    schema = IndexSchema.build(
        key_field="id", vec={"type": "vector", "dim": 3, "metric": "cosine"})
    for bad in ([float("nan"), 0, 0], [float("inf"), 0, 0]):
        t = pa.table({"id": pa.array([1], pa.int64()),
                      "vec": pa.array([bad], pa.list_(pa.float32()))})
        with pytest.raises(ValueError, match="non-finite"):
            build_segment(t, schema)


def test_dim_mismatch_rejected():
    schema = IndexSchema.build(
        key_field="id", vec={"type": "vector", "dim": 3})
    t = pa.table({"id": pa.array([1], pa.int64()),
                  "vec": pa.array([[1.0, 0.0]], pa.list_(pa.float32()))})
    with pytest.raises(ValueError, match="dim"):
        build_segment(t, schema)


def test_null_vectors_masked():
    schema = IndexSchema.build(
        key_field="id", vec={"type": "vector", "dim": 3})
    t = pa.table({"id": pa.array([1, 2, 3], pa.int64()),
                  "vec": pa.array([[1, 0, 0], None, [0, 1, 0]],
                                  pa.list_(pa.float32()))})
    s = Searcher(build_segment(t, schema), schema)
    ids, _ = s.knn("vec", [1, 0, 0], "<=>", 10)
    assert 1 not in ids  # the null row never surfaces


def test_merge_preserves_vectors():
    t, schema, s = _vsp("l2")
    seg = build_segment(t, schema)
    keeps = [np.array([1, 1, 0, 0, 0], bool), np.array([0, 0, 1, 1, 1], bool)]
    m = merge_segments([seg, seg], schema, keeps)
    s2 = Searcher(m, schema)
    ids, _ = s2.knn("vec", [1, 0, 0], "<->", 5)
    assert m.table.column("id").take(pa.array(ids)).to_pylist() == \
        [1, 2, 5, 3, 4]


def test_filtered_knn_pipeline(ray_session):
    import ray.data

    from paradedb_ray.pipelines.knn import filtered_knn

    rng = np.random.RandomState(11)
    n, dim = 500, 8
    mat = rng.randn(n, dim).astype(np.float32)
    labels = rng.randint(0, 4, n)
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "label": pa.array(labels, pa.int64()),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
    })
    schema = IndexSchema.build(
        key_field="vec_id", label={"type": "i64", "fast": True},
        embedding={"type": "vector", "dim": dim, "metric": "l2"})
    q = mat[7]
    ds = ray.data.from_arrow(t).repartition(6)
    out = filtered_knn(ds, schema, "embedding", q, "<->", k=10,
                       key_col="vec_id",
                       filter_query=pdb.term("label", 2)).to_pandas()
    # numpy reference
    mask = labels == 2
    d = np.sqrt(((mat[mask].astype(np.float64)
                  - q.astype(np.float64)) ** 2).sum(1))
    ref_ids = np.arange(n)[mask][np.lexsort((np.arange(mask.sum()), d))][:10]
    assert out["vec_id"].tolist() == ref_ids.tolist()
    assert (np.diff(out["distance"]) >= 0).all()


def test_stream_vector_upsert_merge_visibility(ray_session):
    from paradedb_ray.streaming import StreamConfig, StreamEngine

    schema = IndexSchema.build(
        key_field=["conv_id", "turn_idx"],
        conv_id={"type": "keyword"},
        turn_idx={"type": "i64", "fast": True},
        ts={"type": "date"},
        vec={"type": "vector", "dim": 4, "metric": "cosine"})
    rng = np.random.RandomState(3)
    n = 400
    mat = rng.randn(n, 4).astype(np.float32)
    import datetime

    base = datetime.datetime(2026, 1, 1)
    t = pa.table({
        "conv_id": pa.array([f"c{i % 37}" for i in range(n)]),
        "turn_idx": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array([base + datetime.timedelta(seconds=i)
                        for i in range(n)]),
        "vec": pa.array(mat.tolist(), pa.list_(pa.float32())),
    })
    cfg = StreamConfig(num_partitions=2, mutable_rows=100,
                       key_cols=("conv_id", "turn_idx"))
    eng = StreamEngine(schema, cfg)
    try:
        eng.ingest(t.slice(0, 300))
        q = mat[5]
        got = eng.query_knn("vec", q, "<=>", k=3)
        assert got.column("turn_idx").to_pylist()[0] == 5  # itself first
        assert got.num_rows == 3
        # mutable-segment visibility: rows 300.. live in the buffer
        eng.ingest(t.slice(300))
        q2 = mat[390]
        got = eng.query_knn("vec", q2, "<=>", k=1)
        assert got.column("turn_idx").to_pylist() == [390]
        # upsert: replace turn 5's vector with one FAR from q -> turn 5
        # must drop out (delete/visibility leg of vector_delete_all_docs)
        far = (-mat[5])
        up = pa.table({
            "conv_id": pa.array([f"c{5 % 37}"]),
            "turn_idx": pa.array([5], pa.int64()),
            "ts": pa.array([base + datetime.timedelta(seconds=5)]),
            "vec": pa.array([far.tolist()], pa.list_(pa.float32())),
        })
        eng.ingest(up)
        got = eng.query_knn("vec", q, "<=>", k=3)
        assert 5 not in got.column("turn_idx").to_pylist()
        before = got.to_pydict()
        # merge invariance (vector_merge.sql)
        eng.merge_tick()
        after = eng.query_knn("vec", q, "<=>", k=3).to_pydict()
        assert before == after
        # search-filtered streaming knn
        got = eng.query_knn("vec", q, "<=>", k=2,
                            filter_query=pdb.term("conv_id", "c5"))
        assert all(c == "c5" for c in got.column("conv_id").to_pylist())
    finally:
        eng.shutdown()


def test_vector_checkpoint_restore(ray_session, tmp_path):
    """Vector fast fields survive checkpoint/restore bit-exactly
    (vector state rides the incremental segment pickles)."""
    import datetime

    from paradedb_ray.streaming import StreamConfig, StreamEngine

    schema = IndexSchema.build(
        key_field=["conv_id", "turn_idx"],
        conv_id={"type": "keyword"},
        turn_idx={"type": "i64", "fast": True},
        ts={"type": "date"},
        vec={"type": "vector", "dim": 4, "metric": "cosine"})
    rng = np.random.RandomState(1)
    mat = rng.randn(100, 4).astype(np.float32)
    base = datetime.datetime(2026, 1, 1)
    t = pa.table({
        "conv_id": pa.array([f"c{i % 7}" for i in range(100)]),
        "turn_idx": pa.array(np.arange(100), pa.int64()),
        "ts": pa.array([base + datetime.timedelta(seconds=i)
                        for i in range(100)]),
        "vec": pa.array(mat.tolist(), pa.list_(pa.float32()))})
    cfg = StreamConfig(num_partitions=2, mutable_rows=20,
                       key_cols=("conv_id", "turn_idx"))
    eng = StreamEngine(schema, cfg, checkpoint_dir=str(tmp_path / "ck"))
    try:
        eng.ingest(t)
        eng.checkpoint(0)
        before = eng.query_knn("vec", mat[9], "<=>", k=5).to_pydict()
    finally:
        eng.shutdown()
    eng2 = StreamEngine(schema, cfg, checkpoint_dir=str(tmp_path / "ck"))
    try:
        assert eng2.restore() == 0
        after = eng2.query_knn("vec", mat[9], "<=>", k=5).to_pydict()
        assert before == after
    finally:
        eng2.shutdown()


def test_partition_knn_visibility_with_and_without_dead_rows():
    """``Bm25PartitionStore.knn`` builds no visibility mask while no dead
    copy is pending, and its results equal a brute-force cosine top-k
    over the live rows both before and after upserts leave dead copies
    (sealed segments and the mutable buffer alike)."""
    import datetime
    import pickle

    from paradedb_ray.streaming.state_store import Bm25PartitionStore

    schema = IndexSchema.build(
        key_field=["conv_id", "turn_idx"],
        conv_id={"type": "keyword"},
        turn_idx={"type": "i64", "fast": True},
        ts={"type": "date"},
        vec={"type": "vector", "dim": 4, "metric": "cosine"})
    rng = np.random.RandomState(7)
    n = 120
    mat = rng.randn(n, 4).astype(np.float32)
    base = datetime.datetime(2026, 1, 1)

    def rows(turns, vecs, arr0):
        return pa.table({
            "conv_id": pa.array([f"c{i % 5}" for i in turns]),
            "turn_idx": pa.array(turns, pa.int64()),
            "ts": pa.array([base + datetime.timedelta(seconds=int(i))
                            for i in turns]),
            "vec": pa.array(vecs.tolist(), pa.list_(pa.float32())),
            "__arr": pa.array(np.arange(len(turns)) + arr0, pa.int64())})

    store = Bm25PartitionStore.__ray_actor_class__(
        0, pickle.dumps(schema), mutable_rows=50)
    store.ingest(rows(np.arange(100), mat[:100], 0))  # sealed
    store.ingest(rows(np.arange(100, n), mat[100:], 100))  # buffered
    masks = []
    orig = store._visible_mask
    store._visible_mask = lambda t: (masks.append(t.num_rows), orig(t))[1]

    def brute(q, k):
        m = mat.astype(np.float64)
        d = 1.0 - (m @ q) / (np.linalg.norm(m, axis=1) * np.linalg.norm(q))
        return np.lexsort((np.arange(n), d))[:k].tolist()

    q = mat[17].astype(np.float64)
    assert store.n_dead == 0 and store.sealed and store.mutable
    got = store.knn("vec", q, "<=>", 6)
    assert got.column("turn_idx").to_pylist() == brute(q, 6)
    assert masks == []

    # upsert the 6 nearest turns to far-away vectors: dead copies pending
    near = np.array(brute(q, 6), np.int64)
    mat[near] = -mat[near]
    store.ingest(rows(near, mat[near], n))
    assert store.n_dead == len(near)
    got = store.knn("vec", q, "<=>", 6)
    assert got.column("turn_idx").to_pylist() == brute(q, 6)
    assert not set(near.tolist()) & set(got.column("turn_idx").to_pylist())
    assert masks
