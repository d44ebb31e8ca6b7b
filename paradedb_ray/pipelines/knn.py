"""Similarity search over an embedding column (``list<float>``):
brute-force cosine top-k (baseline) and IVF-partitioned variant (scale
path).  Reference analogue: pg_search's vector scan with IVF clustering
(`pg_search/src/vector/`, `SuperKMeansIvfClusterer`).

Queries are broadcast once (``ray.put``); each batch computes a vectorized
matmul and keeps its local top-k; the global merge ranks ≤ k×blocks rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from paradedb_ray.query.parser import bind
from paradedb_ray.stages.blocks import concat_blocks, tree_reduce_refs
from paradedb_ray.stages.order import order_dataset, rank_head


def _batch_matrix(batch: pa.Table, emb_col: str,
                  dim: int = None) -> np.ndarray:
    col = batch.column(emb_col)
    n = len(col)
    if n == 0:
        # reshape(0, -1) is a numpy error on an empty buffer; derive the
        # width from the type (fixed_size_list), the caller's hint (the
        # scorers know their query/centroid width), or fall back to 0
        t = col.type
        d = (t.list_size if pa.types.is_fixed_size_list(t)
             else dim if dim is not None else 0)
        return np.empty((0, d), np.float32)
    flat = col.combine_chunks().flatten().to_numpy(zero_copy_only=False)
    # copy=False: the flattened float32 buffer is already the right dtype
    # (zero-copy view of the Arrow data) — astype would duplicate it
    return flat.reshape(n, -1).astype(np.float32, copy=False)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class _BruteScorer:
    def __init__(self, q_ref, emb_col: str, key_col: str, k: int, metric: str,
                 dtype=np.float32):
        self.q_ref = q_ref
        self.emb_col = emb_col
        self.key_col = key_col
        self.k = k
        self.metric = metric
        self.dtype = dtype
        self._q = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._q is None:
            q = ray.get(self.q_ref) if isinstance(self.q_ref, ray.ObjectRef) else self.q_ref
            q = q.astype(self.dtype)
            self._q = _normalize(q) if self.metric == "cosine" else q
        m = _batch_matrix(batch, self.emb_col,
                          dim=self._q.shape[1]).astype(self.dtype)
        if self.metric == "cosine":
            m = _normalize(m)
            sims = m @ self._q.T  # (n, nq)
        elif self.metric == "ip":
            sims = m @ self._q.T
        elif self.metric == "l2":
            d = (
                np.sum(m * m, axis=1)[:, None]
                - 2 * (m @ self._q.T)
                + np.sum(self._q * self._q, axis=1)[None, :]
            )
            sims = -d
        else:
            raise ValueError(self.metric)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        out_q, out_key, out_score = [], [], []
        k = min(self.k, sims.shape[0])
        for qi in range(sims.shape[1]):
            col = sims[:, qi]
            idx = np.argpartition(-col, k - 1)[:k]
            out_q.extend([qi] * k)
            out_key.extend(keys[idx].tolist())
            out_score.extend(col[idx].astype(np.float32).tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int32()),
            self.key_col: pa.array(out_key,
                                   type=batch.column(self.key_col).type),
            "score": pa.array(out_score, pa.float32()),
        })



def _merge_topk(scored: ray.data.Dataset, key_col: str,
                k: int) -> ray.data.Dataset:
    """Global per-query top-k over the scorers' per-block heads (each
    <= k rows per query), merged by the one distributed ORDER BY."""
    return order_dataset(scored, [("score", "descending"),
                                  (key_col, "ascending")], k,
                         keys=["query_id"])


def knn_brute(
    ds: ray.data.Dataset,
    emb_col: str,
    key_col: str,
    queries: np.ndarray,
    k: int = 10,
    metric: str = "cosine",
    dtype=np.float32,
) -> ray.data.Dataset:
    """Exact top-k per query vector.  Output: (query_id, key, score),
    score = cosine similarity (or -L2 / inner product)."""
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    ref = ray.put(q)
    scored = ds.map_batches(
        _BruteScorer(ref, emb_col, key_col, k, metric, dtype),
        batch_format="pyarrow", batch_size=None,
    )

    return _merge_topk(scored, key_col, k)


# ---------------------------------------------------------------------------
# IVF variant: kmeans centroids trained on a sample, probe nearest nprobe
# ---------------------------------------------------------------------------


@ray.remote
def _merge_sample_parts(sample_size: int, *tabs: pa.Table) -> pa.Table:
    """Tree-reduce node for `_centroid_sample`: keep the global
    ``sample_size`` lowest-priority rows (priority = deterministic hash
    of the vector bytes + seed, so bottom-k == a uniform seeded sample
    without replacement — associative under min-k merge).  ALWAYS sorted
    by priority: block arrival order is not deterministic under load, so
    the canonical priority order is what makes the sample (and the
    k-means seeded from it) a pure function of (corpus, seed).  A tree
    of fan-in 32, not ``order_dataset``'s O(CPUs)-wide final merge: the
    sample is thousands of vectors per child."""
    return rank_head(concat_blocks(tabs), [("__pri", "ascending")],
                     sample_size)


def _centroid_sample(ds: ray.data.Dataset, emb_col: str,
                     sample_size: int, seed: int = 42) -> np.ndarray:
    """Seeded DISTRIBUTED uniform sample of ``sample_size`` vectors for
    centroid training (VERDICT r4 #3: ``ds.limit(n)`` took the FIRST n
    rows — biased on corpora sorted by time/source, silently degrading
    recall).  Each row's priority is an order-independent hash of its
    vector bytes mixed with the seed; per-block bottom-k partials
    tree-reduce (fan-in 32) to the global bottom-k, so the sample is a
    pure function of (corpus contents, seed) — deterministic, unbiased
    by row order, and never materializes more than O(blocks-in-flight x
    sample_size) rows anywhere."""
    useed = np.uint64(seed)

    def part(t: pa.Table) -> pa.Table:
        m = np.ascontiguousarray(
            _batch_matrix(t, emb_col).astype(np.float32, copy=False))
        n, d = m.shape
        pri = np.empty(0, np.uint64)
        if n:
            w = m.view(np.uint32).astype(np.uint64)
            with np.errstate(over="ignore"):
                h = np.full(n, useed ^ np.uint64(0x9E3779B97F4A7C15),
                            np.uint64)
                for j in range(d):  # FNV-style fold, vectorized over rows
                    h = (h ^ w[:, j]) * np.uint64(0x100000001B3)
                h ^= h >> np.uint64(33)
                h *= np.uint64(0xFF51AFD7ED558CCD)
                h ^= h >> np.uint64(33)
            pri = h
        # always priority-sorted (not just when trimming): downstream
        # concat order then never depends on block arrival order
        keep = np.argsort(pri, kind="stable")[:sample_size]
        vecs = pa.FixedSizeListArray.from_arrays(
            pa.array(m[keep].ravel(), pa.float32()), d)
        return pa.table({"__pri": pa.array(pri[keep], pa.uint64()),
                         "__vec": vecs})

    refs = tree_reduce_refs(
        ds.select_columns([emb_col]).map_batches(
            part, batch_format="pyarrow", batch_size=None).to_arrow_refs(),
        _merge_sample_parts, sample_size)
    if not refs:
        raise ValueError("cannot train IVF centroids on an empty dataset")
    t = ray.get(refs[0])
    if t.num_rows == 0:
        raise ValueError("cannot train IVF centroids on an empty dataset")
    col = t.column("__vec").combine_chunks()
    d = col.type.list_size
    return col.flatten().to_numpy(zero_copy_only=False).reshape(-1, d)


def _kmeans(x: np.ndarray, n_clusters: int, iters: int = 10,
            seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    cent = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(0)
    return cent


class _IvfScorer:
    """Per-batch IVF scorer: assign rows to their nearest centroid, keep
    rows in each query's probed cells, brute-force the survivors.  Probe
    membership is a (nq, n_clusters) bool lookup — one O(n) gather per
    query instead of an np.isin sort+search pass over the batch."""

    def __init__(self, cent, probe, qn, emb_col, key_col, k, dtype):
        self.cent, self.probe, self.q = cent, probe, qn
        self.emb_col, self.key_col, self.k, self.dtype = \
            emb_col, key_col, k, dtype
        nb = np.zeros((len(qn), len(cent)), dtype=bool)
        for qi, cells in enumerate(probe):
            nb[qi, cells] = True
        self.probe_bool = nb

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(
            batch, self.emb_col,
            dim=self.cent.shape[1]).astype(self.dtype, copy=False))
        assign = (m @ self.cent.T).argmax(1)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        k = self.k
        out_q, out_key, out_score = [], [], []
        for qi in range(len(self.q)):
            mask = self.probe_bool[qi, assign]
            if not mask.any():
                continue
            sims = m[mask] @ self.q[qi]
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            sel = np.flatnonzero(mask)[idx]
            out_q.extend([qi] * kk)
            out_key.extend(keys[sel].tolist())
            out_score.extend(sims[idx].astype(np.float32).tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int32()),
            self.key_col: pa.array(out_key,
                                   type=batch.column(self.key_col).type),
            "score": pa.array(out_score, pa.float32()),
        })


def knn_ivf(
    ds: ray.data.Dataset,
    emb_col: str,
    key_col: str,
    queries: np.ndarray,
    k: int = 10,
    n_clusters: int = 16,
    nprobe: int = 4,
    sample_size: int = 10_000,
    dtype=np.float32,
) -> ray.data.Dataset:
    """IVF-bucketed cosine ANN: centroids from a driver-side sample (once),
    batches prune rows whose nearest centroid is not among each query's
    ``nprobe`` probed cells, then brute-force within the survivors.

    With ``nprobe == n_clusters`` every cell is probed and the result is
    exactly brute-force cosine top-k (``dtype=np.float64`` matches a
    float64 SQL oracle's ordering, mirroring ``knn_brute``)."""
    q = np.asarray(queries, dtype=dtype)
    if q.ndim == 1:
        q = q[None, :]
    xs = _centroid_sample(ds, emb_col, sample_size)
    cent = _normalize(_kmeans(_normalize(xs), n_clusters))
    qn = _normalize(q)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)

    # a callable INSTANCE runs on the task pool (the callable is put in
    # the object store once and shared zero-copy by every task), scaling
    # to the cluster width with no actor-pool spinup — the per-call pool
    # previously cost ~2.5 s before the first batch was scored
    scorer = _IvfScorer(cent, probe, qn, emb_col, key_col, k, dtype)
    scored = ds.map_batches(scorer, batch_format="pyarrow", batch_size=None)

    return _merge_topk(scored, key_col, k)


# ---------------------------------------------------------------------------
# IVF scale path: centroid-PARTITIONED parquet layout — a probe reads
# only its cells' files (partition pruning at the READ), where knn_ivf
# scans every block and masks per batch.  At 100 TB with nprobe/nlist =
# 1/16 this is a 16x I/O cut before any compute runs.
# ---------------------------------------------------------------------------


def ivf_build(
    ds: ray.data.Dataset,
    emb_col: str,
    out_dir: str,
    n_clusters: int = 16,
    sample_size: int = 10_000,
) -> np.ndarray:
    """Materialize an IVF-partitioned layout: train centroids on a
    driver-side sample (identical to ``knn_ivf``), tag every row with
    its nearest cell, and write hive-partitioned parquet (one directory
    per ``__ivf_cell``).  Centroids persist inside ``out_dir`` as
    ``_ivf_centroids.parquet`` (the ``_`` prefix keeps dataset
    discovery from reading it as data).  Returns the centroid matrix."""
    import pyarrow.parquet as pq

    xs = _centroid_sample(ds, emb_col, sample_size)
    cent = _normalize(_kmeans(_normalize(xs), n_clusters))
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _normalize(_batch_matrix(batch, emb_col, dim=c.shape[1]))
        cells = (m @ c.T).argmax(1).astype(np.int32)
        return batch.append_column("__ivf_cell", pa.array(cells))

    ds.map_batches(assign, batch_format="pyarrow", batch_size=None
                   ).write_parquet(out_dir, partition_cols=["__ivf_cell"])
    pq.write_table(
        pa.table({"cell": pa.array(range(len(cent)), pa.int32()),
                  "centroid": pa.array([c.tolist() for c in cent],
                                       pa.list_(pa.float32()))}),
        f"{out_dir}/_ivf_centroids.parquet")
    return cent


class _CellScorer(_IvfScorer):
    """_IvfScorer over an ``ivf_build`` layout: the hive partition column
    ``__ivf_cell`` already carries each row's centroid assignment, so the
    per-batch argmax is replaced by a column read."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _normalize(_batch_matrix(
            batch, self.emb_col,
            dim=self.cent.shape[1]).astype(self.dtype, copy=False))
        cell = batch.column("__ivf_cell").to_numpy(
            zero_copy_only=False).astype(np.int64)
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)
        k = self.k
        out_q, out_key, out_score = [], [], []
        for qi in range(len(self.q)):
            mask = self.probe_bool[qi, cell]
            if not mask.any():
                continue
            sims = m[mask] @ self.q[qi]
            kk = min(k, len(sims))
            idx = np.argpartition(-sims, kk - 1)[:kk]
            sel = np.flatnonzero(mask)[idx]
            out_q.extend([qi] * kk)
            out_key.extend(keys[sel].tolist())
            out_score.extend(sims[idx].astype(np.float32).tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int32()),
            self.key_col: pa.array(out_key,
                                   type=batch.column(self.key_col).type),
            "score": pa.array(out_score, pa.float32()),
        })


def knn_ivf_partitioned(
    index_dir: str,
    emb_col: str,
    key_col: str,
    queries: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    dtype=np.float32,
) -> ray.data.Dataset:
    """Query an ``ivf_build`` layout: rank cells per query against the
    persisted centroids, then ``read_parquet`` ONLY the probed cells'
    directories (hive partition pruning — unprobed files never leave
    storage) and brute-force within them.  Same centroids + nprobe as
    ``knn_ivf`` produce identical results (pinned in
    ``tests/test_round4_fixes.py``)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.datasource.partitioning import Partitioning

    ct = pq.read_table(f"{index_dir}/_ivf_centroids.parquet")
    order = pc.sort_indices(ct.column("cell"))
    cent = np.stack([np.asarray(v, np.float32)
                     for v in ct.take(order).column("centroid").to_pylist()])
    q = np.asarray(queries, dtype=dtype)
    if q.ndim == 1:
        q = q[None, :]
    qn = _normalize(q)
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    cells = {int(c) for row in probe for c in row}
    # partition pruning: the filter runs on PATHS during discovery, so
    # unprobed cells' files are never opened, let alone read
    from ray.data.datasource import PathPartitionFilter

    ds = ray.data.read_parquet(
        index_dir,
        partition_filter=PathPartitionFilter.of(
            # unpartitioned paths (the _ivf_centroids sidecar) parse to
            # {}: excluded here along with unprobed cells
            lambda d: "__ivf_cell" in d and int(d["__ivf_cell"]) in cells,
            base_dir=index_dir),
        partitioning=Partitioning("hive", base_dir=index_dir))
    # rows within a probed cell's files are already cell-assigned: reuse
    # the IVF scorer with the persisted cell id instead of re-assigning
    scorer = _CellScorer(cent, probe, qn, emb_col, key_col, k, dtype)
    scored = ds.map_batches(scorer, batch_format="pyarrow", batch_size=None)

    return _merge_topk(scored, key_col, k)


# ---------------------------------------------------------------------------
# filtered vector search: search predicate + distance ORDER BY ... LIMIT k
# ---------------------------------------------------------------------------


class _FilteredKnnStage:
    """Per-block leg of the reference's vector top-k pushdown
    (`vector_search_pushdown.sql`): evaluate the search filter on a
    block-local segment, compute the pgvector distance only for matching
    rows, keep the block's k best (ties included via exact boundary
    widening inside ``Searcher.knn``)."""

    def __init__(self, schema, vec_field: str, q_ref, op: str, k: int,
                 key_col: str, filter_query=None):
        self.schema = schema
        self.vec_field = vec_field
        self.q = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        self.op = op
        self.k = k
        self.key_col = key_col
        self.filter_query = filter_query

    def __call__(self, batch: pa.Table) -> pa.Table:
        from paradedb_ray.index.searcher import Searcher
        from paradedb_ray.index.segment import build_segment

        seg = build_segment(batch, self.schema)
        s = Searcher(seg, self.schema)
        import warnings

        with warnings.catch_warnings():
            # the opclass-mismatch warning is per-query, not per-block
            warnings.simplefilter("ignore")
            ids, dist = s.knn(self.vec_field, self.q, self.op, self.k,
                              filter_query=self.filter_query)
        keys = batch.column(self.key_col).take(pa.array(ids, pa.int64()))
        return pa.table({self.key_col: keys,
                         "distance": pa.array(dist, pa.float64())})


def filtered_knn(
    ds: ray.data.Dataset,
    schema,
    vec_field: str,
    query_vec: np.ndarray,
    op: str = "<=>",
    k: int = 10,
    key_col: str = "vec_id",
    filter_query=None,
) -> ray.data.Dataset:
    """`WHERE <filter> @@@ ... ORDER BY vec <op> q LIMIT k` as a Ray Data
    pipeline: block-local filter + distance top-k, then a tiny global
    (distance, key) merge over <= k x blocks rows.  ``op`` is a pgvector
    operator (`<->` l2 / `<=>` cosine / `<#>` negative inner product) or
    a metric name; a mismatch with the schema's declared opclass metric
    still returns exact results (full-sort fallback semantics,
    `vector_search_pushdown.sql`)."""
    q = np.asarray(query_vec, dtype=np.float32)
    if filter_query is not None:
        filter_query = bind(filter_query, schema)
    stage = _FilteredKnnStage(schema, vec_field, ray.put(q), op, k,
                              key_col, filter_query)
    local = ds.map_batches(stage, batch_format="pyarrow", batch_size=None)
    return order_dataset(local, [("distance", "ascending"),
                                 (key_col, "ascending")], k)
