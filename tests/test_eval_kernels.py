"""Parity of the standing-evaluation kernels against per-doc oracles.

* ``Searcher._eval_Boolean`` (must / should / must_not /
  ``minimum_should_match``, empty clauses, nested) and the phrase
  candidate intersection, fuzzed against per-doc dict oracles with
  bitwise-equal f32 scores, and the per-segment phrase-match cache
  rescored under a later epoch's stats;
* ``Bm25PartitionStore._head`` (selection, never a sort) against a full
  sort of every live hit, with superseded copies above the threshold and
  ties at the k-th score across segments;
* ``engine._latest_sessions_view`` (the sessions fold) against a Python
  latest-per-identity oracle with tombstones and duplicate
  (conv, start, epoch) rows.
"""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from paradedb_ray.index import Searcher, build_segment
from paradedb_ray.index.searcher import (
    K1,
    GlobalStats,
    _phrase_freq,
    bm25_norm_cache,
    idf_f32,
)
from paradedb_ray.query import ast
from paradedb_ray.schema import transcripts_schema

_F32 = np.float32
_WORDS = ["alpha", "beta", "gamma", "delta", "omega", "zeta"]


def _corpus(rng, n_docs: int) -> pa.Table:
    texts = [" ".join(rng.choice(_WORDS, rng.randint(0, 9)))
             for _ in range(n_docs)]
    return pa.table({
        "conv_id": pa.array([f"c{i:04d}" for i in range(n_docs)]),
        "turn_idx": pa.array(np.zeros(n_docs, np.int32)),
        "role": pa.array(["user"] * n_docs),
        "text": pa.array(texts),
        "tool": pa.array([""] * n_docs),
        "ts": pa.array(np.arange(n_docs, dtype=np.int64)
                       + 1_700_000_000_000_000, pa.timestamp("us"))})


def _random_query(rng, depth: int):
    if depth == 0 or rng.rand() < 0.35:
        return ast.Term("text", str(rng.choice(_WORDS + ["absent"])))

    def clauses(lo, hi):
        return [_random_query(rng, depth - 1)
                for _ in range(rng.randint(lo, hi))]

    must, should = clauses(0, 3), clauses(0, 4)
    msm = (int(rng.randint(0, len(should) + 2))
           if should and rng.rand() < 0.5 else None)
    return ast.Boolean(must=must, should=should, must_not=clauses(0, 2),
                       minimum_should_match=msm)


def _oracle(searcher, q) -> dict:
    """doc -> f32 score, one doc at a time; a Boolean adds its clause
    scores in clause order (must, then should), as the kernel does."""
    if isinstance(q, ast.Term):
        h = searcher.eval(q)
        return dict(zip(h.ids.tolist(), h.scores.tolist()))
    if not q.must and not q.should:
        return {}
    must = [_oracle(searcher, c) for c in q.must]
    should = [_oracle(searcher, c) for c in q.should]
    excluded = set()
    for c in q.must_not:
        excluded |= set(_oracle(searcher, c))
    if must:
        docs = set(must[0]).intersection(*must[1:])
        need = q.minimum_should_match or 0
    else:
        docs = set().union(*should)
        need = (1 if q.minimum_should_match is None
                else q.minimum_should_match)
    out = {}
    for d in docs - excluded:
        matched = [c for c in should if d in c]
        if len(matched) < need:
            continue
        score = _F32(0.0)
        for c in must + matched:
            score = _F32(score + _F32(c[d]))
        out[d] = score
    return out


def test_boolean_kernel_matches_per_doc_oracle():
    rng = np.random.RandomState(11)
    schema = transcripts_schema()
    for trial in range(6):
        seg = build_segment(_corpus(rng, int(rng.randint(1, 300))), schema)
        s = Searcher(seg, schema)
        for _ in range(60):
            q = _random_query(rng, depth=2)
            h = s.eval(q)
            want = _oracle(s, q)
            assert h.ids.tolist() == sorted(want), q
            assert (h.scores.astype(np.float32).tobytes()
                    == np.asarray([want[d] for d in sorted(want)],
                                  np.float32).tobytes()), q


@pytest.mark.parametrize("slop", [0, 1, 2])
def test_phrase_kernel_matches_per_doc_oracle(slop):
    rng = np.random.RandomState(13 + slop)
    schema = transcripts_schema()
    analyzer = schema.field("text").analyzer
    for trial in range(4):
        table = _corpus(rng, int(rng.randint(1, 300)))
        seg = build_segment(table, schema)
        stats = GlobalStats.from_segment(seg, schema)
        s = Searcher(seg, schema, stats)
        ti = seg.text["text"]
        cache = bm25_norm_cache(stats.avg_fieldnorm("text"))
        docs_tokens = [analyzer.tokenize(x)
                       for x in table.column("text").to_pylist()]
        for _ in range(40):
            tokens = [str(w) for w in rng.choice(_WORDS,
                                                 rng.randint(2, 4))]
            h = s.eval(ast.PhraseArray("text", tokens, slop=slop))
            idf = _F32(0.0)
            for t in tokens:
                df = stats.df("text", t)
                if df > 0:
                    idf = _F32(idf + idf_f32(df, stats.num_docs))
            weight = idf * _F32(1.0) * (_F32(1.0) + K1)
            want = {}
            for d, toks in enumerate(docs_tokens):
                plists = [[p for p, x in enumerate(toks) if x == t]
                          for t in tokens]
                if not all(plists):
                    continue
                tf = _phrase_freq([np.asarray(p) for p in plists], slop)
                if tf:
                    tff = _F32(tf)
                    norm = cache[ti.fieldnorm_ids[d]]
                    want[d] = _F32(weight * (tff / (tff + norm)))
            assert h.ids.tolist() == sorted(want), tokens
            assert (h.scores.astype(np.float32).tobytes()
                    == np.asarray([want[d] for d in sorted(want)],
                                  np.float32).tobytes()), tokens


def test_cached_phrase_matches_rescore_under_new_stats():
    """A segment caches its phrase matches, not their scores: a second
    evaluation under other global stats (a later epoch's) scores exactly
    like a fresh copy of the segment that never cached anything."""
    rng = np.random.RandomState(29)
    schema = transcripts_schema()
    table = _corpus(rng, 200)
    seg = build_segment(table, schema)
    later = GlobalStats.from_segment(seg, schema).merge(
        GlobalStats.from_segment(
            build_segment(_corpus(rng, 150), schema), schema))
    phrases = [ast.PhraseArray("text", [str(w) for w in rng.choice(
        _WORDS, rng.randint(2, 4))], slop=int(rng.randint(0, 3)))
        for _ in range(30)]
    first = Searcher(seg, schema, GlobalStats.from_segment(seg, schema))
    for q in phrases:
        first.eval(q)
    assert any(k[0] == "_phrase" for k in seg._json_cache)
    cached = Searcher(seg, schema, later)
    fresh = Searcher(build_segment(table, schema), schema, later)
    for q in phrases:
        a, b = cached.eval(q), fresh.eval(q)
        assert a.ids.tolist() == b.ids.tolist(), q
        assert a.scores.tobytes() == b.scores.tobytes(), q


# ---------------------------------------------------------------------------
# _head: selection against a full sort
# ---------------------------------------------------------------------------


def _store(mutable_rows: int):
    from paradedb_ray.streaming.state_store import Bm25PartitionStore

    return Bm25PartitionStore.__ray_actor_class__(
        0, pickle.dumps(transcripts_schema()), mutable_rows=mutable_rows)


def _turns(rows, arr0: int) -> pa.Table:
    """``rows``: (conv, turn, text); stamped in order from ``arr0``."""
    t0 = 1_700_000_000_000_000
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows]),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array(["user"] * len(rows)),
        "text": pa.array([r[2] for r in rows]),
        "tool": pa.array([""] * len(rows)),
        "ts": pa.array([t0 + r[1] for r in rows], pa.timestamp("us")),
        "__arr": pa.array(np.arange(arr0, arr0 + len(rows)), pa.int64())})


def _full_sort(store, query, stats, k):
    """Every live hit of every segment, fully sorted by score desc then
    key asc, cut to ``k``."""
    rows = []
    for seg in store._all_segments():
        h = Searcher(seg, store.schema, stats).eval(query)
        if not len(h):
            continue
        sub = seg.table.take(pa.array(h.ids, pa.int64()))
        live = store._visible_mask(sub)
        for c, t, sc, ok in zip(sub.column("conv_id").to_pylist(),
                                sub.column("turn_idx").to_pylist(),
                                h.scores.tolist(), live):
            if ok:
                rows.append((c, t, float(_F32(sc))))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:k] if k else rows


def _assert_head_is_full_sort(store, ks):
    from paradedb_ray.streaming.state_store import EvalSpec

    query = ast.Term("text", "zebra")
    stats = GlobalStats()
    for seg in store._all_segments():
        stats.merge(GlobalStats.from_segment(seg, store.schema))
    for k in ks:
        spec = EvalSpec(query, k, columns=["conv_id", "turn_idx", "score"])
        (got,) = store.evaluate(pickle.dumps([spec]), pickle.dumps(stats))
        rows = list(zip(got.column("conv_id").to_pylist(),
                        got.column("turn_idx").to_pylist(),
                        [float(x) for x in np.asarray(got.column("score"),
                                                      np.float32)]))
        assert rows == _full_sort(store, query, stats, k), k


def test_head_selection_matches_full_sort():
    """Segments holding many equal-score hits (ties at the k-th score
    across segments) and superseded copies that outscore every live hit
    (some segments' best hits partly dead): the partition head equals a
    full sort of the live hits for every k."""
    rng = np.random.RandomState(17)
    store = _store(40)
    arr = 0
    texts = ["zebra", "zebra zebra zebra", "zebra quiet night",
             "zebra quiet", "quiet night"]
    keys = [(f"c{c:02d}", t) for c in range(12) for t in range(20)]
    for b in range(6):
        pick = rng.choice(len(keys), 50, replace=False)
        batch = [(keys[i][0], keys[i][1], str(rng.choice(texts)))
                 for i in pick]
        store.ingest(_turns(batch, arr), epoch=b)
        arr += len(batch)
        # supersede about half of the best-scoring copies with low-score
        # text
        best = [(c, t, "zebra quiet night") for c, t, x in batch
                if x == "zebra zebra zebra" and rng.rand() < 0.5]
        if best:
            store.ingest(_turns(best, arr), epoch=b)
            arr += len(best)
    assert store.n_dead and len(store._all_segments()) >= 4
    _assert_head_is_full_sort(store, (1, 2, 3, 5, 8, 13, 40, 1000, None))


def test_head_reaches_below_partly_dead_top_hits():
    """The first segment's 4 best hits hold only 2 live ones: for k >= 3
    the head must still reach the live hits below them."""
    store = _store(1)  # every ingest call seals its own segment
    store.ingest(_turns([("a", i, "zebra zebra zebra") for i in range(4)]
                        + [("s", i, "zebra") for i in range(5)], 0))
    store.ingest(_turns([("a", 0, "quiet night"), ("a", 1, "quiet night")],
                        9))
    assert len(store._all_segments()) == 2
    _assert_head_is_full_sort(store, range(1, 10))


@pytest.mark.parametrize("seed", range(6))
def test_live_top_looks_up_about_k_plus_dead_hits(seed):
    """``_live_top`` keeps exactly the live hits at or above the lowest
    band it looked at, holds every live hit >= the k-th best live score,
    and looks liveness up for at most k + 3 x the dead hits among the
    best (distinct scores), however many hits the segment has."""
    from paradedb_ray.streaming.state_store import _live_top

    rng = np.random.RandomState(seed)
    n = 20_000
    scores = rng.permutation(n).astype(np.float32)
    dead = rng.rand(n) < (0.05, 0.3, 0.7)[seed % 3]
    for k in (1, 10, 100):
        looked = []

        def live_of(pos):
            looked.append(len(pos))
            return ~dead[pos]

        keep = _live_top(scores, live_of, k)
        assert not (keep & dead).any()
        order = np.argsort(-scores)
        live_rank = order[~dead[order]]
        kth = scores[live_rank[k - 1]]
        assert keep[scores >= kth].sum() == (~dead & (scores >= kth)).sum()
        # the best m hits hold the k best live ones; m - k are dead
        m = int(np.flatnonzero(order == live_rank[k - 1])[0]) + 1
        assert sum(looked) <= k + 3 * (m - k), (k, sum(looked), m)


def test_live_top_ties_and_short_segments():
    """Ties at a band's cut are looked at whole, and a segment with
    fewer than k live hits gives all of them."""
    from paradedb_ray.streaming.state_store import _live_top

    scores = np.array([5, 5, 5, 5, 4, 3, 3, 3, 1], np.float32)
    dead = np.array([1, 1, 0, 0, 0, 1, 0, 0, 0], bool)
    keep = _live_top(scores, lambda pos: ~dead[pos], 3)
    # band 1 = every 5 (two live), band 2 = the 4: three live found
    assert keep.tolist() == [0, 0, 1, 1, 1, 0, 0, 0, 0]
    keep = _live_top(scores, lambda pos: ~dead[pos], 5)
    # the 3s tie at the second band's cut: all of them are looked at
    assert keep.tolist() == [0, 0, 1, 1, 1, 0, 1, 1, 0]
    keep = _live_top(scores, lambda pos: ~dead[pos], 50)
    assert keep.tolist() == (~dead).tolist()


# ---------------------------------------------------------------------------
# sessions fold kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("drop_tombstones", [True, False])
def test_latest_sessions_view_matches_python_oracle(drop_tombstones):
    from paradedb_ray.streaming.engine import _latest_sessions_view

    rng = np.random.RandomState(5)
    n = 400
    rows = [{"conv_id": str(rng.choice(["a", "b", "ca", "d"])),
             "session_start": int(rng.randint(0, 6)),
             "session_end": i,  # unique: tells duplicate rows apart
             "n_turns": int(rng.randint(0, 3)),  # 0: a tombstone
             "epoch": int(rng.randint(0, 4))} for i in range(n)]
    t = pa.Table.from_pylist(rows, schema=pa.schema([
        ("conv_id", pa.string()), ("session_start", pa.int64()),
        ("session_end", pa.int64()), ("n_turns", pa.int64()),
        ("epoch", pa.int64())]))
    latest = {}
    for r in rows:  # the latest epoch wins; input order breaks ties
        key = (r["conv_id"], r["session_start"])
        if key not in latest or r["epoch"] >= latest[key]["epoch"]:
            latest[key] = r
    want = [latest[key] for key in sorted(latest)
            if not drop_tombstones or latest[key]["n_turns"] > 0]
    assert len({(r["conv_id"], r["session_start"], r["epoch"])
                for r in rows}) < n  # duplicate (conv, start, epoch) rows
    got = _latest_sessions_view(t, drop_tombstones)
    assert got.schema == t.schema
    assert got.to_pylist() == want
