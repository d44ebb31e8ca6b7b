"""Round-5 fixes (VERDICT r4).

#1: the last flat driver-loop partial merges (t-digest / rank-histogram)
tree-reduce — results must be block-layout invariant.
#2: read_sessions has a distributed twin (`read_sessions_dataset`) that
folds per shard inside tasks and must return the same rows.
#3: IVF centroid training samples via a seeded distributed reservoir —
deterministic, independent of block layout AND of corpus row order.
#5: aggregate-over-join breadth mirrors
`pg_regress/sql/aggregate_join_multitable.sql` (ref expected outputs
from the matching .out file).
"""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from paradedb_ray.query import builders as pdb
from paradedb_ray.schema import F64, I64, TEXT, IndexSchema


# ---------------------------------------------------------------------------
# #1 percentile merges: block-layout invariance
# ---------------------------------------------------------------------------


def test_percentiles_exact_block_invariance(ray_session):
    from paradedb_ray.pipelines.aggregate import percentiles_agg

    rng = np.random.RandomState(5)
    t = pa.table({"v": pa.array(rng.standard_normal(5000) * 100)})
    outs = []
    for n in (1, 64):
        ds = ray.data.from_arrow(t).repartition(n)
        out = percentiles_agg(ds, [], "v",
                              percents=[25.0, 50.0, 75.0, 95.0]).take_all()
        outs.append(out[0])
    # integer-histogram counts + min/max merge in an associative tree:
    # bit-identical at any block count
    assert outs[0] == outs[1]
    exact = {f"p{p}": np.percentile(t.column("v").to_numpy(), p)
             for p in (25, 50, 75, 95)}
    for k, v in exact.items():
        assert outs[0][k] == pytest.approx(v, rel=1e-12)


def test_percentiles_tdigest_tree_merge_runs(ray_session):
    from paradedb_ray.pipelines.aggregate import percentiles_tdigest_agg

    rng = np.random.RandomState(6)
    t = pa.table({"v": pa.array(rng.standard_normal(20000))})
    ds = ray.data.from_arrow(t).repartition(48)
    row = percentiles_tdigest_agg(ds, [], "v",
                                  percents=[50.0, 95.0]).take_all()[0]
    assert abs(row["p50"]) < 0.05 and 1.5 < row["p95"] < 1.8


# ---------------------------------------------------------------------------
# #2 read_sessions_dataset parity
# ---------------------------------------------------------------------------


def test_read_sessions_dataset_parity(ray_session, tmp_path):
    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.streaming import (EpochRunner, StreamConfig,
                                        StreamEngine)
    from paradedb_ray.testing.transcripts import transcript_turns

    turns = transcript_turns(2500, seed=9)
    idx = pa.compute.sort_indices(turns, sort_keys=[("ts", "ascending")])
    ordered = turns.take(idx)
    n = ordered.num_rows
    epochs = [ordered.slice(i * n // 3, n // 3) for i in range(2)]
    epochs.append(ordered.slice(2 * (n // 3)))

    eng = StreamEngine(transcripts_schema(),
                       StreamConfig(num_partitions=2, mutable_rows=500),
                       checkpoint_dir=str(tmp_path / "ck"))
    try:
        r = EpochRunner(eng, str(tmp_path / "sink"),
                        {"q": pdb.term("text", "merge")}, topk=5,
                        columns=["conv_id", "turn_idx", "score"],
                        checkpoint_every=2)
        r.run(epochs)
        want = r.read_sessions().to_pandas()
        got = r.read_sessions_dataset().to_pandas()
    finally:
        eng.shutdown()
    key = ["conv_id", "session_start"]
    want = want.sort_values(key).reset_index(drop=True)
    got = got.sort_values(key).reset_index(drop=True)
    assert want.columns.tolist() == got.columns.tolist()
    assert want.equals(got[want.columns])


# ---------------------------------------------------------------------------
# #3 centroid sample: deterministic, layout- and row-order-independent
# ---------------------------------------------------------------------------


def test_centroid_sample_canonical(ray_session):
    from paradedb_ray.pipelines.knn import _centroid_sample

    rng = np.random.RandomState(11)
    vecs = rng.standard_normal((3000, 8)).astype(np.float32)
    perm = rng.permutation(3000)

    def sample(v, nblocks):
        t = pa.table({"embedding": pa.array(v.tolist(),
                                            pa.list_(pa.float32(), 8))})
        ds = ray.data.from_arrow(t).repartition(nblocks)
        return _centroid_sample(ds, "embedding", 500)

    a = sample(vecs, 2)
    b = sample(vecs, 13)          # different block layout
    c = sample(vecs[perm], 5)     # different ROW ORDER (sorted-corpus bug)
    assert a.shape == (500, 8)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    # and it IS a sample of the corpus
    corpus = {v.tobytes() for v in vecs}
    assert all(r.tobytes() in corpus for r in a)


# ---------------------------------------------------------------------------
# topk_by: block invariance, null placement, projection after merge
# ---------------------------------------------------------------------------


def test_topk_by_block_invariance(ray_session):
    from paradedb_ray.pipelines.relational import topk_by

    rng = np.random.RandomState(3)
    vals = rng.randint(0, 50, 400).astype(float)
    vals[rng.choice(400, 30, replace=False)] = np.nan
    t = pa.table({"id": pa.array(range(400), pa.int64()),
                  "v": pa.array(vals)})
    outs = []
    for n in (1, 16):
        ds = ray.data.from_arrow(t).repartition(n)
        out = topk_by(ds, [("v", "descending", "nulls_first"),
                           ("id", "ascending")], 20,
                      columns=["id"]).take_all()
        outs.append([r["id"] for r in out])
    assert outs[0] == outs[1]
    # NULLS FIRST: the 30 null rows lead, ordered by id
    null_ids = sorted(int(i) for i in np.flatnonzero(np.isnan(vals)))
    assert outs[0][:20] == null_ids[:20]


# ---------------------------------------------------------------------------
# #5 aggregate_join_multitable.sql regress mirror (ref expected/.out)
# ---------------------------------------------------------------------------


def _mt_fixture():
    products = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "description": ["Laptop fast processor", "Gaming laptop RGB",
                        "Running shoes athlete", "Winter jacket warm",
                        "Toy laptop kids"],
        "category": ["Electronics", "Electronics", "Sports", "Clothing",
                     "Toys"],
        "price": pa.array([999.99, 1299.99, 89.99, 129.99, 49.99]),
        "in_stock": pa.array([True, True, True, False, True]),
    })
    tags = pa.table({
        "product_id": pa.array([1, 1, 2, 2, 3, 3, 4, 5, 5], pa.int64()),
        "tag_name": ["tech", "computer", "tech", "gaming", "fitness",
                     "running", "outdoor", "tech", "kids"],
    })
    reviews = pa.table({
        "product_id": pa.array([1, 1, 2, 3, 4], pa.int64()),
        "rating": pa.array([5, 4, 3, 4, 3], pa.int64()),
    })
    schema = IndexSchema.build(
        key_field="id", id={"type": I64, "fast": True},
        description={"type": TEXT},
        category={"type": TEXT, "fast": True},
        price={"type": F64, "fast": True})
    return products, tags, reviews, schema


def _rows(ds, keys):
    out = ds.to_pandas().sort_values(keys).reset_index(drop=True)
    return list(out.itertuples(index=False, name=None))


def test_aggregate_join_multitable_sections_1_3(ray_session):
    from paradedb_ray.pipelines.aggregate import sql_aggregate
    from paradedb_ray.pipelines.joins import broadcast_join
    from paradedb_ray.pipelines.search import search

    products, tags, reviews, schema = _mt_fixture()

    def joined(query):
        p = search(ray.data.from_arrow(products).repartition(2), schema,
                   query, with_score=False,
                   output_columns=["id", "category", "in_stock"])
        j = broadcast_join(p, tags, on="id", right_on="product_id",
                           right_columns=["tag_name"])
        return broadcast_join(j, reviews, on="id", right_on="product_id",
                              right_columns=["rating"])

    # Section 1: GROUP BY category over the 3-table join
    q = pdb.parse_with_field("description", "laptop OR shoes OR jacket")
    out = sql_aggregate(joined(q), ["category"],
                        {"count": ("count_star", None),
                         "sum": ("sum", "rating"),
                         "avg": ("avg", "rating")})
    got = _rows(out.select_columns(["category", "count", "sum", "avg"]),
                ["category"])
    assert got == [("Clothing", 1, 3, 3.0),
                   ("Electronics", 6, 24, 4.0),
                   ("Sports", 2, 8, 4.0)]

    # Section 3: scalar aggregate, WHERE description @@@ 'laptop'
    out = sql_aggregate(joined(pdb.parse_with_field("description",
                                                    "laptop")), [],
                        {"count": ("count_star", None),
                         "sum": ("sum", "rating"),
                         "min": ("min", "rating"),
                         "max": ("max", "rating")})
    row = out.take_all()[0]
    assert (row["count"], row["sum"], row["min"], row["max"]) == \
        (6, 24, 3, 5)


def test_aggregate_join_multitable_sections_4_5_9(ray_session):
    from paradedb_ray.pipelines.aggregate import sql_aggregate
    from paradedb_ray.pipelines.joins import broadcast_join
    from paradedb_ray.pipelines.search import search

    products, tags, reviews, schema = _mt_fixture()

    # Section 4: INNER tags + LEFT reviews, COUNT(*) vs COUNT(rating)
    q = pdb.parse_with_field("description",
                             "laptop OR shoes OR jacket OR kids")
    p = search(ray.data.from_arrow(products).repartition(2), schema, q,
               with_score=False, output_columns=["id", "category"])
    j = broadcast_join(p, tags, on="id", right_on="product_id",
                       right_columns=["tag_name"])
    j = broadcast_join(j, reviews, on="id", right_on="product_id",
                       right_columns=["rating"], how="left")
    out = sql_aggregate(j, ["category"],
                        {"count": ("count_star", None),
                         "count_r": ("count", "rating")})
    got = _rows(out.select_columns(["category", "count", "count_r"]),
                ["category"])
    assert got == [("Clothing", 1, 1), ("Electronics", 6, 6),
                   ("Sports", 2, 2), ("Toys", 2, 0)]

    # Sections 5 + 9: GROUP BY keys from two tables; COUNT(DISTINCT)
    q = pdb.parse_with_field("description", "laptop")
    p = search(ray.data.from_arrow(products).repartition(2), schema, q,
               with_score=False, output_columns=["id", "category"])
    j = broadcast_join(p, tags, on="id", right_on="product_id",
                       right_columns=["tag_name"])
    j = broadcast_join(j, reviews, on="id", right_on="product_id",
                       right_columns=["rating"])
    out = sql_aggregate(j, ["category", "tag_name"],
                        {"count": ("count_star", None),
                         "sum": ("sum", "rating")})
    got = _rows(out.select_columns(["category", "tag_name", "count",
                                    "sum"]), ["category", "tag_name"])
    assert got == [("Electronics", "computer", 2, 9),
                   ("Electronics", "gaming", 1, 3),
                   ("Electronics", "tech", 3, 12)]

    out = sql_aggregate(j, ["category"],
                        {"count": ("cardinality", "tag_name")})
    got = _rows(out.select_columns(["category", "count"]), ["category"])
    assert got == [("Electronics", 3)]


# ---------------------------------------------------------------------------
# #7 partial-index analogue (`partial_index_gating.sql`,
# `partial_index_score_fix.sql`)
# ---------------------------------------------------------------------------


def test_partial_index_score_fix_mirror(ray_session):
    """Mirror of partial_index_score_fix.out Test Cases 1-2: the gated
    corpus IS the index, so BM25 stats come from the Electronics subset
    only — 'Apple' scores 0.47000363 (= idf over df=2, N=3, dl=avgdl=2),
    NOT the full-table score."""
    import pyarrow.compute as pc

    from paradedb_ray.index import Searcher, build_segment
    from paradedb_ray.schema import IndexSchema

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "description": ["Apple iPhone", "Samsung Galaxy", "Nike Shoes",
                        "Apple Watch", "Apple Box", "Adidas Sneakers"],
        "category": ["Electronics", "Electronics", "Footwear",
                     "Electronics", "Footwear", "Footwear"],
        "rating": pa.array([5, 4, 3, 4, 4, 2], pa.int64()),
    })
    schema = IndexSchema.build("id", description={"type": TEXT},
                               category={"type": TEXT, "fast": True},
                               rating={"type": I64, "fast": True})
    q = pdb.parse_with_field("description", "Apple")

    gated = t.filter(pc.equal(t.column("category"), "Electronics"))
    s = Searcher(build_segment(gated, schema), schema)
    h = s.eval(q)
    ids = gated.column("id").to_numpy()[h.ids].tolist()
    got = dict(zip(ids, [np.float32(x) for x in h.scores.tolist()]))
    assert got == {1: np.float32(0.47000363), 4: np.float32(0.47000363)}

    # the same query over the FULL table scores differently (df=3, N=6,
    # varied dl) — the partial index's stats are the gated corpus's, the
    # exact bug partial_index_score_fix pins
    s_full = Searcher(build_segment(t, schema), schema)
    full = {int(i): np.float32(x) for i, x in
            zip(t.column("id").to_numpy()[s_full.eval(q).ids].tolist(),
                s_full.eval(q).scores.tolist())}
    assert set(full) == {1, 4, 5}
    assert full[1] != got[1]

    # Test Case 2: + rating >= 4 heap filter keeps both rows, same scores
    keep = [i for i in ids
            if gated.column("rating")[
                gated.column("id").to_pylist().index(i)].as_py() >= 4]
    assert keep == [1, 4]


# ---------------------------------------------------------------------------
# ADVICE r4: oracle fixture-discipline pins.  Two oracles are exact only
# under properties of the driver fixtures; pin them so a future fixture
# change fails LOUDLY here instead of silently hash-mismatching.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001",
                                    "/root/testdata/sf0.01"])
def test_fixture_text_discipline(sf_dir):
    """1) search_edge_prefix's oracle uses the ASCII word-boundary class
    [^a-z0-9] while edge_ngram segments by Unicode categories — parity
    needs pure-ASCII text.  2) chunk_docs/pack_bins oracles tokenize
    with string_split(text, ' ') vs the ops' \\S+ — parity needs
    single-space separation, no leading/trailing whitespace, and no
    NULL/empty text rows."""
    import pyarrow.parquet as pq

    texts = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["text"]).column("text").to_pylist()
    assert texts
    for x in texts:
        assert x, "NULL/empty text row breaks chunk_docs/pack_bins oracles"
        assert x.isascii(), "non-ASCII breaks the edge_prefix oracle"
        assert x == " ".join(x.split()), \
            "whitespace discipline broken: oracles split on single spaces"


def _gate_user_turns(t: pa.Table):
    import pyarrow.compute as pc

    return np.asarray(pc.equal(t.column("role"), "user").fill_null(False))


def test_partial_index_gated_streaming(ray_session):
    """Gated ingest (StreamConfig.gate): rows failing the gate are
    invisible; an upsert that leaves the gate RETRACTS its key
    (partial_index_score_fix Test 3), and one that re-enters restores
    it (Test 4)."""
    import pyarrow.compute as pc

    from paradedb_ray.schema import transcripts_schema
    from paradedb_ray.streaming import StreamConfig, StreamEngine
    from paradedb_ray.testing.transcripts import transcript_turns

    turns = transcript_turns(2000, seed=5)
    n_user = int(pc.sum(pc.equal(turns.column("role"),
                                 "user")).as_py())
    eng = StreamEngine(
        transcripts_schema(),
        StreamConfig(num_partitions=2, mutable_rows=500,
                     gate=_gate_user_turns))
    try:
        eng.ingest(turns)
        assert eng.num_docs() == n_user

        # matches contain ONLY gated (user) rows
        got = eng.query_matches(pdb.term("text", "merge"),
                                columns=["conv_id", "turn_idx"])
        want = turns.filter(pc.equal(turns.column("role"), "user"))
        want_ids = {(c, i) for c, i, x in zip(
            want.column("conv_id").to_pylist(),
            want.column("turn_idx").to_pylist(),
            want.column("text").to_pylist()) if "merge" in x.split(" ")}
        got_ids = set(zip(got.column("conv_id").to_pylist(),
                          got.column("turn_idx").to_pylist()))
        assert got_ids == want_ids and want_ids

        # pick one matching user turn; update it OUT of the gate
        conv0, turn0 = next(iter(sorted(want_ids)))
        upd = pa.table({
            "conv_id": pa.array([conv0]), "turn_idx": pa.array(
                [turn0], pa.int32()),
            "role": pa.array(["assistant"]),
            "text": pa.array(["replaced away"]),
            "tool": pa.array([None], pa.string()),
            "ts": pa.array([pa.scalar(0, pa.timestamp("us"))
                            .as_py()], pa.timestamp("us")),
        })
        eng.ingest(upd)
        got2 = eng.query_matches(pdb.term("text", "merge"),
                                 columns=["conv_id", "turn_idx"])
        got2_ids = set(zip(got2.column("conv_id").to_pylist(),
                           got2.column("turn_idx").to_pylist()))
        assert got2_ids == want_ids - {(conv0, turn0)}

        # update it BACK into the gate with matching text: visible again
        upd2 = upd.set_column(2, "role", pa.array(["user"])) \
                  .set_column(3, "text", pa.array(["back to merge work"]))
        eng.ingest(upd2)
        got3 = eng.query_matches(pdb.term("text", "merge"),
                                 columns=["conv_id", "turn_idx"])
        got3_ids = set(zip(got3.column("conv_id").to_pylist(),
                           got3.column("turn_idx").to_pylist()))
        assert got3_ids == want_ids
    finally:
        eng.shutdown()


# ---------------------------------------------------------------------------
# topn_per_group: block invariance, null keys, pandas oracle
# ---------------------------------------------------------------------------


def test_topn_per_group_block_invariance(ray_session):
    import pandas as pd

    from paradedb_ray.pipelines.relational import topn_per_group

    rng = np.random.RandomState(7)
    keys = rng.randint(0, 25, 500).astype(float)
    keys[rng.choice(500, 20, replace=False)] = np.nan  # NULL group
    vals = rng.rand(500)
    t = pa.table({"k": pa.array(keys),
                  "v": pa.array(vals),
                  "id": pa.array(range(500), pa.int64())})

    # pandas oracle: row_number <= 3 per partition
    df = t.to_pandas().sort_values(["v", "id"], ascending=[False, True])
    df["rn"] = df.groupby("k", dropna=False).cumcount() + 1
    want = (df[df.rn <= 3].sort_values(["k", "rn"], na_position="last")
            .reset_index(drop=True))

    for n in (1, 16):
        ds = ray.data.from_arrow(t).repartition(n)
        out = topn_per_group(
            ds, ["k"], [("v", "descending"), ("id", "ascending")], 3,
            rn_col="rn").to_pandas()
        out = (out.sort_values(["k", "rn"], na_position="last")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            out[["k", "v", "id", "rn"]], want[["k", "v", "id", "rn"]])


def test_topn_per_group_empty_keeps_schema(ray_session):
    from paradedb_ray.pipelines.relational import topn_per_group

    t = pa.table({"k": pa.array([], pa.int64()),
                  "v": pa.array([], pa.float64())})
    out = topn_per_group(ray.data.from_arrow(t), ["k"],
                         [("v", "descending")], 2, rn_col="rn")
    # NOTE: Dataset.to_pandas() on an all-empty dataset drops columns
    # (Ray quirk) — assert on the block schema, which downstream unions
    # and write_parquet actually consume
    assert out.schema().names == ["k", "v", "rn"]
    assert out.count() == 0
    blocks = ray.get(out.to_arrow_refs())
    assert all(b.schema.names == ["k", "v", "rn"] for b in blocks)


# ---------------------------------------------------------------------------
# multimodal_wav: RIFF roundtrip + exact integer features + NULL contract
# ---------------------------------------------------------------------------


def test_wav_synth_roundtrip_and_features(ray_session):
    from paradedb_ray.pipelines import codecs
    from paradedb_ray.pipelines.multimodal import (audio_features,
                                                   synthesize_wav_payloads)

    t = pa.table({"doc_id": pa.array([0, 7, 63, 64, 129], pa.int64())})
    ds = synthesize_wav_payloads(ray.data.from_arrow(t), "doc_id")
    # the payloads are genuine RIFF/WAVE PCM
    media = [r["media"] for r in ds.take_all()]
    for p in media:
        assert p[:4] == b"RIFF" and p[8:12] == b"WAVE"
        assert codecs.decode_wav(p) is not None
    out = audio_features(
        synthesize_wav_payloads(ray.data.from_arrow(t), "doc_id")
    ).to_pandas().set_index("doc_id")
    for d in (0, 7, 63, 64, 129):
        n = 64 + d % 64
        i = np.arange(n, dtype=np.int64)
        s = ((d * 31 + i * 7) % 65536) - 32768
        assert out.loc[d, "n_frames"] == n
        assert out.loc[d, "sum_sq"] == int(np.dot(s, s))
        assert out.loc[d, "peak"] == int(np.abs(s).max())


def test_wav_undecodable_yields_null_features(ray_session):
    from paradedb_ray.pipelines.multimodal import audio_features

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "media": pa.array([b"not a wav", None], pa.binary())})
    out = audio_features(ray.data.from_arrow(t)).to_pandas()
    assert out["n_frames"].isna().all()


# ---------------------------------------------------------------------------
# session 4: deterministic sampling ops (`functions/sampling.py`)
# ---------------------------------------------------------------------------


def _sample_fixture():
    import itertools

    langs = list(itertools.islice(itertools.cycle(
        ["en", "de", "fr", "ja", None]), 400))
    return pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        "lang": pa.array(langs, pa.string()),
        "n_chars": pa.array([i * 3 % 97 for i in range(400)], pa.int64()),
    })


def test_hash_sample_block_invariant_and_deterministic(ray_session):
    from paradedb_ray.functions.sampling import _hash60, hash_sample

    t = _sample_fixture()
    expect = sorted(
        int(d) for d in t.column("doc_id").to_pylist()
        if _hash60(str(d) + "salty") % 10_000 < 3000)
    for nblocks in (1, 17):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        out = hash_sample(ds, "doc_id", rate_bp=3000, salt="salty")
        got = sorted(r["doc_id"] for r in out.take_all())
        assert got == expect
    # the rate lands near 30% on a uniform hash
    assert 0.2 < len(expect) / 400 < 0.4


def test_hash_sample_zero_rate_keeps_schema(ray_session):
    from paradedb_ray.functions.sampling import hash_sample

    ds = ray.data.from_arrow(_sample_fixture())
    out = hash_sample(ds, "doc_id", rate_bp=0)
    tbl = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert tbl.num_rows == 0
    assert tbl.schema.names == ["doc_id", "lang", "n_chars"]


def test_stratified_sample_exact_per_group(ray_session):
    from paradedb_ray.functions.sampling import _hash60, stratified_sample

    t = _sample_fixture()
    # oracle: n smallest (h, doc_id) per lang, NULL lang is its own group
    by_group = {}
    for d, lang in zip(t.column("doc_id").to_pylist(),
                       t.column("lang").to_pylist()):
        by_group.setdefault(lang, []).append((_hash60(str(d) + "z"), d))
    expect = sorted(d for rows in by_group.values()
                    for _, d in sorted(rows)[:5])
    for nblocks in (1, 13):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        out = stratified_sample(ds, "lang", "doc_id", n=5, salt="z")
        rows = out.take_all()
        assert sorted(r["doc_id"] for r in rows) == expect
        assert set(out.schema().names) == {"doc_id", "lang", "n_chars"}
        # exactly n per group incl. the NULL group
        from collections import Counter
        c = Counter(r["lang"] for r in rows)
        assert all(v == 5 for v in c.values()) and None in c


def test_mix_sources_per_group_rates(ray_session):
    from paradedb_ray.functions.sampling import _hash60, mix_sources

    t = _sample_fixture()
    rates = {"en": 9000, "de": 2000}
    expect = sorted(
        d for d, g in zip(t.column("doc_id").to_pylist(),
                          t.column("lang").to_pylist())
        if _hash60(str(d) + "m") % 10_000 < rates.get(g, 500))
    for nblocks in (1, 11):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        out = mix_sources(ds, "lang", "doc_id", rates,
                          default_bp=500, salt="m")
        got = sorted(r["doc_id"] for r in out.take_all())
        assert got == expect
    # en kept near 90%, de near 20%: the per-group rates actually apply
    rows = mix_sources(ray.data.from_arrow(t), "lang", "doc_id", rates,
                       default_bp=500, salt="m").take_all()
    from collections import Counter
    c = Counter(r["lang"] for r in rows)
    assert c["en"] > 55 and c["de"] < 30  # 80 per group in the fixture


def _vocab_fixture():
    texts = []
    for i in range(300):
        words = ["the"] * (i % 4) + [f"w{i % 23}", f"rare{i}"]
        texts.append(" ".join(words))
    texts += ["", None]
    return pa.table({
        "doc_id": pa.array(range(302), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _py_vocab(t, v):
    from collections import Counter

    c = Counter()
    for s in t.column("text").to_pylist():
        if s:
            c.update(s.split())
    return dict(sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:v])


def test_build_token_vocab_matches_python_oracle(ray_session):
    from paradedb_ray.functions.vocab import build_token_vocab

    t = _vocab_fixture()
    expect = _py_vocab(t, 10)
    for nblocks in (1, 9):
        ds = ray.data.from_arrow(t).repartition(nblocks)
        vt = build_token_vocab(ds, "text", top_v=10)
        got = dict(zip(vt.column("token").to_pylist(),
                       vt.column("freq").to_pylist()))
        assert got == expect
        # sorted by (freq desc, token asc) — the boundary total order
        pairs = list(zip(vt.column("freq").to_pylist(),
                         vt.column("token").to_pylist()))
        assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))


def test_flat_tokens_parity_with_scalar_regex():
    import re

    from paradedb_ray.functions.vocab import _flat_tokens

    ws = re.compile(r"\S+")
    texts = ["a  b", " lead", "trail ", "", None, "x\ty\nz\r\fw\vv",
             "  ", "one", "a b  c\t\td "]
    col = pa.array(texts, pa.string())
    doc_idx, toks = _flat_tokens(col)
    expect = [(i, t) for i, s in enumerate(texts)
              for t in (ws.findall(s) if s else [])]
    assert list(zip(doc_idx.tolist(), toks.tolist())) == expect


def test_add_freq_quality_integer_exact(ray_session):
    from paradedb_ray.functions.vocab import add_freq_quality, build_token_vocab

    t = _vocab_fixture()
    ds = ray.data.from_arrow(t).repartition(7)
    vocab = build_token_vocab(ds, "text", top_v=10)
    vd = _py_vocab(t, 10)
    out = {r["doc_id"]: r for r in
           add_freq_quality(ds, "text", "doc_id", vocab).take_all()}
    for d, s in zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist()):
        toks = s.split() if s else []
        assert out[d]["tf_n_tokens"] == len(toks)
        assert out[d]["tf_in_vocab"] == sum(1 for x in toks if x in vd)
        assert out[d]["tf_sum_freq"] == sum(vd.get(x, 0) for x in toks)
    # empty + NULL text rows still emit all-zero rows (schema kept)
    assert out[300]["tf_sum_freq"] == 0 and out[301]["tf_n_tokens"] == 0


def test_extract_keywords_matches_python_oracle(ray_session):
    from collections import Counter

    from paradedb_ray.functions.vocab import extract_keywords

    t = _vocab_fixture()
    # python oracle: per-doc top-3 by (tf desc, df asc, token asc)
    docs = {d: Counter((s or "").split())
            for d, s in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist())}
    df = Counter(tok for c in docs.values() for tok in c)
    expect = set()
    for d, c in docs.items():
        ranked = sorted(((tok, tf) for tok, tf in c.items()),
                        key=lambda kv: (-kv[1], df[kv[0]], kv[0]))[:3]
        for rnk, (tok, tf) in enumerate(ranked, 1):
            expect.add((d, tok, tf, df[tok], rnk))
    for nb in (1, 9):
        ds = ray.data.from_arrow(t).repartition(nb)
        out = extract_keywords(ds, "text", "doc_id", k=3)
        got = {(r["doc_id"], r["token"], r["tf"], r["df"], r["kw_rank"])
               for r in out.take_all()}
        assert got == expect


def test_decontaminate_ngram_window_overlap(ray_session):
    from paradedb_ray.functions.text_analysis import decontaminate_ngram

    needle = " ".join(f"n{i}" for i in range(20))
    docs = {
        0: "x " + " ".join(f"n{i}" for i in range(4, 12)) + " y",  # 8-gram
        1: "x " + " ".join(f"n{i}" for i in range(4, 11)) + " y",  # 7 only
        2: " ".join(f"z{i}" for i in range(30)),                   # clean
        3: "n5 n6 n7",       # short doc, whole-window: not a needle 8-gram
        4: needle,           # the needle itself
    }
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)],
                                   pa.string())})
    for nb in (1, 3):
        ds = ray.data.from_arrow(t).repartition(nb)
        out = decontaminate_ngram(ds, "text", [needle], n=8)
        kept = sorted(r["doc_id"] for r in out.take_all())
        assert kept == [1, 2, 3], kept
    # empty needle set keeps everything
    out = decontaminate_ngram(ray.data.from_arrow(t), "text", [], n=8)
    assert len(out.take_all()) == 5


def _cc_fixture():
    # chain 0-..-9 (diameter 9: true multi-hop), triangle, pair
    edges = ([(i, i + 1) for i in range(9)]
             + [(20, 21), (21, 22), (20, 22), (30, 31)])
    return pa.table({
        "a": pa.array([e[0] for e in edges], pa.int64()),
        "b": pa.array([e[1] for e in edges], pa.int64()),
    })


def test_connected_components_chain_and_invariance(ray_session):
    from paradedb_ray.pipelines.graph import connected_components

    t = _cc_fixture()
    expect = sorted([(i, 0) for i in range(10)]
                    + [(i, 20) for i in (20, 21, 22)]
                    + [(30, 30), (31, 30)])
    for P in (1, 8):
        for nb in (1, 5):
            ds = ray.data.from_arrow(t).repartition(nb)
            out = connected_components(ds, "a", "b", num_partitions=P)
            got = sorted((r["node"], r["cluster_id"])
                         for r in out.take_all())
            assert got == expect, (P, nb)


def test_connected_components_empty_keeps_schema(ray_session):
    from paradedb_ray.pipelines.graph import connected_components

    e0 = ray.data.from_arrow(_cc_fixture().slice(0, 0))
    out = connected_components(e0, "a", "b", num_partitions=4)
    tb = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert tb.num_rows == 0
    assert tb.schema.names == ["node", "cluster_id"]
    assert tb.schema.types == [pa.int64(), pa.int64()]


def test_connected_components_max_iters_guard(ray_session):
    from paradedb_ray.pipelines.graph import connected_components

    ds = ray.data.from_arrow(_cc_fixture())
    with pytest.raises(RuntimeError, match="fixpoint"):
        connected_components(ds, "a", "b", num_partitions=2, max_iters=2)


def test_hash_sample_disjoint_salts_are_independent(ray_session):
    from paradedb_ray.functions.sampling import hash_sample

    ds = ray.data.from_arrow(_sample_fixture())
    a = {r["doc_id"] for r in
         hash_sample(ds, "doc_id", 5000, salt="a").take_all()}
    b = {r["doc_id"] for r in
         hash_sample(ds, "doc_id", 5000, salt="b").take_all()}
    # different salts decorrelate: overlap is near rate^2, not rate
    assert 0.1 < len(a & b) / 400 < 0.45
    assert a != b
