"""One batch top-k path: ``search_topk`` is the one-query case of the
driver behind ``search_topk_multi``, and ``search_topk_with_facet`` ranks
its heads with the same ``rank_head``.  So every entry point must answer
the query shapes ``search_topk`` answers — a ``key_value`` MoreLikeThis,
NULLS FIRST and ``lower`` sort keys, an ORDER BY column left out of
``output_columns`` — with the same rows and f32 scores.  Also pins the
streaming stats partial to the batch ``StatsCollector``'s.
"""

import importlib
import pickle

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data

from paradedb_ray.query import ast
from paradedb_ray.schema import mock_items_schema
from paradedb_ray.stages.blocks import collect_table
from paradedb_ray.testing import mock_items_table

sp = importlib.import_module("paradedb_ray.pipelines.search")


def _items_with_null_ratings() -> pa.Table:
    t = mock_items_table()
    ids = t.column("id").to_pylist()
    rating = [None if i in (2, 4, 9) else r
              for i, r in zip(ids, t.column("rating").to_pylist())]
    return t.set_column(t.column_names.index("rating"), "rating",
                        pa.array(rating, pa.int32()))


@pytest.fixture
def items_ds(ray_session):
    return ray.data.from_arrow(_items_with_null_ratings()).repartition(3)


def _topk_rows(entry, ds, query, limit, order_by, output_columns):
    schema = mock_items_schema()
    if entry == "search_topk":
        out = sp.search_topk(ds, schema, query, limit, order_by=order_by,
                             output_columns=output_columns).take_all()
    elif entry == "search_topk_multi":
        out = sp.search_topk_multi(ds, schema, {"q": query}, limit,
                                   order_by=order_by,
                                   output_columns=output_columns).take_all()
        assert {r.pop("query_id") for r in out} <= {"q"}
    else:
        topk, _ = sp.search_topk_with_facet(ds, schema, query, limit,
                                            "category", order_by=order_by,
                                            output_columns=output_columns)
        out = topk.to_pylist()
    return [tuple(r.values()) for r in out]


# rows and f32 scores search_topk returns for each case
CASES = {
    "mlt_key_value": (
        ast.MoreLikeThis(key_value=3),
        [("rating", "descending", "nulls_first"), ("score", "descending"),
         ("id", "ascending")],
        ["id", "rating", "score"],
        [(4, None, 2.4849066734313965), (3, 5, 20.234811782836914),
         (11, 5, 1.5997064113616943), (12, 5, 1.5997064113616943)]),
    "nulls_first": (
        ast.Parse("shoes OR keyboard"),
        [("rating", "ascending", "nulls_first"), ("id", "ascending")],
        ["id", "rating", "score"],
        [(2, None, 3.266859531402588), (4, None, 2.4849066734313965),
         (1, 4, 2.821378707885742), (5, 4, 2.877260208129883)]),
    "lower": (
        ast.Parse("shoes OR keyboard"),
        [("category", "descending", "lower"), ("score", "descending"),
         ("id", "ascending")],
        ["id", "category", "score"],
        [(5, "Footwear", 2.877260208129883),
         (3, "Footwear", 2.4849066734313965),
         (4, "Footwear", 2.4849066734313965),
         (2, "Electronics", 3.266859531402588)]),
}

ENTRIES = ["search_topk", "search_topk_multi", "search_topk_with_facet"]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_point_answers_search_topk_shapes(items_ds, entry, case):
    query, order_by, cols, want = CASES[case]
    got = _topk_rows(entry, items_ds, query, 4, order_by, cols)
    assert got == want
    score = cols.index("score")
    assert (np.array([r[score] for r in got], np.float32).tobytes()
            == np.array([r[score] for r in want], np.float32).tobytes())


@pytest.mark.parametrize("query", [
    ast.Term("description", "shoes"),  # single-scan route
    ast.FuzzyTerm("description", "shoez", 1, True, False),  # two-pass
], ids=["single_scan", "two_pass"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_order_by_column_outside_output_columns(items_ds, entry, query):
    """Heads rank with the ORDER BY columns present; only the final merge
    projects to ``output_columns``."""
    got = _topk_rows(entry, items_ds, query, 2,
                     [("rating", "descending"), ("id", "ascending")], ["id"])
    assert got == [(3,), (5,)]


def test_rank_head_expands_keys_and_slices():
    from paradedb_ray.stages.search_stages import rank_head

    t = pa.table({"k": pa.array([2, None, 1, 3]), "v": ["b", "n", "a", "c"]})
    head = rank_head(t, [("k", "ascending", "nulls_first")], 2, offset=1)
    assert head.column_names == ["k", "v"]
    assert head.column("v").to_pylist() == ["a", "b"]
    assert rank_head(t, [], 2, offset=1).column("v").to_pylist() == ["n", "a"]


def test_stream_stats_partial_matches_stats_collector(ray_session):
    """The streaming partition store and the batch stats pass count the
    same rows the same way: TEXT, KEYWORD, NUMERIC, bool and JSON-path
    terms, and the JSON field's token total (the avgdl denominator)."""
    from paradedb_ray.stages.search_stages import StatsCollector
    from paradedb_ray.streaming.state_store import Bm25PartitionStore

    schema = mock_items_schema()
    table = mock_items_table()
    req = {"terms": {("description", "shoes"), ("category", "footwear"),
                     ("category", "Footwear"), ("rating", 4),
                     ("in_stock", True), ("metadata.location", "states"),
                     ("metadata.color", "Silver")},
           "fields": {"description", "category", "rating", "metadata"}}
    batch = pickle.loads(
        StatsCollector(schema, req)(table).column("partial")[0].as_py())
    assert batch.term_df[("metadata.location", "states")] == 14
    assert batch.field_total_tokens["metadata"] == 96
    # one mutable buffer only, then sealed segments plus a buffer
    for mutable_rows in (1000, 16):
        store = Bm25PartitionStore.remote(
            0, pickle.dumps(schema), mutable_rows=mutable_rows,
            key_cols=("id", "id"), ts_col="created_at")
        ray.get(store.ingest.remote(table.append_column(
            "__arr", pa.array(np.arange(table.num_rows), pa.int64()))))
        g = pickle.loads(ray.get(store.stats_partial.remote(
            pickle.dumps(req))))
        ray.kill(store)
        assert g.num_docs == batch.num_docs == table.num_rows
        assert g.field_total_tokens == batch.field_total_tokens
        assert g.field_doc_count == batch.field_doc_count
        assert g.term_df == batch.term_df


def _items_with_token_3() -> pa.Table:
    t = mock_items_table()
    ids = t.column("id").to_pylist()
    desc = [f"{d} 3" if i % 5 == 0 else d
            for i, d in zip(ids, t.column("description").to_pylist())]
    cat = ["3" if i % 4 == 0 else c
           for i, c in zip(ids, t.column("category").to_pylist())]
    t = t.set_column(t.column_names.index("description"), "description",
                     pa.array(desc, pa.string()))
    return t.set_column(t.column_names.index("category"), "category",
                        pa.array(cat, pa.string()))


@pytest.mark.parametrize("query", [
    ast.Term("description", 3),
    ast.Boolean(should=[ast.Term("description", 3),
                        ast.Term("description", "shoes")]),
    ast.MatchArray("description", [3, "shoes"]),
    ast.Boolean(should=[ast.Term("category", 3),
                        ast.Term("description", "shoes")]),
], ids=["term", "boolean", "match_array", "keyword"])
def test_term_literal_reads_global_df(ray_session, query):
    """A TEXT / KEYWORD Term or MatchArray literal is looked up as its
    string, so its stat request is keyed by that string: batch top-k with
    distributed stats (two-pass and single-scan routes) and the streaming
    engine give the whole-corpus ``Searcher``'s ids and f32 scores."""
    from paradedb_ray.index.searcher import Searcher
    from paradedb_ray.index.segment import build_segment
    from paradedb_ray.streaming.engine import StreamConfig, StreamEngine

    schema = mock_items_schema()
    table = _items_with_token_3()
    hits = Searcher(build_segment(table, schema), schema).eval(query)
    ids = table.column("id").to_numpy()
    want = dict(zip(ids[hits.ids].tolist(),
                    np.asarray(hits.scores, np.float32).tolist()))
    assert len(want) > 1

    def got(t: pa.Table) -> dict:
        return dict(zip(t.column("id").to_pylist(), np.asarray(
            t.column("score").to_numpy(), np.float32).tolist()))

    ds = ray.data.from_arrow(table).repartition(3)
    for cols in (None, ["id", "score"]):
        out = sp.search_topk(ds, schema, query, limit=table.num_rows,
                             output_columns=cols)
        assert got(collect_table(out)) == want, cols
    eng = StreamEngine(schema, StreamConfig(
        num_partitions=2, mutable_rows=8, key_cols=("id", "id"),
        ts_col="created_at"))
    try:
        eng.ingest(table)
        assert got(eng.query_topk(query, k=table.num_rows,
                                  columns=["id", "score"])) == want
    finally:
        eng.shutdown()
