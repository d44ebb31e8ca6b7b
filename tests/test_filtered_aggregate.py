"""Score-free filters and filtered aggregates: a filter whose match set
reads no score skips the BM25 stats pass, and an aggregate that fans its
filtered input out to several consumers executes the filter once."""

import importlib

import pyarrow as pa
import pytest
import ray
import ray.data

from paradedb_ray.query import ast
from paradedb_ray.schema import mock_items_schema
from paradedb_ray.stages.blocks import collect_table
from paradedb_ray.testing import mock_items_table

search_mod = importlib.import_module("paradedb_ray.pipelines.search")

BLOCKS = 6


@pytest.fixture(scope="module")
def items():
    return mock_items_schema(), mock_items_table()


def _blocks(t: pa.Table, n: int) -> ray.data.Dataset:
    step = -(-t.num_rows // n)
    return ray.data.from_arrow([t.slice(i * step, step) for i in range(n)])


@pytest.fixture
def stats_calls(monkeypatch):
    """Count of the ``compute_global_stats`` calls ``search`` makes."""
    calls = []
    orig = search_mod.compute_global_stats

    def counted(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    monkeypatch.setattr(search_mod, "compute_global_stats", counted)
    return calls


def _counting_filter(query: ast.Query, log) -> ast.HeapFilter:
    """``query`` behind an all-pass heap predicate that appends one line
    to ``log`` per block it runs on (workers share the local disk)."""
    path = str(log)

    def pred(tb, _path=path):
        with open(_path, "a") as f:
            f.write("x\n")
        return [True] * tb.num_rows

    return ast.HeapFilter(query, pred)


def _udf_runs(log) -> int:
    return len(log.read_text().split()) if log.exists() else 0


def _ids(ds, schema, q) -> list:
    out = collect_table(search_mod.search(ds, schema, q, with_score=False))
    return sorted(out.column("id").to_pylist())


def test_score_free_filter_rows_independent_of_blocking(
        ray_session, items, stats_calls):
    """Score-free filters select the same rows under one block and under
    many; a ``ScoreFilter`` or ``MoreLikeThis`` nested in a
    ``with_score=False`` filter keeps the stats pass, because its match
    set reads scores / document frequencies."""
    schema, t = items
    one, many = ray.data.from_arrow(t), _blocks(t, BLOCKS)
    shoes = ast.Term("description", "shoes")
    score_free = {
        "term": shoes,
        "boolean": ast.Boolean(
            should=[shoes, ast.Term("description", "keyboard")],
            must_not=[ast.Term("description", "plastic")]),
        "phrase": ast.Phrase("description", ["running", "shoes"]),
        "keyword": ast.Term("category", "footwear"),
        "json_path": ast.Term("metadata.color", "Blue"),
    }
    want = {"term": [3, 4, 5], "boolean": [1, 3, 4, 5], "phrase": [3],
            "keyword": [3, 4, 5, 13, 23, 33], "json_path": [3, 11, 21, 31]}
    for name, q in score_free.items():
        assert _ids(one, schema, q) == want[name], name
        assert _ids(many, schema, q) == want[name], name

    # global idf of "shoes" over 41 docs puts ids 1, 2 and 5 at or above
    # 2.8; a block-local idf (7 docs) would score every hit below it
    either = ast.Boolean(should=[shoes, ast.Term("description", "keyboard")])
    nested_score = ast.Boolean(must=[ast.ScoreFilter([(2.8, None)], either)])
    # max_query_terms=1 keeps the first candidate term in (field, term)
    # order: "shirt" under corpus dfs, but "shoes" in a block without it
    nested_mlt = ast.Boolean(must=[ast.MoreLikeThis(
        document_fields=[("description", "shirt shoes")],
        max_query_terms=1)])
    for q, rows in ((nested_score, [1, 2, 5]), (nested_mlt, [11])):
        del stats_calls[:]
        assert _ids(one, schema, q) == rows
        assert _ids(many, schema, q) == rows
        assert len(stats_calls) == 2


def test_search_count_stats_pass_only_when_matches_read_stats(
        ray_session, items, stats_calls):
    """``search_count`` counts the same rows under any blocking; only a
    query holding a ``ScoreFilter`` pays a stats pass."""
    schema, t = items
    one, many = ray.data.from_arrow(t), _blocks(t, BLOCKS)
    shoes = ast.Term("description", "shoes")
    for ds in (one, many):
        assert search_mod.search_count(ds, schema, shoes) == 3
    assert stats_calls == []
    nested = ast.Boolean(must=[ast.ScoreFilter([(2.8, None)], ast.Boolean(
        should=[shoes, ast.Term("description", "keyboard")]))])
    for ds in (one, many):
        assert search_mod.search_count(ds, schema, nested) == 3
    assert len(stats_calls) == 2


def test_filtered_aggregate_one_filter_run_no_stats_pass(
        ray_session, items, stats_calls, tmp_path):
    """A filtered ``sql_aggregate`` with ``count_star`` + ``cardinality``
    makes no stats pass and runs the filter UDF once per input block, not
    once per consumer of the filtered rows."""
    from paradedb_ray.pipelines.aggregate import sql_aggregate

    schema, t = items
    log = tmp_path / "udf.log"
    q = _counting_filter(ast.All(), log)
    out = sql_aggregate(_blocks(t, BLOCKS), ["category"],
                        {"n": ("count_star", None),
                         "ratings": ("cardinality", "rating")},
                        schema=schema, filter_query=q).to_pandas()
    assert stats_calls == []
    assert _udf_runs(log) == BLOCKS
    want = (t.to_pandas().groupby("category")
            .agg(n=("id", "size"), ratings=("rating", "nunique")))
    got = out.set_index("category").sort_index()
    assert got["n"].astype(int).tolist() == want["n"].tolist()
    assert got["ratings"].astype(int).tolist() == want["ratings"].tolist()


def test_filtered_window_and_sibling_aggs_run_filter_once(
        ray_session, items, stats_calls, tmp_path):
    """``window_aggregate`` (the scalar AND the returned rows) and a
    sibling-bucket ``pdb_agg`` (one aggregate per path) read one filter
    execution."""
    from paradedb_ray.pipelines.aggregate import pdb_agg, window_aggregate

    schema, t = items
    log = tmp_path / "window.log"
    out = collect_table(window_aggregate(
        _blocks(t, BLOCKS), {"n": ("count_star", None)}, schema=schema,
        filter_query=_counting_filter(ast.All(), log)))
    assert out.num_rows == t.num_rows
    assert set(out.column("n").to_pylist()) == {t.num_rows}
    assert _udf_runs(log) == BLOCKS

    log = tmp_path / "siblings.log"
    out = pdb_agg(_blocks(t, BLOCKS), {
        "by_cat": {"terms": {"field": "category"}},
        "by_rating": {"terms": {"field": "rating"}},
        "top": {"max": {"field": "rating"}},
    }, schema=schema, filter_query=_counting_filter(ast.All(), log))
    df = out.to_pandas()
    assert set(df["agg_name"]) == {"by_cat", "by_rating", "top"}
    assert _udf_runs(log) == BLOCKS
    assert stats_calls == []


def test_filtered_cardinality_no_match_keeps_typed_shape(ray_session,
                                                         items):
    """A filtered ungrouped ``cardinality`` aggregate whose filter matches
    nothing still returns its typed one-row result (`empty_aggregate.sql`)
    after the filtered input is materialized."""
    from paradedb_ray.pipelines.aggregate import sql_aggregate

    schema, t = items
    none = ast.Term("description", "zzznomatch")
    out = collect_table(sql_aggregate(
        _blocks(t, BLOCKS), [], {"n": ("count_star", None),
                                 "ratings": ("cardinality", "rating")},
        schema=schema, filter_query=none))
    assert out.schema == pa.schema([("n", pa.int64()),
                                    ("ratings", pa.int64())])
    assert out.to_pylist() == [{"n": 0, "ratings": 0}]


def test_filtered_grouped_cardinality_no_match_keeps_typed_shape(
        ray_session, items):
    """Grouped, the same zero-match aggregate is a zero-row table with
    the key and aggregate columns typed (it used to fail merging frames
    that had lost their columns, or return no schema)."""
    from paradedb_ray.pipelines.aggregate import sql_aggregate

    schema, t = items
    none = ast.Term("description", "zzznomatch")
    out = sql_aggregate(_blocks(t, BLOCKS), ["category"],
                        {"top": ("max", "rating"),
                         "ratings": ("cardinality", "rating")},
                        schema=schema, filter_query=none)
    assert out.count() == 0
    sch = out.schema()
    assert dict(zip(sch.names, sch.types)) == {
        "category": pa.string(), "top": pa.int32(), "ratings": pa.int64()}
    out = sql_aggregate(_blocks(t, BLOCKS), ["category"],
                        {"ratings": ("cardinality", "rating")},
                        schema=schema, filter_query=none)
    assert list(out.schema().names) == ["category", "ratings"]


def test_ungrouped_cardinality_no_match_keeps_value_types(ray_session,
                                                          items):
    """Ungrouped, a ``max`` beside a ``cardinality`` over zero matches
    keeps its column's type (it used to come back Arrow ``null``)."""
    from paradedb_ray.pipelines.aggregate import sql_aggregate

    schema, t = items
    none = ast.Term("description", "zzznomatch")
    out = collect_table(sql_aggregate(
        _blocks(t, BLOCKS), [], {"r": ("cardinality", "rating"),
                                 "m": ("max", "rating")},
        schema=schema, filter_query=none))
    assert out.schema == pa.schema([("r", pa.int64()), ("m", pa.int32())])
    assert out.to_pylist() == [{"r": 0, "m": None}]


def test_filter_clause_applies_to_cardinality(ray_session, items):
    """``FILTER (WHERE in_stock AND rating >= 4)`` on a ``cardinality``
    aggregate counts only the passing rows' distinct values, grouped and
    ungrouped; a group no row of which passes counts 0."""
    import pyarrow.compute as pc

    from paradedb_ray.pipelines.aggregate import sql_aggregate

    _, t = items
    filters = {"r": lambda b: pc.and_(
        b.column("in_stock"),
        pc.greater_equal(b.column("rating"), 4)).to_numpy(
            zero_copy_only=False)}
    aggs = {"n": ("count_star", None), "r": ("cardinality", "rating")}
    df = t.to_pandas()
    passing = df[df["in_stock"] & (df["rating"] >= 4)]
    want = (passing.groupby("category")["rating"].nunique()
            .reindex(df["category"].unique(), fill_value=0))
    assert (want == 0).any()  # a group whose every row is filtered out

    out = sql_aggregate(_blocks(t, BLOCKS), ["category"], aggs,
                        agg_filters=filters).to_pandas()
    got = out.set_index("category")
    assert got["r"].astype(int).to_dict() == want.to_dict()
    assert got["n"].astype(int).to_dict() == (
        df.groupby("category").size().to_dict())

    out = collect_table(sql_aggregate(_blocks(t, BLOCKS), [], aggs,
                                      agg_filters=filters))
    assert out.to_pylist() == [
        {"n": t.num_rows, "r": passing["rating"].nunique()}]
