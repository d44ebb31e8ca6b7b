"""Query strings are bound once: ``query.parser.bind`` turns every
``Parse`` / ``ParseWithField`` node into its parsed AST at each query
entry, and every query analysis recurses through ``ast.children``.

Guards: no ``parse_query_string`` call outside the parser; ``bind`` is
idempotent and copy-on-write; the analyses give the same answers on a
query string as before it was bound up front; no query string reaches a
``SegmentScorer``; MoreLikeThis resolution leaves the caller's tree
alone.
"""

import ast as pyast
import copy
import importlib
import pathlib

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from paradedb_ray.query import ast
from paradedb_ray.query.parser import bind
from paradedb_ray.schema import IndexSchema, mock_items_schema
from paradedb_ray.stages.search_stages import (SegmentScorer,
                                               collect_stat_requests,
                                               needs_positions,
                                               single_scan_terms)
from paradedb_ray.testing import mock_items_table

sp = importlib.import_module("paradedb_ray.pipelines.search")
PKG = pathlib.Path(__file__).resolve().parents[1] / "paradedb_ray"


def _parse_calls(src: str) -> list:
    """Line numbers of every ``parse_query_string(...)`` call in ``src``."""
    out = []
    for node in pyast.walk(pyast.parse(src)):
        if isinstance(node, pyast.Call):
            fn = node.func
            name = (fn.id if isinstance(fn, pyast.Name) else
                    fn.attr if isinstance(fn, pyast.Attribute) else None)
            if name == "parse_query_string":
                out.append(node.lineno)
    return out


def test_no_parse_query_string_outside_parser():
    assert _parse_calls(
        "from x import parse_query_string\n"
        "parse_query_string('a', s)\n"
        "parser.parse_query_string('a', s)\n"
        "parse('a')\n") == [2, 3]
    offenders = [f"{p.relative_to(PKG.parent)}:{line}"
                 for p in sorted(PKG.rglob("*.py"))
                 if p != PKG / "query" / "parser.py"
                 for line in _parse_calls(p.read_text())]
    assert offenders == [], (
        f"bind query strings through query.parser.bind: {offenders}")


def _unbound(q) -> bool:
    return isinstance(q, (ast.Parse, ast.ParseWithField)) or any(
        _unbound(c) for c in ast.children(q))


def test_bind_is_idempotent_and_copy_on_write():
    schema = mock_items_schema()
    inner = ast.Parse("running shoes")
    term = ast.Term("description", "shoes")
    q = ast.Boolean(must=[inner, term],
                    should=[ast.Boost(ast.ParseWithField(
                        "category", "electronics"), 2.0)],
                    must_not=[ast.ScoreFilter([(None, 1.0)])])
    before = copy.deepcopy(q)
    b = bind(q, schema)
    assert q == before and q.must[0] is inner
    assert not _unbound(b)
    assert b.must[1] is term and b.must_not[0] is q.must_not[0]
    assert b.must[0] == ast.Boolean(should=[
        ast.Term("description", "running"),
        ast.Term("description", "shoes")])
    assert b.should[0] == ast.Boost(ast.Term("category", "electronics"), 2.0)
    assert bind(b, schema) is b
    assert bind("running shoes", schema) == bind(inner, schema)
    assert bind(term, schema) is term


#: query strings and what the analyses answered for them when each
#: analysis parsed its own copy: (stat terms, stat fields,
#: needs_positions, single_scan_terms)
PARITY = [
    (ast.Parse("running shoes"),
     ([("description", "running"), ("description", "shoes")],
      ["description"], False, {"description": ["running", "shoes"]})),
    (ast.Parse("description:keyboard"),
     ([("description", "keyboard")], ["description"], False,
      {"description": ["keyboard"]})),
    (ast.Parse("category:electronics"),
     ([("category", "electronics")], ["category"], False, None)),
    (ast.Parse('"running shoes"'),
     ([("description", "running"), ("description", "shoes")],
      ["description"], True, {"description": ["running", "shoes"]})),
    (ast.Parse('"sleek running"~2'),
     ([("description", "running"), ("description", "sleek")],
      ["description"], True, {"description": ["running", "sleek"]})),
    (ast.Parse('"running sh"*'), ([], ["description"], True, None)),
    (ast.Parse("rating:[2 TO 4]"), ([], [], False, None)),
    (ast.Parse("rating:>3"), ([], [], False, None)),
    (ast.Parse("id:3"), ([("id", 3)], ["id"], False, None)),
    (ast.Parse("shoes AND NOT keyboard"),
     ([("description", "keyboard"), ("description", "shoes")],
      ["description"], False, {"description": ["keyboard", "shoes"]})),
    (ast.Parse("+shoes -keyboard plastic^2"),
     ([("description", "keyboard"), ("description", "plastic"),
       ("description", "shoes")], ["description"], False,
      {"description": ["keyboard", "plastic", "shoes"]})),
    (ast.Parse("key*"), ([], [], False, None)),
    (ast.Parse("shoez~1"), ([], [], False, None)),
    (ast.Parse("description:IN [shoes keyboard]"),
     ([], [], False, {"description": ["keyboard", "shoes"]})),
    (ast.Parse("shoes keyboard", conjunction_mode=True),
     ([("description", "keyboard"), ("description", "shoes")],
      ["description"], False, {"description": ["keyboard", "shoes"]})),
    (ast.Parse('"unclosed', lenient=True), ([], [], False, None)),
    (ast.ParseWithField("description", "[1 2]", lenient=True),
     ([], [], False, None)),
    (ast.ParseWithField("description", "running shoes"),
     ([("description", "running"), ("description", "shoes")],
      ["description"], False, {"description": ["running", "shoes"]})),
    (ast.ParseWithField("description", '"running shoes"'),
     ([("description", "running"), ("description", "shoes")],
      ["description"], True, {"description": ["running", "shoes"]})),
    (ast.ParseWithField("category", "electronics"),
     ([("category", "electronics")], ["category"], False, None)),
    (ast.ParseWithField("metadata.color", "white"),
     ([("metadata.color", "white")], ["metadata"], False, None)),
    (ast.Boolean(must=[ast.Parse("running")],
                 should=[ast.ParseWithField("category", "electronics")],
                 must_not=[ast.Parse('"plastic keyboard"')]),
     ([("category", "electronics"), ("description", "keyboard"),
       ("description", "plastic"), ("description", "running")],
      ["category", "description"], True, None)),
    (ast.Boost(ast.Parse("shoes"), 2.0),
     ([("description", "shoes")], ["description"], False,
      {"description": ["shoes"]})),
    (ast.ConstScore(ast.ParseWithField("description", "shoes"), 1.0),
     ([("description", "shoes")], ["description"], False,
      {"description": ["shoes"]})),
    (ast.ScoreFilter([(1.0, None)], ast.Parse("shoes")),
     ([("description", "shoes")], ["description"], False,
      {"description": ["shoes"]})),
    (ast.DisjunctionMax([ast.Parse("shoes"),
                         ast.Term("description", "keyboard")]),
     ([("description", "keyboard"), ("description", "shoes")],
      ["description"], False, {"description": ["keyboard", "shoes"]})),
    (ast.HeapFilter(ast.Parse("shoes"), sql="rating > 2"),
     ([("description", "shoes")], ["description"], False, None)),
]


@pytest.mark.parametrize("i", range(len(PARITY)))
def test_analyses_of_query_strings_unchanged(i):
    schema = mock_items_schema()
    q, want = PARITY[i]
    r = collect_stat_requests(q, schema)
    m = single_scan_terms(q, schema)
    got = (sorted(r["terms"], key=repr), sorted(r["fields"]),
           needs_positions(q, schema),
           None if m is None else {k: sorted(v) for k, v in m.items()})
    assert got == want
    b = bind(q, schema)
    assert collect_stat_requests(b, schema) == r
    assert single_scan_terms(b, schema) == m


@pytest.fixture
def items_ds(ray_session):
    return ray.data.from_arrow(mock_items_table()).repartition(3)


def test_no_query_string_reaches_a_scorer(items_ds, monkeypatch):
    schema = mock_items_schema()
    seen = []
    init = SegmentScorer.__init__

    def recording_init(self, schema, queries, *a, **kw):
        seen.extend(queries.values())
        init(self, schema, queries, *a, **kw)

    monkeypatch.setattr(SegmentScorer, "__init__", recording_init)
    hits = sp.search(items_ds, schema, "running shoes").take_all()
    assert sorted(r["id"] for r in hits) == [3, 4, 5]
    top = sp.search_topk_multi(items_ds, schema, {
        "a": "running shoes",
        "b": ast.ParseWithField("category", "electronics"),
        "c": ast.Boolean(must=[ast.Parse("shoes")],
                         should=[ast.Parse('"running shoes"')]),
    }, 3, output_columns=["id", "score"]).take_all()
    assert {r["query_id"] for r in top} == {"a", "b", "c"}
    topk, facet = sp.search_topk_with_facet(
        items_ds, schema, ast.ParseWithField("description", "shoes"), 2,
        "category")
    assert topk.num_rows == 2 and facet.num_rows
    assert len(seen) >= 5
    assert not [q for q in seen if _unbound(q)]


def test_invalid_query_string_raises_at_the_entry(ray_session):
    schema = mock_items_schema()
    empty = ray.data.from_arrow(mock_items_table().slice(0, 0))
    bad = ast.Parse('"unclosed')
    for call in (lambda: sp.search(empty, schema, bad, with_score=False),
                 lambda: sp.search_count(empty, schema, bad),
                 lambda: sp.search_topk(empty, schema, bad, 3)):
        with pytest.raises(ValueError):
            call()


def test_filtered_knn_binds_its_filter(ray_session):
    from paradedb_ray.pipelines.knn import filtered_knn

    rng = np.random.RandomState(3)
    mat = rng.randn(40, 4).astype(np.float32)
    t = pa.table({
        "vec_id": pa.array(np.arange(40), pa.int64()),
        "label": pa.array(["wind" if i % 2 else "fire"
                           for i in range(40)]),
        "embedding": pa.array(mat.tolist(), pa.list_(pa.float32()))})
    schema = IndexSchema.build(
        key_field="vec_id", label={"type": "text"},
        embedding={"type": "vector", "dim": 4, "metric": "l2"})
    ds = ray.data.from_arrow(t).repartition(2)
    out = filtered_knn(ds, schema, "embedding", mat[1], "<->", k=5,
                       filter_query=ast.ParseWithField("label", "wind"))
    ids = out.to_pandas()["vec_id"].tolist()
    assert ids[0] == 1 and all(i % 2 for i in ids)
    with pytest.raises(ValueError):
        filtered_knn(ds, schema, "embedding", mat[1], "<->", k=5,
                     filter_query=ast.ParseWithField("label", '"unclosed'))


def test_mlt_resolution_leaves_the_callers_query_alone(ray_session):
    schema = mock_items_schema()
    t = mock_items_table()
    desc = t.column("description").to_pylist()
    desc[t.column("id").to_pylist().index(3)] = "other words here"
    t2 = t.set_column(t.schema.get_field_index("description"),
                      t.schema.field("description"),
                      pa.array(desc, t.schema.field("description").type))
    mlt = ast.MoreLikeThis(key_value=3)
    q = ast.Boolean(must=[mlt])
    r1 = sp.resolve_more_like_this(ray.data.from_arrow(t), schema, q)
    assert q.must[0] is mlt and mlt.document_fields is None
    assert ("description", "Sleek running shoes") in r1.must[0].document_fields
    r2 = sp.resolve_more_like_this(ray.data.from_arrow(t2), schema, q)
    assert ("description", "other words here") in r2.must[0].document_fields
    assert q.must[0] is mlt and mlt.document_fields is None
