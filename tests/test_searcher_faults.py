"""A query value no NUMERIC can hold (NaN and Infinity included) matches
no row and counts df 0, and a range cell that does not parse or unpack is
no range; any other fault while reading either raises instead of
silently turning into an empty match."""

import decimal
import json

import pyarrow as pa
import pytest

import paradedb_ray.numeric as numeric
from paradedb_ray.index.searcher import Searcher
from paradedb_ray.index.segment import build_segment
from paradedb_ray.query import ast
from paradedb_ray.schema import NUMERIC, IndexSchema

_RANGES = ['[["inclusive", 2], ["exclusive", 10]]', "{not json", "5",
           "[1, 2, 3]", None, '[["exclusive", 4], ["inclusive", null]]']


def _searcher():
    schema = IndexSchema.build(key_field="id",
                               price={"type": NUMERIC, "scale": 2},
                               amount={"type": NUMERIC})
    n = len(_RANGES)
    dec = pa.array([decimal.Decimal(i) + decimal.Decimal("0.5")
                    for i in range(n)], pa.decimal128(10, 2))
    table = pa.table({"id": pa.array(range(n), pa.int64()), "price": dec,
                      "amount": dec,
                      "weight_range": pa.array(_RANGES, pa.string())})
    return Searcher(build_segment(table, schema), schema)


@pytest.mark.parametrize("field", ["price", "amount"])
def test_unrepresentable_numeric_term_matches_nothing(field):
    s = _searcher()
    assert s.eval(ast.Term(field, "1.5")).ids.tolist() == [1]
    scale = s.schema.field(field).scale
    for bad in ("abc", "NaN", "Infinity"):
        assert len(s.eval(ast.Term(field, bad))) == 0, bad
        # the stats side counts it 0 as well
        assert numeric.numeric_term_count(s.seg.column(field), bad,
                                          scale) == 0, bad


def test_malformed_range_cells_read_invalid():
    s = _searcher()
    valid = s._range_cells("weight_range")[-1]
    assert valid.tolist() == [True, False, False, False, False, True]
    assert s.eval(ast.RangeTerm(field="weight_range",
                                value=3)).ids.tolist() == [0]
    assert s.eval(ast.RangeTerm(field="weight_range",
                                value=7)).ids.tolist() == [0, 5]


def _broken(*a, **k):
    raise RuntimeError("decoder fault")


@pytest.mark.parametrize("attr", ["scale_i64", "numeric_bytes"])
def test_other_numeric_faults_raise(monkeypatch, attr):
    field = "price" if attr == "scale_i64" else "amount"
    s = _searcher()
    # encode the column first: only the query value meets the fault
    assert len(s.eval(ast.Term(field, "1.5"))) == 1
    monkeypatch.setattr(numeric, attr, _broken)
    with pytest.raises(RuntimeError, match="decoder fault"):
        s.eval(ast.Term(field, "1.5"))


def test_other_range_faults_raise(monkeypatch):
    s = _searcher()
    monkeypatch.setattr(json, "loads", _broken)
    with pytest.raises(RuntimeError, match="decoder fault"):
        s.eval(ast.RangeTerm(field="weight_range", value=3))
