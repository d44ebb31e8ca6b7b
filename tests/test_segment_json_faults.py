"""A JSON value that does not parse has no path value and indexes no
tokens; any other fault while reading a JSON column raises instead of
silently turning into None or a zero count."""

import json

import pyarrow as pa
import pytest

from paradedb_ray.index.segment import Segment
from paradedb_ray.schema import mock_items_schema

_VALUES = ['{"color": "Silver Grey", "n": 3}', "{not json", None,
           '{"color": "Blue"}', "[1, 2"]


def _segment():
    table = pa.table({"metadata": pa.array(_VALUES, pa.string())})
    return Segment(num_docs=table.num_rows, table=table,
                   schema=mock_items_schema())


def test_malformed_json_reads_none_and_counts_zero():
    seg = _segment()
    assert list(seg.json_path_values("metadata", "color")) == [
        "Silver Grey", None, None, "Blue", None]
    # "silver", "grey", the numeric leaf, "blue": malformed rows add 0
    assert seg.json_total_tokens("metadata") == 4


def test_other_json_faults_raise(monkeypatch):
    def broken(*a, **k):
        raise RuntimeError("decoder fault")

    monkeypatch.setattr(json, "loads", broken)
    with pytest.raises(RuntimeError, match="decoder fault"):
        _segment().json_path_values("metadata", "color")
    with pytest.raises(RuntimeError, match="decoder fault"):
        _segment().json_total_tokens("metadata")
