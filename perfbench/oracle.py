"""Reference results, computed once and untimed, independently of the
timed path: top-k rows and f32 scores from ONE whole-corpus
``index.Searcher``, terms facets from the same hits, and grouped
aggregates from DuckDB over the same Parquet files."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from paradedb_ray.index import Searcher, build_segment

#: rank order shared by the engine, the pipeline and the reference
ORDER = [("score", "descending"), ("conv_id", "ascending"),
         ("turn_idx", "ascending")]
TOPK_COLUMNS = ["conv_id", "turn_idx", "score"]


def topk_rows(table: pa.Table) -> list:
    """(conv_id, turn_idx, score) tuples; f32 scores widen exactly."""
    if table.num_rows == 0:
        return []
    return list(zip(table.column("conv_id").to_pylist(),
                    table.column("turn_idx").to_pylist(),
                    np.asarray(table.column("score"), np.float32).tolist()))


def facet_rows(table: pa.Table, field: str) -> list:
    if table.num_rows == 0:
        return []
    return list(zip(table.column(field).to_pylist(),
                    table.column("doc_count").to_pylist()))


class Reference:
    """Whole-corpus searcher over ``table`` (global stats == local)."""

    def __init__(self, table: pa.Table, schema):
        self.seg = build_segment(table, schema)
        self.searcher = Searcher(self.seg, schema)
        self.schema = schema

    def total_tokens(self) -> int:
        return int(self.seg.text["text"].total_tokens)

    def _hits(self, query):
        from paradedb_ray.query import ast

        if isinstance(query, str):
            query = ast.Parse(query)
        return self.searcher.eval(query)

    def topk(self, query, k: int) -> list:
        hits = self._hits(query)
        t = self.seg.table.take(pa.array(np.asarray(hits.ids), pa.int64()))
        t = t.append_column("score", pa.array(np.asarray(hits.scores),
                                              pa.float32()))
        t = t.take(pc.sort_indices(t, sort_keys=ORDER).slice(0, k))
        return topk_rows(t)

    def facet(self, query, field: str) -> list:
        hits = self._hits(query)
        vals = self.seg.table.column(field).take(
            pa.array(np.asarray(hits.ids), pa.int64())).to_pylist()
        counts: dict = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))


def duckdb_grouped_count(parquet_dir: str, term: str) -> list:
    """``role, tool, count(*), count(DISTINCT conv_id)`` over turns whose
    lowercase, space-separated text contains ``term``."""
    import duckdb

    con = duckdb.connect()
    try:
        rows = con.execute(
            "SELECT role, tool, count(*) AS n, count(DISTINCT conv_id) "
            f"FROM read_parquet('{parquet_dir}/*.parquet') "
            "WHERE list_contains(string_split(text, ' '), ?) "
            "GROUP BY role, tool", [term]).fetchall()
    finally:
        con.close()
    return sorted(tuple(r) for r in rows)
