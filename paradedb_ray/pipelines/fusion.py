"""Reciprocal Rank Fusion — the hybrid-search ranking combinator the
reference exercises as SQL CTEs over two ranked top-N subqueries
(`pg_search/tests/pg_regress/sql/reciprocal_rank_fusion.sql`,
`rrf_pushdown.sql`): each input ranking contributes ``1 / (k + rank)``
per key (RANK semantics — ties share a rank), contributions sum across
inputs, fused rows order by the summed score.

Scale shape: every input is an already-LIMITed top-N result (the
reference's CTEs cap at 20), so fusion runs on <= sum(N) rows — a
driver-side Arrow computation over bounded data, downstream of the
distributed search / knn top-k pipelines that produced the inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from paradedb_ray.stages.order import row_changes, run_offsets


def _to_table(x) -> pa.Table:
    if isinstance(x, pa.Table):
        return x
    if hasattr(x, "to_arrow_refs"):  # Dataset
        from paradedb_ray.stages.blocks import collect_table

        return collect_table(x)
    if hasattr(x, "to_pandas"):
        return pa.Table.from_pandas(x.to_pandas())
    return pa.table(x)


def _rank_with_ties(values: np.ndarray, descending: bool) -> np.ndarray:
    """SQL RANK(): 1-based, ties share the rank of their first row."""
    order = np.argsort(-values if descending else values, kind="stable")
    is_new = row_changes(pa.table({"v": values[order]}), ["v"])
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values)) - run_offsets(is_new) + 1
    return ranks


def rrf_fuse(inputs: list, k: int = 60,
             key_out: str = "key",
             limit: Optional[int] = None) -> pa.Table:
    """Fuse ranked results: ``inputs`` is a list of
    ``(table_or_dataset, key_col, score_col, descending)`` — each a
    bounded top-N ranking.  Returns ``(key_out, rrf_score)`` sorted by
    (rrf_score desc, key asc), optionally LIMITed.

    Matches the reference SQL exactly: per input,
    ``RANK() OVER (ORDER BY score_col [DESC])`` then
    ``SUM(1.0 / (k + rank)) GROUP BY key``.
    """
    scores: dict = {}
    for src, key_col, score_col, descending in inputs:
        t = _to_table(src)
        if t.num_rows == 0:
            continue
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        vals = t.column(score_col).to_numpy(zero_copy_only=False)
        ranks = _rank_with_ties(np.asarray(vals), bool(descending))
        contrib = 1.0 / (k + ranks)
        for key, c in zip(keys.tolist(), contrib.tolist()):
            scores[key] = scores.get(key, 0.0) + c
    if not scores:
        return pa.table({key_out: pa.array([], pa.int64()),
                         "rrf_score": pa.array([], pa.float64())})
    keys = list(scores)
    vals = np.array([scores[x] for x in keys], dtype=np.float64)
    order = np.lexsort((np.asarray(keys), -vals))
    t = pa.table({key_out: pa.array([keys[i] for i in order]),
                  "rrf_score": pa.array(vals[order], pa.float64())})
    return t.slice(0, limit) if limit is not None else t
