"""Block handling shared by every pipeline: the cluster-size probe, and
how Arrow blocks are concatenated, collected to the driver and reduced.

Ray Data emits schema-less 0-row blocks (an all-filtered ``map_batches``
batch, an empty shuffle reducer), and ``pa.concat_tables`` rejects a list
that mixes one with typed blocks.  :func:`concat_blocks` is the one place
that drops them, and :func:`collect_table` is the one driver-side collect
(a guard test keeps raw ``ray.get(ds.to_arrow_refs())`` collects and
``ray.cluster_resources()`` probes out of every other module).

``Dataset.to_arrow_refs()`` block ORDER is not stable under load: any
order-sensitive consumer of these helpers canonicalizes after collecting
(top-k merges re-sort, stats merges commute).  The distributed ORDER BY
over these helpers is ``stages/order.py::order_dataset``.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

import ray

#: tree-reduce fan-in for partial merges — depth is log32(B), so 10^6
#: blocks reduce in 4 task waves instead of a 10^6-iteration driver loop
_TREE_FANIN = 32


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster (8 before Ray is started).  Each
    caller applies its own clamp to size partitions or pools."""
    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


def concat_blocks(tabs, schema: Optional[pa.Schema] = None) -> pa.Table:
    """Concatenate Arrow blocks, dropping 0-row ones and promoting types.
    When every block is empty the result is ``schema``'s empty table if
    given, else the first block as is (``pa.table({})`` for no blocks)."""
    keep = [t for t in tabs if t.num_rows]
    if keep:
        return pa.concat_tables(keep, promote_options="default")
    if schema is not None:
        return schema.empty_table()
    return tabs[0] if len(tabs) else pa.table({})


def dataset_schema(ds, fetch: bool = False) -> Optional[pa.Schema]:
    """A Dataset's Arrow schema, or None when it has none.  Without
    ``fetch`` only what Ray already knows is read (call it after the
    Dataset has executed)."""
    s = ds.schema(fetch_if_missing=fetch)
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    return None if s is None else pa.schema(list(zip(s.names, s.types)))


def collect_table(ds, schema: Optional[pa.Schema] = None) -> pa.Table:
    """Collect a Dataset to the driver as one table: ONE batched
    ``ray.get`` over its blocks (a per-ref loop serializes on the
    driver), joined by :func:`concat_blocks`.  An all-empty result is
    ``schema``'s empty table, else the Dataset's own schema's."""
    tabs = ray.get(ds.to_arrow_refs())
    if schema is None and not any(t.num_rows for t in tabs):
        schema = dataset_schema(ds)
    return concat_blocks(tabs, schema)


def chunk_refs(refs: list) -> list:
    """Group block refs so raw-task count is O(CPUs), not O(blocks).

    At the 100-TB design point a corpus pass yields 10^5-10^6 packet
    blocks; one raw task per block puts a serial ~1 ms submission +
    scheduling floor per block on the driver (the round-4 microbench:
    2048 blocks cost 9.95 s of which the per-block task floor was the
    growth term).  Chunking to ~4 tasks per CPU keeps every core busy
    while the submission count stays flat in block count.  Per-chunk
    heads must stay supersets of each chunk's contribution to the global
    head, or results change at chunk boundaries."""
    target = 4 * cluster_cpus()
    group = max(1, -(-len(refs) // max(1, target)))
    return [refs[i:i + group] for i in range(0, len(refs), group)]


@ray.remote
def merge_blocks(fn, *tabs):
    """Apply ``fn`` to the :func:`concat_blocks` of a chunk of blocks."""
    return fn(concat_blocks(tabs))


def tree_reduce_refs(refs: list, merge_remote, *merge_args) -> list:
    """Generic O(log B) tree-reduce over object refs: repeatedly merge
    ``_TREE_FANIN`` neighbors (IN ORDER, so stable downstream sorts see
    the same element order as a flat concat) until one ref remains.
    ``merge_remote`` is a ``ray.remote`` fn called as
    ``merge_remote.remote(*merge_args, *children)``.  Returns the list
    (possibly empty) with a single surviving ref."""
    while len(refs) > 1:
        refs = [merge_remote.remote(*merge_args, *refs[i: i + _TREE_FANIN])
                for i in range(0, len(refs), _TREE_FANIN)]
    return refs
