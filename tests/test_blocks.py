"""Block handling (`stages/blocks.py`): the guarded driver collect, the
drop-empties concat, and the one-collect-path guard over the package."""

import ast
import pathlib

import pyarrow as pa
import pytest

import ray
import ray.data

PKG = pathlib.Path(__file__).resolve().parents[1] / "paradedb_ray"


def test_build_token_vocab_tiny_corpus(ray_session):
    # more reducers than distinct tokens: most reducer blocks are empty,
    # and Ray's map_batches hands them back schema-less
    from paradedb_ray.functions.vocab import build_token_vocab

    ds = ray.data.from_arrow([pa.table({"text": ["alpha alpha", "alpha"]})])
    vocab = build_token_vocab(ds, "text", top_v=4)
    assert list(zip(vocab.column("token").to_pylist(),
                    vocab.column("freq").to_pylist())) == [("alpha", 3)]


def test_collect_table_drops_schemaless_empty_blocks(ray_session):
    from paradedb_ray.stages.blocks import collect_table

    typed = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "s": pa.array(["a", "b"])})
    ds = ray.data.from_arrow_refs([ray.put(pa.table({})), ray.put(typed)])
    assert collect_table(ds).equals(typed)


def test_collect_table_all_empty_uses_schema(ray_session):
    from paradedb_ray.stages.blocks import collect_table

    sch = pa.schema([("token", pa.string()), ("freq", pa.int64())])
    ds = ray.data.from_arrow_refs([ray.put(pa.table({})),
                                   ray.put(pa.table({}))])
    assert collect_table(ds, sch).equals(sch.empty_table())


def test_range_join_empty_bands_dataset(ray_session):
    from paradedb_ray.pipelines.joins import range_join

    left = ray.data.from_arrow(pa.table({"rid": pa.array([1, 2], pa.int64()),
                                         "v": pa.array([5.0, 10.0])}))
    bands = ray.data.from_arrow(pa.table({
        "lo": pa.array([], pa.float64()), "hi": pa.array([], pa.float64()),
        "band": pa.array([], pa.string())}))
    joined = range_join(left, bands, "v", "lo", "hi")

    from paradedb_ray.stages.blocks import collect_table

    out = collect_table(joined)
    assert out.num_rows == 0
    assert out.schema == pa.schema([("rid", pa.int64()), ("v", pa.float64()),
                                    ("band", pa.string())])


def test_range_join_band_column_collision(ray_session):
    from paradedb_ray.pipelines.joins import range_join

    left = ray.data.from_arrow(pa.table({"v": [5.0], "band": ["x"]}))
    bands = pa.table({"lo": [0.0], "hi": [10.0], "band": ["low"]})
    with pytest.raises(ValueError, match="collide"):
        range_join(left, bands, "v", "lo", "hi")


def _raw_block_access(src: str) -> list:
    """Line numbers of ``ray.cluster_resources(...)`` calls and of
    ``ray.get(...)`` calls whose argument contains a ``.to_arrow_refs()``
    call."""
    def is_ray_attr(fn, name):
        return (isinstance(fn, ast.Attribute) and fn.attr == name
                and isinstance(fn.value, ast.Name) and fn.value.id == "ray")

    out = []
    for node in ast.walk(ast.parse(src)):
        if not isinstance(node, ast.Call):
            continue
        if is_ray_attr(node.func, "cluster_resources"):
            out.append(node.lineno)
        elif is_ray_attr(node.func, "get") and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "to_arrow_refs"
                for a in node.args for n in ast.walk(a)):
            out.append(node.lineno)
    return sorted(out)


def test_one_collect_path_guard():
    assert _raw_block_access(
        "import ray\n"
        "n = ray.cluster_resources().get('CPU', 8)\n"
        "t = ray.get(ds.to_arrow_refs())\n"
        "u = [x for x in ray.get(f(ds).to_arrow_refs()) if x.num_rows]\n"
        "v = ray.get(refs)\n") == [2, 3, 4]
    offenders = [
        f"{p.relative_to(PKG.parent)}:{line}"
        for p in sorted(PKG.rglob("*.py"))
        if p != PKG / "stages" / "blocks.py"
        for line in _raw_block_access(p.read_text())]
    assert offenders == [], (
        "collect Datasets with stages.blocks.collect_table and probe the "
        f"cluster with stages.blocks.cluster_cpus: {offenders}")


def _order_sites(src: str) -> list:
    """Line numbers of Ray ``Dataset.sort(...)`` calls (a ``.sort`` call
    with a positional argument that is not ``np.sort``: ``list.sort``
    takes keywords only) and of ``sort_indices(..., sort_keys=...)``
    calls."""
    out = []
    for node in ast.walk(ast.parse(src)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        fn = node.func
        if fn.attr == "sort" and node.args and not (
                isinstance(fn.value, ast.Name) and fn.value.id == "np"):
            out.append(node.lineno)
        elif fn.attr == "sort_indices" and any(
                k.arg == "sort_keys" for k in node.keywords):
            out.append(node.lineno)
    return sorted(out)


def _lines_of(src: str, func: str) -> range:
    [node] = [n for n in ast.walk(ast.parse(src))
              if isinstance(n, ast.FunctionDef) and n.name == func]
    return range(node.lineno, node.end_lineno + 1)


def test_one_order_path_guard():
    """Every ORDER BY sorts through ``stages/order.py::rank_head`` and
    merges through ``order_dataset``: no Ray ``Dataset.sort`` and no
    other Arrow ``sort_keys`` sort in the package."""
    assert _order_sites(
        "out = ds.sort(['k'], descending=True).limit(3)\n"
        "x = np.sort(v)\n"
        "ids.sort(key=len)\n"
        "i = pc.sort_indices(t, sort_keys=[('k', 'ascending')])\n"
        "j = pc.sort_indices(arr)\n") == [1, 4]
    kernel = PKG / "stages" / "order.py"
    allowed = _lines_of(kernel.read_text(), "rank_head")
    offenders = [
        f"{p.relative_to(PKG.parent)}:{line}"
        for p in sorted(PKG.rglob("*.py"))
        for line in _order_sites(p.read_text())
        if not (p == kernel and line in allowed)]
    assert offenders == [], (
        "order rows with stages.order.rank_head / sort_runs / group_heads "
        f"and merge with stages.order.order_dataset: {offenders}")
