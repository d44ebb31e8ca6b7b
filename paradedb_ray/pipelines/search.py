"""Distributed one-shot search over a ``ray.data.Dataset`` — the Dataset
analogue of pg_search's custom scan (SURVEY §3.2):

    stats pass (global stats exchange)  ->  broadcast stats
    scoring pass (map_batches, zero-copy Arrow, per-block segment)
    [top-k: per-block prune -> small global sort+limit]

No full materialization: the scoring pass streams; only the pruned
candidate set (≤ limit × blocks) reaches the final merge-rank.  Every
top-k runs through one driver (``_topk``): ``search_topk`` is its
one-query case and ``search_topk_multi`` its many-query case.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from paradedb_ray.query import ast
from paradedb_ray.query.parser import bind
from paradedb_ray.schema import IndexSchema
from paradedb_ray.stages import search_stages
from paradedb_ray.stages.blocks import (chunk_refs, collect_table,
                                        dataset_schema, merge_blocks)
from paradedb_ray.stages.order import (order_dataset, rank_head, run_offsets,
                                       sort_runs)
from paradedb_ray.stages.search_stages import (QueryPacketBuilder,
                                               SegmentScorer,
                                               _merge_stats_parts,
                                               compute_global_stats,
                                               needs_positions, query_vocab,
                                               single_scan_terms, terms_facet)


SortKey = tuple  # (column, "ascending"|"descending"); "score" allowed


def _prune_columns(ds, schema: IndexSchema, queries, output_columns,
                   snippet_cfgs=None,
                   extra: Sequence[str] = ()) -> "ray.data.Dataset":
    """Projection pushdown: select only the columns the (bound) queries
    evaluate + the requested outputs ("prune at the read").  Skipped when
    outputs are unconstrained or a query carries an opaque HeapFilter
    predicate."""
    if not output_columns:
        return ds

    def walk(q, acc: set) -> bool:
        if isinstance(q, ast.HeapFilter):
            return False  # opaque predicate: unknown column needs
        if not all(walk(c, acc) for c in ast.children(q)):
            return False
        f = getattr(q, "field", None)
        if isinstance(f, str):
            acc.add(f.split(".")[0])
        if isinstance(q, ast.MoreLikeThis):
            acc.update(schema.default_search_fields)
            for fld, _ in (q.document_fields or ()):
                acc.add(fld.split(".")[0])
        if isinstance(q, ast.TermSetMulti):
            acc.update(fld.split(".")[0] for fld, _ in q.terms)
        return True

    need: set = set(extra)
    if not all(walk(q, need) for q in queries):
        return ds
    need |= {c for c in output_columns if c != "score"}
    for cfg in snippet_cfgs or ():
        need.add(cfg.field.split(".")[0])  # dotted JSON path -> base column
    need |= set(schema.key_fields)
    cols = [c for c in ds.schema().names if c in need]
    if len(cols) < len(ds.schema().names):
        return ds.select_columns(cols)
    return ds


def _rows_with_key(batch, key: str, value):
    return batch.filter(pc.equal(batch.column(key), value))


def resolve_more_like_this(ds: ray.data.Dataset, schema: IndexSchema,
                           query: ast.Query) -> ast.Query:
    """Rewrite MoreLikeThis ``key_value`` exemplars into ``document_fields``
    by fetching the exemplar row once on the driver (the reference looks the
    document up in the index the same way,
    `api/builder_fns/mlt.rs:28-100`).  Returns a copy: ``query`` itself is
    never changed, so it resolves afresh against another Dataset."""
    from paradedb_ray.schema import JSON as _JSON

    def resolve(q):
        if not (isinstance(q, ast.MoreLikeThis) and q.key_value is not None
                and not q.document_fields):
            return q
        for fname in q.fields or ():
            fdef = schema.fields.get(fname)
            if fdef is not None and fdef.ftype == _JSON:
                # reference: ERROR `json fields are not supported for
                # more_like_this` (more_like_this.sql regress)
                raise ValueError(
                    "json fields are not supported for more_like_this")
        key = schema.key_fields[0]
        # small pushdown filter: only the exemplar row leaves the read
        matches = ds.map_batches(
            _rows_with_key, fn_kwargs={"key": key, "value": q.key_value},
            batch_format="pyarrow", batch_size=None).take(1)
        if not matches:
            return dataclasses.replace(q, document_fields=[])
        r = matches[0]
        # field-less MLT uses every indexed non-JSON field (numeric /
        # keyword values count as single terms, JSON and list columns
        # are skipped — more_like_this.sql regress incl. issue #5826)
        wanted = (list(q.fields) if q.fields else
                  [f.name for f in schema.fields.values()
                   if f.ftype != _JSON and f.indexed
                   and f.name not in schema.key_fields])
        return dataclasses.replace(q, document_fields=[
            (fname, r.get(fname)) for fname in wanted
            if fname in schema.fields and r.get(fname) is not None])

    return ast.rewrite(query, resolve)


def _matches_need_stats(q: ast.Query) -> bool:
    """Whether ``q``'s match set depends on the corpus stats.  A
    ``ScoreFilter`` keeps hits by score, and ``MoreLikeThis`` picks its
    terms by document frequency (``min/max_doc_frequency`` and the
    ``max_query_terms`` cut), so segment-local stats would make either
    depend on the block layout.  Every other node matches the same docs
    under any stats.  A query string never parses to either node, so
    an unbound tree answers the same."""
    return isinstance(q, (ast.ScoreFilter, ast.MoreLikeThis)) or any(
        _matches_need_stats(c) for c in ast.children(q))


def search(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    query: Union[ast.Query, str],
    *,
    with_score: bool = True,
    snippet_cfgs: Optional[list] = None,
    output_columns: Optional[list] = None,
    stats=None,
) -> ray.data.Dataset:
    """Filter ``ds`` to rows matching ``query``; appends ``score`` (f32).

    ``query`` may be an AST node or a query string (parsed over the
    schema's default search fields, i.e. ``paradedb.parse``).  Every
    query string in it is bound (``parser.bind``) once, on the driver:
    an invalid non-lenient one raises ``ValueError`` here.

    The stats pass runs only when something reads a score: it is skipped
    when ``with_score=False``, no ``snippet_cfgs`` and no ``stats`` are
    given and no ``ScoreFilter`` or ``MoreLikeThis`` sits anywhere in
    ``query``.  Each block then matches with its own segment-local stats,
    which select the same rows (a term absent from a block has no
    postings there under any stats).
    """
    query = resolve_more_like_this(ds, schema, bind(query, schema))
    ds = _prune_columns(ds, schema, [query], output_columns, snippet_cfgs)
    if stats is None and (with_score or snippet_cfgs
                          or _matches_need_stats(query)):
        stats = compute_global_stats(ds, schema, query)
    scorer = SegmentScorer(schema, {"q": query}, stats,
                           with_score=with_score, snippet_cfgs=snippet_cfgs,
                           columns=output_columns)
    return ds.map_batches(scorer, batch_format="pyarrow", batch_size=None)


def _result_schema(base, columns, with_score: bool, snippet_cfgs=None):
    """The exact Arrow schema the top-k scorer emits: base columns
    (+``score`` f32, +snippet columns typed by mode), restricted to
    ``columns`` when given, +``query_id``.  Needed up front so an
    all-empty result keeps its schema."""
    snip = {}
    for cfg in (snippet_cfgs or []):
        snip[cfg.output_name] = (
            pa.string() if cfg.mode == "single"
            else pa.list_(pa.list_(pa.int64())) if cfg.mode == "positions"
            else pa.list_(pa.string()))
    names = columns if columns is not None else (
        list(base.names) + (["score"] if with_score else [])
        + list(snip))
    fields = []
    for c in names:
        if c == "score":
            fields.append(pa.field("score", pa.float32()))
        elif c in snip:
            fields.append(pa.field(c, snip[c]))
        else:
            fields.append(base.field(c))
    fields.append(pa.field("query_id", pa.string()))
    return pa.schema(fields)


def _single_scan_scored(ds, schema: IndexSchema, queries: dict, columns,
                        make_scorer):
    """The single-scan standing-query path, or None when any query is
    ineligible.  ONE corpus pass builds per-block packets (query-term
    postings + fieldnorms + candidate docstore rows + exact partial
    stats); the packet dataset is materialized (the global-stats barrier
    — bounded by query selectivity, not corpus size), stats tree-reduce
    in O(log B) task waves from the tiny partials, and a second pass
    over the packets alone scores them with ``make_scorer(queries,
    stats)`` — the ordinary Searcher, bit-exact f32 vs the two-pass
    route.  Returns the scored per-block-pruned dataset.

    Scale note: the packet barrier buffers O(matching docs x projected
    columns) + O(query-term occurrences) in the (disk-spillable) object
    store — NOT the corpus.  To keep that product bounded the path only
    engages with an explicit column projection; a SELECT-*-shaped query
    falls back to the two-pass route, which buffers nothing."""
    if columns is None:
        return None
    terms_by_field = query_vocab(queries.values(), schema)
    if not terms_by_field:
        return None

    store_pos = any(needs_positions(q, schema) for q in queries.values())
    keep = [c for c in columns if c != "score"]
    src = ds.select_columns(sorted(set(keep) | set(terms_by_field)))
    packets = src.map_batches(
        QueryPacketBuilder(schema, terms_by_field, store_pos, keep),
        batch_format="pyarrow", batch_size=None,
    ).materialize()
    # post-packet work runs as RAW tasks over the materialized blocks —
    # three extra Dataset launches (partial select, scorer map,
    # merge repartition) cost ~0.1-0.3 s of fixed overhead EACH at 32
    # CPUs, a pure Amdahl tax on the N -> 4N scaling of a phase whose
    # distributed part is already sub-second.  The stats partials merge
    # through the same O(log B) fan-in-32 tree as compute_global_stats
    # (integer sums: associative, bit-identical to a flat loop) — at the
    # 10^5-10^6 block counts of the 100-TB design point a serial driver
    # loop here would be the bottleneck.  Each chunk of packet blocks is
    # one leaf, so the task count tracks cluster CPUs, not block count.
    # reduce_stats_partials is looked up on its module at call time, so
    # a wrapper installed there (perfbench's stats_reduce layer) sees it
    chunks = chunk_refs(packets.to_arrow_refs())
    stats = search_stages.reduce_stats_partials(
        [_merge_stats_parts.remote(*ch) for ch in chunks])
    # ray.put once: the scorer carries the full global stats — inlining
    # it re-serializes per task submission
    score = ray.put(make_scorer(queries, stats).score_packets)
    return ray.data.from_arrow_refs(
        [merge_blocks.remote(score, *ch) for ch in chunks])


def _topk(ds, schema: IndexSchema, queries: dict, limit: int, order_by, *,
          offset: int = 0, with_score: bool = True, snippet_cfgs=None,
          output_columns=None, stats=None,
          query_id: bool = True) -> ray.data.Dataset:
    """The one batch top-k: per-block scoring with a per-block prune, then
    chunked level-1 keeps and ONE final per-query merge-rank.

    Known-term queries score off one corpus pass (single scan); the
    vocab-expansion / non-TEXT remainder pays the classic stats+scoring
    double scan.  Caller-supplied ``stats`` and ``snippet_cfgs`` force
    the two-pass route.  Rows carry the ORDER BY columns until the final
    merge, which projects to ``output_columns`` (+``query_id`` unless
    ``query_id`` is False)."""
    queries = {name: resolve_more_like_this(ds, schema, bind(q, schema))
               for name, q in queries.items()}
    order_by = (list(order_by) if order_by is not None
                else [("score", "descending")])
    need = limit + offset
    sort_cols = [k[0] for k in order_by]
    want_score = with_score or "score" in sort_cols
    columns = (None if output_columns is None
               else list(dict.fromkeys(list(output_columns) + sort_cols)))
    rank_schema = _result_schema(dataset_schema(ds, fetch=True), columns,
                                 want_score, snippet_cfgs)
    final_cols = (list(output_columns) if output_columns is not None
                  else rank_schema.names[:-1])
    if query_id:
        final_cols.append("query_id")
    if not queries:
        return ray.data.from_arrow(rank_schema.empty_table().select(
            final_cols))

    def make_scorer(qs: dict, stats) -> SegmentScorer:
        return SegmentScorer(schema, qs, stats, with_score=want_score,
                             snippet_cfgs=snippet_cfgs, prune_limit=need,
                             sort_keys=order_by, columns=columns,
                             query_id=True, out_schema=rank_schema)

    parts = []
    rest = queries
    if stats is None and not snippet_cfgs:
        eligible = {n: q for n, q in queries.items()
                    if single_scan_terms(q, schema) is not None}
        fast = (_single_scan_scored(ds, schema, eligible, columns,
                                    make_scorer) if eligible else None)
        if fast is not None:
            parts.append(fast)
            rest = {n: q for n, q in queries.items() if n not in eligible}
    if rest:
        ds = _prune_columns(ds, schema, rest.values(), output_columns,
                            snippet_cfgs,
                            extra=[c for c in sort_cols if c != "score"])
        if stats is None:
            stats = compute_global_stats(ds, schema, list(rest.values()))
        parts.append(ds.map_batches(make_scorer(rest, stats),
                                    batch_format="pyarrow", batch_size=None))
    scored = parts[0]
    for extra in parts[1:]:
        scored = scored.union(extra)

    # Merge-rank: the per-block prune already bounds the candidate set to
    # <= need x blocks x |queries| rows, so the global ORDER BY is one
    # raw merge over single-block Arrow sorts — ds.stats() showed Ray's
    # two-phase SortMap/SortReduce shuffle costing ~75% of a small
    # query's wall time on a few hundred pruned rows.
    return order_dataset(scored, order_by, limit, offset=offset,
                         keys=["query_id"], columns=final_cols,
                         schema=rank_schema)


def search_topk(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    query: Union[ast.Query, str],
    limit: int,
    order_by: Optional[Sequence[SortKey]] = None,
    *,
    offset: int = 0,
    with_score: bool = True,
    snippet_cfgs: Optional[list] = None,
    output_columns: Optional[list] = None,
    stats=None,
) -> ray.data.Dataset:
    """Top-k search: ORDER BY (score desc by default, or fast-field keys with
    up to 4 tie-breakers — `index/reader/index.rs:881-1090`) LIMIT k.

    Per-block top-k pruning bounds the shuffle to ``limit`` rows per block
    before the global sort+limit (per-segment top-k + merge-rank).  The
    one-query case of :func:`search_topk_multi`, without ``query_id``.
    """
    return _topk(ds, schema, {"q": query}, limit, order_by, offset=offset,
                 with_score=with_score, snippet_cfgs=snippet_cfgs,
                 output_columns=output_columns, stats=stats, query_id=False)


def search_topk_multi(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    queries: dict,
    limit: int,
    order_by: Optional[Sequence[SortKey]] = None,
    *,
    with_score: bool = True,
    output_columns: Optional[list] = None,
) -> ray.data.Dataset:
    """Top-k for MANY standing queries in two dataset passes total.

    One shared stats pass (union of every query's stat requests) and one
    scoring pass that builds each block's segment once and evaluates all
    queries against it — the batch analogue of standing queries over a
    persistent index.  Output carries a ``query_id`` column; each query's
    rows are its global top-``limit`` under ``order_by``.
    """
    return _topk(ds, schema, queries, limit, order_by, with_score=with_score,
                 output_columns=output_columns)


def reciprocal_rank_fusion(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    queries: dict,
    key_cols: list,
    k: int = 60,
    per_query_limit: int = 100,
    limit: int = 10,
) -> ray.data.Dataset:
    """RRF over several BM25 rankings: ``score = Σ_q 1/(k + rank_q)``.

    The reference implements RRF as plain SQL over ``pdb.score``
    (`pg_search/tests/pg_regress/sql/reciprocal_rank_fusion.sql:31-60`);
    here the per-query rankings come from one shared multi-query pass and
    the fusion itself is a small groupby over the pruned candidates."""
    ranked = search_topk_multi(
        ds, schema, queries, limit=per_query_limit,
        order_by=[("score", "descending")] + [(c, "ascending")
                                              for c in key_cols],
        output_columns=list(key_cols) + ["score"])

    def fuse(t: pa.Table) -> pa.Table:
        """Rank per query + RRF sum + final head, in ONE task — the
        candidate set is <= |queries| x per_query_limit rows, so two
        Dataset groupby launches were pure fixed overhead."""
        if t.num_rows == 0:
            return t.select(key_cols).append_column(
                "rrf_score", pa.array([], pa.float64()))
        t, start = sort_runs(t, ["query_id"], [("score", "descending")]
                             + [(c, "ascending") for c in key_cols])
        rank = run_offsets(start) + 1
        part = t.select(key_cols).append_column(
            "rrf_part", pa.array(1.0 / (k + rank), pa.float64()))
        g = part.group_by(key_cols).aggregate([("rrf_part", "sum")])
        g = pa.table({**{c: g.column(c) for c in key_cols},
                      "rrf_score": g.column("rrf_part_sum")})
        return rank_head(g, [("rrf_score", "descending")]
                         + [(c, "ascending") for c in key_cols], limit)

    refs = ranked.to_arrow_refs()
    merged = merge_blocks.remote(fuse, *refs)
    return ray.data.from_arrow_refs([merged])


def search_topk_with_facet(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    query: Union[ast.Query, str],
    limit: int,
    facet_field: str,
    order_by: Optional[Sequence[SortKey]] = None,
    output_columns: Optional[list] = None,
):
    """ONE scoring pass producing BOTH the global top-k hits and a terms
    facet over the full match set (the reference's single-pass
    `TopKAuxiliaryCollector`, `index/reader/index.rs:330-343` +
    `topk-agg-facet.sql`): each block emits its pruned candidates AND its
    facet partial as tagged rows; both outputs are tiny, so the fan-out is
    a split of the scored blocks, not a second scan.  Returns
    ``(topk pa.Table, facet pa.Table)``."""
    import numpy as np

    query = resolve_more_like_this(ds, schema, bind(query, schema))
    order_by = (list(order_by) if order_by is not None
                else [("score", "descending")])
    sort_cols = [k[0] for k in order_by]
    ds = _prune_columns(ds, schema, [query], output_columns,
                        extra=[c for c in sort_cols if c != "score"]
                        + [facet_field])
    scorer = SegmentScorer(schema, {"q": query},
                           compute_global_stats(ds, schema, query))
    # block heads carry the ORDER BY columns to the final merge; the
    # result projects to ``output_columns``
    keep = (list(dict.fromkeys(list(output_columns) + sort_cols))
            if output_columns else None)

    def project(hits: pa.Table, cols) -> pa.Table:
        if not cols:
            return hits
        return hits.select([c for c in cols if c in hits.column_names])

    # partials ride as an ARROW-NATIVE tagged-row table (no pickle:
    # zero-copy through plasma, VERDICT r4 nit #4):
    # __kind 0 rows are pruned top-k candidates (hit columns; facet
    # helpers null), __kind 1 rows are facet partials (__fv value,
    # __fn count; hit columns null) — concat with promotion builds the
    # union layout for free
    def _tag(hit: pa.Table, fvals, fcnts) -> pa.Table:
        hit_t = hit.append_column(
            "__kind", pa.array(np.zeros(hit.num_rows, np.int8)))
        facet_t = pa.table({
            "__fv": fvals,
            "__fn": fcnts,
            "__kind": pa.array(np.ones(len(fvals), np.int8)),
        })
        return pa.concat_tables([hit_t, facet_t],
                                promote_options="default")

    def score_block(batch: pa.Table) -> pa.Table:
        hits = scorer(batch)
        # facet partial over ALL matches of this block (vectorized)
        vc = pc.value_counts(hits.column(facet_field).combine_chunks())
        if hits.num_rows > limit:
            hits = rank_head(hits, order_by, limit)
        return _tag(project(hits, keep), vc.field("values"),
                    vc.field("counts").cast(pa.int64()))

    def rows_of(t: pa.Table, kind: int) -> pa.Table:
        if "__kind" not in t.column_names:
            return t
        t = t.filter(pc.equal(t.column("__kind"), kind))
        return (t.drop_columns(["__fv", "__fn", "__kind"]) if kind == 0
                else t.select(["__fv", "__fn"]))

    # the one scoring pass, kept: its block heads merge through the one
    # distributed ORDER BY, its facet partials sum after the collect
    tagged = ds.map_batches(score_block, batch_format="pyarrow",
                            batch_size=None).materialize()

    def part(kind: int):
        return tagged.map_batches(rows_of, fn_kwargs={"kind": kind},
                                  batch_format="pyarrow", batch_size=None)

    topk = project(collect_table(order_dataset(part(0), order_by, limit)),
                   output_columns)
    ft = collect_table(part(1))
    counts = {}
    if ft.num_rows:
        agg = ft.group_by(["__fv"], use_threads=False).aggregate(
            [("__fn", "sum")])
        counts = dict(zip(agg.column("__fv").to_pylist(),
                          agg.column("__fn_sum").to_pylist()))
    return topk, terms_facet(facet_field, [counts])


def search_count(
    ds: ray.data.Dataset,
    schema: IndexSchema,
    query: Union[ast.Query, str],
    stats=None,
) -> int:
    """COUNT(*) of matching rows (aggregate pushdown fast path,
    `aggregatescan` COUNT(*): only per-block counts leave the workers,
    never the matched rows).  Like :func:`search` with
    ``with_score=False``, it makes a stats pass only for a query whose
    match set reads stats."""
    from paradedb_ray.index.searcher import Searcher
    from paradedb_ray.index.segment import build_segment

    query = resolve_more_like_this(ds, schema, bind(query, schema))
    ds = _prune_columns(ds, schema, [query],
                        output_columns=list(schema.key_fields) or None)
    if stats is None and _matches_need_stats(query):
        stats = compute_global_stats(ds, schema, query)
    store_pos = needs_positions(query, schema)
    vocab = query_vocab([query], schema)

    def count_block(batch: pa.Table) -> pa.Table:
        seg = build_segment(batch, schema, store_positions=store_pos,
                            terms=vocab)
        hits = Searcher(seg, schema, stats).eval(query)
        return pa.table({"n": pa.array([len(hits)], pa.int64())})

    total = ds.map_batches(count_block, batch_format="pyarrow",
                           batch_size=None).sum("n")
    return int(total or 0)
