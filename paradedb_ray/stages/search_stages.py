"""Ray Data stages for the distributed scoring path.

Two-pass model (the Dataset-native analogue of pg_search's scan with
searcher-global statistics, SURVEY §5 "BM25 parity requirements"):

1. **stats pass** — ``map_batches(StatsCollector)`` builds each block's
   segment over the requested TEXT terms only and reads its partial
   statistics off it with :func:`segment_stats` (num docs, per-field
   token totals, per-term doc freqs = postings lengths, for exactly the
   terms the query needs); the driver reduces the tiny partials into one
   ``GlobalStats`` — this is the global stats exchange.  The single-scan
   packets (:func:`build_query_segment`) and the streaming partitions
   (``Bm25PartitionStore.stats_partial``) take their partials with the
   same :func:`segment_stats`.
2. **scoring pass** — ``map_batches(SegmentScorer)`` builds a transient
   segment per block (zero-copy Arrow in, vectorized postings) and
   evaluates every query of a ``{name: query}`` dict with the broadcast
   global stats, emitting matching rows + ``score`` (+ optional snippet
   columns), pruned per block to each query's head by :func:`rank_head`
   for a top-k.  When every query is single-scan eligible
   (:func:`single_scan_terms`) and no snippet is asked for, the segment
   indexes only the queries' terms (:func:`query_vocab`); its rows,
   fieldnorms and token totals stay whole-block, so ids and f32 scores
   equal the full build's.

Both stages are pure functions of their batch: no shuffle, no
materialization; scale-out is linear in blocks.
"""

from __future__ import annotations

import pickle
from typing import Optional

import numpy as np
import pyarrow as pa

import ray

from paradedb_ray.index.searcher import GlobalStats, Searcher
from paradedb_ray.index.segment import Segment, build_segment
from paradedb_ray.query import ast
from paradedb_ray.query.parser import bind
from paradedb_ray.schema import IndexSchema, NUMERIC, TEXT, KEYWORD, JSON
from paradedb_ray.stages.blocks import concat_blocks, tree_reduce_refs
from paradedb_ray.stages.order import rank_head


# ---------------------------------------------------------------------------
# Which stats does a query need?
# ---------------------------------------------------------------------------


def collect_stat_requests(q, schema: IndexSchema) -> dict:
    """-> {"terms": set[(field, term)], "fields": set[field]} — the term
    doc-freqs and field token totals BM25 scoring will look up."""
    terms: set = set()
    fields: set = set()

    def field_tokens(field, value):
        f = schema.fields.get(field.split(".")[0])
        if f is None:
            return []
        if f.ftype == TEXT:
            return f.search_analyzer.tokenize(value)
        return [value]

    def raw_term(field, value):
        # Term/MatchArray values are RAW — the reference's value_to_term
        # never runs the analyzer (`query/mod.rs:1630-1660`; citext.out:
        # === 'QUICK' matches nothing).  Keys here must mirror what the
        # Searcher looks up or global df resolution silently misses: a
        # TEXT or KEYWORD field looks the literal up as its string
        # (``Searcher._raw_query_term``)
        f = schema.fields.get(field)
        return (str(value) if f is not None and f.ftype in (TEXT, KEYWORD)
                else value)

    def walk(q):
        if isinstance(q, ast.Term):
            terms.add((q.field, raw_term(q.field, q.value)))
            fields.add(q.field.split(".")[0])
        elif isinstance(q, ast.Match):
            for t in field_tokens(q.field, q.value):
                if q.distance == 0:
                    terms.add((q.field, t))
            fields.add(q.field)
        elif isinstance(q, ast.MatchArray):
            if q.distance == 0:
                for t in q.tokens:
                    terms.add((q.field, raw_term(q.field, t)))
            fields.add(q.field)
        elif isinstance(q, (ast.Phrase, ast.TokenizedPhrase, ast.PhraseArray)):
            fields.add(q.field)
            if isinstance(q, ast.PhraseArray):
                toks = list(q.tokens)
            elif isinstance(q, ast.Phrase):
                toks = [t for w in q.phrases for t in field_tokens(q.field, w)]
            else:
                toks = field_tokens(q.field, q.phrase)
            for t in toks:
                terms.add((q.field, t))
        elif isinstance(q, ast.PhrasePrefix):
            fields.add(q.field)
            for w in list(q.phrases)[:-1]:
                for t in field_tokens(q.field, w):
                    terms.add((q.field, t))
        elif isinstance(q, ast.MoreLikeThis):
            for field, text in (q.document_fields or []):
                fdef = schema.fields.get(field)
                if fdef is None or text is None:
                    continue
                fields.add(field.split(".")[0])
                for t in field_tokens(field, text):
                    terms.add((field, t))
        # fuzzy/regex/term_set/range/exists/proximity: constant score — no df
        for c in ast.children(q):
            walk(c)

    walk(bind(q, schema))
    return {"terms": terms, "fields": fields}


def merge_stat_requests(reqs: list) -> dict:
    """Union the stat requests of several queries (one shared stats pass)."""
    out = {"terms": set(), "fields": set()}
    for r in reqs:
        out["terms"] |= r["terms"]
        out["fields"] |= r["fields"]
    return out


_POSITIONAL = (ast.Phrase, ast.TokenizedPhrase, ast.PhraseArray,
               ast.PhrasePrefix, ast.RegexPhrase, ast.Proximity)


def needs_positions(q, schema: IndexSchema) -> bool:
    """True iff evaluating ``q`` needs positional postings (phrase /
    proximity family); term-only queries can skip position storage."""
    def walk(q) -> bool:
        return isinstance(q, _POSITIONAL) or any(
            walk(c) for c in ast.children(q))

    return walk(bind(q, schema))


# ---------------------------------------------------------------------------
# Stage 1: per-block stat partials
# ---------------------------------------------------------------------------


def segment_stats(seg: Segment, schema: IndexSchema,
                  requests: dict) -> GlobalStats:
    """The partial ``GlobalStats`` of ``seg`` for ``requests`` (see
    :func:`collect_stat_requests`): its doc count, and per requested
    field its token total, doc count and each requested term's df.  A
    field with a text index reads them off it, so a df is always a
    postings length; any other field is counted by
    :func:`add_column_stats`.  Every stats partial goes through here:
    the batch ``StatsCollector``, the single-scan packets and the
    streaming partition store."""
    g = GlobalStats(num_docs=seg.num_docs)
    by_field: dict = {}
    for f, t in requests["terms"]:
        by_field.setdefault(f.split(".")[0], []).append((f, t))
    for fname in set(requests["fields"]) | set(by_field):
        ti = seg.text.get(fname)
        if ti is not None:
            g.field_total_tokens[fname] = ti.total_tokens
            g.field_doc_count[fname] = ti.doc_count
            for key in by_field.get(fname, ()):
                g.term_df[key] = ti.doc_freq(key[1])
            continue
        fdef = schema.fields.get(fname)
        if fdef is None or fname not in seg.table.column_names:
            continue
        add_column_stats(g, seg, fdef, fname, by_field.get(fname, ()))
    return g


class StatsCollector:
    """map_batches callable: one tiny row out per block (pickled partial).
    The block's segment indexes each requested TEXT field over its
    requested terms alone (none when only its token totals are asked;
    fieldnorms and totals stay whole-column) and :func:`segment_stats`
    reads the partial off it."""

    def __init__(self, schema: IndexSchema, requests: dict):
        self.schema = schema
        self.requests = requests
        wanted: dict = {f: set() for f in requests["fields"]}
        for f, t in requests["terms"]:
            wanted.setdefault(f.split(".")[0], set()).add(t)
        self.terms = {
            f: np.array(sorted(ts), dtype=object)
            for f, ts in wanted.items()
            if f in schema.fields and schema.fields[f].ftype == TEXT}

    def __call__(self, batch: pa.Table) -> pa.Table:
        seg = build_segment(batch, self.schema, store_positions=False,
                            terms=self.terms)
        g = segment_stats(seg, self.schema, self.requests)
        return pa.table({"partial": pa.array([pickle.dumps(g)], pa.binary())})


def add_column_stats(g: GlobalStats, seg: Segment, fdef, fname: str,
                     terms) -> None:
    """Add a field WITHOUT a text index to ``g`` over ``seg``'s rows: its
    doc count, a JSON field's token total under every path (the avgdl
    denominator of JSON BM25, Searcher ``_json_term_hits``), and the df of
    each ``(field, term)`` in ``terms``.  A scored JSON path term counts
    its token doc freq in the path index (what the Searcher divides by,
    NOT whole-value equality); keyword / numeric / typed terms count
    (normalized) column equality.  The batch ``StatsCollector`` and the
    streaming partition store both count through here, so their partials
    agree."""
    import pyarrow.compute as pc

    col = seg.table.column(fname)
    g.field_doc_count[fname] = (g.field_doc_count.get(fname, 0)
                                + int(pc.count(col).as_py()))
    if fdef.ftype == JSON:
        g.field_total_tokens[fname] = (g.field_total_tokens.get(fname, 0)
                                       + seg.json_total_tokens(fname))
    for (full, t) in terms:
        if fdef.ftype == JSON and "." in full:
            path = full.split(".", 1)[1]
            toks = fdef.analyzer.tokenize(t) if isinstance(t, str) else []
            if len(toks) == 1 and toks[0] == t:
                ti = seg.json_text_index(fname, path)
                code = ti.term_code(t)
                cnt = int(len(ti.postings(code)[0])) if code >= 0 else 0
            else:
                tv = t.lower() if isinstance(t, str) else t
                cnt = sum(1 for v in seg.json_path_values(fname, path)
                          if (v.lower() if isinstance(v, str) else v) == tv)
        elif fdef.ftype == NUMERIC:
            from paradedb_ray.numeric import numeric_term_count

            cnt = numeric_term_count(col, t, fdef.scale)
        elif fdef.ftype in ("uuid", "inet", "ltree"):
            from paradedb_ray.pg_types import typed_term_count

            cnt = typed_term_count(col, t, fdef.ftype)
        else:
            cmpcol = (pc.utf8_lower(col) if fdef.ftype == KEYWORD
                      and fdef.analyzer.filters.lowercase else col)
            try:
                cnt = int(pc.sum(
                    pc.equal(cmpcol, t).fill_null(False)).as_py() or 0)
            except pa.ArrowNotImplementedError:
                # no equality kernel for the term's type against the
                # column's: no row can equal the term
                cnt = 0
        g.term_df[(full, t)] = g.term_df.get((full, t), 0) + cnt

@ray.remote
def _merge_stats_parts(*tabs: pa.Table) -> pa.Table:
    g = GlobalStats()
    for t in tabs:
        if "partial" not in t.column_names:
            continue
        for buf in t.column("partial").to_pylist():
            g.merge(pickle.loads(buf))
    return pa.table({"partial": pa.array([pickle.dumps(g)], pa.binary())})


def reduce_stats_partials(refs: list) -> GlobalStats:
    """Tree-reduce a list of object refs to Arrow tables carrying a
    pickled-``GlobalStats`` ``partial`` column into one ``GlobalStats``.
    Every field is an integer sum, so the fan-in-32 tree is associative/
    commutative and bit-identical to a flat driver loop at any block
    count — but O(log B) task waves instead of B serial driver merges."""
    refs = tree_reduce_refs(list(refs), _merge_stats_parts)
    g = GlobalStats()
    if refs:
        for buf in ray.get(refs[0]).column("partial").to_pylist():
            g.merge(pickle.loads(buf))
    return g


def compute_global_stats(ds, schema: IndexSchema, query) -> GlobalStats:
    """Run the stats pass and reduce (the global stats exchange barrier).
    ``query`` is one query or a list of them (one shared pass over the
    union of their stat requests).

    The reduce is an O(log B) tree of ``ray.remote`` merge tasks over the
    per-block partials (VERDICT r2 #5) — every ``GlobalStats`` field is an
    integer sum, so the merge is associative/commutative and the tree is
    bit-identical to the old driver loop at any block count."""
    queries = query if isinstance(query, (list, tuple)) else [query]
    req = merge_stat_requests([collect_stat_requests(q, schema)
                               for q in queries])
    read_cols = sorted(
        {f.split(".")[0] for f in req["fields"]}
        | {f.split(".")[0] for f, _ in req["terms"]}
    )
    if read_cols:
        ds = ds.select_columns(read_cols)
    return reduce_stats_partials(
        ds.map_batches(StatsCollector(schema, req), batch_format="pyarrow",
                       batch_size=None).to_arrow_refs())


# ---------------------------------------------------------------------------
# Stage 2: score per block with broadcast global stats
# ---------------------------------------------------------------------------


class SegmentScorer:
    """Score a ``{name: query}`` dict against one segment with the
    broadcast global stats (``None``: each segment's own stats, for
    score-free filters whose match sets do not read them).  Per query:
    the matching rows (+``score`` f32, +snippet columns), projected to
    ``columns``, pruned to the ``prune_limit`` head under ``sort_keys``
    (pg_search's per-segment top-k collector,
    `scan/segmented_topk_exec.rs`), tagged with ``query_id`` and cast to
    ``out_schema`` when those are given.  The segment is built once and
    shared by every query.

    Called on a Dataset block it scores the block's full segment;
    :meth:`score_packets` scores the candidate mini-segments of
    single-scan packets instead — the same ``Searcher`` code path, so f32
    scores match the two-pass route bitwise."""

    def __init__(self, schema: IndexSchema, queries: dict,
                 stats: Optional[GlobalStats], *,
                 with_score: bool = True,
                 snippet_cfgs: Optional[list] = None,
                 prune_limit: Optional[int] = None,
                 sort_keys: Optional[list] = None,
                 columns: Optional[list] = None,
                 query_id: bool = False,
                 out_schema: Optional[pa.Schema] = None):
        self.schema = schema
        self.queries = queries
        self.stats = stats
        self.with_score = with_score
        self.snippet_cfgs = snippet_cfgs or []
        self.prune_limit = prune_limit
        self.sort_keys = sort_keys
        self.columns = columns
        self.query_id = query_id
        self.out_schema = out_schema
        # snippets need offsets; otherwise only positional queries do
        self.store_positions = bool(self.snippet_cfgs) or any(
            needs_positions(q, schema) for q in queries.values())
        # a block's segment indexes only the queries' terms when every
        # query is single-scan eligible; snippets read every token
        self.vocab = None
        if self.snippet_cfgs:
            from paradedb_ray.index.snippet import query_terms_for_field

            self._snippet_terms = {
                (name, cfg.output_name):
                    query_terms_for_field(q, schema, cfg.field)
                for name, q in queries.items() for cfg in self.snippet_cfgs}
        else:
            self.vocab = query_vocab(queries.values(), schema)

    def __call__(self, batch: pa.Table) -> pa.Table:
        seg = build_segment(batch, self.schema,
                            store_positions=self.store_positions,
                            terms=self.vocab)
        return concat_blocks(self.score(seg, batch), self.out_schema)

    def score_packets(self, packets: pa.Table) -> pa.Table:
        outs = []
        for blob in (packets.column("packet").to_pylist()
                     if packets.num_rows else ()):
            seg = pickle.loads(blob)
            if seg.num_docs:
                outs.extend(self.score(seg, seg.table))
        return concat_blocks(outs, self.out_schema)

    def score(self, seg: Segment, rows: pa.Table) -> list:
        """One table per query; ``rows`` holds the segment's docs in
        doc-id order (the block itself, so index-derived alias columns
        stay out of the output)."""
        searcher = Searcher(seg, self.schema, self.stats)
        outs = []
        for name, q in self.queries.items():
            hits = searcher.eval(q)
            out = rows.take(pa.array(hits.ids, pa.int64()))
            if self.with_score:
                out = out.append_column(
                    "score", pa.array(hits.scores, pa.float32()))
            for cfg in self.snippet_cfgs:
                from paradedb_ray.index.snippet import snippet_column

                out = out.append_column(cfg.output_name, snippet_column(
                    searcher, hits, cfg,
                    self._snippet_terms[name, cfg.output_name]))
            if self.columns:
                out = out.select(self.columns)
            if (self.prune_limit is not None
                    and out.num_rows > self.prune_limit):
                out = rank_head(out, self.sort_keys, self.prune_limit)
            if self.query_id:
                out = out.append_column(
                    "query_id", pa.array([name] * out.num_rows, pa.string()))
            if self.out_schema is not None:
                out = out.cast(self.out_schema)
            outs.append(out)
        return outs


def search_agg_filters(schema: IndexSchema, queries: dict,
                       stats: Optional[GlobalStats] = None) -> dict:
    """``agg_filters``-compatible mask callables for search-predicate
    FILTER clauses — ``COUNT(*) FILTER (WHERE category @@@ 'electronics')``
    (`pg_regress/sql/groupby_filter_mixed_buckets.sql`).

    Matching is boolean so no global stats pass is needed (pass ``stats``
    only for score-dependent clauses).  The batch's segment (tokenization
    + postings) is built ONCE and shared by every mask through a
    per-batch memo — the same amortization as ``SegmentScorer`` —
    so twelve FILTER clauses cost one tokenize pass per block, and, as
    there, it indexes only the clauses' terms when every clause is
    single-scan eligible."""
    queries = {name: bind(q, schema) for name, q in queries.items()}
    need_pos = any(needs_positions(q, schema) for q in queries.values())
    vocab = query_vocab(queries.values(), schema)
    memo: dict = {}

    def _searcher(batch: pa.Table) -> Searcher:
        # id(batch) is stable while the caller holds the batch across the
        # mask loop; the memo holds ONE entry so peak memory is one segment
        if memo.get("key") != id(batch):
            seg = build_segment(batch, schema, store_positions=need_pos,
                                terms=vocab)
            memo["key"] = id(batch)
            memo["searcher"] = Searcher(seg, schema, stats)
        return memo["searcher"]

    def _make(q: ast.Query):
        def mask(batch: pa.Table) -> np.ndarray:
            hits = _searcher(batch).eval(q)
            m = np.zeros(batch.num_rows, dtype=bool)
            if len(hits.ids):
                m[np.asarray(hits.ids, dtype=np.int64)] = True
            return m
        return mask

    return {name: _make(q) for name, q in queries.items()}


def terms_facet(field: str, partials) -> pa.Table:
    """A terms facet from its partial ``{value: doc count}`` dicts: counts
    summed per value, ordered count desc then value asc (pg_search's
    terms aggregation, `aggregate/mod.rs`).  The batch facet tree and the
    streaming partitions both finish here."""
    counts: dict = {}
    for part in partials:
        for v, n in part.items():
            counts[v] = counts.get(v, 0) + n
    items = sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return pa.table({field: pa.array([v for v, _ in items]),
                     "doc_count": pa.array([n for _, n in items], pa.int64())})


# ---------------------------------------------------------------------------
# Single-scan standing-query path
# ---------------------------------------------------------------------------
#
# The classic path above tokenizes the corpus TWICE per query set (stats
# pass + scoring pass).  For queries whose evaluation only ever looks up a
# KNOWN term set (terms / matches / phrases on TEXT fields — the common
# standing-query shape), one scan suffices: tokenize each block once,
# keep postings (+ original positions) for the query terms alone plus the
# fieldnorms, candidate rows and exact partial stats derived from the same
# token stream, and ship that compact packet.  Scoring then runs the
# ordinary ``Searcher`` over the packet's mini-segment with the merged
# global stats — the SAME f32 code path as the two-pass route, so scores
# stay bit-exact by construction.  Vocab-expansion queries (fuzzy, regex,
# prefix, MoreLikeThis), non-TEXT predicates and snippet projections fall
# back to the two-pass route.


def single_scan_terms(q, schema: IndexSchema):
    """-> {field: set[term]} when ``q`` is eligible for the single-scan
    path (every lookup it will perform is a known term on an indexed TEXT
    field), else None.  The collected terms mirror EXACTLY what each
    ``_eval_*`` looks up: Term/TermSet/MatchArray use the literal RAW
    (``Searcher._raw_query_term``), Match/Phrase/TokenizedPhrase run the
    search analyzer, PhraseArray uses its tokens verbatim."""
    out: dict = {}

    def text_field(fname):
        f = schema.fields.get(fname)
        return f if (f is not None and f.ftype == TEXT and f.indexed
                     and "." not in fname) else None

    def walk(q) -> bool:
        if isinstance(q, (ast.Boolean, ast.DisjunctionMax, ast.Boost,
                          ast.ConstScore)):
            return all(walk(c) for c in ast.children(q))
        if isinstance(q, ast.ScoreFilter):
            return q.query is not None and walk(q.query)
        if isinstance(q, ast.Term):
            f = text_field(q.field)
            if f is None:
                return False
            out.setdefault(q.field, set()).add(str(q.value))
            return True
        if isinstance(q, ast.TermSet):
            f = text_field(q.field)
            if f is None:
                return False
            out.setdefault(q.field, set()).update(str(t) for t in q.terms)
            return True
        if isinstance(q, ast.MatchArray):
            f = text_field(q.field)
            if f is None or q.distance > 0:
                return False
            out.setdefault(q.field, set()).update(str(t) for t in q.tokens)
            return True
        if isinstance(q, ast.Match):
            f = text_field(q.field)
            if f is None or q.distance > 0 or q.tokenizer is not None:
                return False
            out.setdefault(q.field, set()).update(
                f.search_analyzer.tokenize(q.value))
            return True
        if isinstance(q, (ast.Phrase, ast.TokenizedPhrase)):
            f = text_field(q.field)
            if f is None:
                return False
            words = (q.phrases if isinstance(q, ast.Phrase)
                     else [q.phrase])
            toks: set = set()
            for w in words:
                toks.update(f.search_analyzer.tokenize(w))
            out.setdefault(q.field, set()).update(toks)
            return True
        if isinstance(q, ast.PhraseArray):
            f = text_field(q.field)
            if f is None:
                return False
            out.setdefault(q.field, set()).update(str(t) for t in q.tokens)
            return True
        return False

    return out if walk(bind(q, schema)) else None


def query_vocab(queries, schema: IndexSchema) -> Optional[dict]:
    """``{field: sorted term array}``: the union of every query's
    :func:`single_scan_terms` — all a per-block segment built for these
    queries needs to index (``build_segment(terms=...)``) — or None when
    any query is ineligible and needs the full index."""
    out: dict = {}
    for q in queries:
        m = single_scan_terms(q, schema)
        if m is None:
            return None
        for f, ts in m.items():
            out.setdefault(f, set()).update(ts)
    return {f: np.array(sorted(ts), dtype=object) for f, ts in out.items()}


def build_query_segment(batch: pa.Table, schema: IndexSchema,
                        terms_by_field: dict, store_positions: bool,
                        keep_columns: Optional[list]):
    """(mini Segment over candidate rows, partial GlobalStats).

    The block's segment indexes the query terms alone
    (``build_segment(terms=...)``); its partial stats (num_docs,
    per-field token totals/doc counts, per-term dfs) are read off it by
    :func:`segment_stats`, as ``StatsCollector`` reads its own.  The
    mini-segment then keeps those text indexes renumbered to the
    candidate rows (docs containing >=1 query term), the candidates'
    docstore columns, and nothing else."""
    import dataclasses

    terms = {f: np.array(sorted(ts), dtype=object)
             for f, ts in terms_by_field.items()}
    seg = build_segment(batch, schema, store_positions=store_positions,
                        terms=terms)
    g = segment_stats(seg, schema, {
        "terms": [(f, t) for f, ts in terms.items() for t in ts],
        "fields": set(terms)})
    parts = [ti.g_doc for ti in seg.text.values() if len(ti.g_doc)]
    if parts:
        cand = np.unique(np.concatenate(parts))
    else:
        cand = np.empty(0, dtype=np.int32)
    cols = batch.select(keep_columns) if keep_columns is not None else batch
    table = cols.take(pa.array(cand.astype(np.int64), pa.int64()))
    mini = Segment(num_docs=len(cand), table=table, schema=schema)
    mini.text = {
        fname: dataclasses.replace(
            ti,
            g_doc=np.searchsorted(cand, ti.g_doc).astype(np.int32),
            fieldnorm_ids=ti.fieldnorm_ids[cand],
            has_value=ti.has_value[cand])
        for fname, ti in seg.text.items()}
    return mini, g


class QueryPacketBuilder:
    """map_batches callable: ONE row per block — pickled partial stats +
    pickled candidate mini-segment.  The single corpus scan."""

    def __init__(self, schema: IndexSchema, terms_by_field: dict,
                 store_positions: bool, keep_columns: Optional[list]):
        self.schema = schema
        self.terms_by_field = terms_by_field
        self.store_positions = store_positions
        self.keep_columns = keep_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        seg, partial = build_query_segment(
            batch, self.schema, self.terms_by_field,
            self.store_positions, self.keep_columns)
        return pa.table({
            "partial": pa.array([pickle.dumps(partial)], pa.binary()),
            "packet": pa.array([pickle.dumps(seg)], pa.binary()),
        })
