"""Ray Data stages for the distributed scoring path.

Two-pass model (the Dataset-native analogue of pg_search's scan with
searcher-global statistics, SURVEY §5 "BM25 parity requirements"):

1. **stats pass** — ``map_batches(StatsCollector)`` computes per-block
   partial statistics (num docs, per-field token totals, per-term doc
   freqs for exactly the terms the query needs); the driver reduces the
   tiny partials into one ``GlobalStats`` — this is the global stats
   exchange.
2. **scoring pass** — ``map_batches(SegmentScorer)`` builds a transient
   segment per block (zero-copy Arrow in, vectorized postings) and
   evaluates every query of a ``{name: query}`` dict with the broadcast
   global stats, emitting matching rows + ``score`` (+ optional snippet
   columns), pruned per block to each query's head by :func:`rank_head`
   for a top-k.

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
from paradedb_ray.schema import IndexSchema, NUMERIC, TEXT, KEYWORD, JSON
from paradedb_ray.stages.blocks import concat_blocks, tree_reduce_refs


# ---------------------------------------------------------------------------
# Which stats does a query need?
# ---------------------------------------------------------------------------


def collect_stat_requests(q: ast.Query, schema: IndexSchema,
                          default_fields: Optional[list] = None) -> dict:
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

    def norm_token(field, value):
        # Term/MatchArray values are RAW — the reference's value_to_term
        # never runs the analyzer (`query/mod.rs:1630-1660`; citext.out:
        # === 'QUICK' matches nothing).  Keys here must mirror what the
        # Searcher looks up or global df resolution silently misses.
        return value

    def walk(q, dfields):
        if isinstance(q, ast.Boolean):
            for c in q.must + q.should + q.must_not:
                walk(c, dfields)
        elif isinstance(q, (ast.Boost, ast.ConstScore)):
            walk(q.query, dfields)
        elif isinstance(q, ast.ScoreFilter):
            if q.query is not None:
                walk(q.query, dfields)
        elif isinstance(q, ast.DisjunctionMax):
            for c in q.disjuncts:
                walk(c, dfields)
        elif isinstance(q, ast.HeapFilter):
            walk(q.indexed_query, dfields)
        elif isinstance(q, ast.Term):
            terms.add((q.field, norm_token(q.field, q.value)))
            fields.add(q.field.split(".")[0])
        elif isinstance(q, ast.Match):
            for t in field_tokens(q.field, q.value):
                if q.distance == 0:
                    terms.add((q.field, t))
            fields.add(q.field)
        elif isinstance(q, ast.MatchArray):
            if q.distance == 0:
                for t in q.tokens:
                    terms.add((q.field, norm_token(q.field, t)))
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
        elif isinstance(q, ast.ParseWithField):
            from paradedb_ray.query.parser import parse_query_string

            sub = parse_query_string(q.query_string, schema, [q.field],
                                     bool(q.conjunction_mode), bool(q.lenient))
            walk(sub, [q.field])
        elif isinstance(q, ast.Parse):
            from paradedb_ray.query.parser import parse_query_string

            dfs = dfields or schema.default_search_fields
            sub = parse_query_string(q.query_string, schema, dfs,
                                     bool(q.conjunction_mode), bool(q.lenient))
            walk(sub, dfs)
        elif isinstance(q, ast.MoreLikeThis):
            for field, text in (q.document_fields or []):
                fdef = schema.fields.get(field)
                if fdef is None or text is None:
                    continue
                fields.add(field.split(".")[0])
                for t in field_tokens(field, text):
                    terms.add((field, t))
        # fuzzy/regex/term_set/range/exists/proximity: constant score — no df

    walk(q, default_fields)
    return {"terms": terms, "fields": fields}


def merge_stat_requests(reqs: list) -> dict:
    """Union the stat requests of several queries (one shared stats pass)."""
    out = {"terms": set(), "fields": set()}
    for r in reqs:
        out["terms"] |= r["terms"]
        out["fields"] |= r["fields"]
    return out


def needs_positions(q: ast.Query, schema: Optional[IndexSchema] = None,
                    default_fields: Optional[list] = None) -> bool:
    """True iff evaluating ``q`` needs positional postings (phrase /
    proximity family); term-only queries can skip position storage."""
    if isinstance(q, (ast.Phrase, ast.TokenizedPhrase, ast.PhraseArray,
                      ast.PhrasePrefix, ast.RegexPhrase, ast.Proximity)):
        return True
    if isinstance(q, ast.Boolean):
        return any(needs_positions(c, schema, default_fields)
                   for c in q.must + q.should + q.must_not)
    if isinstance(q, (ast.Boost, ast.ConstScore)):
        return needs_positions(q.query, schema, default_fields)
    if isinstance(q, ast.ScoreFilter):
        return q.query is not None and needs_positions(q.query, schema,
                                                       default_fields)
    if isinstance(q, ast.DisjunctionMax):
        return any(needs_positions(c, schema, default_fields)
                   for c in q.disjuncts)
    if isinstance(q, ast.HeapFilter):
        return needs_positions(q.indexed_query, schema, default_fields)
    if isinstance(q, (ast.Parse, ast.ParseWithField)):
        if schema is None:
            return True  # conservative: query strings may contain phrases
        from paradedb_ray.query.parser import parse_query_string

        if isinstance(q, ast.ParseWithField):
            dfs = [q.field]
        else:
            dfs = default_fields or schema.default_search_fields
        sub = parse_query_string(q.query_string, schema, dfs,
                                 bool(q.conjunction_mode), bool(q.lenient))
        return needs_positions(sub, schema, dfs)
    return False


# ---------------------------------------------------------------------------
# Stage 1: per-block stat partials
# ---------------------------------------------------------------------------


class StatsCollector:
    """map_batches callable: one tiny row out per block (pickled partial)."""

    def __init__(self, schema: IndexSchema, requests: dict):
        self.schema = schema
        self.requests = requests

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = GlobalStats(num_docs=batch.num_rows)
        by_field: dict = {}
        for f, t in self.requests["terms"]:
            by_field.setdefault(f.split(".")[0], set()).add((f, t))
        need_fields = set(self.requests["fields"]) | set(by_field)
        # the batch's rows as a segment (JSON paths index lazily on it)
        seg = Segment(num_docs=batch.num_rows, table=batch,
                      schema=self.schema)
        for fname in need_fields:
            f = self.schema.fields.get(fname)
            if f is None or fname not in batch.column_names:
                continue
            if f.ftype == TEXT:
                analyzer = f.analyzer
                total = 0
                doc_count = 0
                wanted = {t for (_, t) in by_field.get(fname, ())}
                dfs = dict.fromkeys(wanted, 0)
                from paradedb_ray.text.batch_tokenize import \
                    batch_tokenize_arrow

                got = batch_tokenize_arrow(batch.column(fname), analyzer)
                if got is not None:
                    # vectorized: token totals from per-doc counts, term
                    # dfs from unique (term, doc) pairs — bit-identical
                    # to the per-row loop below
                    import pyarrow.compute as pc

                    tokens, doc_of, _, lens, has_value = got
                    g.field_total_tokens[fname] = int(lens.sum())
                    g.field_doc_count[fname] = int(has_value.sum())
                    if wanted and len(tokens):
                        wl = sorted(wanted)
                        codes = pc.index_in(
                            tokens, value_set=pa.array(wl, pa.string()))
                        codes = codes.fill_null(-1).to_numpy(
                            zero_copy_only=False).astype(np.int64)
                        hit = codes >= 0
                        if hit.any():
                            n = max(batch.num_rows, 1)
                            pairs = np.unique(
                                codes[hit] * n + doc_of[hit].astype(np.int64))
                            cnt = np.bincount(pairs // n, minlength=len(wl))
                            for i, t in enumerate(wl):
                                g.term_df[(fname, t)] = int(cnt[i])
                    for t in wanted:
                        g.term_df.setdefault((fname, t), 0)
                    continue
                for txt in batch.column(fname).to_pylist():
                    if txt is None:
                        continue
                    if isinstance(txt, (list, tuple)):
                        # TEXT[] multi-value (`tokenize-text-arrays.sql`):
                        # every element feeds the same field
                        vals = [x for x in txt if x is not None]
                        if not vals:
                            continue
                        toks = []
                        for x in vals:
                            toks.extend(analyzer.tokenize(x))
                    else:
                        toks = analyzer.tokenize(txt)
                    doc_count += 1
                    total += len(toks)
                    if wanted:
                        for t in wanted.intersection(toks):
                            dfs[t] += 1
                g.field_total_tokens[fname] = total
                g.field_doc_count[fname] = doc_count
                for t, d in dfs.items():
                    g.term_df[(fname, t)] = d
            else:
                add_column_stats(g, seg, f, fname, by_field.get(fname, ()))
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


def compute_global_stats(ds, schema: IndexSchema, query,
                         default_fields: Optional[list] = None) -> GlobalStats:
    """Run the stats pass and reduce (the global stats exchange barrier).
    ``query`` is one query or a list of them (one shared pass over the
    union of their stat requests).

    The reduce is an O(log B) tree of ``ray.remote`` merge tasks over the
    per-block partials (VERDICT r2 #5) — every ``GlobalStats`` field is an
    integer sum, so the merge is associative/commutative and the tree is
    bit-identical to the old driver loop at any block count."""
    queries = query if isinstance(query, (list, tuple)) else [query]
    req = merge_stat_requests([collect_stat_requests(q, schema, default_fields)
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
    broadcast global stats.  Per query: the matching rows (+``score`` f32,
    +snippet columns), projected to ``columns``, pruned to the
    ``prune_limit`` head under ``sort_keys`` (pg_search's per-segment
    top-k collector, `scan/segmented_topk_exec.rs`), tagged with
    ``query_id`` and cast to ``out_schema`` when those are given.  The
    segment is built once and shared by every query.

    Called on a Dataset block it scores the block's full segment;
    :meth:`score_packets` scores the candidate mini-segments of
    single-scan packets instead — the same ``Searcher`` code path, so f32
    scores match the two-pass route bitwise."""

    def __init__(self, schema: IndexSchema, queries: dict,
                 stats: GlobalStats, *, with_score: bool = True,
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
        if self.snippet_cfgs:
            from paradedb_ray.index.snippet import query_terms_for_field

            self._snippet_terms = {
                (name, cfg.output_name):
                    query_terms_for_field(q, schema, cfg.field)
                for name, q in queries.items() for cfg in self.snippet_cfgs}

    def __call__(self, batch: pa.Table) -> pa.Table:
        seg = build_segment(batch, self.schema,
                            store_positions=self.store_positions)
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
    so twelve FILTER clauses cost one tokenize pass per block."""
    need_pos = any(needs_positions(q, schema) for q in queries.values())
    memo: dict = {}

    def _searcher(batch: pa.Table) -> Searcher:
        # id(batch) is stable while the caller holds the batch across the
        # mask loop; the memo holds ONE entry so peak memory is one segment
        if memo.get("key") != id(batch):
            seg = build_segment(batch, schema, store_positions=need_pos)
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


def expand_nulls_keys(table: pa.Table, sort_keys):
    """Expand extended sort keys into Arrow-sortable form.  Elements past
    ``(col, dir)`` may be ``"nulls_first"``/``"nulls_last"``
    (`nulls_ordering.sql`) — a placement differing from Arrow's at_end
    default becomes a prepended is-null helper column — and/or
    ``"collation=<locale>"`` (`order_by_collation.sql`): the key column is
    swapped for a locale-sort-key helper (byte order otherwise, exactly
    the reference's C-collation pushdown rule) — and/or ``"lower"``
    (`sorting.rs::sort_by_lower`: ``ORDER BY lower(field)`` pushes down
    as a case-folded key).  Returns
    (table+helpers, 2-tuple keys, helper column names)."""
    import pyarrow.compute as pc

    out_keys, helpers = [], []
    for k in sort_keys:
        col, direction = k[0], k[1]
        nulls = None
        collation = None
        lower = False
        for extra in k[2:]:
            if extra in ("nulls_first", "nulls_last"):
                nulls = extra
            elif extra == "lower":
                lower = True
            elif isinstance(extra, str) and extra.startswith("collation="):
                collation = extra.split("=", 1)[1]
        # Arrow's default places nulls at_end for either direction; only
        # an explicit placement that differs needs the helper key
        if nulls == "nulls_first":
            h = f"__isnull_{col}"
            if h not in table.column_names:
                table = table.append_column(
                    h, pc.is_null(table.column(col)).cast(pa.int8()))
                helpers.append(h)
            out_keys.append((h, "descending"))
        if collation:
            from paradedb_ray.text.collate import sort_key_array

            h = f"__coll_{col}"
            if h not in table.column_names:
                table = table.append_column(
                    h, sort_key_array(table.column(col), collation))
                helpers.append(h)
            out_keys.append((h, direction))
            # original column stays as the deterministic final tiebreak
        if lower:
            h = f"__lower_{col}"
            if h not in table.column_names:
                table = table.append_column(
                    h, pc.utf8_lower(table.column(col)))
                helpers.append(h)
            out_keys.append((h, direction))
        out_keys.append((col, direction))
    return table, out_keys, helpers


def rank_head(table: pa.Table, order_by, limit: int,
              offset: int = 0) -> pa.Table:
    """Rows ``offset .. offset+limit`` of ``table`` under ``order_by``
    (extended keys, see :func:`expand_nulls_keys`) — a stable sort, so
    equal keys keep their input order.  Every top-k head goes through
    here: the per-block prune, the chunk keeps, each query's final merge
    and the facet tree's node and root sorts."""
    if not order_by:
        return table.slice(offset, limit)
    import pyarrow.compute as pc

    table, keys, helpers = expand_nulls_keys(table, order_by)
    out = table.take(pc.sort_indices(table, sort_keys=keys)
                     .slice(offset, limit))
    return out.drop_columns(helpers) if helpers else out


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


def single_scan_terms(q: ast.Query, schema: IndexSchema,
                      default_fields: Optional[list] = None):
    """-> {field: set[term]} when ``q`` is eligible for the single-scan
    path (every lookup it will perform is a known term on an indexed TEXT
    field), else None.  The collected terms mirror EXACTLY what each
    ``_eval_*`` looks up: Term/TermSet/MatchArray normalize the literal,
    Match/Phrase/TokenizedPhrase run the search analyzer, PhraseArray
    uses its tokens verbatim."""
    out: dict = {}

    def text_field(fname):
        f = schema.fields.get(fname)
        return f if (f is not None and f.ftype == TEXT and f.indexed
                     and "." not in fname) else None

    def norm(f, value):
        toks = f.search_analyzer.filters.apply_texts([str(value)])
        return toks[0] if toks else str(value)

    def walk(q, dfields) -> bool:
        if isinstance(q, ast.Boolean):
            return all(walk(c, dfields)
                       for c in q.must + q.should + q.must_not)
        if isinstance(q, ast.DisjunctionMax):
            return all(walk(c, dfields) for c in q.disjuncts)
        if isinstance(q, (ast.Boost, ast.ConstScore)):
            return walk(q.query, dfields)
        if isinstance(q, ast.ScoreFilter):
            return q.query is not None and walk(q.query, dfields)
        if isinstance(q, ast.Parse):
            from paradedb_ray.query.parser import parse_query_string

            dfs = dfields or schema.default_search_fields
            try:
                sub = parse_query_string(q.query_string, schema, dfs,
                                         bool(q.conjunction_mode),
                                         bool(q.lenient))
            except Exception:
                return False
            return walk(sub, dfs)
        if isinstance(q, ast.ParseWithField):
            from paradedb_ray.query.parser import parse_query_string

            try:
                sub = parse_query_string(q.query_string, schema, [q.field],
                                         bool(q.conjunction_mode),
                                         bool(q.lenient))
            except Exception:
                return False
            return walk(sub, [q.field])
        if isinstance(q, ast.Term):
            f = text_field(q.field)
            if f is None:
                return False
            out.setdefault(q.field, set()).add(norm(f, q.value))
            return True
        if isinstance(q, ast.TermSet):
            f = text_field(q.field)
            if f is None:
                return False
            out.setdefault(q.field, set()).update(
                norm(f, t) for t in q.terms)
            return True
        if isinstance(q, ast.MatchArray):
            f = text_field(q.field)
            if f is None or q.distance > 0:
                return False
            out.setdefault(q.field, set()).update(
                norm(f, t) for t in q.tokens)
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

    return out if walk(q, default_fields) else None


def build_query_segment(batch: pa.Table, schema: IndexSchema,
                        terms_by_field: dict, store_positions: bool,
                        keep_columns: Optional[list]):
    """(mini Segment over candidate rows, partial GlobalStats).

    The mini-segment holds vocab-filtered text indexes renumbered to the
    candidate rows (docs containing >=1 query term), the candidates'
    docstore columns, and nothing else; the partial stats (num_docs,
    per-field token totals/doc counts, per-term dfs) come from the same
    single tokenization, bit-identical to what ``StatsCollector`` counts."""
    from paradedb_ray.index.segment import (_build_text_index,
                                            build_text_index_arrow)

    n = batch.num_rows
    g = GlobalStats(num_docs=n)
    tis = {}
    for fname, terms in terms_by_field.items():
        f = schema.fields.get(fname)
        if f is None or fname not in batch.column_names:
            continue
        vf = np.array(sorted(terms), dtype=object)
        ti = build_text_index_arrow(batch.column(fname), f.analyzer,
                                    store_positions and f.positions,
                                    vocab_filter=vf)
        if ti is None:
            ti = _build_text_index(batch.column(fname).to_pylist(),
                                   f.analyzer,
                                   store_positions and f.positions,
                                   vocab_filter=vf)
        tis[fname] = ti
        g.field_total_tokens[fname] = ti.total_tokens
        g.field_doc_count[fname] = ti.doc_count
        dfs = np.diff(ti.term_offsets)
        for t, d in zip(ti.vocab, dfs):
            g.term_df[(fname, str(t))] = int(d)
    parts = [ti.g_doc for ti in tis.values() if len(ti.g_doc)]
    if parts:
        cand = np.unique(np.concatenate(parts))
    else:
        cand = np.empty(0, dtype=np.int32)
    import dataclasses

    mini = {}
    for fname, ti in tis.items():
        mini[fname] = dataclasses.replace(
            ti,
            g_doc=np.searchsorted(cand, ti.g_doc).astype(np.int32),
            fieldnorm_ids=ti.fieldnorm_ids[cand],
            has_value=ti.has_value[cand],
        )
    cols = batch.select(keep_columns) if keep_columns is not None else batch
    table = cols.take(pa.array(cand.astype(np.int64), pa.int64()))
    seg = Segment(num_docs=len(cand), table=table, schema=schema)
    seg.text = mini
    return seg, g


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
