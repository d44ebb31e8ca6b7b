"""Query evaluation over segments with tantivy-parity BM25 scoring.

Scoring model (pinned by `pg_search/tests/pg_regress/expected/topk_scores.out`
golden floats, replicated in tests/test_bm25_golden.py):

* ``idf = ln(1 + (N - df + 0.5) / (df + 0.5))`` computed in f32 over
  *searcher-global* N/df (across all segments/partitions),
* ``weight = idf * boost * (1 + k1)``; per-fieldnorm-id norm cache
  ``cache[id] = k1 * (1 - b + b * decoded_norm(id) / avg_fieldnorm)``,
* ``score(doc) = weight * tf / (tf + cache[fieldnorm_id(doc)])``,
* k1=1.2, b=0.75; avg_fieldnorm = exact total tokens / total docs (f32),
* dl is the byte-quantized fieldnorm; all arithmetic in float32,
* range / exists / regex / fuzzy / term-set queries are constant-score 1.0
  (visible in the golden scores: the ``rating > 2`` must-clause adds exactly
  1.0), boolean must/should sum their matching clause scores, and
  disjunction_max takes max + tie_breaker * rest.

Hits are (sorted local doc ids, f32 scores).  ``GlobalStats`` carries the
cross-partition statistics exchange the sharded engine needs (SURVEY §5
"BM25 parity requirements").
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass, field as dfield
from decimal import InvalidOperation
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from paradedb_ray.fieldnorm import FIELD_NORMS_TABLE
from paradedb_ray.index.segment import Segment, TextFieldIndex
from paradedb_ray.query import ast
from paradedb_ray.query.parser import bind
from paradedb_ray.schema import (
    INET,
    JSON,
    KEYWORD,
    LTREE,
    NUMERIC,
    TEXT,
    UUID,
    IndexSchema,
)

K1 = np.float32(1.2)
B = np.float32(0.75)
_ONE = np.float32(1.0)
_HALF = np.float32(0.5)

_F32 = np.float32


def idf_f32(doc_freq: int, num_docs: int) -> np.float32:
    """tantivy ``bm25::idf`` in f32 (ln computed exactly, then rounded)."""
    x = (_F32(num_docs - doc_freq) + _HALF) / (_F32(doc_freq) + _HALF)
    return _F32(np.log(np.float64(_ONE + x)))


def bm25_norm_cache(avg_fieldnorm: np.float32, k1: np.float32 = None,
                    b: np.float32 = None) -> np.ndarray:
    """cache[id] = k1 * (1 - b + b * decoded_norm(id) / avg), f32[256]."""
    decoded = FIELD_NORMS_TABLE.astype(np.float32)
    k1 = K1 if k1 is None else np.float32(k1)
    b = B if b is None else np.float32(b)
    return (k1 * (_ONE - b + b * decoded / _F32(avg_fieldnorm))).astype(np.float32)


@dataclass
class Hits:
    ids: np.ndarray  # int64, sorted ascending
    scores: np.ndarray  # float32, aligned

    @staticmethod
    def empty() -> "Hits":
        return Hits(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))

    @staticmethod
    def const(ids: np.ndarray, score: float = 1.0) -> "Hits":
        return Hits(ids.astype(np.int64),
                    np.full(len(ids), score, dtype=np.float32))

    def __len__(self):
        return len(self.ids)


def _mask_to_hits(mask: np.ndarray, score: float = 1.0) -> Hits:
    return Hits.const(np.flatnonzero(mask), score)


def _member(ids: np.ndarray, other: np.ndarray) -> tuple:
    """``(mask, pos)``: ``mask[i]`` is whether ``ids[i]`` is in ``other``,
    found at ``other[pos[i]]``.  Both arrays sorted and unique (every
    ``Hits.ids`` is), so membership is one ``searchsorted``, never the
    sort ``np.isin`` makes of both inputs."""
    pos = np.searchsorted(other, ids)
    if not len(other):
        return np.zeros(len(ids), dtype=bool), pos
    pos = np.minimum(pos, len(other) - 1)
    return other[pos] == ids, pos


@dataclass
class GlobalStats:
    """Searcher-global statistics (the cross-partition stats exchange)."""

    num_docs: int = 0
    field_total_tokens: dict = dfield(default_factory=dict)  # field -> int
    field_doc_count: dict = dfield(default_factory=dict)  # field -> int
    term_df: dict = dfield(default_factory=dict)  # (field, term) -> int

    def avg_fieldnorm(self, field: str) -> np.float32:
        total = self.field_total_tokens.get(field, 0)
        if self.num_docs == 0 or total == 0:
            return _ONE
        return _F32(total) / _F32(self.num_docs)

    def df(self, field: str, term) -> int:
        return self.term_df.get((field, term), 0)

    @staticmethod
    def from_segment(seg: Segment, schema: IndexSchema) -> "GlobalStats":
        """Single-partition stats (all terms)."""
        g = GlobalStats(num_docs=seg.num_docs)
        for name, ti in seg.text.items():
            g.field_total_tokens[name] = ti.total_tokens
            g.field_doc_count[name] = ti.doc_count
            dfs = np.diff(ti.term_offsets)
            for t, d in zip(ti.vocab, dfs):
                g.term_df[(name, t)] = int(d)
        return g

    def merge(self, other: "GlobalStats") -> "GlobalStats":
        self.num_docs += other.num_docs
        for k, v in other.field_total_tokens.items():
            self.field_total_tokens[k] = self.field_total_tokens.get(k, 0) + v
        for k, v in other.field_doc_count.items():
            self.field_doc_count[k] = self.field_doc_count.get(k, 0) + v
        for k, v in other.term_df.items():
            self.term_df[k] = self.term_df.get(k, 0) + v
        return self


class Searcher:
    """Evaluates a query AST against one segment, using global stats."""

    def __init__(self, segment: Segment, schema: IndexSchema,
                 stats: Optional[GlobalStats] = None):
        self.seg = segment
        self.schema = schema
        # local stats (segment == corpus) may lazily learn JSON-path dfs
        # and json token totals from the segment; distributed stats must
        # carry them from the stats exchange or scoring falls back to
        # const (never a segment-local guess, which would make scores
        # depend on block partitioning)
        self._local_stats = stats is None
        self.stats = stats or GlobalStats.from_segment(segment, schema)
        self._norm_caches: dict = {}

    # -- scoring helpers ----------------------------------------------------

    def _field_k1(self, field: str) -> np.float32:
        f = self.schema.fields.get(field.split(".")[0])
        v = getattr(f, "k1", None) if f is not None else None
        return K1 if v is None else np.float32(v)

    def _norm_cache(self, field: str) -> np.ndarray:
        c = self._norm_caches.get(field)
        if c is None:
            f = self.schema.fields.get(field.split(".")[0])
            b = getattr(f, "b", None) if f is not None else None
            c = bm25_norm_cache(self.stats.avg_fieldnorm(field),
                                self._field_k1(field), b)
            self._norm_caches[field] = c
        return c

    def _bm25(self, field: str, ti: TextFieldIndex, docs: np.ndarray,
              tfs: np.ndarray, df: int, boost: float = 1.0) -> Hits:
        if df <= 0 or len(docs) == 0:
            return Hits.empty()
        idf = idf_f32(df, self.stats.num_docs)
        weight = idf * _F32(boost) * (_ONE + self._field_k1(field))
        cache = self._norm_cache(field)
        norms = cache[ti.fieldnorm_ids[docs]]
        tf = tfs.astype(np.float32)
        scores = (weight * (tf / (tf + norms))).astype(np.float32)
        return Hits(docs.astype(np.int64), scores)

    # -- term-level evaluation ---------------------------------------------

    def _raw_query_term(self, field, value) -> str:
        """Term/TermSet/FuzzyTerm query values are RAW — the reference
        builds ``Term::from_field_text`` without running the analyzer
        (`query/mod.rs:1630-1660` value_to_term; `citext.out`:
        ``=== 'QUICK'`` finds nothing because the index stores lowercased
        tokens).  Query-STRING terms (Parse/@@@) are analyzed by the
        parser before they reach here, mirroring tantivy's query parser."""
        return str(value)

    def _text_term_hits(self, field: str, term: str, boost: float = 1.0) -> Hits:
        ti = self.seg.text.get(field)
        if ti is None:
            return Hits.empty()
        code = ti.term_code(term)
        if code < 0:
            return Hits.empty()
        docs, tfs, _ = ti.postings(code)
        df = self.stats.df(field, term)
        return self._bm25(field, ti, docs, tfs, df, boost)

    def _fast_term_mask(self, field: str, value) -> np.ndarray:
        col = self.seg.column(field)
        value = _coerce_bound_value(col.type, value)
        try:
            m = pc.equal(col, value)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            return np.zeros(self.seg.num_docs, dtype=bool)
        return np.asarray(m.fill_null(False))

    def _numeric_repr(self, field: str):
        """(representation ndarray, valid mask) for a NUMERIC column —
        scaled i64 when the field has a scale, NumericBytes otherwise;
        cached per segment (`query/numeric.rs` Numeric64/NumericBytes)."""
        key = ("__numeric__", field)
        cached = self.seg._json_cache.get(key)
        if cached is None:
            from paradedb_ray.numeric import numeric_bytes_array, scale_array

            f = self.schema.field(field)
            col = self.seg.column(field)
            cached = (scale_array(col, f.scale) if f.scale is not None
                      else numeric_bytes_array(col))
            self.seg._json_cache[key] = cached
        return cached

    def _numeric_query_value(self, field: str, value):
        from paradedb_ray.numeric import cmp_value, numeric_bytes, scale_i64

        f = self.schema.field(field)
        return cmp_value(scale_i64(value, f.scale) if f.scale is not None
                         else numeric_bytes(value))

    def _term_hits(self, field: str, value, boost: float = 1.0) -> Hits:
        f = self.schema.field(field)
        if f.ftype == TEXT:
            term = self._raw_query_term(field, value)
            return self._text_term_hits(field, term, boost)
        if f.ftype == KEYWORD:
            term = self._raw_query_term(field, value)
            # keyword columns are matched against the analyzed column value
            vals = self._keyword_values(field)
            mask = vals == term
            df = self.stats.df(field, term)
            if df <= 0:
                df = int(mask.sum())
            if df == 0:
                return Hits.empty()
            idf = idf_f32(df, self.stats.num_docs)
            return Hits.const(np.flatnonzero(mask), float(idf * _F32(boost)))
        if f.ftype == JSON:
            raise ValueError("JSON term requires a dot path (field.path)")
        # numeric/bool/date/uuid/inet/ltree term
        if f.ftype == NUMERIC:
            rep, valid = self._numeric_repr(field)
            try:
                qv = self._numeric_query_value(field, value)
            except (InvalidOperation, OverflowError, ValueError):
                # a value no NUMERIC can hold matches no row (the
                # stats side, ``numeric_term_count``, counts it 0)
                return Hits.empty()
            mask = valid & (rep == qv)
        elif f.ftype == LTREE:
            # hierarchical facet: the query node AND its descendants match
            # (`ltree.sql`: "@@@ on an ltree field is PREFIX/HIERARCHICAL")
            from paradedb_ray.pg_types import ltree_term_mask

            mask = ltree_term_mask(self.seg.column(field), value)
        elif f.ftype in (UUID, INET):
            from paradedb_ray.pg_types import normalize_inet, normalize_uuid

            key = ("__pgtype__", field)
            cached = self.seg._json_cache.get(key)
            if cached is None:
                from paradedb_ray.pg_types import normalized_column

                cached = normalized_column(self.seg.column(field), f.ftype)
                self.seg._json_cache[key] = cached
            rep, valid = cached
            try:
                qv = (normalize_uuid(value) if f.ftype == UUID
                      else normalize_inet(value))
            except (ValueError, TypeError):
                return Hits.empty()
            mask = valid & (rep == np.array(qv, dtype=object))
        else:
            mask = self._fast_term_mask(field, value)
        df = self.stats.df(field, value)
        if df <= 0:
            df = int(mask.sum())
        if df == 0:
            return Hits.empty()
        idf = idf_f32(df, self.stats.num_docs)
        return Hits.const(np.flatnonzero(mask), float(idf * _F32(boost)))

    def _keyword_values(self, field: str) -> np.ndarray:
        """Analyzed (e.g. lowercased for literal_normalized) column values."""
        key = ("_kwvals", field)
        cached = self.seg._json_cache.get(key)
        if cached is not None:
            return cached
        f = self.schema.field(field)
        col = self.seg.column(field)
        if f.analyzer.filters.lowercase:
            col = pc.utf8_lower(col)
        vals = np.asarray(col.to_pandas(), dtype=object)
        self.seg._json_cache[key] = vals
        return vals

    def _json_term_doc_mask(self, field: str, path: str, value) -> np.ndarray:
        """Doc mask for a term over a JSON dot-path.  Two routes union,
        mirroring tantivy's JSON indexing: (a) full-value equality — the
        typed term tantivy writes for dates/numbers and single-token
        strings (`json_term_set.out` compares stored strings whole); (b)
        tokenized containment through the field's analyzer — string
        leaves are indexed as text, so ``description:test`` matches
        "A test author" and array elements match individually
        (`snippet_json_01_basic.sql`)."""
        vals = self.seg.json_path_values(field, path)
        mask = np.zeros(len(vals), dtype=bool)
        if isinstance(value, str):
            vq = value.lower()
            for i, v in enumerate(vals):
                if isinstance(v, str):
                    mask[i] = v.lower() == vq
                elif isinstance(v, (list, tuple)):
                    mask[i] = any(isinstance(e, str) and e.lower() == vq
                                  for e in v)
            toks = self.schema.field(field).analyzer.tokenize(value)
            if len(toks) == 1:
                ti = self.seg.json_text_index(field, path)
                code = ti.term_code(toks[0])
                if code >= 0:
                    mask[ti.postings(code)[0]] = True
        else:
            for i, v in enumerate(vals):
                if isinstance(v, (int, float, bool)):
                    mask[i] = v == value
                elif isinstance(v, (list, tuple)):
                    mask[i] = any(isinstance(e, (int, float, bool))
                                  and e == value for e in v)
        return mask

    def _json_term_hits(self, field: str, path: str, value, boost=1.0) -> Hits:
        """Hits for a term over a JSON dot-path.  Single-token string
        values score REAL BM25 the way tantivy scores json term queries
        (`snippet_json_02_advanced.out` goldens): df/tf per (path, term),
        per-doc dl = 1 (no fieldnorms stored for json fields), avgdl =
        total tokens under the WHOLE json field / num docs.  Non-string
        or multi-token values keep the legacy constant score (typed
        terms)."""
        mask = self._json_term_doc_mask(field, path, value)
        if not isinstance(value, str):
            return _mask_to_hits(mask)
        toks = self.schema.field(field).analyzer.tokenize(value)
        if len(toks) != 1:
            return _mask_to_hits(mask)
        tok = toks[0]
        full = f"{field}.{path}"
        ti = self.seg.json_text_index(field, path)
        code = ti.term_code(tok)
        if code >= 0:
            pdocs, ptfs, _ = ti.postings(code)
        else:
            pdocs = np.empty(0, dtype=np.int64)
            ptfs = np.empty(0, dtype=np.int64)
        if (full, tok) not in self.stats.term_df:
            if not self._local_stats:
                return _mask_to_hits(mask)  # stats not collected: legacy
            self.stats.term_df[(full, tok)] = int(len(pdocs))
        df = self.stats.term_df[(full, tok)]
        if not mask.any():
            return Hits.empty()
        if df <= 0:
            return _mask_to_hits(mask)
        if self._local_stats and field not in self.stats.field_total_tokens:
            self.stats.field_total_tokens[field] = \
                self.seg.json_total_tokens(field)
        avg = self.stats.avg_fieldnorm(field)
        f = self.schema.fields.get(field)
        k1 = self._field_k1(field)
        b = getattr(f, "b", None) if f is not None else None
        b = B if b is None else np.float32(b)
        # dl = 1 constant: the norm is the bm25_norm_cache formula at
        # decoded_norm == 1, computed with the same f32 op order
        norm = (k1 * (_ONE - b + b * _ONE / _F32(avg))).astype(np.float32)
        idf = idf_f32(df, self.stats.num_docs)
        weight = idf * _F32(boost) * (_ONE + k1)
        docs = np.flatnonzero(mask)
        tf = np.ones(len(docs), dtype=np.float32)
        if len(pdocs):
            pos = np.searchsorted(pdocs, docs)
            pos_c = np.clip(pos, 0, len(pdocs) - 1)
            hit = pdocs[pos_c] == docs
            tf[hit] = ptfs[pos_c[hit]].astype(np.float32)
        scores = (weight * (tf / (tf + norm))).astype(np.float32)
        return Hits(docs.astype(np.int64), scores)

    # -- vocab expansion (fuzzy/regex/prefix): constant-score 1.0 -----------

    def _expand_union(self, field: str, codes: np.ndarray) -> Hits:
        ti = self.seg.text.get(field)
        if ti is None or len(codes) == 0:
            return Hits.empty()
        parts = [ti.postings(c)[0] for c in codes]
        if not parts:
            return Hits.empty()
        docs = np.unique(np.concatenate(parts))
        return Hits.const(docs)

    # -- main eval ----------------------------------------------------------

    def eval(self, q: ast.Query, boost: float = 1.0) -> Hits:
        m = getattr(self, "_eval_" + type(q).__name__, None)
        if m is None:
            raise NotImplementedError(f"eval for {type(q).__name__}")
        return m(q, boost)

    def _eval_All(self, q, boost):
        return Hits.const(np.arange(self.seg.num_docs), 1.0 * boost)

    def _eval_Empty(self, q, boost):
        return Hits.empty()

    def _eval_Term(self, q: ast.Term, boost):
        if "." in q.field and q.field not in self.schema.fields:
            base, path = q.field.split(".", 1)
            if base in self.schema.fields and self.schema.field(base).ftype == JSON:
                return self._json_term_hits(base, path, q.value, boost)
        f = self.schema.field(q.field)
        if f.ftype == JSON:
            raise ValueError("JSON term requires dot path")
        return self._term_hits(q.field, q.value, boost)

    def _term_docs(self, field: str, value) -> np.ndarray:
        """Matching doc ids for an exact term, unscored (no global-stats df
        dependence — TermSet queries are constant-score, `pdb_query.rs`)."""
        if "." in field and field not in self.schema.fields:
            base, path = field.split(".", 1)
            if base in self.schema.fields \
                    and self.schema.field(base).ftype == JSON:
                return np.flatnonzero(
                    self._json_term_doc_mask(base, path, value))
        f = self.schema.field(field)
        if f.ftype == TEXT:
            term = self._raw_query_term(field, value)
            ti = self.seg.text.get(field)
            if ti is None:
                return np.empty(0, dtype=np.int64)
            code = ti.term_code(term)
            if code < 0:
                return np.empty(0, dtype=np.int64)
            return ti.postings(code)[0].astype(np.int64)
        if f.ftype == KEYWORD:
            term = self._raw_query_term(field, value)
            return np.flatnonzero(self._keyword_values(field) == term)
        return np.flatnonzero(self._fast_term_mask(field, value))

    def _eval_TermSet(self, q: ast.TermSet, boost):
        parts = [self._term_docs(q.field, v) for v in q.terms]
        parts = [p for p in parts if len(p)]
        if not parts:
            return Hits.empty()
        return Hits.const(np.unique(np.concatenate(parts)), 1.0)

    def _eval_TermSetMulti(self, q: ast.TermSetMulti, boost):
        parts = [self._term_docs(f, v) for f, v in q.terms]
        parts = [p for p in parts if len(p)]
        if not parts:
            return Hits.empty()
        return Hits.const(np.unique(np.concatenate(parts)), 1.0)

    def _eval_Exists(self, q: ast.Exists, boost):
        if "." in q.field:  # JSON dot-path presence (`api/mod.rs:47`)
            base, path = q.field.split(".", 1)
            vals = self.seg.json_path_values(base, path)
            mask = np.array([v is not None for v in vals], dtype=bool)
            return _mask_to_hits(mask)
        f = self.schema.field(q.field)
        if f.ftype == TEXT and q.field in self.seg.text:
            return Hits.const(np.flatnonzero(self.seg.text[q.field].has_value))
        col = self.seg.column(q.field)
        mask = np.asarray(pc.is_valid(col))
        return _mask_to_hits(mask)

    def _eval_Range(self, q: ast.Range, boost):
        if "." in q.field:
            # JSON dot-path range (`json_range.sql`): extract values,
            # compare numerically (non-numeric / missing -> no match)
            base, path = q.field.split(".", 1)
            vals = self.seg.json_path_values(base, path)
            x = np.full(len(vals), np.nan)
            for i, v in enumerate(vals):
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    x[i] = v
            mask = ~np.isnan(x)
            lb, ub = q.lower_bound, q.upper_bound
            if lb.kind == "included":
                mask &= x >= float(lb.value)
            elif lb.kind == "excluded":
                mask &= x > float(lb.value)
            if ub.kind == "included":
                mask &= x <= float(ub.value)
            elif ub.kind == "excluded":
                mask &= x < float(ub.value)
            return _mask_to_hits(mask)
        f = self.schema.fields.get(q.field)
        if f is not None and f.ftype == NUMERIC:
            # scaled-i64 / NumericBytes comparison: bounds encode the same
            # way as the column, so integer/bytes order == numeric order
            rep, valid = self._numeric_repr(q.field)
            mask = valid.copy()
            lb, ub = q.lower_bound, q.upper_bound
            if lb.kind != "unbounded":
                bv = self._numeric_query_value(q.field, lb.value)
                mask &= (rep >= bv) if lb.kind == "included" else (rep > bv)
            if ub.kind != "unbounded":
                bv = self._numeric_query_value(q.field, ub.value)
                mask &= (rep <= bv) if ub.kind == "included" else (rep < bv)
            return _mask_to_hits(mask)
        col = self.seg.column(q.field)
        mask = None

        def apply(op, val):
            nonlocal mask
            v = _coerce_bound_value(col.type, val)
            m = np.asarray(op(col, v).fill_null(False))
            mask = m if mask is None else (mask & m)

        lb, ub = q.lower_bound, q.upper_bound
        if lb.kind == "included":
            apply(pc.greater_equal, lb.value)
        elif lb.kind == "excluded":
            apply(pc.greater, lb.value)
        if ub.kind == "included":
            apply(pc.less_equal, ub.value)
        elif ub.kind == "excluded":
            apply(pc.less, ub.value)
        if mask is None:
            mask = np.asarray(pc.is_valid(col))
        return _mask_to_hits(mask)

    # -- range-typed columns (`query/range.rs:1-309`) -----------------------

    def _range_cells(self, field: str):
        """Parse a range column — cells like
        ``[["inclusive", 2], ["exclusive", 10]]`` (or the JSON string) —
        into vectorized bound arrays (±inf for unbounded)."""
        key = ("__range__", field)
        cached = self.seg._json_cache.get(key)
        if cached is not None:
            return cached
        import json as _json

        col = self.seg.column(field).to_pylist()
        n = len(col)
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        lo_inc = np.ones(n, dtype=bool)
        hi_inc = np.ones(n, dtype=bool)
        valid = np.zeros(n, dtype=bool)
        for i, v in enumerate(col):
            if v is None:
                continue
            if isinstance(v, str):
                try:
                    v = _json.loads(v)
                except ValueError:
                    continue
            try:
                (lk, lv), (uk, uv) = v
            except (TypeError, ValueError):
                continue
            valid[i] = True
            if lv is not None:
                lo[i] = float(lv)
                lo_inc[i] = lk == "inclusive"
            if uv is not None:
                hi[i] = float(uv)
                hi_inc[i] = uk == "inclusive"
        out = (lo, hi, lo_inc, hi_inc, valid)
        self.seg._json_cache[key] = out
        return out

    @staticmethod
    def _arg_bounds(q):
        lb, ub = q.lower_bound, q.upper_bound
        alo = -np.inf if lb.kind == "unbounded" else float(lb.value)
        ahi = np.inf if ub.kind == "unbounded" else float(ub.value)
        return alo, lb.kind != "excluded", ahi, ub.kind != "excluded"

    def _eval_RangeTerm(self, q: ast.RangeTerm, boost):
        lo, hi, lo_inc, hi_inc, valid = self._range_cells(q.field)
        v = float(q.value)
        mask = valid & ((lo < v) | ((lo == v) & lo_inc)) \
            & ((hi > v) | ((hi == v) & hi_inc))
        return _mask_to_hits(mask)

    def _eval_RangeContains(self, q: ast.RangeContains, boost):
        lo, hi, lo_inc, hi_inc, valid = self._range_cells(q.field)
        alo, alinc, ahi, ahinc = self._arg_bounds(q)
        cover_lo = (lo < alo) | ((lo == alo) & (lo_inc | ~alinc))
        cover_hi = (hi > ahi) | ((hi == ahi) & (hi_inc | ~ahinc))
        return _mask_to_hits(valid & cover_lo & cover_hi)

    def _eval_RangeWithin(self, q: ast.RangeWithin, boost):
        lo, hi, lo_inc, hi_inc, valid = self._range_cells(q.field)
        alo, alinc, ahi, ahinc = self._arg_bounds(q)
        in_lo = (lo > alo) | ((lo == alo) & (alinc | ~lo_inc))
        in_hi = (hi < ahi) | ((hi == ahi) & (ahinc | ~hi_inc))
        return _mask_to_hits(valid & in_lo & in_hi)

    def _eval_RangeIntersects(self, q: ast.RangeIntersects, boost):
        lo, hi, lo_inc, hi_inc, valid = self._range_cells(q.field)
        alo, alinc, ahi, ahinc = self._arg_bounds(q)
        disjoint_r = (lo > ahi) | ((lo == ahi) & ~(lo_inc & ahinc))
        disjoint_l = (hi < alo) | ((hi == alo) & ~(hi_inc & alinc))
        return _mask_to_hits(valid & ~disjoint_l & ~disjoint_r)

    def _eval_Boolean(self, q: ast.Boolean, boost):
        must = [self.eval(c, boost) for c in q.must]
        should = [self.eval(c, boost) for c in q.should]
        if not q.must and not q.should:
            return Hits.empty()

        # clause scores add in clause order (must, then should), so the
        # f32 sums never depend on how membership is found
        if must:
            ids = must[0].ids
            for h in must[1:]:
                ids = ids[_member(ids, h.ids)[0]]
            if len(ids) == 0:
                return Hits.empty()
            scores = np.zeros(len(ids), dtype=np.float32)
            for h in must:
                scores += h.scores[_member(ids, h.ids)[1]]
            if should:
                found = [_member(ids, h.ids) for h in should]
                msm = q.minimum_should_match
                if msm:
                    keep = sum(m.astype(np.int32) for m, _ in found) >= msm
                    ids, scores = ids[keep], scores[keep]
                    found = [(m[keep], pos[keep]) for m, pos in found]
                for h, (m, pos) in zip(should, found):
                    scores[m] += h.scores[pos[m]]
        else:
            if not any(len(h) for h in should):
                return Hits.empty()
            ids = np.unique(np.concatenate([h.ids for h in should if len(h)]))
            scores = np.zeros(len(ids), dtype=np.float32)
            cnt = np.zeros(len(ids), dtype=np.int32)
            for h in should:
                pos = np.searchsorted(ids, h.ids)
                scores[pos] += h.scores
                cnt[pos] += 1
            msm = q.minimum_should_match
            if msm is None:
                msm = 1
            keep = cnt >= msm
            ids, scores = ids[keep], scores[keep]

        for c in q.must_not:
            h = self.eval(c, 1.0)
            if len(h):
                keep = ~_member(ids, h.ids)[0]
                ids, scores = ids[keep], scores[keep]
        return Hits(ids, scores)

    def _eval_Boost(self, q: ast.Boost, boost):
        return self.eval(q.query, boost * q.factor)

    def _eval_ConstScore(self, q: ast.ConstScore, boost):
        h = self.eval(q.query, 1.0)
        return Hits(h.ids, np.full(len(h.ids), _F32(q.score) * _F32(boost),
                                   dtype=np.float32))

    def _eval_ScoreFilter(self, q: ast.ScoreFilter, boost):
        h = self.eval(q.query, boost)
        keep = np.ones(len(h.ids), dtype=bool)
        for lo_hi in q.bounds:
            lo, hi = lo_hi
            # bounds may be raw values (inclusive) or the reference's
            # {"Included": v} / {"Excluded": v} / "Unbounded" encoding
            for bound, is_lower in ((lo, True), (hi, False)):
                if bound is None or bound == "Unbounded":
                    continue
                excl = isinstance(bound, dict) and "Excluded" in bound
                v = (list(bound.values())[0] if isinstance(bound, dict)
                     else bound)
                if is_lower:
                    keep &= (h.scores > _F32(v)) if excl \
                        else (h.scores >= _F32(v))
                else:
                    keep &= (h.scores < _F32(v)) if excl \
                        else (h.scores <= _F32(v))
        return Hits(h.ids[keep], h.scores[keep])

    def _eval_DisjunctionMax(self, q: ast.DisjunctionMax, boost):
        hits = [self.eval(c, boost) for c in q.disjuncts]
        hits = [h for h in hits if len(h)]
        if not hits:
            return Hits.empty()
        ids = np.unique(np.concatenate([h.ids for h in hits]))
        mx = np.zeros(len(ids), dtype=np.float32)
        sm = np.zeros(len(ids), dtype=np.float32)
        for h in hits:
            idx = np.searchsorted(ids, h.ids)
            np.maximum.at(mx, idx, h.scores)
            np.add.at(sm, idx, h.scores)
        tb = _F32(q.tie_breaker or 0.0)
        scores = (mx + tb * (sm - mx)).astype(np.float32)
        return Hits(ids, scores)

    # -- text analysis queries ---------------------------------------------

    def _field_tokens(self, field: str, value: str) -> list:
        # query-side tokenization honours search_tokenizer
        # (`search_tokenizer.sql` autocomplete pattern); a JSON dot-path
        # (`metadata->>'color' ||| 'white'`, `json_operator.sql`)
        # tokenizes with the base JSON field's analyzer
        if "." in field and field not in self.schema.fields:
            base = field.split(".", 1)[0]
            f = self.schema.fields.get(base)
            if f is not None and f.ftype == JSON:
                return f.analyzer.tokenize(value)
        return self.schema.field(field).search_analyzer.tokenize(value)

    def _eval_Match(self, q: ast.Match, boost):
        if q.tokenizer is not None:
            from paradedb_ray.text.tokenizers import tokenizer_from_config

            toks = tokenizer_from_config(q.tokenizer).tokenize(q.value)
        else:
            toks = self._field_tokens(q.field, q.value)
        if not toks:
            return Hits.empty()
        if q.conjunction_mode:
            toks = list(dict.fromkeys(toks))  # dedup, keep order (pdb_query.rs:1972)
        subs = []
        for t in toks:
            if q.distance > 0:
                subs.append(ast.FuzzyTerm(q.field, t, q.distance,
                                          q.transposition_cost_one, q.prefix))
            else:
                subs.append(ast.Term(q.field, t))
        occur = "must" if q.conjunction_mode else "should"
        return self._eval_Boolean(ast.Boolean(**{occur: subs}), boost)

    def _eval_MatchArray(self, q: ast.MatchArray, boost):
        """Pre-split Match (`pdb_query.rs:222-228`): tokens are used as
        terms verbatim (normalized like any query term), never re-run
        through the field tokenizer."""
        toks = list(q.tokens)
        if not toks:
            return Hits.empty()
        if q.conjunction_mode:
            toks = list(dict.fromkeys(toks))
        subs = []
        for t in toks:
            if q.distance > 0:
                subs.append(ast.FuzzyTerm(q.field, t, q.distance,
                                          q.transposition_cost_one, q.prefix))
            else:
                subs.append(ast.Term(q.field, t))
        occur = "must" if q.conjunction_mode else "should"
        return self._eval_Boolean(ast.Boolean(**{occur: subs}), boost)

    def _eval_Parse(self, q, boost):
        """A query string reaches here only from a direct caller: every
        pipeline and streaming entry binds its query first."""
        return self.eval(bind(q, self.schema), boost)

    _eval_ParseWithField = _eval_Parse

    # -- phrases ------------------------------------------------------------

    def _require_positions(self, field: str):
        """Positional queries on a field indexed without positions raise —
        `require_positions.sql` ('field was tokenized with ... which does
        not support this query type')."""
        ti = self.seg.text.get(field)
        if ti is not None and ti.g_pos_off is None:
            f = self.schema.fields.get(field)
            tok = getattr(f, "tokenizer", None) or {"type": "default"}
            raise ValueError(
                f"field {field!r} was indexed without positions "
                f"(tokenizer {tok!r}) and does not support this query type")

    def _phrase_hits(self, field: str, tokens: list, slop: int, boost) -> Hits:
        self._require_positions(field)
        ti = self.seg.text.get(field)
        if ti is None or not tokens:
            return Hits.empty()
        if len(tokens) == 1:
            return self._text_term_hits(field, tokens[0], boost)
        codes = [ti.term_code(t) for t in tokens]
        if any(c < 0 for c in codes):
            return Hits.empty()
        # a segment never changes, so its phrase matches are found once
        # and cached with it: standing phrase queries over persistent
        # streaming segments match positions once, not per epoch
        key = ("_phrase", field, tuple(codes), slop)
        got = self.seg._json_cache.get(key)
        if got is None:
            got = _phrase_tfs(ti, codes, slop)
            for a in got:
                if a is not None:  # hits share them: never written to
                    a.flags.writeable = False
            self.seg._json_cache[key] = got
        docs, tfs = got
        if docs is None:
            return Hits.empty()
        # phrase idf = sum of constituent term idfs (Lucene/tantivy for_terms)
        idf = _F32(0.0)
        for t in tokens:
            df = self.stats.df(field, t)
            if df > 0:
                idf = _F32(idf + idf_f32(df, self.stats.num_docs))
        weight = idf * _F32(boost) * (_ONE + self._field_k1(field))
        cache = self._norm_cache(field)
        norms = cache[ti.fieldnorm_ids[docs]]
        tff = tfs.astype(np.float32)
        return Hits(docs, (weight * (tff / (tff + norms))).astype(np.float32))

    def _eval_Phrase(self, q: ast.Phrase, boost):
        toks = []
        for w in q.phrases:
            toks.extend(self._field_tokens(q.field, w))
        return self._phrase_hits(q.field, toks, q.slop, boost)

    def _eval_PhraseArray(self, q: ast.PhraseArray, boost):
        return self._phrase_hits(q.field, list(q.tokens), q.slop, boost)

    def _eval_TokenizedPhrase(self, q: ast.TokenizedPhrase, boost):
        toks = self._field_tokens(q.field, q.phrase)
        return self._phrase_hits(q.field, toks, q.slop, boost)

    def _eval_PhrasePrefix(self, q: ast.PhrasePrefix, boost):
        ti = self.seg.text.get(q.field)
        if ti is None:
            return Hits.empty()
        toks = []
        for w in q.phrases:
            toks.extend(self._field_tokens(q.field, w))
        if not toks:
            return Hits.empty()
        prefix = toks[-1]
        lead = toks[:-1]
        # expand prefix in sorted vocab order, capped at max_expansions
        lo = np.searchsorted(ti.vocab, prefix)
        hi = np.searchsorted(ti.vocab, prefix + "￿")
        codes = np.arange(lo, hi)[: q.max_expansions]
        if len(codes) == 0:
            return Hits.empty()
        parts = []
        for c in codes:
            h = self._phrase_hits(q.field, lead + [str(ti.vocab[c])], 0, boost)
            if len(h):
                parts.append(h)
        if not parts:
            return Hits.empty()
        ids = np.unique(np.concatenate([h.ids for h in parts]))
        mx = np.zeros(len(ids), dtype=np.float32)
        for h in parts:
            idx = np.searchsorted(ids, h.ids)
            np.maximum.at(mx, idx, h.scores)
        return Hits(ids, mx)

    def _eval_RegexPhrase(self, q: ast.RegexPhrase, boost):
        """Positional phrase of regex-matched terms
        (`pdb_query.rs` RegexPhrase): each slot expands to the vocab terms
        matching its regex (capped at ``max_expansions``); a doc matches
        when some combination lines up within ``slop``.  Scored like a
        phrase whose per-slot df is the summed df of the expansions."""
        self._require_positions(q.field)
        ti = self.seg.text.get(q.field)
        if ti is None or not q.regexes:
            return Hits.empty()
        slot_codes = []
        for pat in q.regexes:
            codes = self._regex_vocab_codes(
                q.field, ti, pat)[: q.max_expansions].tolist()
            if not codes:
                return Hits.empty()
            slot_codes.append(codes)
        # candidate docs: intersection over slots of the union of postings
        cand = None
        slot_docs = []
        for codes in slot_codes:
            docs = np.unique(np.concatenate(
                [ti.postings(c)[0] for c in codes]))
            slot_docs.append(docs)
            cand = docs if cand is None else cand[_member(cand, docs)[0]]
        if cand is None or len(cand) == 0:
            return Hits.empty()
        if q.slop == 0:
            docs, tfs = _exact_phrase_tfs(ti, cand, slot_codes)
            if docs is None:
                return Hits.empty()
        else:
            # spread-window check vectorized across all candidates; each
            # slot's expansion codes merge into one sorted key stream
            docs, tfs = _sloppy_phrase_tfs(ti, cand, slot_codes, q.slop)
            if docs is None:
                return Hits.empty()
        idf = _F32(0.0)
        for codes in slot_codes:
            df = int(sum(ti.term_offsets[c + 1] - ti.term_offsets[c]
                         for c in codes))
            if df > 0:
                idf = _F32(idf + idf_f32(min(df, self.stats.num_docs),
                                         self.stats.num_docs))
        weight = idf * _F32(boost) * (_ONE + self._field_k1(q.field))
        cache = self._norm_cache(q.field)
        norms = cache[ti.fieldnorm_ids[docs]]
        tff = tfs.astype(np.float32)
        return Hits(docs, (weight * (tff / (tff + norms))).astype(np.float32))

    # -- vocab-expansion queries (const score 1.0) ---------------------------

    def _regex_vocab_codes(self, field: str, ti: TextFieldIndex,
                           pattern: str) -> np.ndarray:
        """Vocab codes whose term fullmatches ``pattern`` — vectorized
        (pandas str.fullmatch keeps Python `re` semantics in a C loop)
        and cached per segment, so standing queries over persistent
        streaming segments scan the term dict once, not per epoch."""
        key = ("_rx", field, pattern)
        codes = self.seg._json_cache.get(key)
        if codes is None:
            import pandas as pd

            m = pd.Series(ti.vocab, dtype=object).str.fullmatch(pattern)
            codes = np.flatnonzero(m.to_numpy(dtype=bool, na_value=False))
            self.seg._json_cache[key] = codes
        return codes

    def _eval_Regex(self, q: ast.Regex, boost):
        f = self.schema.field(q.field)
        if f.ftype == TEXT:
            ti = self.seg.text.get(q.field)
            if ti is None:
                return Hits.empty()
            return self._expand_union(
                q.field, self._regex_vocab_codes(q.field, ti, q.pattern))
        # keyword fast field: regex over column values
        import pandas as pd

        vals = self._keyword_values(q.field)
        m = pd.Series(vals, dtype=object).str.fullmatch(q.pattern)
        return _mask_to_hits(m.to_numpy(dtype=bool, na_value=False))

    def _eval_FuzzyTerm(self, q: ast.FuzzyTerm, boost):
        f = self.schema.field(q.field)
        term = self._raw_query_term(q.field, q.value)
        if f.ftype == TEXT:
            ti = self.seg.text.get(q.field)
            if ti is None:
                return Hits.empty()
            vocab = ti.vocab
        else:
            vocab = np.unique(self._keyword_values(q.field).astype(str))
        mmask = _fuzzy_match_mask(term, list(vocab), q.distance,
                                  q.transposition_cost_one, q.prefix)
        matches = np.nonzero(mmask)[0]
        if f.ftype == TEXT:
            return self._expand_union(q.field, matches.astype(np.int64))
        vals = self._keyword_values(q.field)
        mask = np.isin(vals, vocab[matches])
        return _mask_to_hits(mask)

    def _eval_Proximity(self, q: ast.Proximity, boost):
        self._require_positions(q.field)
        ti = self.seg.text.get(q.field)
        if ti is None:
            return Hits.empty()

        def clause_positions(clause):
            """-> dict doc -> sorted positions for a term/regex/list clause."""
            terms = []
            if isinstance(clause, str):
                if clause.startswith("/") and clause.endswith("/"):
                    terms = ti.vocab[self._regex_vocab_codes(
                        q.field, ti, clause[1:-1])].tolist()
                else:
                    terms = [self._raw_query_term(q.field, clause)]
            elif isinstance(clause, (list, tuple)):
                for c in clause:
                    terms.extend(
                        [self._raw_query_term(q.field, c)]
                        if not (isinstance(c, str) and c.startswith("/"))
                        else ti.vocab[self._regex_vocab_codes(
                            q.field, ti, c[1:-1])].tolist())
            posmap: dict = {}
            for t in terms:
                c = ti.term_code(str(t))
                if c < 0:
                    continue
                docs_c, _, (s, e) = ti.postings(c)
                for j, d in enumerate(docs_c):
                    arr = ti.positions(s + j)
                    if d in posmap:
                        posmap[d] = np.union1d(posmap[d], arr)
                    else:
                        posmap[d] = arr
            return posmap

        def clause_spans(clause) -> dict:
            """-> dict doc -> list[(start, end)] token spans matching the
            clause; nested ProximityClause pairs combine span-wise (the
            gap is tokens strictly between the two spans; inner pairs are
            unordered — `query/proximity/mod.rs` Clause semantics)."""
            if isinstance(clause, ast.ProximityClause):
                ls, rs = clause_spans(clause.left), clause_spans(clause.right)
                out = {}
                for d in set(ls) & set(rs):
                    spans = set()
                    for a in ls[d]:
                        for b in rs[d]:
                            first, second = (a, b) if a[0] <= b[0] else (b, a)
                            gap = second[0] - first[1] - 1
                            if 0 <= gap <= clause.distance:
                                spans.add((first[0], second[1]))
                    if spans:
                        out[d] = sorted(spans)
                return out
            return {d: [(int(p), int(p)) for p in ps]
                    for d, ps in clause_positions(clause).items()}

        left, right = clause_spans(q.left), clause_spans(q.right)
        docs = sorted(set(left) & set(right))
        out = []
        for d in docs:
            ok = False
            for a in left[d]:
                for b in right[d]:
                    if q.ordered:
                        gap = b[0] - a[1] - 1
                        if 0 <= gap <= q.distance:
                            ok = True
                            break
                    else:
                        first, second = (a, b) if a[0] <= b[0] else (b, a)
                        gap = second[0] - first[1] - 1
                        if 0 <= gap <= q.distance:
                            ok = True
                            break
                if ok:
                    break
            if ok:
                out.append(d)
        return Hits.const(np.asarray(out, dtype=np.int64))

    def _eval_HeapFilter(self, q: ast.HeapFilter, boost):
        h = self.eval(q.indexed_query, boost)
        if q.predicate is None or len(h) == 0:
            return h
        sub = self.seg.table.take(pa.array(h.ids))
        keep = np.asarray(q.predicate(sub), dtype=bool)
        return Hits(h.ids[keep], h.scores[keep])

    def _eval_MoreLikeThis(self, q: ast.MoreLikeThis, boost):
        """Extract "interesting" terms from the exemplar text and evaluate
        the resulting OR (`query/more_like_this.rs:31-80`): per-field term
        frequencies filtered by tf / word-length / stopword / doc-freq
        bounds, ranked by tf·idf, top ``max_query_terms`` kept.

        ``key_value`` exemplars must be resolved to ``document_fields``
        before distributed evaluation (see
        ``pipelines.search.resolve_more_like_this``) — a block-local lookup
        would only see its own partition."""
        if q.document_fields is None:
            raise ValueError(
                "MoreLikeThis.key_value must be resolved to document_fields "
                "before evaluation (resolve_more_like_this)")
        if not q.document_fields:  # resolved, exemplar absent: no matches
            return Hits.empty()
        stop = set(q.stop_words or ())
        field_order = {n: i for i, n in enumerate(self.schema.fields)}
        cands = []
        for field, text in q.document_fields:
            f = self.schema.fields.get(field)
            if f is None or text is None:
                continue
            tf: dict = {}
            toks = (f.analyzer.tokenize(text) if f.ftype == TEXT
                    else [text])
            for t in toks:
                tf[t] = tf.get(t, 0) + 1
            for t, c in tf.items():
                ts = t if isinstance(t, str) else str(t)
                if q.min_term_frequency is not None and c < q.min_term_frequency:
                    continue
                if q.min_word_length is not None and len(ts) < q.min_word_length:
                    continue
                if q.max_word_length is not None and len(ts) > q.max_word_length:
                    continue
                if t in stop:
                    continue
                df = self.stats.df(field, t)
                if q.min_doc_frequency is not None and df < q.min_doc_frequency:
                    continue
                if q.max_doc_frequency is not None and df > q.max_doc_frequency:
                    continue
                if df <= 0:
                    continue
                cands.append((field, t))
        # deterministic Term order (field schema position, then term
        # value) — mirrors the reference's per-field term map iteration:
        # with max_query_terms => 2 over doc 1's 'aaa bbb ccc' the kept
        # terms are {aaa, bbb}, matching the more_like_this.sql golden
        # ({1,2,4}), NOT a tf·idf top-k (which would keep the rarer
        # {bbb, ccc} and return only {1})
        cands.sort(key=lambda x: (field_order.get(x[0], 1 << 30),
                                  x[1] if isinstance(x[1], str) else "",
                                  str(x[1])))
        keep = cands[: (q.max_query_terms or 25)]
        if not keep:
            return Hits.empty()
        sub = ast.Boolean(should=[ast.Term(field=f_, value=t)
                                  for f_, t in keep])
        b = boost * (q.boost_factor if q.boost_factor is not None else 1.0)
        return self.eval(sub, b)

    # -- vector distance top-k ----------------------------------------------

    def knn(self, field: str, query_vec, op: str, k: int,
            filter_query=None, candidate_mask=None):
        """Distance-ordered top-k over a VECTOR fast field, optionally
        restricted to docs matching ``filter_query`` (and/or a visibility
        ``candidate_mask``) — the per-segment leg of the reference's
        `WHERE ... @@@ ... ORDER BY vec <op> q LIMIT k` pushdown
        (`vector_search_pushdown.sql`, `pg_search/src/vector/`).

        Operators carry pgvector semantics, ascending in every case:
        ``<->`` L2 distance, ``<=>`` cosine distance (1 − cos),
        ``<#>`` NEGATIVE inner product.  When the operator does not match
        the field's declared opclass metric the result is identical —
        only the plan differs (the reference falls back to a regular
        sort and warns; we warn for parity and compute the same answer).

        Returns ``(doc_ids int64, distances float64)`` sorted by
        (distance, doc_id), at most k rows.
        """
        metric = _VECTOR_OPS.get(op, op)
        if metric not in ("l2", "cosine", "ip"):
            raise ValueError(f"unknown vector operator {op!r}")
        fdef = self.schema.fields.get(field)
        if fdef is not None and fdef.metric != metric:
            import warnings

            warnings.warn(
                f"vector metric/opclass mismatch on {field!r}: index "
                f"declares {fdef.metric!r}, query uses {metric!r}; "
                "falling back to a full sort", stacklevel=2)
        mat, valid = self.seg.vector_matrix(field)
        mask = valid.copy()
        if candidate_mask is not None:
            mask &= np.asarray(candidate_mask, dtype=bool)
        if filter_query is not None:
            fmask = np.zeros(len(mask), dtype=bool)
            fmask[self.eval(filter_query).ids] = True
            mask &= fmask
        ids = np.flatnonzero(mask)
        if len(ids) == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        sub = mat[ids].astype(np.float64)
        q = np.asarray(query_vec, dtype=np.float64)
        if metric == "l2":
            d = sub - q
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        elif metric == "cosine":
            num = sub @ q
            den = np.linalg.norm(sub, axis=1) * np.linalg.norm(q)
            with np.errstate(invalid="ignore", divide="ignore"):
                dist = 1.0 - np.where(den > 0, num / den, 0.0)
        else:  # ip
            dist = -(sub @ q)
        if k < len(ids):
            # prune to the k smallest, then widen to every tie at the
            # boundary so the (dist, id) tie-break is exact
            part = np.argpartition(dist, k - 1)[:k]
            thresh = dist[part].max()
            cand = np.flatnonzero(dist <= thresh)
        else:
            cand = np.arange(len(ids))
        order = np.lexsort((ids[cand], dist[cand]))[:k]
        sel = cand[order]
        return ids[sel].astype(np.int64), dist[sel]


#: pgvector operator -> metric name (`vector_search_pushdown.sql`)
_VECTOR_OPS = {"<->": "l2", "<=>": "cosine", "<#>": "ip"}


def _coerce_bound_value(typ: pa.DataType, val):
    """String query literals against temporal columns parse as typed
    values — `parse.sql`: ``created_at:"2023-05-01 09:12:34"``,
    ``last_updated_date:"2023-05-03"``, ``latest_available_time:"09:12:34"``
    and the tz-suffixed forms are all datetime terms, not text."""
    if not isinstance(val, str):
        return val
    import datetime as _dt

    try:
        if pa.types.is_timestamp(typ):
            v = _dt.datetime.fromisoformat(val)
            if v.tzinfo is not None and typ.tz is None:
                # naive column stores UTC instants (the reference converts
                # timestamptz to UTC at index time)
                v = v.astimezone(_dt.timezone.utc).replace(tzinfo=None)
            return v
        if pa.types.is_date(typ):
            return _dt.date.fromisoformat(val)
        if pa.types.is_time(typ):
            # time64 has no zone; a "+00" suffix means UTC wall time
            t = _dt.time.fromisoformat(val)
            if t.tzinfo is not None:
                t = t.replace(tzinfo=None)
            return t
    except ValueError:
        return val
    return val


def _slot_keys(ti, cand: np.ndarray, codes, slot_idx: int,
               offset: int) -> np.ndarray:
    """int64 keys ``rank * 2^33 + (pos - slot_idx + offset)`` for every
    token position of ``codes`` inside the candidate docs, where ``rank``
    indexes into ``cand``.  Shifting by the slot index turns exact phrase
    adjacency into plain key equality across slots; ``offset`` keeps the
    low part positive so the rank survives a right-shift decode."""
    parts = []
    for c in codes:
        docs_c, _, (s, e) = ti.postings(c)
        j = np.searchsorted(docs_c, cand)
        jc = np.minimum(j, len(docs_c) - 1)
        present = (j < len(docs_c)) & (docs_c[jc] == cand)
        gi = s + j[present]
        ranks = np.nonzero(present)[0].astype(np.int64)
        starts = ti.g_pos_off[gi]
        counts = (ti.g_pos_off[gi + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            continue
        # vectorized multi-slice gather of the position runs
        rep = np.repeat(ranks, counts)
        csum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        flat = np.repeat(starts - csum, counts) + np.arange(total)
        pos = ti.pos_flat[flat].astype(np.int64)
        parts.append(rep * (1 << 33) + (pos - slot_idx + offset))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _phrase_tfs(ti, codes: list, slop: int):
    """(docs int64, tfs int32) of the phrase of vocab ``codes`` with
    ``slop``, or (None, None) when nothing matches."""
    # candidate docs = intersection of posting doc lists
    cand = ti.postings(codes[0])[0]
    for c in codes[1:]:
        cand = cand[_member(cand, ti.postings(c)[0])[0]]
    if len(cand) == 0:
        return None, None
    if slop == 0:
        # exact adjacency, fully vectorized across candidates: one
        # (doc_rank, position - slot) key stream per slot, folded by
        # set intersection — no per-doc Python loop
        return _exact_phrase_tfs(ti, cand, [[c] for c in codes])
    # Lucene-style spread window, vectorized across candidates
    return _sloppy_phrase_tfs(ti, cand, [[c] for c in codes], slop)


def _exact_phrase_tfs(ti, cand: np.ndarray, slot_codes):
    """(docs int64, tfs int32) of exact (slop=0) phrase matches over the
    candidate docs, or (None, None) when nothing matches.  Each slot may
    expand to several vocab codes (RegexPhrase); a match is a position p
    with a slot-k token at p+k for every k.  Fully vectorized: one key
    stream per slot folded by ``np.intersect1d``."""
    off = len(slot_codes)
    cur = _slot_keys(ti, cand, slot_codes[0], 0, off)
    for k in range(1, len(slot_codes)):
        if len(cur) == 0:
            return None, None
        nxt = _slot_keys(ti, cand, slot_codes[k], k, off)
        # keys are unique per slot: one token occupies one position, and
        # a slot's expansion codes are distinct terms
        cur = np.intersect1d(cur, nxt, assume_unique=True)
    if len(cur) == 0:
        return None, None
    ranks = cur >> 33
    tf = np.bincount(ranks, minlength=len(cand))
    mask = tf > 0
    return cand[mask].astype(np.int64), tf[mask].astype(np.int32)


def _sloppy_phrase_tfs(ti, cand: np.ndarray, slot_codes, slop: int):
    """(docs int64, tfs int32) of slop>0 phrase matches over the
    candidate docs, or (None, None) when nothing matches.  Semantics are
    identical to the per-doc ``_phrase_freq`` greedy spread check (kept
    below as the property-test oracle): every slot-0 position anchors an
    alignment, each later slot contributes its nearest adjusted position
    (ties to the left), and the alignment counts when the spread
    ``max - min <= slop``.  Vectorized over every anchor of every
    candidate at once via the rank-keyed streams of ``_slot_keys`` —
    same-rank nearest neighbours fall out of one searchsorted per slot,
    and key differences equal adjusted-position differences because all
    slots share one offset."""
    off = len(slot_codes)
    anchors = np.sort(_slot_keys(ti, cand, slot_codes[0], 0, off))
    if len(anchors) == 0:
        return None, None
    a_rank = anchors >> 33
    alive = np.ones(len(anchors), dtype=bool)
    lo = anchors.copy()
    hi = anchors.copy()
    for k in range(1, len(slot_codes)):
        keys = np.sort(_slot_keys(ti, cand, slot_codes[k], k, off))
        if len(keys) == 0:
            return None, None
        j = np.searchsorted(keys, anchors)
        jl = j - 1
        has_l = jl >= 0
        kl = keys[np.maximum(jl, 0)]
        valid_l = has_l & ((kl >> 33) == a_rank)
        has_r = j < len(keys)
        kr = keys[np.minimum(j, len(keys) - 1)]
        valid_r = has_r & ((kr >> 33) == a_rank)
        # left candidate is < anchor, right is >= anchor; the scalar
        # oracle keeps the left on an exact distance tie
        dist_l = np.where(valid_l, anchors - kl, np.int64(1) << 40)
        dist_r = np.where(valid_r, kr - anchors, np.int64(1) << 40)
        best = np.where(dist_l <= dist_r, kl, kr)
        alive &= valid_l | valid_r
        lo = np.minimum(lo, best)
        hi = np.maximum(hi, best)
        alive &= (hi - lo) <= slop
        if not alive.any():
            return None, None
    tf = np.bincount(a_rank[alive], minlength=len(cand))
    mask = tf > 0
    return cand[mask].astype(np.int64), tf[mask].astype(np.int32)


def _phrase_freq(plists: list, slop: int) -> int:
    """Number of phrase matches in a doc.

    slop=0: exact adjacency via intersection of shifted position lists.
    slop>0: Lucene-style spread check — an alignment matches when
    max(p_i - i) - min(p_i - i) <= slop.
    """
    if slop == 0:
        cur = plists[0]
        for i, pl in enumerate(plists[1:], start=1):
            cur = np.intersect1d(cur, pl - i, assume_unique=True)
            if len(cur) == 0:
                return 0
        return len(cur)
    adjusted = [pl - i for i, pl in enumerate(plists)]
    count = 0
    for p0 in adjusted[0]:
        lo = hi = p0
        ok = True
        for arr in adjusted[1:]:
            j = np.searchsorted(arr, p0)
            best = None
            for cand_idx in (j - 1, j):
                if 0 <= cand_idx < len(arr):
                    c = arr[cand_idx]
                    if best is None or abs(c - p0) < abs(best - p0):
                        best = c
            if best is None:
                ok = False
                break
            lo, hi = min(lo, best), max(hi, best)
            if hi - lo > slop:
                ok = False
                break
        if ok:
            count += 1
    return count


def _pad_codepoints(terms) -> tuple:
    """(codes uint32 [n, L], lengths int64 [n]) — terms packed into one
    padded codepoint matrix via a single utf-32 encode (no per-char
    Python loop)."""
    n = len(terms)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    L = int(lens.max()) if n else 0
    codes = np.frombuffer("".join(terms).encode("utf-32-le"),
                          dtype=np.uint32)
    B = np.zeros((n, L), dtype=np.uint32)
    if n and L:
        csum = np.concatenate(([0], np.cumsum(lens)[:-1]))
        cols = np.arange(L)
        mask = cols[None, :] < lens[:, None]
        flat = csum[:, None] + cols[None, :]
        B[mask] = codes[flat[mask]]
    return B, lens


def _fuzzy_match_mask(query: str, terms, max_dist: int,
                      transposition_cost_one: bool,
                      prefix: bool) -> np.ndarray:
    """bool [len(terms)]: which terms are within Damerau-ish Levenshtein
    ``max_dist`` of ``query`` (or, with ``prefix``, have a prefix that
    is).  Vectorized banded DP: the band |j - i| <= d is carried as
    2d+1 diagonals, each row update a handful of numpy ops over ALL
    candidate terms — the per-term Python DP (`_lev`) only remains as
    the property-test oracle."""
    n = len(terms)
    if n == 0:
        return np.zeros(0, dtype=bool)
    d = int(max_dist)
    m = len(query)
    all_lens = np.fromiter((len(t) for t in terms), dtype=np.int64,
                           count=n)
    if m == 0:
        return (all_lens <= d) if not prefix \
            else np.ones(n, dtype=bool)
    # length prefilter: |len - m| > d can never match (prefix mode only
    # needs len >= m - d); run the DP over the survivors alone
    if prefix:
        cand = np.nonzero(all_lens >= m - d)[0]
    else:
        cand = np.nonzero(np.abs(all_lens - m) <= d)[0]
    if len(cand) == 0:
        return np.zeros(n, dtype=bool)
    if len(cand) < n:
        sub = _fuzzy_match_mask(query, [terms[i] for i in cand],
                                max_dist, transposition_cost_one, prefix)
        out = np.zeros(n, dtype=bool)
        out[cand] = sub
        return out
    B, lens = _pad_codepoints(terms)
    L = B.shape[1]
    q = np.frombuffer(query.encode("utf-32-le"), dtype=np.uint32)
    INF = np.int32(d + 1)
    W = 2 * d + 1

    # V[i][k] = dp[i][j] with j = i + k - d, clipped at INF
    def col(j):
        """B[:, j-1] char column or 0-sentinel when out of range."""
        if 1 <= j <= L:
            return B[:, j - 1]
        return None

    # row i = 0: dp[0][j] = j
    V = np.full((W, n), INF, dtype=np.int32)
    for k in range(W):
        j = k - d
        if 0 <= j <= d:
            V[k] = min(j, d + 1)
    Vpp = None  # V_{i-2}
    # prefix mode tracks the best dp[m][j] over all valid j <= len
    for i in range(1, m + 1):
        Vn = np.full((W, n), INF, dtype=np.int32)
        for k in range(W):
            j = i + k - d
            if j < 0 or j > L:
                continue
            best = np.full(n, INF, dtype=np.int32)
            # deletion in term / insertion in query: dp[i-1][j] + 1
            if k + 1 < W:
                best = np.minimum(best, V[k + 1] + 1)
            # insertion in term: dp[i][j-1] + 1
            if k >= 1:
                best = np.minimum(best, Vn[k - 1] + 1)
            # substitution / match: dp[i-1][j-1] + cost
            if j >= 1:
                c = col(j)
                cost = (c != q[i - 1]).astype(np.int32)
                best = np.minimum(best, V[k] + cost)
                # transposition: dp[i-2][j-2] + 1
                if (transposition_cost_one and i >= 2 and j >= 2
                        and Vpp is not None):
                    c2 = col(j - 1)
                    tr = (c2 == q[i - 1]) & (c == q[i - 2])
                    best = np.minimum(
                        best, np.where(tr, Vpp[k] + 1, INF))
            Vn[k] = np.minimum(best, INF)
        Vpp, V = V, Vn
    # final: dp[m][lb] per term (prefix: min over j in [0, lb])
    out = np.zeros(n, dtype=bool)
    for k in range(W):
        j = m + k - d
        if j < 0 or j > L:
            continue
        ok = V[k] <= d
        if prefix:
            out |= ok & (lens >= j)
        else:
            out |= ok & (lens == j)
    return out


def _lev(a: str, b: str, cutoff: int, transpositions: bool) -> int:
    if abs(len(a) - len(b)) > cutoff:
        return cutoff + 1
    la, lb = len(a), len(b)
    prev2 = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (transpositions and i > 1 and j > 1
                    and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]):
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        if min(cur) > cutoff:
            return cutoff + 1
        prev2, prev = prev, cur
    return prev[lb]
