"""Query AST mirroring pg_search's ``SearchQueryInput``
(`/root/reference/pg_search/src/query/mod.rs:65-144`) and the per-field
``pdb::Query`` (`pg_search/src/query/pdb_query.rs:149-327`).

The JSON round-trip matches the serialized form pg_search prints in EXPLAIN
(``Tantivy Query: {...}``), e.g.::

    {"boolean": {"should": [
        {"parse_with_field": {"field": "description",
                              "query_string": "keyboard",
                              "lenient": null, "conjunction_mode": null}},
        {"range": {"field": "rating",
                   "lower_bound": {"excluded": 2}, "upper_bound": null}}]}}

(`pg_search/tests/pg_regress/expected/topk_scores.out`), which gives us free
conformance vectors for the AST layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dfield
from typing import Any, Callable, Optional, Sequence


class Query:
    """Base class for all query AST nodes."""

    def to_json(self) -> Any:
        raise NotImplementedError

    # -- convenience combinators -------------------------------------------
    def __and__(self, other: "Query") -> "Query":
        return Boolean(must=[self, other])

    def __or__(self, other: "Query") -> "Query":
        return Boolean(should=[self, other])

    def __invert__(self) -> "Query":
        return Boolean(must=[All()], must_not=[self])

    def boost(self, factor: float) -> "Query":
        return Boost(self, factor)

    def const_score(self, score: float) -> "Query":
        return ConstScore(self, score)


# ---------------------------------------------------------------------------
# Bounds (serde shape: {"included": v} | {"excluded": v} | None)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    kind: str  # "included" | "excluded" | "unbounded"
    value: Any = None

    @staticmethod
    def included(v) -> "Bound":
        return Bound("included", v)

    @staticmethod
    def excluded(v) -> "Bound":
        return Bound("excluded", v)

    @staticmethod
    def unbounded() -> "Bound":
        return Bound("unbounded")

    def to_json(self):
        if self.kind == "unbounded":
            return None
        return {self.kind: self.value}

    @staticmethod
    def from_json(j) -> "Bound":
        if j is None or j == "unbounded":
            return Bound.unbounded()
        [(k, v)] = j.items()
        return Bound(k, v)


# ---------------------------------------------------------------------------
# Top-level variants (SearchQueryInput)
# ---------------------------------------------------------------------------


@dataclass
class All(Query):
    def to_json(self):
        return "all"


@dataclass
class Empty(Query):
    def to_json(self):
        return "empty"


@dataclass
class Boolean(Query):
    must: list = dfield(default_factory=list)
    should: list = dfield(default_factory=list)
    must_not: list = dfield(default_factory=list)
    minimum_should_match: Optional[int] = None

    def to_json(self):
        b = {}
        if self.must:
            b["must"] = [q.to_json() for q in self.must]
        if self.should:
            b["should"] = [q.to_json() for q in self.should]
        if self.must_not:
            b["must_not"] = [q.to_json() for q in self.must_not]
        if self.minimum_should_match is not None:
            b["minimum_should_match"] = self.minimum_should_match
        return {"boolean": b}


@dataclass
class Boost(Query):
    query: Query
    factor: float

    def to_json(self):
        return {"boost": {"query": self.query.to_json(), "factor": self.factor}}


@dataclass
class ConstScore(Query):
    query: Query
    score: float

    def to_json(self):
        return {"const_score": {"query": self.query.to_json(), "score": self.score}}


@dataclass
class ScoreFilter(Query):
    """Keep hits whose score falls within ``bounds`` (list of (lo, hi))."""

    bounds: list  # list[tuple[Optional[float], Optional[float]]]
    query: Optional[Query] = None

    def to_json(self):
        # reference encoding (`expected/score_filter.out`):
        # bounds = [[{"Included": lo} | {"Excluded": lo} | "Unbounded", ...]]
        def b(v, included=True):
            if v is None:
                return "Unbounded"
            if isinstance(v, dict):  # already encoded
                return v
            return {"Included" if included else "Excluded": float(v)}

        enc = [[b(lo), b(hi)] for lo, hi in self.bounds]
        return {"score_filter": {"bounds": enc,
                                 "query": self.query.to_json() if self.query else None}}


@dataclass
class DisjunctionMax(Query):
    disjuncts: list
    tie_breaker: Optional[float] = None

    def to_json(self):
        return {"disjunction_max": {
            "disjuncts": [q.to_json() for q in self.disjuncts],
            "tie_breaker": self.tie_breaker,
        }}


@dataclass
class Parse(Query):
    """Query-string over the schema's default search fields (tantivy mini
    language; this is ``paradedb.parse``)."""

    query_string: str
    lenient: Optional[bool] = None
    conjunction_mode: Optional[bool] = None

    def to_json(self):
        return {"parse": {"query_string": self.query_string,
                          "lenient": self.lenient,
                          "conjunction_mode": self.conjunction_mode}}


@dataclass
class TermSetMulti(Query):
    """Multi-(field,term) disjunction, no per-term scoring (score 0.0)."""

    terms: list  # list[tuple[field, value]]

    def to_json(self):
        return {"term_set": {"terms": [[f, v] for f, v in self.terms]}}


@dataclass
class HeapFilter(Query):
    """Indexed search AND arbitrary post-filter over the raw columns
    (`query/heap_field_filter.rs`).  ``predicate`` is a callable
    ``pa.Table -> bool ndarray``; ``sql`` carries an equivalent DuckDB
    expression when available (for oracles / serialization)."""

    indexed_query: Query
    predicate: Any = None
    sql: Optional[str] = None

    def to_json(self):
        return {"heap_filter": {"indexed_query": self.indexed_query.to_json(),
                                "field_filters": self.sql}}


# ---------------------------------------------------------------------------
# Per-field variants (pdb::Query), serialized flat like the reference
# ---------------------------------------------------------------------------


@dataclass
class Term(Query):
    field: str
    value: Any

    def to_json(self):
        return {"term": {"field": self.field, "value": self.value}}


@dataclass
class TermSet(Query):
    field: str
    terms: list

    def to_json(self):
        return {"term_set": {"field": self.field, "terms": list(self.terms)}}


@dataclass
class Exists(Query):
    field: str

    def to_json(self):
        return {"exists": {"field": self.field}}


@dataclass
class FuzzyTerm(Query):
    field: str
    value: str
    distance: int = 2
    transposition_cost_one: bool = True
    prefix: bool = False

    def to_json(self):
        return {"fuzzy_term": {"field": self.field, "value": self.value,
                               "distance": self.distance,
                               "transposition_cost_one": self.transposition_cost_one,
                               "prefix": self.prefix}}


@dataclass
class Match(Query):
    """Tokenize ``value`` with the field tokenizer; Boolean of term (or
    fuzzy-term if distance>0) queries — the ``&&&``/``|||`` operators
    (`pdb_query.rs:1931-1998`)."""

    field: str
    value: str
    tokenizer: Optional[dict] = None
    distance: int = 0
    transposition_cost_one: bool = True
    prefix: bool = False
    conjunction_mode: bool = False

    def to_json(self):
        return {"match": {"field": self.field, "value": self.value,
                          "tokenizer": self.tokenizer, "distance": self.distance,
                          "transposition_cost_one": self.transposition_cost_one,
                          "prefix": self.prefix,
                          "conjunction_mode": self.conjunction_mode}}


@dataclass
class MatchArray(Query):
    """Match over PRE-SPLIT tokens — the caller already tokenized, so the
    field analyzer is bypassed (`pdb_query.rs:222-228`; fuzzy query-string
    rewrites produce this shape, `pdb_query.rs:389-395`)."""

    field: str
    tokens: Sequence[str] = ()
    distance: int = 0
    transposition_cost_one: bool = True
    prefix: bool = False
    conjunction_mode: bool = False

    def to_json(self):
        return {"match_array": {
            "field": self.field, "tokens": list(self.tokens),
            "distance": self.distance,
            "transposition_cost_one": self.transposition_cost_one,
            "prefix": self.prefix,
            "conjunction_mode": self.conjunction_mode}}


@dataclass
class ParseWithField(Query):
    """Query-string scoped to one field — the ``@@@`` operator."""

    field: str
    query_string: str
    lenient: Optional[bool] = None
    conjunction_mode: Optional[bool] = None

    def to_json(self):
        return {"parse_with_field": {"field": self.field,
                                     "query_string": self.query_string,
                                     "lenient": self.lenient,
                                     "conjunction_mode": self.conjunction_mode}}


@dataclass
class Phrase(Query):
    """Positional phrase from pre-split words (each word is additionally
    tokenized by the field tokenizer)."""

    field: str
    phrases: Sequence[str]
    slop: int = 0

    def to_json(self):
        return {"phrase": {"field": self.field, "phrases": list(self.phrases),
                           "slop": self.slop}}


@dataclass
class PhraseArray(Query):
    """Phrase from exact tokens (no re-tokenization)."""

    field: str
    tokens: Sequence[str]
    slop: int = 0

    def to_json(self):
        return {"phrase_array": {"field": self.field, "tokens": list(self.tokens),
                                 "slop": self.slop}}


@dataclass
class TokenizedPhrase(Query):
    """Tokenize the whole string, phrase over resulting tokens — ``###``."""

    field: str
    phrase: str
    slop: int = 0

    def to_json(self):
        return {"tokenized_phrase": {"field": self.field, "phrase": self.phrase,
                                     "slop": self.slop}}


@dataclass
class PhrasePrefix(Query):
    field: str
    phrases: Sequence[str]
    max_expansions: int = 50

    def to_json(self):
        return {"phrase_prefix": {"field": self.field, "phrases": list(self.phrases),
                                  "max_expansions": self.max_expansions}}


@dataclass
class Regex(Query):
    field: str
    pattern: str

    def to_json(self):
        return {"regex": {"field": self.field, "pattern": self.pattern}}


@dataclass
class RegexPhrase(Query):
    field: str
    regexes: Sequence[str]
    slop: int = 0
    max_expansions: int = 50

    def to_json(self):
        return {"regex_phrase": {"field": self.field, "regexes": list(self.regexes),
                                 "slop": self.slop,
                                 "max_expansions": self.max_expansions}}


@dataclass
class Range(Query):
    field: str
    lower_bound: Bound = dfield(default_factory=Bound.unbounded)
    upper_bound: Bound = dfield(default_factory=Bound.unbounded)

    def __post_init__(self):
        # accept None for an unbounded side (the reference's serde null)
        if self.lower_bound is None:
            self.lower_bound = Bound.unbounded()
        if self.upper_bound is None:
            self.upper_bound = Bound.unbounded()

    def to_json(self):
        # a None bound means unbounded and serializes as null, matching
        # the reference's serde form (`"upper_bound":null`, topk_scores.out)
        lo, hi = self.lower_bound, self.upper_bound
        return {"range": {"field": self.field,
                          "lower_bound": None if lo is None else lo.to_json(),
                          "upper_bound": None if hi is None else hi.to_json()}}


@dataclass
class RangeTerm(Query):
    """``value <@ range_field`` — range-typed column contains a value."""

    field: str
    value: Any

    def to_json(self):
        return {"range_term": {"field": self.field, "value": self.value}}


@dataclass
class RangeContains(Query):
    """``range_field @> [lower, upper]`` — the stored range contains the
    argument range (`pdb_query.rs` RangeContains, `query/range.rs`)."""

    field: str
    lower_bound: Bound = dfield(default_factory=Bound.unbounded)
    upper_bound: Bound = dfield(default_factory=Bound.unbounded)

    def to_json(self):
        return {"range_contains": {"field": self.field,
                                   "lower_bound": self.lower_bound.to_json(),
                                   "upper_bound": self.upper_bound.to_json()}}


@dataclass
class RangeIntersects(Query):
    """``range_field && [lower, upper]`` — ranges overlap."""

    field: str
    lower_bound: Bound = dfield(default_factory=Bound.unbounded)
    upper_bound: Bound = dfield(default_factory=Bound.unbounded)

    def to_json(self):
        return {"range_intersects": {
            "field": self.field,
            "lower_bound": self.lower_bound.to_json(),
            "upper_bound": self.upper_bound.to_json()}}


@dataclass
class RangeWithin(Query):
    """``range_field <@ [lower, upper]`` — the stored range lies within
    the argument range."""

    field: str
    lower_bound: Bound = dfield(default_factory=Bound.unbounded)
    upper_bound: Bound = dfield(default_factory=Bound.unbounded)

    def to_json(self):
        return {"range_within": {"field": self.field,
                                 "lower_bound": self.lower_bound.to_json(),
                                 "upper_bound": self.upper_bound.to_json()}}


@dataclass
class Proximity(Query):
    """Ordered/unordered "left within N tokens of right"
    (`query/proximity/mod.rs`).  left/right are term strings or lists of
    alternatives."""

    field: str
    left: Any
    distance: int
    right: Any
    ordered: bool = False

    def to_json(self):
        return {"proximity": {"field": self.field, "left": self.left,
                              "distance": self.distance, "right": self.right,
                              "ordered": self.ordered}}


@dataclass
class ProximityClause:
    """Nested proximity group (`query/proximity/mod.rs` Clause): an inner
    "left within N of right" pair usable as a side of :class:`Proximity`.
    Inner pairs are unordered; ordering applies only at the top operator
    (``pdb.proximity`` vs ``pdb.proximity_in_order``)."""

    left: Any
    distance: int
    right: Any

    def to_json(self):
        def j(x):
            return x.to_json() if isinstance(x, ProximityClause) else x

        return {"prox_clause": {"left": j(self.left),
                                "distance": self.distance,
                                "right": j(self.right)}}


@dataclass
class MoreLikeThis(Query):
    document_fields: Optional[list] = None
    key_value: Any = None
    #: restrict which columns the exemplar contributes (the reference's
    #: ``pdb.more_like_this(id, ARRAY['field'])`` second argument)
    fields: Optional[list] = None
    min_doc_frequency: Optional[int] = None
    max_doc_frequency: Optional[int] = None
    min_term_frequency: Optional[int] = None
    max_query_terms: Optional[int] = 25
    min_word_length: Optional[int] = None
    max_word_length: Optional[int] = None
    boost_factor: Optional[float] = None
    stop_words: Optional[list] = None

    def to_json(self):
        return {"more_like_this": {
            "document_fields": self.document_fields, "key_value": self.key_value,
            "min_doc_frequency": self.min_doc_frequency,
            "max_doc_frequency": self.max_doc_frequency,
            "min_term_frequency": self.min_term_frequency,
            "max_query_terms": self.max_query_terms,
            "min_word_length": self.min_word_length,
            "max_word_length": self.max_word_length,
            "boost_factor": self.boost_factor, "stop_words": self.stop_words}}


# ---------------------------------------------------------------------------
# Child queries: the one walk
# ---------------------------------------------------------------------------

#: node attributes that hold child queries: a list of them, or one node
_CHILD_ATTRS = ("must", "should", "must_not", "disjuncts", "query",
                "indexed_query")


def _child_slots(q: Query):
    """``(attribute, children)`` for each attribute of ``q`` holding child
    queries; ``children`` is a list, or a query when the slot holds one."""
    for attr in _CHILD_ATTRS:
        sub = getattr(q, attr, None)
        if isinstance(sub, Query) or (isinstance(sub, (list, tuple)) and sub):
            yield attr, sub


def children(q: Query):
    """The direct child queries of ``q``.  Every query analysis (stat
    requests, positions, single-scan terms, column pruning, the stats-pass
    decision) recurses through here, and so does :func:`rewrite`."""
    for _, sub in _child_slots(q):
        yield from (sub if isinstance(sub, (list, tuple)) else (sub,))


def rewrite(q: Query, fn: Callable[[Query], Query]) -> Query:
    """Bottom-up copy-on-write rewrite: each node, its children rewritten
    first, is replaced by ``fn(node)``.  A node is copied only when one
    of its children changed, so the input tree is never mutated and an
    ``fn`` that changes nothing returns ``q`` itself."""
    changed = {}
    for attr, sub in _child_slots(q):
        many = isinstance(sub, (list, tuple))
        old = list(sub) if many else [sub]
        new = [rewrite(c, fn) for c in old]
        if any(n is not o for n, o in zip(new, old)):
            changed[attr] = new if many else new[0]
    return fn(dataclasses.replace(q, **changed) if changed else q)


# ---------------------------------------------------------------------------
# JSON -> AST
# ---------------------------------------------------------------------------

_SIMPLE = {"all": All, "empty": Empty}


def from_json(j: Any) -> Query:
    if isinstance(j, str):
        cls = _SIMPLE.get(j)
        if cls is None:
            raise ValueError(f"unknown query: {j!r}")
        return cls()
    [(kind, body)] = j.items()
    if kind == "boolean":
        return Boolean(
            must=[from_json(q) for q in body.get("must", [])],
            should=[from_json(q) for q in body.get("should", [])],
            must_not=[from_json(q) for q in body.get("must_not", [])],
            minimum_should_match=body.get("minimum_should_match"),
        )
    if kind == "with_index":  # binding wrapper: unwrap (partition routing)
        return from_json(body["query"])
    if kind == "boost":
        return Boost(from_json(body["query"]), body["factor"])
    if kind == "const_score":
        return ConstScore(from_json(body["query"]), body["score"])
    if kind == "disjunction_max":
        return DisjunctionMax([from_json(q) for q in body["disjuncts"]],
                              body.get("tie_breaker"))
    if kind == "score_filter":
        # keep the reference's Included/Excluded dict encoding — the
        # evaluator understands it (raw numbers mean inclusive)
        bounds = [(None if lo == "Unbounded" else lo,
                   None if hi == "Unbounded" else hi)
                  for lo, hi in body["bounds"]]
        q = body.get("query")
        return ScoreFilter(bounds, from_json(q) if q else None)
    if kind == "parse":
        return Parse(body["query_string"], body.get("lenient"),
                     body.get("conjunction_mode"))
    if kind == "parse_with_field":
        return ParseWithField(body["field"], body["query_string"],
                              body.get("lenient"), body.get("conjunction_mode"))
    if kind == "term":
        return Term(body["field"], body["value"])
    if kind == "term_set":
        if "field" in body:
            return TermSet(body["field"], body["terms"])
        return TermSetMulti([tuple(t) for t in body["terms"]])
    if kind == "exists":
        return Exists(body["field"])
    if kind == "fuzzy_term":
        return FuzzyTerm(body["field"], body["value"],
                         body.get("distance", 2),
                         body.get("transposition_cost_one", True),
                         body.get("prefix", False))
    if kind == "match":
        return Match(body["field"], body["value"], body.get("tokenizer"),
                     body.get("distance") or 0,
                     body.get("transposition_cost_one", True),
                     body.get("prefix", False),
                     body.get("conjunction_mode") or False)
    if kind == "match_array":
        return MatchArray(body["field"], body["tokens"],
                          body.get("distance") or 0,
                          body.get("transposition_cost_one", True),
                          body.get("prefix", False),
                          body.get("conjunction_mode") or False)
    if kind == "phrase":
        return Phrase(body["field"], body["phrases"], body.get("slop") or 0)
    if kind == "phrase_array":
        return PhraseArray(body["field"], body["tokens"], body.get("slop") or 0)
    if kind == "tokenized_phrase":
        return TokenizedPhrase(body["field"], body["phrase"], body.get("slop") or 0)
    if kind == "phrase_prefix":
        return PhrasePrefix(body["field"], body["phrases"],
                            body.get("max_expansions") or 50)
    if kind == "regex":
        return Regex(body["field"], body["pattern"])
    if kind == "regex_phrase":
        return RegexPhrase(body["field"], body["regexes"], body.get("slop") or 0,
                           body.get("max_expansions") or 50)
    if kind == "range":
        return Range(body["field"], Bound.from_json(body.get("lower_bound")),
                     Bound.from_json(body.get("upper_bound")))
    if kind == "range_term":
        return RangeTerm(body["field"], body["value"])
    if kind == "range_contains":
        return RangeContains(body["field"],
                             Bound.from_json(body.get("lower_bound")),
                             Bound.from_json(body.get("upper_bound")))
    if kind == "range_intersects":
        return RangeIntersects(body["field"],
                               Bound.from_json(body.get("lower_bound")),
                               Bound.from_json(body.get("upper_bound")))
    if kind == "range_within":
        return RangeWithin(body["field"],
                           Bound.from_json(body.get("lower_bound")),
                           Bound.from_json(body.get("upper_bound")))
    if kind == "proximity":
        return Proximity(body["field"], body["left"], body["distance"],
                         body["right"], body.get("ordered", False))
    raise ValueError(f"unknown query kind: {kind!r}")
