"""Tantivy-style query-string parser — the engine behind ``@@@`` /
``paradedb.parse`` (`/root/reference/pg_search/src/query/pdb_query.rs:1832-1928`,
grammar = tantivy ``query_grammar``).

Supported surface: bare terms, ``"phrases"`` (with ``~slop`` and trailing
``*`` for phrase-prefix), ``field:term`` and ``field:(...)`` scoping,
``AND``/``OR``/``NOT``, ``+``/``-`` occur prefixes, ``term~N`` fuzzy,
``term^B`` boost, ranges ``[a TO b]`` / ``{a TO b}`` (``*`` = unbounded) and
comparison shorthand ``field:>=v`` etc., ``IN [a b c]`` sets.

A free word is analyzed with the target field's tokenizer: one token -> Term,
several -> Phrase (Lucene/tantivy behavior), zero -> no clause.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from paradedb_ray.query import ast
from paradedb_ray.schema import IndexSchema, TEXT, KEYWORD, I64, U64, F64, BOOL, DATE

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<quoted>"(?:[^"\\]|\\.)*")
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<caret>\^(?P<boost>[0-9]+(?:\.[0-9]+)?))
  | (?P<tilde>~(?P<fuzz>[0-9]+)?)
  | (?P<plus>\+)
  | (?P<minus>-(?=\S))
  | (?P<colon>:)
  | (?P<cmp>>=|<=|>|<)
  | (?P<star>\*)
  | (?P<word>[^\s()\[\]{}^~:"]+)
    """,
    re.VERBOSE,
)


class _Scanner:
    def __init__(self, s: str):
        self.toks = []
        i = 0
        while i < len(s):
            m = _TOKEN_RE.match(s, i)
            if m is None:
                raise ValueError(f"cannot scan query at {s[i:]!r}")
            i = m.end()
            kind = m.lastgroup
            if kind in ("caret", "tilde"):
                self.toks.append((kind, m.group("boost" if kind == "caret" else "fuzz")))
            elif kind != "ws":
                self.toks.append((kind, m.group()))
        self.pos = 0

    def peek(self, k=0):
        i = self.pos + k
        return self.toks[i] if i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.pos += 1
        return t


def _coerce(value: str, ftype: str):
    if ftype in (I64, U64):
        try:
            return int(value)
        except ValueError:
            return value
    if ftype == F64:
        try:
            return float(value)
        except ValueError:
            return value
    if ftype == BOOL:
        return value.lower() in ("t", "true", "1", "yes")
    return value


class _Parser:
    def __init__(self, scanner: _Scanner, schema: IndexSchema,
                 default_fields: list, conjunction_mode: bool):
        self.sc = scanner
        self.schema = schema
        self.default_fields = default_fields
        self.conjunction_mode = conjunction_mode

    # expr := disjunct (OR disjunct)*
    def parse_expr(self, fields: list) -> ast.Query:
        disjuncts = [self.parse_disjunct(fields)]
        while True:
            kind, val = self.sc.peek()
            if kind == "word" and val == "OR":
                self.sc.next()
                disjuncts.append(self.parse_disjunct(fields))
            else:
                break
        disjuncts = [d for d in disjuncts if d is not None]
        if not disjuncts:
            return ast.Empty()
        if len(disjuncts) == 1:
            return disjuncts[0]
        return ast.Boolean(should=disjuncts)

    # disjunct := clause+ (clauses joined by AND or whitespace)
    def parse_disjunct(self, fields: list) -> Optional[ast.Query]:
        clauses = []  # (occur, query)
        saw_and = False
        while True:
            kind, val = self.sc.peek()
            if kind is None or kind in ("rparen",):
                break
            if kind == "word" and val == "OR":
                break
            if kind == "word" and val == "AND":
                self.sc.next()
                saw_and = True
                continue
            occur = None
            if kind == "word" and val == "NOT":
                self.sc.next()
                occur = "must_not"
            elif kind == "plus":
                self.sc.next()
                occur = "must"
            elif kind == "minus":
                self.sc.next()
                occur = "must_not"
            q = self.parse_atom(fields)
            if q is not None:
                clauses.append((occur, q))
        if not clauses:
            return None
        conj = saw_and or self.conjunction_mode
        must, should, must_not = [], [], []
        for occur, q in clauses:
            if occur == "must_not":
                must_not.append(q)
            elif occur == "must" or (occur is None and conj):
                must.append(q)
            else:
                should.append(q)
        if not must and not should and must_not:
            must.append(ast.All())
        if len(must) == 1 and not should and not must_not:
            return must[0]
        if len(should) == 1 and not must and not must_not:
            return should[0]
        return ast.Boolean(must=must, should=should, must_not=must_not)

    def parse_atom(self, fields: list) -> Optional[ast.Query]:
        kind, val = self.sc.peek()
        if kind == "lparen":
            self.sc.next()
            q = self.parse_expr(fields)
            k, _ = self.sc.peek()
            if k == "rparen":
                self.sc.next()
            return self._modifiers(q)
        if kind == "quoted":
            self.sc.next()
            content = val[1:-1].replace('\\"', '"').replace("\\\\", "\\")
            slop = 0
            prefix = False
            k, v = self.sc.peek()
            if k == "tilde":
                self.sc.next()
                slop = int(v) if v else 0
            elif k == "star":
                self.sc.next()
                prefix = True
            subs = []
            for f in fields:
                fdef = self.schema.fields.get(
                    f.split(".")[0] if "." in f else f)
                if (fdef is not None and not prefix
                        and fdef.ftype in (I64, U64, F64, BOOL, DATE)):
                    # quoted literal on a typed field is a typed term, not
                    # a tokenized phrase (`parse.sql`:
                    # created_at:"2023-05-01 09:12:34" is a datetime term)
                    subs.append(ast.Term(f, _coerce(content, fdef.ftype)))
                elif prefix:
                    subs.append(ast.PhrasePrefix(f, [content]))
                else:
                    subs.append(ast.TokenizedPhrase(f, content, slop))
            return self._modifiers(_field_disjunction(subs))
        if kind in ("lbrack", "lbrace"):
            return self._modifiers(self._parse_range(fields, None))
        if kind == "cmp":
            return self._modifiers(self._parse_cmp(fields))
        if kind == "word":
            # field scoping?
            nk, _ = self.sc.peek(1)
            if nk == "colon" and (val in self.schema.fields
                                  or val.split(".")[0] in self.schema.fields):
                self.sc.next()  # word
                self.sc.next()  # colon
                k2, v2 = self.sc.peek()
                if k2 == "word" and v2 == "IN":
                    self.sc.next()
                    return self._modifiers(self._parse_in_set(val))
                return self.parse_atom([val])
            self.sc.next()
            return self._modifiers(self._word_query(fields, val))
        if kind == "star":
            self.sc.next()
            return ast.All()
        # unknown token: skip it
        self.sc.next()
        return None

    def _modifiers(self, q: ast.Query) -> ast.Query:
        while True:
            kind, val = self.sc.peek()
            if kind == "caret":
                self.sc.next()
                q = ast.Boost(q, float(val))
            elif kind == "tilde" and isinstance(q, ast.Term):
                self.sc.next()
                dist = int(val) if val else 1
                q = ast.FuzzyTerm(q.field, q.value, distance=dist)
            else:
                break
        return q

    def _word_query(self, fields: list, word: str) -> ast.Query:
        # trailing-* wildcard: prefix query over the term dictionary
        # (tantivy grammar wildcard; expressed as an anchored Regex)
        if word.endswith("*") and len(word) > 1 and "*" not in word[:-1]:
            import re as _re

            prefix = word[:-1]
            subs = []
            for f in fields:
                fdef = self.schema.fields.get(
                    f.split(".")[0] if "." in f else f)
                if fdef is None:
                    continue
                if fdef.ftype == TEXT:
                    toks = fdef.search_analyzer.tokenize(prefix)
                    if len(toks) != 1:
                        continue
                    prefix_n = toks[0]
                else:
                    prefix_n = prefix
                subs.append(ast.Regex(f, _re.escape(prefix_n) + ".*"))
            if subs:
                return _field_disjunction(subs)
        # fuzzy suffix is handled in _modifiers (needs the Term shape)
        subs = []
        for f in fields:
            fdef = self.schema.fields.get(f.split(".")[0] if "." in f else f)
            if fdef is None:
                continue
            if fdef.ftype == TEXT:
                toks = fdef.search_analyzer.tokenize(word)
                if not toks:
                    continue
                if len(toks) == 1:
                    subs.append(ast.Term(f, toks[0]))
                else:
                    subs.append(ast.Phrase(f, toks))
            else:
                subs.append(ast.Term(f, _coerce(word, fdef.ftype)))
        if not subs:
            return ast.Empty()
        return _field_disjunction(subs)

    def _parse_range(self, fields: list, _=None) -> ast.Query:
        kind, _v = self.sc.next()
        lower_excl = kind == "lbrace"
        lo = self._range_value()
        k, v = self.sc.next()
        if not (k == "word" and v == "TO"):
            raise ValueError("range: expected TO")
        hi = self._range_value()
        kind2, _ = self.sc.next()
        upper_excl = kind2 == "rbrace"
        subs = []
        for f in fields:
            fdef = self.schema.fields.get(f)
            ft = fdef.ftype if fdef else TEXT
            lb = (ast.Bound.unbounded() if lo is None else
                  (ast.Bound.excluded(_coerce(lo, ft)) if lower_excl
                   else ast.Bound.included(_coerce(lo, ft))))
            ub = (ast.Bound.unbounded() if hi is None else
                  (ast.Bound.excluded(_coerce(hi, ft)) if upper_excl
                   else ast.Bound.included(_coerce(hi, ft))))
            subs.append(ast.Range(f, lb, ub))
        return _field_disjunction(subs)

    def _range_value(self):
        kind, val = self.sc.next()
        if kind == "star":
            return None
        if kind == "quoted":
            return val[1:-1]
        if kind == "word":
            # reassemble colon-containing values (ISO timestamps:
            # `[2024-01-02T00:00:00Z TO ...}`, datetime_stability.sql)
            while (self.sc.peek()[0] == "colon"
                   and self.sc.peek(1)[0] == "word"):
                self.sc.next()
                _, w = self.sc.next()
                val += ":" + w
            return val
        raise ValueError(f"bad range value {val!r}")

    def _parse_cmp(self, fields: list) -> ast.Query:
        _, op = self.sc.next()
        kind, val = self.sc.next()
        if kind == "quoted":
            val = val[1:-1]
        subs = []
        for f in fields:
            fdef = self.schema.fields.get(f)
            ft = fdef.ftype if fdef else TEXT
            v = _coerce(val, ft)
            if op == ">":
                subs.append(ast.Range(f, ast.Bound.excluded(v)))
            elif op == ">=":
                subs.append(ast.Range(f, ast.Bound.included(v)))
            elif op == "<":
                subs.append(ast.Range(f, upper_bound=ast.Bound.excluded(v)))
            else:
                subs.append(ast.Range(f, upper_bound=ast.Bound.included(v)))
        return _field_disjunction(subs)

    def _parse_in_set(self, field: str) -> ast.Query:
        k, _ = self.sc.next()
        if k != "lbrack":
            raise ValueError("IN requires [ ... ]")
        vals = []
        while True:
            kind, val = self.sc.next()
            if kind == "rbrack" or kind is None:
                break
            if kind == "quoted":
                val = val[1:-1]
            vals.append(val)
        fdef = self.schema.fields.get(field)
        ft = fdef.ftype if fdef else TEXT
        if fdef is not None and fdef.ftype == TEXT:
            vals = [t for v in vals
                    for t in fdef.search_analyzer.filters.apply_texts([v])]
        else:
            vals = [_coerce(v, ft) for v in vals]
        return ast.TermSet(field, vals)


def _field_disjunction(subs: list) -> ast.Query:
    if len(subs) == 1:
        return subs[0]
    return ast.Boolean(should=subs)


def parse_query_string(
    query_string: str,
    schema: IndexSchema,
    default_fields: Optional[list] = None,
    conjunction_mode: bool = False,
    lenient: bool = False,
) -> ast.Query:
    fields = default_fields or schema.default_search_fields
    try:
        sc = _Scanner(query_string)
        p = _Parser(sc, schema, fields, conjunction_mode)
        q = p.parse_expr(fields)
        return q
    except Exception:
        if lenient:
            return ast.Empty()
        raise


def bind(q: Union[ast.Query, str], schema: IndexSchema) -> ast.Query:
    """The AST ``q`` evaluates: a copy of ``q`` with every query string
    parsed — ``ParseWithField`` over its field, ``Parse`` (and a bare
    ``str``) over ``schema.default_search_fields``, each with its own
    ``conjunction_mode`` and ``lenient``.  The only caller of
    :func:`parse_query_string` outside this module.  Idempotent, and it
    never mutates ``q``.  Every query entry binds once on the driver, so
    an invalid non-lenient string raises ``ValueError`` there and no
    scorer, stats pass or partition actor ever parses."""
    if isinstance(q, str):
        q = ast.Parse(q)

    def parse(node: ast.Query) -> ast.Query:
        if isinstance(node, ast.ParseWithField):
            fields = [node.field]
        elif isinstance(node, ast.Parse):
            fields = schema.default_search_fields
        else:
            return node
        return parse_query_string(node.query_string, schema, fields,
                                  bool(node.conjunction_mode),
                                  bool(node.lenient))

    return ast.rewrite(q, parse)
