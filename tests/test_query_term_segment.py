"""A per-block segment built for a known query set indexes only the
queries' terms (``build_segment(terms=query_vocab(...))``).  Rows,
fieldnorms and token totals stay whole-block, so every eligible query
shape must return the same ids and bitwise-equal f32 scores on it as on
the full segment — with broadcast stats and with segment-local stats —
and ``SegmentScorer`` must keep the full build for every query that is
not eligible."""

import numpy as np
import pytest

from paradedb_ray.index.searcher import GlobalStats, Searcher
from paradedb_ray.index.segment import build_segment
from paradedb_ray.query import ast
from paradedb_ray.schema import mock_items_schema, transcripts_schema
from paradedb_ray.stages import search_stages
from paradedb_ray.stages.search_stages import (SegmentScorer, query_vocab,
                                               search_agg_filters,
                                               single_scan_terms)
from paradedb_ray.testing import mock_items_table
from paradedb_ray.testing.transcripts import transcript_turns


def _shapes(f, a, b, c, d):
    """Every single-scan-eligible shape over field ``f`` and words
    a..d (a and b co-occur in phrases)."""
    T = ast.Term
    return {
        "term": T(f, a),
        "term_raw_case": T(f, a.upper()),
        "term_set": ast.TermSet(f, [a, c, "zzznope"]),
        "match": ast.Match(f, f"{a} {b}"),
        "match_conjunction": ast.Match(f, f"{a} {b}", conjunction_mode=True),
        "match_array": ast.MatchArray(f, [b, d]),
        "phrase": ast.Phrase(f, [a, b]),
        "phrase_slop": ast.Phrase(f, [a, c], slop=2),
        "tokenized_phrase": ast.TokenizedPhrase(f, f"{a} {b}"),
        "phrase_array": ast.PhraseArray(f, [a, b]),
        "boolean": ast.Boolean(must=[T(f, a)], should=[T(f, b), T(f, d)],
                               must_not=[T(f, c)]),
        "boolean_must_not_only": ast.Boolean(must_not=[T(f, c)]),
        "boost": ast.Boost(ast.Match(f, f"{b} {c}"), 2.5),
        "const_score": ast.ConstScore(T(f, d), 3.0),
        "disjunction_max": ast.DisjunctionMax(
            [T(f, a), ast.Match(f, f"{c} {d}")], tie_breaker=0.3),
        "score_filter": ast.ScoreFilter([(0.5, None)],
                                        ast.Match(f, f"{a} {d}")),
    }


def _cases():
    items = ("items", mock_items_table(), mock_items_schema(),
             _shapes("description", "running", "shoes", "keyboard",
                     "plastic"))
    turns = ("turns", transcript_turns(600, seed=3), transcripts_schema(),
             _shapes("text", "the", "warn", "query", "index"))
    return {f"{label}-{name}": (t, s, q)
            for label, t, s, shapes in (items, turns)
            for name, q in shapes.items()}


CASES = _cases()


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("broadcast", [True, False],
                         ids=["broadcast", "local"])
def test_query_term_segment_scores_bitwise(case, broadcast):
    table, schema, q = CASES[case]
    assert single_scan_terms(q, schema) is not None
    vocab = query_vocab([q], schema)
    full = build_segment(table, schema)
    restricted = build_segment(table, schema, terms=vocab)
    for fname, terms in vocab.items():
        assert list(restricted.text[fname].vocab) == list(terms)
        assert (restricted.text[fname].total_tokens
                == full.text[fname].total_tokens)
    stats = GlobalStats.from_segment(full, schema) if broadcast else None
    want = Searcher(full, schema, stats).eval(q)
    got = Searcher(restricted, schema, stats).eval(q)
    np.testing.assert_array_equal(got.ids, want.ids)
    assert (np.asarray(got.scores, np.float32).tobytes()
            == np.asarray(want.scores, np.float32).tobytes())


def _built_vocabs(monkeypatch):
    """Record the ``terms`` each ``build_segment`` call of the scoring
    stage gets."""
    seen = []
    real = search_stages.build_segment

    def spy(batch, schema, store_positions=True, terms=None):
        seen.append(terms)
        return real(batch, schema, store_positions=store_positions,
                    terms=terms)

    monkeypatch.setattr(search_stages, "build_segment", spy)
    return seen


def test_segment_scorer_builds_query_term_index(monkeypatch):
    schema = mock_items_schema()
    table = mock_items_table()
    queries = {"a": ast.Match("description", "running shoes"),
               "b": ast.Term("description", "keyboard")}
    seen = _built_vocabs(monkeypatch)
    out = SegmentScorer(schema, queries, None)(table)
    assert out.num_rows > 0
    assert {f: list(v) for f, v in seen[0].items()} == {
        "description": ["keyboard", "running", "shoes"]}
    masks = search_agg_filters(schema, queries)
    assert masks["a"](table).sum() == 3
    assert {f: list(v) for f, v in seen[-1].items()} == {
        "description": ["keyboard", "running", "shoes"]}


@pytest.mark.parametrize("extra", [
    ast.FuzzyTerm("description", "shoez", 1, True, False),
    ast.Regex("description", "sho.*"),
    ast.MoreLikeThis(document_fields=[("description", "running shoes")]),
])
def test_segment_scorer_full_index_for_ineligible(monkeypatch, extra):
    schema = mock_items_schema()
    table = mock_items_table()
    queries = {"a": ast.Term("description", "shoes"), "b": extra}
    seen = _built_vocabs(monkeypatch)
    SegmentScorer(schema, queries, None)(table)
    search_agg_filters(schema, queries)["a"](table)
    assert seen == [None, None]


def test_segment_scorer_full_index_for_snippets(monkeypatch):
    from paradedb_ray.index.snippet import SnippetConfig

    schema = mock_items_schema()
    seen = _built_vocabs(monkeypatch)
    out = SegmentScorer(schema, {"a": ast.Term("description", "shoes")},
                        None, snippet_cfgs=[SnippetConfig("description")])(
        mock_items_table())
    assert out.num_rows > 0
    assert seen == [None]


@pytest.mark.parametrize("query, restricted", [
    (ast.Match("description", "running shoes"), True),
    (ast.FuzzyTerm("description", "shoez", 1, True, False), False),
], ids=["match", "fuzzy"])
def test_search_count_builds_query_term_index(ray_session, monkeypatch,
                                              tmp_path, query, restricted):
    """``search_count`` counts the full segment's rows; its block segments
    index only the query's terms when the query is eligible."""
    import ray.data

    from paradedb_ray.index import segment
    from paradedb_ray.pipelines.search import search_count

    schema, table = mock_items_schema(), mock_items_table()
    want = len(Searcher(build_segment(table, schema), schema).eval(query))
    assert want > 0
    # the blocks build on Ray workers: the spy logs to a file
    log = tmp_path / "terms.log"
    real = segment.build_segment

    def spy(batch, schema, store_positions=True, terms=None):
        with open(log, "a") as fh:
            fh.write(repr(None if terms is None else
                          {f: list(v) for f, v in terms.items()}) + "\n")
        return real(batch, schema, store_positions=store_positions,
                    terms=terms)

    monkeypatch.setattr(segment, "build_segment", spy)
    ds = ray.data.from_arrow([table.slice(0, 20), table.slice(20)])
    assert search_count(ds, schema, query) == want
    built = log.read_text().splitlines()
    assert len(built) == 2
    expect = ({"description": ["running", "shoes"]} if restricted
              else None)
    assert built == [repr(expect)] * 2
