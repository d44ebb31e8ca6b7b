"""Batch (vectorized-Arrow) tokenization must be BIT-IDENTICAL to the
per-row scalar path — same tokens, same postings structure, same
positions — across adversarial ASCII (mid-char soup), non-ASCII
fallback rows, nulls, empties and vocab filters."""

import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from paradedb_ray.index.segment import (_build_text_index,
                                        build_text_index_arrow)
from paradedb_ray.text.batch_tokenize import (batch_tokenize_arrow,
                                              match_terms, token_spans)
from paradedb_ray.text.tokenizers import (SimpleTokenizer,
                                          UnicodeWordsTokenizer,
                                          WhitespaceTokenizer)

# heavy on mid chars / digits / underscores: every UAX#29 join edge
_ALPHABET = "ab1 2._'x:,;Z\t\n\r-!09z_"


def _rand_texts(rng, n, alphabet=_ALPHABET, maxlen=24):
    out = []
    for _ in range(n):
        out.append("".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(0, maxlen))))
    return out


def _assert_ti_equal(a, b):
    assert list(a.vocab) == list(b.vocab)
    np.testing.assert_array_equal(a.term_offsets, b.term_offsets)
    np.testing.assert_array_equal(a.g_doc, b.g_doc)
    np.testing.assert_array_equal(a.g_tf, b.g_tf)
    if a.g_pos_off is None:
        assert b.g_pos_off is None
    else:
        np.testing.assert_array_equal(a.g_pos_off, b.g_pos_off)
        np.testing.assert_array_equal(a.pos_flat, b.pos_flat)
    np.testing.assert_array_equal(a.fieldnorm_ids, b.fieldnorm_ids)
    assert a.total_tokens == b.total_tokens
    assert a.doc_count == b.doc_count
    np.testing.assert_array_equal(a.has_value, b.has_value)


@pytest.mark.parametrize("tok_cls", [UnicodeWordsTokenizer, SimpleTokenizer,
                                     WhitespaceTokenizer])
def test_kernel_matches_scalar_tokenize(tok_cls):
    tok = tok_cls()
    rng = random.Random(20260818)
    texts = _rand_texts(rng, 400)
    # pinned join/boundary edges
    texts += ["it's Paul's 1,024.5 a:b a::b 1.2.3 x_:y a.1 1.a a. .a",
              "a'b'c''d", "1;2 a;b", "_._ _'a' 9,9,9", "", "Q", "a" * 500,
              ":,;.'", "word", "a.b.c.d.e 0'0"]
    arr = pa.array(texts, pa.string())
    got = batch_tokenize_arrow(arr, tok)
    assert got is not None
    tokens, doc_of, pos, lens, has_value = got
    toks_py = tokens.to_pylist()
    # regroup per doc and compare with scalar tokenize
    for i, t in enumerate(texts):
        mine = [toks_py[j] for j in np.flatnonzero(doc_of == i)]
        assert mine == tok.tokenize(t), repr(t)
        assert lens[i] == len(mine)
    assert has_value.all()
    # positions are per-doc token indexes for plain string docs
    for i in np.flatnonzero(lens)[:50]:
        p = pos[doc_of == i]
        np.testing.assert_array_equal(p, np.arange(lens[i], dtype=np.int32))


def test_index_parity_mixed_ascii_nonascii_null():
    tok = UnicodeWordsTokenizer()
    rng = random.Random(7)
    texts = _rand_texts(rng, 120)
    texts += ["héllo wörld", "это тест", "日本語 テスト", "mixed ascii héré",
              None, "", "🎂 party's over", None, "naïve café's"]
    rng.shuffle(texts)

    class F:  # minimal schema-field stand-in
        analyzer = tok

    arr = pa.array(texts, pa.string())
    a = build_text_index_arrow(arr, tok, True)
    assert a is not None
    b = _build_text_index(list(texts), tok, True)
    _assert_ti_equal(a, b)


def test_index_parity_vocab_filter():
    tok = UnicodeWordsTokenizer()
    rng = random.Random(99)
    texts = _rand_texts(rng, 200, alphabet="abc d1 2.',", maxlen=16)
    vf = np.array(sorted({"a", "b1", "d", "2", "zz"}), dtype=object)
    arr = pa.array(texts, pa.string())
    a = build_text_index_arrow(arr, tok, True, vocab_filter=vf)
    assert a is not None
    b = _build_text_index(list(texts), tok, True, vocab_filter=vf)
    _assert_ti_equal(a, b)


def test_index_parity_empty_and_all_null():
    tok = UnicodeWordsTokenizer()
    for texts in [[], [None, None], ["", ""], [".,;", "  "]]:
        arr = pa.array(texts, pa.string())
        a = build_text_index_arrow(arr, tok, True)
        b = _build_text_index(list(texts), tok, True)
        _assert_ti_equal(a, b)


def test_ineligible_configs_return_none():
    # stemmer / stopwords / folding configs must fall back entirely
    assert batch_tokenize_arrow(
        pa.array(["a b"]), UnicodeWordsTokenizer(
            filters={"stemmer": "english"})) is None
    assert batch_tokenize_arrow(
        pa.array(["a b"]), UnicodeWordsTokenizer(
            filters={"stopwords_language": "English"})) is None
    assert batch_tokenize_arrow(
        pa.array(["a b"]), UnicodeWordsTokenizer(
            filters={"ascii_folding": True})) is None
    # non-string column
    assert build_text_index_arrow(
        pa.array([[1, 2]]), UnicodeWordsTokenizer(), True) is None


def test_sliced_column_offsets():
    tok = UnicodeWordsTokenizer()
    texts = ["alpha beta", "gamma", "it's delta 1,024", "x.y", "tail end"]
    arr = pa.array(texts, pa.string()).slice(1, 3)
    a = build_text_index_arrow(arr, tok, True)
    b = _build_text_index(texts[1:4], tok, True)
    _assert_ti_equal(a, b)


def test_chunked_column():
    tok = UnicodeWordsTokenizer()
    ch = pa.chunked_array([pa.array(["one two", "three"]),
                           pa.array(["four's five", None])])
    a = build_text_index_arrow(ch, tok, True)
    b = _build_text_index(ch.to_pylist(), tok, True)
    _assert_ti_equal(a, b)


def test_stats_collector_batch_scalar_parity(monkeypatch):
    import pickle

    from paradedb_ray.schema import mock_items_schema
    from paradedb_ray.stages.search_stages import StatsCollector
    from paradedb_ray.testing import mock_items_table
    import paradedb_ray.text.batch_tokenize as bt

    schema = mock_items_schema()
    batch = mock_items_table()
    reqs = {"terms": [("description", "shoes"), ("description", "zzz"),
                      ("category", "Electronics")],
            "fields": ["description", "category"]}
    sc = StatsCollector(schema, reqs)
    a = pickle.loads(sc(batch).column("partial")[0].as_py())
    monkeypatch.setattr(bt, "batch_tokenize_arrow", lambda *x, **k: None)
    b = pickle.loads(sc(batch).column("partial")[0].as_py())
    assert a.field_total_tokens == b.field_total_tokens
    assert a.field_doc_count == b.field_doc_count
    assert a.term_df == b.term_df


# ---------------------------------------------------------------------------
# span kernel, term-match kernel and postings sort
# ---------------------------------------------------------------------------


def _span_texts(sp):
    buf = sp.buf.tobytes()
    return [buf[s: s + n].decode("utf-8")
            for s, n in zip(sp.starts.tolist(), sp.lens.tolist())]


def _per_doc(sp, n):
    texts = _span_texts(sp)
    out = [[] for _ in range(n)]
    for k in np.lexsort((sp.pos, sp.doc_ids)).tolist():
        out[int(sp.doc_ids[k])].append(texts[k])
    return out


@pytest.mark.parametrize("tok_cls", [UnicodeWordsTokenizer, SimpleTokenizer,
                                     WhitespaceTokenizer])
def test_spans_match_scalar_tokenize_across_empty_docs(tok_cls):
    """Empty documents between non-empty ones repeat an offset, and a
    token may touch a document boundary on either side; every document's
    spans must still be exactly the scalar ``tokenize``."""
    tok = tok_cls()
    rng = random.Random(20261020)
    pinned = [["a", "", "b"], ["", "", "a"], ["a", "", ""], ["", "a", ""],
              ["ab", "", "", "cd", "e"], ["a'", "b"], ["a", "'b"],
              ["1,", "2"], ["1", ",2"], ["x.", "", ".y"], ["", ""],
              ["it's", "", "1,024", ""]]
    for texts in pinned:
        sp = token_spans(pa.array(texts, pa.string()), tok)
        assert _per_doc(sp, len(texts)) == [tok.tokenize(t) for t in texts]
    for _ in range(60):
        texts = []
        for _ in range(rng.randrange(1, 40)):
            r = rng.random()
            texts.append("" if r < 0.3 else None if r < 0.35
                         else "héllo wörld's" if r < 0.4
                         else _rand_texts(rng, 1, maxlen=8)[0])
        sp = token_spans(pa.array(texts, pa.string()), tok)
        want = [tok.tokenize(t) if t is not None else [] for t in texts]
        assert _per_doc(sp, len(texts)) == want, texts
        np.testing.assert_array_equal(sp.doc_lens, [len(w) for w in want])
        for i, w in enumerate(want):
            np.testing.assert_array_equal(
                np.sort(sp.pos[sp.doc_ids == i]), np.arange(len(w)))
        assert sp.strings().to_pylist() == _span_texts(sp)


def _index_in(sp, terms):
    codes = pc.index_in(sp.strings(), value_set=pa.array(terms, pa.string()))
    codes = codes.fill_null(-1).to_numpy(zero_copy_only=False)
    hit = np.flatnonzero(codes >= 0)
    return hit, codes[hit].astype(np.int64)


def test_match_terms_matches_index_in():
    tok = UnicodeWordsTokenizer()
    rng = random.Random(31)
    texts = _rand_texts(rng, 300, alphabet="ab c1 .,'de", maxlen=30)
    texts += ["héllo wörld abcdefghijk", "naïve abcdefghijk café's",
              "abcdefghijkl abcdefghijk", None, "", "日本語 a"]
    rng.shuffle(texts)
    sp = token_spans(pa.array(texts, pa.string()), tok)
    vocab = sorted(set(_span_texts(sp)))
    term_sets = [
        [],
        ["zzz"],  # absent
        ["a", "b", "c1"],
        ["abcdefghijk", "abcdefghijkl", "héllo", "wörld", "日本語"],
        ["a", "ab", "abcdefghijk", "café's", "missing-term", "naïve"],
        vocab,
    ]
    for terms in term_sets:
        terms = sorted(terms)
        idx, codes = match_terms(sp, terms)
        want_idx, want_codes = _index_in(sp, terms)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(codes, want_codes)


@pytest.mark.parametrize("n_terms,ordered", [(50, True), (50, False),
                                             (70_000, True)])
def test_postings_sort_radix_matches_lexsort(n_terms, ordered):
    """``_group_postings`` sorts by code alone (radix) only when doc ids
    are non-decreasing and codes fit 16 bits; its output must equal the
    (code, doc) lexsort's, including out-of-order doc ids (non-ASCII
    fallback rows) and vocabularies past 65,536 terms."""
    from paradedb_ray.index.segment import _group_postings

    rng = np.random.default_rng(n_terms + ordered)
    total = 200_000
    doc_ids = np.sort(rng.integers(0, 3_000, total)).astype(np.int32)
    if not ordered:
        doc_ids[-500:] = rng.integers(0, 3_000, 500)
    codes = rng.integers(0, n_terms, total).astype(np.int64)
    pos = rng.integers(0, 1_000, total).astype(np.int32)
    lens = np.bincount(doc_ids, minlength=3_000).astype(np.int64)
    has_value = lens > 0
    uniques = np.array([f"t{i:06d}" for i in range(n_terms)], dtype=object)
    got = _group_postings(codes, uniques, doc_ids, pos, lens, has_value,
                          total, total, True)
    order = np.lexsort((doc_ids, codes))
    c_s, d_s = codes[order], doc_ids[order]
    first = np.flatnonzero(np.r_[True, (c_s[1:] != c_s[:-1])
                                 | (d_s[1:] != d_s[:-1])])
    np.testing.assert_array_equal(got.g_doc, d_s[first])
    np.testing.assert_array_equal(got.pos_flat, pos[order])
    np.testing.assert_array_equal(
        got.term_offsets,
        np.r_[0, np.cumsum(np.bincount(c_s[first], minlength=n_terms))])


def test_index_parity_fallback_rows_and_large_vocab():
    tok = UnicodeWordsTokenizer()
    # fallback rows put their tokens after every kernel token
    texts = ["zeta alpha", "héllo alpha", "beta zeta", "wörld beta alpha"]
    a = build_text_index_arrow(pa.array(texts, pa.string()), tok, True)
    _assert_ti_equal(a, _build_text_index(texts, tok, True))
    # a vocabulary past 65,536 terms keeps the lexsort
    texts = [" ".join(f"w{i * 7 + j:06d}" for j in range(7))
             for i in range(10_000)]
    texts[5] = "héllo " + texts[5]
    a = build_text_index_arrow(pa.array(texts, pa.string()), tok, True)
    assert len(a.vocab) > 1 << 16
    _assert_ti_equal(a, _build_text_index(texts, tok, True))


def test_stats_collector_span_scalar_parity(monkeypatch):
    """The df count through ``match_terms`` equals the scalar loop."""
    import pickle

    from paradedb_ray.schema import mock_items_schema
    from paradedb_ray.stages.search_stages import StatsCollector
    from paradedb_ray.testing import mock_items_table
    import paradedb_ray.text.batch_tokenize as bt

    schema = mock_items_schema()
    batch = mock_items_table()
    reqs = {"terms": [("description", "shoes"), ("description", "zzz"),
                      ("description", "running"), ("category", "Electronics")],
            "fields": ["description", "category"]}
    sc = StatsCollector(schema, reqs)
    a = pickle.loads(sc(batch).column("partial")[0].as_py())
    monkeypatch.setattr(bt, "token_spans", lambda *x, **k: None)
    b = pickle.loads(sc(batch).column("partial")[0].as_py())
    assert a.term_df[("description", "shoes")] > 0
    assert a.field_total_tokens == b.field_total_tokens
    assert a.field_doc_count == b.field_doc_count
    assert a.term_df == b.term_df
