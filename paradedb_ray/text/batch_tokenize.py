"""Vectorized batch tokenization for the ASCII fast path: token spans
first, strings on demand.

``Tokenizer.tokenize`` has an ASCII fast path (``text/tokenizers.py``):
for ASCII input with no token-removing filters, no stemmer and no ASCII
folding, the filtered token stream is exactly ``rx.findall(text.lower())``.
Calling that per row is the hot cost of segment builds (one ``re`` engine
invocation per document).  This module produces the identical token stream
for a whole Arrow string column at once:

* the column's UTF-8 data buffer is already the concatenation of every
  document, and the offsets buffer is the document boundaries — no join
  or copy is needed;
* :func:`token_spans` runs one kernel over that buffer: one ``np.take``
  over a 256-entry byte-class table, the UAX#29 mid-word joins
  (``it's``, ``1,024``) tested only at the sparse mid-char positions,
  one transition scan for token starts and ends, and a cut wherever a
  token would run across a document boundary.  Its result is token
  ``(start, length)`` spans into one byte buffer (plus per-token doc ids
  and positions) — no token string exists yet;
* :func:`match_terms` finds the spans equal to a known term set by
  length and first byte, then by the remaining bytes — what a
  query-term-only index or a df count needs, still without strings;
* :meth:`TokenSpans.strings` gathers every span into ONE
  ``pa.StringArray`` only when the whole vocabulary is wanted (a full
  index build, through Arrow ``dictionary_encode``).

Byte-identity with the per-row fast path is guaranteed by construction:
the byte-class table is PROBED from the very regexes the scalar path uses
(a byte is a word char iff the pattern fullmatches it; a byte is a joining
mid iff the pattern fullmatches ``"a<c>b"`` / ``"1<c>2"``), and
``tests/test_batch_tokenize.py`` fuzzes the equivalence against the
scalar ``tokenize``.

Rows that are not eligible (non-ASCII text) fall back to the scalar
``tokenize`` per row, and their tokens are appended to the span buffer;
columns whose analyzer configuration is not eligible (stemmer, stopwords,
folding, non-fast tokenizer) are rejected entirely (the caller keeps its
list-based path).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from paradedb_ray.text.tokenizers import (
    SimpleTokenizer,
    UnicodeWordsTokenizer,
    WhitespaceTokenizer,
)

__all__ = ["TokenSpans", "batch_tokenize_arrow", "match_terms",
           "token_spans"]

#: letter / digit classes used by the UAX#29 mid-word lookarounds
#: (must mirror ``tokenizers._LETTER`` / ``_DIGIT``)
_LETTER_RE = re.compile(r"[^\W\d_]", re.UNICODE)
_DIGIT_RE = re.compile(r"\d", re.UNICODE)

#: byte-class bits of the kernel's table
_WORD, _LETTER, _DIGIT, _MID_LETTER, _MID_DIGIT, _HIGH = 1, 2, 4, 8, 16, 32


def _probe_classes(rx: "re.Pattern") -> np.ndarray:
    """The 256-entry byte-class table, derived from the fast-path regex
    itself.

    ``_WORD``: a single char is a token on its own (``_LETTER`` /
    ``_DIGIT`` say which context it joins in).  ``_MID_LETTER`` /
    ``_MID_DIGIT``: the char joins two word chars in letter / digit
    context (probed with ``a<c>b`` / ``1<c>2``) — exactly the UAX#29
    WB6/7/11/12 shapes the scalar pattern encodes.  Bytes > 127 are
    ``_HIGH`` only: their rows take the scalar fallback.
    """
    cls = np.full(256, _HIGH, dtype=np.uint8)
    for b in range(128):
        c = chr(b)
        if rx.fullmatch(c) is not None:
            cls[b] = (_WORD
                      | (_LETTER if _LETTER_RE.fullmatch(c) else 0)
                      | (_DIGIT if _DIGIT_RE.fullmatch(c) else 0))
        else:
            cls[b] = ((_MID_LETTER if rx.fullmatch(f"a{c}b") else 0)
                      | (_MID_DIGIT if rx.fullmatch(f"1{c}2") else 0))
    return cls


_CLASSES: dict = {}
#: tokenizer classes whose ASCII fast path the kernel reproduces; exact
#: type match (a subclass may override segmentation)
_KERNEL_CLASSES = (UnicodeWordsTokenizer, SimpleTokenizer,
                   WhitespaceTokenizer)


def _classes_for(tokenizer) -> Optional[np.ndarray]:
    cls = type(tokenizer)
    if cls not in _KERNEL_CLASSES:
        return None
    got = _CLASSES.get(cls)
    if got is None:
        got = _CLASSES[cls] = _probe_classes(cls._fast_re)
    return got


def _kernel(data: np.ndarray, bounds: np.ndarray, table: np.ndarray):
    """Token ``[start, end)`` byte spans over the concatenated stream.

    ``bounds`` are the sorted, unique interior document boundaries
    (``0 < b < len(data)``): a token never spans two documents and a mid
    char never joins across a boundary.  Returns ``(cls, starts, ends)``
    with ``cls`` the per-byte class codes.
    """
    n = len(data)
    cls = table.take(data)
    # tok[i + 1] <=> byte i is in a token; the False pads make every run
    # open and close inside the array
    tok = np.zeros(n + 2, dtype=bool)
    np.bitwise_and(cls, _WORD, out=tok[1:-1].view(np.uint8))
    # a mid char joins its neighbours when both are letters (digits) and
    # it joins in letter (digit) context; only interior bytes can join
    mids = np.flatnonzero(cls[1:-1] & (_MID_LETTER | _MID_DIGIT)) + 1
    if len(mids):
        c, lr = cls[mids], cls[mids - 1] & cls[mids + 1]
        join = (((c & _MID_LETTER) != 0) & ((lr & _LETTER) != 0)) \
            | (((c & _MID_DIGIT) != 0) & ((lr & _DIGIT) != 0))
        mids = mids[join]
        if len(mids) and len(bounds):
            # the join bridges mid-1..mid+1: no boundary at mid or mid+1
            i = np.searchsorted(bounds, mids)
            nxt = bounds[np.minimum(i, len(bounds) - 1)]
            mids = mids[(i == len(bounds)) | (nxt > mids + 1)]
        tok[mids + 1] = True
    edges = np.flatnonzero(tok[1:] != tok[:-1])
    starts, ends = edges[0::2], edges[1::2]
    if len(bounds) and len(starts):
        # a run across a document boundary is two tokens: the boundary
        # is both an end and a start, inserted in order
        cut = bounds[tok[bounds] & tok[bounds + 1]]
        if len(cut):
            starts = np.insert(starts, np.searchsorted(starts, cut), cut)
            ends = np.insert(ends, np.searchsorted(ends, cut), cut)
    return cls, starts, ends


def _string_buffers(arr: pa.Array):
    """(data uint8 ndarray, offsets int64 ndarray rebased to 0) for a
    (possibly sliced) StringArray."""
    offs_buf = arr.buffers()[1]
    data_buf = arr.buffers()[2]
    offs = np.frombuffer(offs_buf, dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1].astype(np.int64)
    if data_buf is None:  # every value empty
        return np.empty(0, np.uint8), offs - offs[0]
    data = np.frombuffer(data_buf, dtype=np.uint8)[offs[0]: offs[-1]]
    return data, offs - offs[0]


@dataclass
class TokenSpans:
    """Every kept token of a column as a byte span.

    Token ``k`` is ``buf[starts[k]: starts[k] + lens[k]]`` (UTF-8), in
    document ``doc_ids[k]`` at position ``pos[k]``.  Kernel tokens come
    first in stream order (grouped by document, positions ascending); the
    tokens of non-ASCII fallback rows follow, row by row.  ``doc_lens``
    (int64) counts each document's tokens and ``has_value`` marks its
    non-null rows."""

    buf: np.ndarray  # uint8
    starts: np.ndarray  # int64 [ntok]
    lens: np.ndarray  # int32 [ntok]
    doc_ids: np.ndarray  # int32 [ntok]
    pos: np.ndarray  # int32 [ntok]
    doc_lens: np.ndarray  # int64 [n_docs]
    has_value: np.ndarray  # bool [n_docs]

    def strings(self) -> pa.StringArray:
        """The token texts as one ``StringArray`` (one byte gather)."""
        ntok = len(self.starts)
        offs = np.zeros(ntok + 1, dtype=np.int64)
        np.cumsum(self.lens, out=offs[1:])
        # gather index by a running sum: +1 inside a token, and at each
        # token's first byte the jump from the previous token's last byte
        # (int32 when it fits: the index is the gather's memory peak)
        src = np.ones(int(offs[-1]),
                      dtype=np.int32 if len(self.buf) < 1 << 31 else np.int64)
        if ntok:
            src[0] = self.starts[0]
            src[offs[1:-1]] = (self.starts[1:] - self.starts[:-1]
                               - self.lens[:-1] + 1)
            np.cumsum(src, out=src)
        return pa.StringArray.from_buffers(
            ntok, pa.py_buffer(offs.astype(np.int32)),
            pa.py_buffer(self.buf[src]))


def _empty_spans(n: int, has_value: np.ndarray) -> TokenSpans:
    return TokenSpans(np.empty(0, np.uint8), np.empty(0, np.int64),
                      np.empty(0, np.int32), np.empty(0, np.int32),
                      np.empty(0, np.int32), np.zeros(n, dtype=np.int64),
                      has_value)


def token_spans(col, tokenizer) -> Optional[TokenSpans]:
    """Tokenize an Arrow string column with the analyzer's fast-path
    semantics into :class:`TokenSpans` — or ``None`` when the analyzer
    configuration or the column type is not fast-path eligible (caller
    falls back to the scalar path).  Non-ASCII rows are tokenized per row
    with the scalar ``tokenize`` (identical by definition)."""
    f = tokenizer.filters
    if f._removes or f._stem is not None or f.ascii_folding:
        return None
    table = _classes_for(tokenizer)
    if table is None:
        return None
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks() if col.num_chunks != 1 else col.chunk(0)
        if isinstance(col, pa.ChunkedArray):  # 0 chunks
            col = pa.array([], pa.string())
    if not pa.types.is_string(col.type):
        return None
    n = len(col)
    if col.null_count:
        has_value = ~np.asarray(col.is_null())
        col = pc.fill_null(col, "")
    else:
        has_value = np.ones(n, dtype=bool)
    if n == 0:
        return _empty_spans(n, has_value)

    data, doc_offsets = _string_buffers(
        pc.ascii_lower(col) if f.lowercase else col)
    nbytes = len(data)
    if nbytes > (1 << 31) - 2:  # int32 StringArray offset ceiling
        return None
    bounds = doc_offsets[1:-1]
    bounds = bounds[(bounds > 0) & (bounds < nbytes)]
    if len(bounds) > 1:  # empty documents repeat an offset
        bounds = bounds[np.concatenate(([True], bounds[1:] != bounds[:-1]))]
    cls, starts, ends = _kernel(data, bounds, table)
    lens = (ends - starts).astype(np.int32)
    del ends

    # per-document token ranges: tokens never cross a boundary, so doc i
    # owns the tokens starting in [doc_offsets[i], doc_offsets[i+1])
    first = np.searchsorted(starts, doc_offsets)
    doc_lens = np.diff(first)
    doc_ids = np.repeat(np.arange(n, dtype=np.int32), doc_lens)
    pos = np.arange(len(starts), dtype=np.int32)
    pos -= np.repeat(first[:-1].astype(np.int32), doc_lens)
    buf = data

    high = np.flatnonzero(cls & _HIGH)
    if len(high):
        # non-ASCII rows: drop their kernel tokens, append the scalar
        # tokenizer's (over the original, un-lowered text)
        fb_rows = np.unique(np.searchsorted(doc_offsets, high, "right") - 1)
        fallback = np.zeros(n, dtype=bool)
        fallback[fb_rows] = True
        keep = ~fallback[doc_ids]
        starts, lens = starts[keep], lens[keep]
        doc_ids, pos = doc_ids[keep], pos[keep]
        doc_lens[fb_rows] = 0
        tokenize = tokenizer.tokenize
        fb_bytes: list = []
        fb_doc: list = []
        fb_pos: list = []
        for i in fb_rows.tolist():
            ts = [t.encode("utf-8") for t in tokenize(col[i].as_py())]
            fb_bytes.extend(ts)
            fb_doc.append(np.full(len(ts), i, dtype=np.int32))
            fb_pos.append(np.arange(len(ts), dtype=np.int32))
            doc_lens[i] = len(ts)
        if fb_bytes:
            fb_lens = np.fromiter(map(len, fb_bytes), np.int32,
                                  len(fb_bytes))
            buf = np.concatenate(
                [data, np.frombuffer(b"".join(fb_bytes), np.uint8)])
            starts = np.concatenate(
                [starts, np.cumsum(fb_lens, dtype=np.int64) - fb_lens + nbytes])
            lens = np.concatenate([lens, fb_lens])
            doc_ids = np.concatenate([doc_ids] + fb_doc)
            pos = np.concatenate([pos] + fb_pos)
    return TokenSpans(buf, starts, lens, doc_ids, pos, doc_lens, has_value)


def _packed(rows: np.ndarray, words: int) -> np.ndarray:
    """``(k, width)`` uint8 byte rows as ``(k, words)`` uint64, zero
    padded — equal rows of one width pack to equal words."""
    out = np.zeros((len(rows), words * 8), dtype=np.uint8)
    out[:, :rows.shape[1]] = rows
    return out.view(np.uint64)


def match_terms(spans: TokenSpans, terms) -> tuple:
    """``(token indexes, term codes)`` of the spans whose text equals one
    of the distinct ``terms`` (code = index into ``terms``), in token
    order.

    The one term-match kernel: a 64K-entry table over (length capped at
    255, first byte) picks the candidate spans in one gather; then each
    term length compares its candidates' bytes packed into uint64 words —
    one ``searchsorted`` over the packed terms when they fit one word,
    a word-wise comparison per term otherwise."""
    enc = [t.encode("utf-8") if isinstance(t, str) else b""
           for t in terms]
    none = (np.empty(0, np.int64), np.empty(0, np.int64))
    by_len: dict = {}
    for code, b in enumerate(enc):
        if b:  # an empty (or non-string) term matches no token
            by_len.setdefault(len(b), []).append(code)
    if not by_len or not len(spans.starts):
        return none
    want = np.zeros(256 * 256, dtype=bool)
    for b in enc:
        if b:
            want[min(len(b), 255) * 256 + b[0]] = True
    key = np.minimum(spans.lens, 255) * 256
    key += spans.buf[spans.starts]
    cand = np.flatnonzero(want[key])
    clen = spans.lens[cand]
    idx, codes = [], []
    for width, wcodes in by_len.items():
        c = cand[clen == width]
        if not len(c):
            continue
        words = -(-width // 8)
        rows = _packed(spans.buf[spans.starts[c][:, None]
                                 + np.arange(width, dtype=np.int64)], words)
        tw = _packed(np.frombuffer(b"".join(enc[k] for k in wcodes),
                                   np.uint8).reshape(-1, width), words)
        if words == 1:
            tw = tw.ravel()
            order = np.argsort(tw)
            tw, tc = tw[order], np.asarray(wcodes, dtype=np.int64)[order]
            j = np.minimum(np.searchsorted(tw, rows.ravel()), len(tw) - 1)
            hit = np.flatnonzero(tw[j] == rows.ravel())
            idx.append(c[hit])
            codes.append(tc[j[hit]])
            continue
        for k, code in enumerate(wcodes):
            hit = np.flatnonzero((rows == tw[k]).all(axis=1))
            idx.append(c[hit])
            codes.append(np.full(len(hit), code, dtype=np.int64))
    if len(idx) < 2:
        return (idx[0], codes[0]) if idx else none
    # several groups: restore token order
    idx, codes = np.concatenate(idx), np.concatenate(codes)
    order = np.argsort(idx)
    return idx[order], codes[order]


def batch_tokenize_arrow(col, tokenizer):
    """Tokenize an Arrow string column with the analyzer's fast-path
    semantics: :func:`token_spans` plus one gather into strings.

    Returns ``(tokens, doc_ids, pos, lens, has_value)`` where ``tokens``
    is a ``pa.StringArray`` of every kept token (in
    :class:`TokenSpans` order), ``doc_ids`` int32, ``pos`` int32
    per-document token positions, ``lens`` int64 per-document token
    counts and ``has_value`` bool per document — or ``None`` when the
    analyzer configuration is not fast-path eligible.
    """
    sp = token_spans(col, tokenizer)
    if sp is None:
        return None
    return sp.strings(), sp.doc_ids, sp.pos, sp.doc_lens, sp.has_value
