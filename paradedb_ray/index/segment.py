"""Immutable in-memory segment: inverted postings + fieldnorms + fast fields
over one Arrow batch.

The tantivy analogue is a segment's inverted index + fieldnorm + columnar
files (`/root/reference/pg_search/src/index/`); here a segment is a plain
numpy/Arrow structure built per block inside ``map_batches`` (stateless
scoring path) or held inside a state-store actor (streaming path).

Layout (per text field) is struct-of-arrays, built vectorized via
pandas.factorize + lexsort rather than per-row Python dict churn:

* ``vocab``            sorted unique terms (object ndarray)
* ``term_offsets``     [n_terms+1] -> ranges into the group arrays
* ``g_doc``/``g_tf``   doc id + term frequency per (term, doc) group
* ``g_pos_off``        [n_groups+1] -> ranges into ``pos_flat``
* ``pos_flat``         token positions, grouped by (term, doc)
* ``fieldnorm_ids``    byte-quantized doc lengths (Lucene SmallFloat)
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from paradedb_ray.fieldnorm import fieldnorm_to_id
from paradedb_ray.schema import IndexSchema, TEXT, KEYWORD, VECTOR


@dataclass
class TextFieldIndex:
    vocab: np.ndarray  # sorted unique terms
    term_offsets: np.ndarray  # int64 [n_terms+1]
    g_doc: np.ndarray  # int32 [n_groups]
    g_tf: np.ndarray  # int32 [n_groups]
    g_pos_off: Optional[np.ndarray]  # int64 [n_groups+1] or None
    pos_flat: Optional[np.ndarray]  # int32 [total_tokens] or None
    fieldnorm_ids: np.ndarray  # uint8 [num_docs]
    total_tokens: int
    doc_count: int  # docs with a (non-null) value
    has_value: np.ndarray  # bool [num_docs]

    def term_code(self, term: str) -> int:
        """Index of term in vocab, or -1."""
        i = np.searchsorted(self.vocab, term)
        if i < len(self.vocab) and self.vocab[i] == term:
            return int(i)
        return -1

    def postings(self, code: int):
        """(doc_ids int32, tfs int32, group_range) for a vocab code."""
        s, e = self.term_offsets[code], self.term_offsets[code + 1]
        return self.g_doc[s:e], self.g_tf[s:e], (s, e)

    def positions(self, group_index: int) -> np.ndarray:
        s, e = self.g_pos_off[group_index], self.g_pos_off[group_index + 1]
        return self.pos_flat[s:e]

    def doc_freq(self, term: str) -> int:
        c = self.term_code(term)
        if c < 0:
            return 0
        return int(self.term_offsets[c + 1] - self.term_offsets[c])


@dataclass
class Segment:
    num_docs: int
    table: pa.Table  # docstore + fast fields (original columns)
    text: dict = dfield(default_factory=dict)  # field -> TextFieldIndex
    schema: IndexSchema = None
    _json_cache: dict = dfield(default_factory=dict)
    _vec_cache: dict = dfield(default_factory=dict)

    def __getstate__(self) -> dict:
        """Pickle without the derived per-segment caches: a checkpoint or
        a task argument carries the index only, the live segment keeps
        its caches, and an unpickled copy starts with empty ones."""
        return {**self.__dict__, "_json_cache": {}, "_vec_cache": {}}

    def column(self, name: str) -> pa.ChunkedArray:
        return self.table.column(name)

    def vector_matrix(self, field: str):
        """(matrix float32 [num_docs, dim], valid bool [num_docs]) for a
        VECTOR fast field — decoded zero-copy-ish from the Arrow list
        column once per segment and cached (pgvector column served like a
        tantivy fast field, `pg_search/src/vector/`).  Null rows are
        NaN-filled and masked out."""
        got = self._vec_cache.get(field)
        if got is not None:
            return got
        col = self.table.column(field).combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = (col.chunk(0) if col.num_chunks == 1
                   else pa.concat_arrays(col.chunks))
        import pyarrow.compute as pc

        valid = np.ones(len(col), dtype=bool) if col.null_count == 0 \
            else ~np.asarray(col.is_null())
        lens = np.asarray(
            pc.list_value_length(col).fill_null(0)).astype(np.int64)
        dims = np.unique(lens[valid]) if valid.any() else np.empty(0)
        if len(dims) > 1:
            raise ValueError(
                f"vector field {field!r}: ragged dimensions {dims.tolist()}")
        dim = int(dims[0]) if len(dims) else (
            self.schema.field(field).dim or 0)
        flat = np.asarray(pc.list_flatten(col)).astype(np.float32,
                                                       copy=False)
        if valid.all():
            mat = flat.reshape(len(col), dim)
        else:
            mat = np.full((len(col), dim), np.nan, dtype=np.float32)
            if valid.any():
                mat[valid] = flat.reshape(-1, dim)
        got = (mat, valid)
        self._vec_cache[field] = got
        return got

    def json_path_values(self, field: str, path: str) -> np.ndarray:
        """Extract dot-path values from a JSON string column (tantivy
        json-field dot addressing, `pg_search/src/api/mod.rs:47`)."""
        key = (field, path)
        vals = self._json_cache.get(key)
        if vals is None:
            import json as _json

            parts = path.split(".")
            col = self.table.column(field).to_pylist()
            out = []
            for v in col:
                if v is None:
                    out.append(None)
                    continue
                try:
                    obj = _json.loads(v) if isinstance(v, str) else v
                except ValueError:
                    # malformed JSON (JSONDecodeError) has no path value
                    out.append(None)
                    continue
                for p in parts:
                    if isinstance(obj, dict):
                        obj = obj.get(p)
                    else:
                        obj = None
                        break
                out.append(obj)
            # element-wise fill: np.array(out, dtype=object) would turn
            # UNIFORM-length list leaves (e.g. every doc's "titles" has 3
            # elements) into a 2-D array, silently changing list elements
            # into ndarray rows that fail isinstance(list) downstream
            vals = np.empty(len(out), dtype=object)
            for i, v in enumerate(out):
                vals[i] = v
            self._json_cache[key] = vals
        return vals

    def json_text_index(self, field: str, path: str) -> TextFieldIndex:
        """Tokenized inverted index over a JSON dot-path's STRING leaf
        values — tantivy indexes JSON string values through the field's
        text analyzer, so ``description:test`` matches ``"A test
        author"`` and array elements match individually
        (`snippet_json_01_basic.sql`).  Arrays keep their string elements
        as a TEXT[]-style multi-value (POSITION_GAP between elements);
        non-string leaves contribute nothing."""
        key = ("_jidx", field, path)
        got = self._json_cache.get(key)
        if got is None:
            vals = self.json_path_values(field, path)
            texts = np.empty(len(vals), dtype=object)
            for i, v in enumerate(vals):
                if isinstance(v, str):
                    texts[i] = v
                elif isinstance(v, (list, tuple)):
                    elems = [e for e in v if isinstance(e, str)]
                    if elems:
                        texts[i] = elems
            analyzer = self.schema.field(field).analyzer
            got = _build_text_index(list(texts), analyzer,
                                    store_positions=True)
            self._json_cache[key] = got
        return got

    def json_total_tokens(self, field: str) -> int:
        """Total tokens indexed under a JSON field across ALL paths:
        string leaves through the field analyzer, array elements
        individually, ONE token per numeric/bool leaf — tantivy's
        ``total_num_tokens`` statistic for a json field, the avgdl
        denominator of JSON BM25 (per-doc dl itself is constant 1:
        tantivy stores no fieldnorms for json fields, verified against
        every score in `snippet_json_02_advanced.out`)."""
        key = ("_jtotal", field)
        got = self._json_cache.get(key)
        if got is None:
            import json as _json

            analyzer = self.schema.field(field).analyzer

            def count(obj) -> int:
                if isinstance(obj, str):
                    return len(analyzer.tokenize(obj))
                if isinstance(obj, bool) or isinstance(obj, (int, float)):
                    return 1
                if isinstance(obj, dict):
                    return sum(count(v) for v in obj.values())
                if isinstance(obj, (list, tuple)):
                    return sum(count(v) for v in obj)
                return 0

            total = 0
            for v in self.table.column(field).to_pylist():
                if v is None:
                    continue
                try:
                    obj = _json.loads(v) if isinstance(v, str) else v
                except ValueError:
                    # malformed JSON (JSONDecodeError) indexes no tokens
                    continue
                total += count(obj)
            got = total
            self._json_cache[key] = got
        return got


def _build_text_index(
    texts: list, analyzer, store_positions: bool,
    vocab_filter: Optional[np.ndarray] = None,
) -> TextFieldIndex:
    """``vocab_filter`` (sorted-unique object array) restricts the index
    to those terms only — the single-scan standing-query path: fieldnorms,
    ``total_tokens`` and ``doc_count`` still reflect the FULL token
    stream (BM25 norms must see real document lengths), but postings and
    positions are kept for the filtered vocabulary alone, skipping the
    full-stream factorize/lexsort.  Position values stay the ORIGINAL
    token positions, so phrase adjacency over filtered terms is exact."""
    n = len(texts)
    tok_lists = []
    pos_lists = {}  # doc idx -> explicit positions (multi-value docs only)
    has_value = np.zeros(n, dtype=bool)
    lens = np.zeros(n, dtype=np.int64)
    tokenize = analyzer.tokenize
    # ngram / edge_ngram assign their own token positions (all-zero unless
    # ngram positions=true; per-word for edge_ngram) — route those through
    # tokenize_tokens so the index sees the tokenizer's numbering
    custom_pos = getattr(analyzer, "custom_positions", False)

    def _toks_pos(value):
        tts = analyzer.tokenize_tokens(value)
        return ([tk.text for tk in tts],
                [tk.position for tk in tts])

    for i, t in enumerate(texts):
        if t is None:
            tok_lists.append(())
            continue
        if isinstance(t, (list, tuple, np.ndarray)):
            # text[] column: each element is a separate value of the same
            # field (`tokenize-text-arrays.sql`); token positions continue
            # across elements with tantivy's POSITION_GAP=2 so phrases
            # never match across element boundaries
            toks: list = []
            positions: list = []
            off = 0
            for v in t:
                if v is None:
                    continue
                if custom_pos:
                    vt, vp = _toks_pos(v)
                    positions.extend(off + p for p in vp)
                    if vt:
                        off += max(vp) + 2  # gap after this value's last pos
                else:
                    vt = tokenize(v)
                    positions.extend(range(off, off + len(vt)))
                    if vt:
                        off += len(vt) + 1  # last pos + 2 == next start
                toks.extend(vt)
            if not toks and not any(v is not None for v in t):
                tok_lists.append(())
                continue
            has_value[i] = True
            lens[i] = len(toks)
            tok_lists.append(toks)
            pos_lists[i] = np.asarray(positions, dtype=np.int32)
            continue
        has_value[i] = True
        if custom_pos:
            toks, tpos = _toks_pos(t)
            pos_lists[i] = np.asarray(tpos, dtype=np.int32)
        else:
            toks = tokenize(t)
        lens[i] = len(toks)
        tok_lists.append(toks)

    total = int(lens.sum())
    if total == 0:
        return _empty_text_index(lens, has_value, store_positions)

    flat = np.empty(total, dtype=object)
    pos = np.empty(total, dtype=np.int32)
    k = 0
    for i, toks in enumerate(tok_lists):
        m = len(toks)
        if m:
            flat[k : k + m] = toks
            p = pos_lists.get(i)
            if p is None:
                pos[k : k + m] = np.arange(m, dtype=np.int32)
            else:
                pos[k : k + m] = p
            k += m
    doc_ids = np.repeat(np.arange(n, dtype=np.int32), lens)

    if vocab_filter is not None:
        codes = pd.Index(vocab_filter).get_indexer(flat)
        keep = codes >= 0
        codes = codes[keep].astype(np.int64)
        doc_ids = doc_ids[keep]
        pos = pos[keep]
        uniques = vocab_filter
        kept = len(codes)
        if kept == 0:
            return _filtered_empty_text_index(vocab_filter, lens, has_value,
                                              total, store_positions)
    else:
        codes, uniques = pd.factorize(flat, sort=True)
        codes = codes.astype(np.int64)
        kept = total

    return _group_postings(codes, uniques, doc_ids, pos, lens, has_value,
                           total, kept, store_positions)


def _empty_text_index(lens, has_value, store_positions) -> TextFieldIndex:
    return TextFieldIndex(
        vocab=np.empty(0, dtype=object),
        term_offsets=np.zeros(1, dtype=np.int64),
        g_doc=np.empty(0, dtype=np.int32),
        g_tf=np.empty(0, dtype=np.int32),
        g_pos_off=np.zeros(1, dtype=np.int64) if store_positions else None,
        pos_flat=np.empty(0, dtype=np.int32) if store_positions else None,
        fieldnorm_ids=fieldnorm_to_id(lens),
        total_tokens=0,
        doc_count=int(has_value.sum()),
        has_value=has_value,
    )


def _filtered_empty_text_index(vocab_filter, lens, has_value, total,
                               store_positions) -> TextFieldIndex:
    nf = len(vocab_filter)
    return TextFieldIndex(
        vocab=np.asarray(vocab_filter, dtype=object),
        term_offsets=np.zeros(nf + 1, dtype=np.int64),
        g_doc=np.empty(0, dtype=np.int32),
        g_tf=np.empty(0, dtype=np.int32),
        g_pos_off=(np.zeros(1, dtype=np.int64)
                   if store_positions else None),
        pos_flat=(np.empty(0, dtype=np.int32)
                  if store_positions else None),
        fieldnorm_ids=fieldnorm_to_id(lens),
        total_tokens=total,
        doc_count=int(has_value.sum()),
        has_value=has_value,
    )


def _group_postings(codes, uniques, doc_ids, pos, lens, has_value,
                    total, kept, store_positions) -> TextFieldIndex:
    # group by (code, doc); positions are already ascending within each doc,
    # and a stable sort keeps them ascending within each group.  When doc
    # ids arrive non-decreasing (every kernel or list build without
    # non-ASCII fallback rows), a stable sort by code alone is that same
    # permutation, and numpy sorts 16-bit keys stably by radix
    n_terms = len(uniques)
    if n_terms <= 1 << 16 and not (doc_ids[1:] < doc_ids[:-1]).any():
        order = np.argsort(codes.astype(np.uint16), kind="stable")
    else:
        order = np.lexsort((doc_ids, codes))
    c_s, d_s, p_s = codes[order], doc_ids[order], pos[order]

    # group boundaries
    newgrp = np.empty(kept, dtype=bool)
    newgrp[0] = True
    np.not_equal(c_s[1:], c_s[:-1], out=newgrp[1:])
    diffdoc = d_s[1:] != d_s[:-1]
    newgrp[1:] |= diffdoc
    grp_starts = np.flatnonzero(newgrp)
    g_doc = d_s[grp_starts].astype(np.int32)
    g_code = c_s[grp_starts]
    bounds = np.append(grp_starts, kept)
    g_tf = np.diff(bounds).astype(np.int32)

    # per-term ranges over groups (groups sorted by code first)
    term_counts = np.bincount(g_code, minlength=n_terms)
    term_offsets = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(term_counts, out=term_offsets[1:])

    if store_positions:
        g_pos_off = bounds.astype(np.int64)
        pos_flat = p_s
    else:
        g_pos_off = None
        pos_flat = None

    return TextFieldIndex(
        vocab=np.asarray(uniques, dtype=object),
        term_offsets=term_offsets,
        g_doc=g_doc,
        g_tf=g_tf,
        g_pos_off=g_pos_off,
        pos_flat=pos_flat,
        fieldnorm_ids=fieldnorm_to_id(lens),
        total_tokens=total,
        doc_count=int(has_value.sum()),
        has_value=has_value,
    )


def build_text_index_arrow(col, analyzer, store_positions: bool,
                           vocab_filter: Optional[np.ndarray] = None,
                           ) -> Optional[TextFieldIndex]:
    """Vectorized ``_build_text_index`` over an Arrow string column.

    Tokenizes the whole column at once into byte spans through
    :func:`paradedb_ray.text.batch_tokenize.token_spans` (identical to the
    per-row ASCII fast path; non-ASCII rows fall back row-wise inside).
    A ``vocab_filter`` build keeps the spans that
    :func:`~paradedb_ray.text.batch_tokenize.match_terms` finds and never
    makes a token string; a full build gathers the spans into strings and
    builds the vocabulary with Arrow ``dictionary_encode`` + sort instead
    of ``pd.factorize`` over Python objects.  Returns ``None`` when the
    analyzer or column type is not eligible — the caller falls back to
    the list-based path (bit-identical either way; UTF-8 byte order ==
    codepoint order keeps the vocab sort equal to pandas' sorted
    factorize).
    """
    import pyarrow.compute as pc

    from paradedb_ray.text.batch_tokenize import match_terms, token_spans

    sp = token_spans(col, analyzer)
    if sp is None:
        return None
    lens, has_value = sp.doc_lens, sp.has_value
    total = int(lens.sum())
    if total == 0:
        return _empty_text_index(lens, has_value, store_positions)
    if vocab_filter is not None:
        keep, codes = match_terms(sp, vocab_filter)
        if not len(keep):
            return _filtered_empty_text_index(vocab_filter, lens, has_value,
                                              total, store_positions)
        return _group_postings(codes, vocab_filter, sp.doc_ids[keep],
                               sp.pos[keep], lens, has_value, total,
                               len(keep), store_positions)
    enc = sp.strings().dictionary_encode()
    d = enc.dictionary
    sort_idx = pc.sort_indices(d).to_numpy()
    rank = np.empty(len(d), dtype=np.int64)
    rank[sort_idx] = np.arange(len(d))
    codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
    uniques = d.take(pa.array(sort_idx)).to_numpy(zero_copy_only=False)
    return _group_postings(codes, uniques, sp.doc_ids, sp.pos, lens,
                           has_value, total, total, store_positions)


def text_field_index(col, analyzer, store_positions: bool,
                     vocab_filter: Optional[np.ndarray] = None,
                     ) -> TextFieldIndex:
    """A TEXT column's index: the vectorized Arrow build when the analyzer
    and column allow it, else the per-row list build (bit-identical)."""
    ti = build_text_index_arrow(col, analyzer, store_positions,
                                vocab_filter=vocab_filter)
    if ti is None:
        ti = _build_text_index(col.to_pylist(), analyzer, store_positions,
                               vocab_filter=vocab_filter)
    return ti


def _merge_vocabs(vocabs: list) -> tuple:
    """Union-sort segment vocabularies and map each segment's term codes
    into the merged code space — Arrow dictionary-encode + sort (C speed;
    numpy object-string sorts are the slow path).  Returns
    ``(merged_vocab, [code_map per segment])``; UTF-8 byte order equals
    codepoint order, so Arrow's sort matches ``np.searchsorted`` on the
    object arrays downstream."""
    allv = np.concatenate(vocabs) if vocabs else np.empty(0, dtype=object)
    if len(allv) == 0:
        return np.empty(0, dtype=object), [np.empty(0, np.int64)
                                           for _ in vocabs]
    import pyarrow.compute as pc

    enc = pa.array(allv, type=pa.string()).dictionary_encode()
    d = enc.dictionary
    sort_idx = pc.sort_indices(d).to_numpy()
    merged_vocab = d.take(pa.array(sort_idx)).to_numpy(zero_copy_only=False)
    rank = np.empty(len(d), dtype=np.int64)
    rank[sort_idx] = np.arange(len(d))
    code_map_all = rank[enc.indices.to_numpy()]
    maps, off = [], 0
    for v in vocabs:
        maps.append(code_map_all[off:off + len(v)])
        off += len(v)
    return merged_vocab, maps


def _merge_text_indexes(tis: list, keeps: list) -> TextFieldIndex:
    """Merge per-segment text indexes WITHOUT re-tokenization — the
    LSM-compaction analogue of tantivy's segment merge (postings-list
    merge, `pg_search/src/index/` merge path): vocabularies union-sort,
    per-(term, doc) groups remap through the visibility masks and new doc
    ids, position runs are gathered (never re-derived).

    NO comparison sort anywhere: each segment's group stream is already
    sorted by (code, doc), the merged-code remap is monotone per segment,
    and rebased doc-id ranges are disjoint and increasing — so the merged
    (code, doc) order is a counting sort: destination = global term offset
    + count of the same code in earlier segments + rank within this
    segment's run.  Output is bit-identical to rebuilding from the merged
    rows (guarded by test_merge_segments_bit_identical_to_rebuild)."""
    store_positions = all(ti.g_pos_off is not None for ti in tis)
    merged_vocab, code_maps = _merge_vocabs([ti.vocab for ti in tis])
    V = len(merged_vocab)

    # pass 1 — per-segment kept-group counts per merged code (V_j-sized
    # work when the keep mask is all-true: counts scatter straight off the
    # segment's term_offsets through its code_map)
    seg = []  # (codes-ish per-segment payload for pass 2)
    fieldnorms, has_values = [], []
    term_counts = np.zeros(V, dtype=np.int64)
    base = 0
    total_tokens = 0
    doc_count = 0
    for ti, keep, code_map in zip(tis, keeps, code_maps):
        keep = np.asarray(keep, dtype=bool)
        all_kept = bool(keep.all())
        n_kept = int(keep.sum())
        fieldnorms.append(ti.fieldnorm_ids[keep])
        has_values.append(ti.has_value[keep])
        doc_count += int((ti.has_value & keep).sum())
        n_groups = len(ti.g_doc)
        if not n_groups:
            base += n_kept
            continue
        counts_full = np.diff(ti.term_offsets)
        if all_kept:
            counts_j = counts_full
            docs_j = ti.g_doc.astype(np.int64) + base
            tf_j = ti.g_tf
            gmask = None
        else:
            remap = np.cumsum(keep) - 1
            gmask = keep[ti.g_doc]
            docs_j = remap[ti.g_doc[gmask]] + base
            tf_j = ti.g_tf[gmask]
            # kept groups per term: segment stream is term-run contiguous
            run_id = np.repeat(np.arange(len(counts_full)), counts_full)
            counts_j = np.bincount(run_id[gmask],
                                   minlength=len(counts_full))
        cnt = np.zeros(V, dtype=np.int64)
        cnt[code_map] = counts_j  # vocab is unique per segment
        term_counts += cnt
        total_tokens += int(tf_j.sum())
        seg.append((code_map, counts_j, docs_j, tf_j, ti, gmask, cnt))
        base += n_kept

    N = int(term_counts.sum())
    if N == 0:
        return TextFieldIndex(
            vocab=np.empty(0, dtype=object),
            term_offsets=np.zeros(1, dtype=np.int64),
            g_doc=np.empty(0, dtype=np.int32),
            g_tf=np.empty(0, dtype=np.int32),
            g_pos_off=np.zeros(1, dtype=np.int64) if store_positions else None,
            pos_flat=np.empty(0, dtype=np.int32) if store_positions else None,
            fieldnorm_ids=np.concatenate(fieldnorms)
            if fieldnorms else np.empty(0, np.uint8),
            total_tokens=0,
            doc_count=doc_count,
            has_value=np.concatenate(has_values)
            if has_values else np.empty(0, bool),
        )

    # prune terms whose every posting was masked out (keeps the merged
    # index bit-identical to a rebuild and stops dead-vocab bloat across
    # repeated compactions)
    alive = term_counts > 0
    if not alive.all():
        new_code = np.cumsum(alive) - 1
        merged_vocab = merged_vocab[alive]
        term_counts = term_counts[alive]
        V = len(merged_vocab)
        remapped = []
        for code_map, counts_j, docs_j, tf_j, ti, gmask, cnt in seg:
            m = alive[code_map]
            cm2 = np.where(m, new_code[code_map], 0)
            cnt2 = np.zeros(V, dtype=np.int64)
            cnt2[cm2[m]] = counts_j[m]
            counts2 = np.where(m, counts_j, 0)
            remapped.append((cm2, counts2, docs_j, tf_j, ti, gmask, cnt2))
        seg = remapped

    term_offsets = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(term_counts, out=term_offsets[1:])

    # pass 2 — counting-sort scatter: per segment, groups of one code form
    # a contiguous run (stream sorted by code); within a code, segment
    # order IS doc order (disjoint increasing doc ranges).  Destination of
    # a run = global term offset + same-code groups from earlier segments;
    # all run arithmetic is V_j-sized, only the scatters touch N.
    g_code_s = np.empty(N, dtype=np.int64)
    g_doc_s = np.empty(N, dtype=np.int32)
    g_tf_s = np.empty(N, dtype=np.int32)
    order = np.empty(N, dtype=np.int64)  # output slot -> source group
    prefix = np.zeros(V, dtype=np.int64)  # same-code groups seen so far
    goff = 0
    for code_map, counts_j, docs_j, tf_j, ti, gmask, cnt in seg:
        n_j = len(docs_j)
        run_dest = term_offsets[code_map] + prefix[code_map]
        run_start = np.cumsum(counts_j) - counts_j  # exclusive cumsum
        # dest_j = repeat(run_dest - run_start, counts_j) + arange(n_j)
        dest_j = np.repeat(run_dest - run_start, counts_j)
        dest_j += np.arange(n_j, dtype=np.int64)
        g_code_s[dest_j] = np.repeat(code_map, counts_j)
        g_doc_s[dest_j] = docs_j
        g_tf_s[dest_j] = tf_j
        order[dest_j] = np.arange(goff, goff + n_j, dtype=np.int64)
        prefix += cnt
        goff += n_j

    if store_positions:
        pos_cat, lens_cat = [], []
        for code_map, counts_j, docs_j, tf_j, ti, gmask, cnt in seg:
            lens_full = np.diff(ti.g_pos_off)
            if gmask is None:
                pos_cat.append(ti.pos_flat)
                lens_cat.append(lens_full)
            else:
                pmask = np.repeat(gmask, lens_full)
                pos_cat.append(ti.pos_flat[pmask])
                lens_cat.append(lens_full[gmask])
        lens = np.concatenate(lens_cat).astype(np.int64)
        pos = np.concatenate(pos_cat)
        src_off = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(lens, out=src_off[1:])
        out_lens = lens[order]
        g_pos_off = np.zeros(N + 1, dtype=np.int64)
        np.cumsum(out_lens, out=g_pos_off[1:])
        # run-gather via the cumsum trick (every run has >=1 position, so
        # boundaries are distinct): idx walks each source run in output
        # order without any sort
        total = int(g_pos_off[-1])
        starts = src_off[:-1][order]
        step = np.ones(total, dtype=np.int64)
        step[0] = starts[0]
        b = g_pos_off[1:-1]  # run boundaries in the output
        step[b] = starts[1:] - starts[:-1] - out_lens[:-1] + 1
        pos_flat = pos[np.cumsum(step)]
    else:
        pos_flat = None
        g_pos_off = None

    return TextFieldIndex(
        vocab=merged_vocab,
        term_offsets=term_offsets,
        g_doc=g_doc_s,
        g_tf=g_tf_s,
        g_pos_off=g_pos_off,
        pos_flat=pos_flat,
        fieldnorm_ids=np.concatenate(fieldnorms),
        total_tokens=total_tokens,
        doc_count=doc_count,
        has_value=np.concatenate(has_values),
    )


def merge_segments(segments: list, schema: IndexSchema,
                   keeps: Optional[list] = None) -> Segment:
    """Merge segments into one, dropping rows where ``keeps`` is False
    (superseded copies), WITHOUT re-tokenizing: tables concatenate
    filtered, text postings merge via :func:`_merge_text_indexes`."""
    if keeps is None:
        keeps = [np.ones(s.num_docs, dtype=bool) for s in segments]
    tables = []
    for s, k in zip(segments, keeps):
        k = np.asarray(k, dtype=bool)
        tables.append(s.table if k.all() else s.table.filter(pa.array(k)))
    table = pa.concat_tables(tables).combine_chunks()
    out = Segment(num_docs=table.num_rows, table=table, schema=schema)
    fields = set().union(*(s.text.keys() for s in segments)) \
        if segments else set()
    for fname in fields:
        # a field may be absent from a segment whose batch lacked the
        # column: treat as empty (no postings, zero-length fieldnorms
        # would misalign — so require presence everywhere; stores build
        # uniform segments)
        tis = [s.text[fname] for s in segments]
        out.text[fname] = _merge_text_indexes(tis, keeps)
    return out


def build_segment(
    table: pa.Table, schema: IndexSchema, store_positions: bool = True,
    terms: Optional[dict] = None,
) -> Segment:
    """Build a segment over an Arrow table/batch.

    Text fields get postings (+positions); keyword and numeric fields are
    served directly from the Arrow columns (columnar fast fields), like
    tantivy fast fields (`pg_search/src/index/fast_fields_helper.rs`).

    ``terms`` (``{field: sorted-unique term array}``) builds a segment for
    a known query set: each named TEXT field indexes those terms only
    (fieldnorms, token totals and doc counts stay whole-column, so BM25
    over them is unchanged) and other TEXT fields get no index.
    """
    if isinstance(table, (pa.RecordBatch,)):
        table = pa.Table.from_batches([table])
    # derive indexed-expression alias columns (`operators.sql:17-20`,
    # `(lower(description)::pdb.simple('alias=description_lower'))`)
    for f in schema.fields.values():
        if (f.expr_source is not None and f.name not in table.column_names
                and f.expr_source in table.column_names):
            col = table.column(f.expr_source)
            derived = f.expr_fn(col) if f.expr_fn is not None else col
            table = table.append_column(f.name, derived)
    seg = Segment(num_docs=table.num_rows, table=table, schema=schema)
    for f in schema.fields.values():
        if f.ftype == TEXT and f.indexed and f.name in table.column_names:
            if terms is not None and f.name not in terms:
                continue
            seg.text[f.name] = text_field_index(
                table.column(f.name), f.analyzer,
                store_positions and f.positions,
                vocab_filter=None if terms is None else terms[f.name])
        elif f.ftype == VECTOR and f.name in table.column_names:
            # decode once (warms the fast-field cache) and validate like
            # pgvector's type-level checks (`vector_ingest.sql`): fixed
            # dimension, finite elements
            mat, valid = seg.vector_matrix(f.name)
            if (f.dim is not None and valid.any()
                    and mat.shape[1] != f.dim):
                raise ValueError(
                    f"vector field {f.name!r}: expected dim {f.dim}, "
                    f"got {mat.shape[1]}")
            if valid.any() and not np.isfinite(mat[valid]).all():
                raise ValueError(
                    f"vector field {f.name!r}: non-finite elements "
                    "(NaN/Inf) are rejected at ingest")
    return seg
