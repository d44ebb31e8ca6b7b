"""Corpus-frequency vocabulary build + token-frequency quality scoring.

The published LLM-data quality family (C4 / Gopher / RefinedWeb filters)
scores documents against CORPUS statistics — here the corpus-wide token
frequency table: documents dominated by tokens the corpus has never seen
(OCR noise, hashes, boilerplate IDs) score low, documents made of common
words score high.  Two stages, both scale-shaped:

* :func:`build_token_vocab` — the wide step.  Per-block token explode ->
  the house two-stage hash aggregate (`stages/hash_agg.py`, partial
  counts per block, ``num_returns=P`` hash split, P reducers) -> each
  reducer prunes to ITS top-V (token hash-partitioning makes every
  token's total live in exactly one reducer, so the per-reducer head is
  a superset of that reducer's contribution to the global head) -> the
  driver merges P x V rows.  The corpus never concentrates anywhere;
  only P small heads do.
* :func:`add_freq_quality` — the narrow step.  The vocab (<= V rows) is
  ``ray.put`` ONCE and each scoring task reads it from the object store
  (never re-pickled per batch); scoring is a stateless per-batch pass.

All outputs are INTEGER (sum of corpus frequencies, in-vocab count,
token count), so the result is bit-exact and reproducible in plain SQL
(the oracle contract): no float log-prob drift across engines or
reduction orders.  Vocab boundary ties break by (freq DESC, token ASC)
— a total order, identical in SQL's ORDER BY ... LIMIT.

Reference analogue: pg_search keeps per-segment term dictionaries with
document frequencies (tantivy ``TermDictionary``); this op lifts the
same statistic corpus-wide as a training-data quality signal.
"""

from __future__ import annotations

import re

import pyarrow as pa

import ray
import ray.data

from paradedb_ray.stages.blocks import cluster_cpus, collect_table
from paradedb_ray.stages.order import order_dataset

_WS = re.compile(r"\S+")
_VOCAB_SCHEMA = pa.schema([("token", pa.string()), ("freq", pa.int64())])


def _flat_tokens(col):
    """Vectorized ``\\S+`` tokenization of a string column: returns
    ``(doc_idx int64 array, tokens object array)`` — one row per token,
    ``doc_idx`` pointing back at the source row.  Byte-identical to the
    scalar ``_WS.findall`` path for ASCII + Unicode whitespace (Arrow
    splits on Unicode whitespace runs but emits empty tokens at the
    string edges, which we drop; parity is fuzzed in
    tests/test_round5_fixes.py)."""
    import numpy as np
    import pyarrow.compute as pc

    parts = pc.utf8_split_whitespace(
        pc.fill_null(col.combine_chunks()
                     if isinstance(col, pa.ChunkedArray) else col, ""))
    lens = pc.list_value_length(parts).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    toks = pc.list_flatten(parts).to_numpy(zero_copy_only=False)
    keep = toks != ""
    return doc_idx[keep], toks[keep]


def _explode(batch: pa.Table, text_col: str) -> pa.Table:
    import pandas as pd

    _, toks = _flat_tokens(batch.column(text_col))
    vc = pd.Series(toks, dtype=object).value_counts()
    return pa.table({
        "token": pa.array(vc.index.to_numpy(dtype=object), pa.string()),
        "freq": pa.array(vc.to_numpy(), pa.int64()),
    })


def build_token_vocab(ds: ray.data.Dataset, text_col: str,
                      top_v: int = 4096) -> pa.Table:
    """Global top-``top_v`` whitespace tokens by corpus count, as an
    Arrow table ``(token, freq)`` sorted by (freq DESC, token ASC)."""
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    tok = ds.map_batches(_explode, fn_kwargs={"text_col": text_col},
                         batch_format="pyarrow", batch_size=None)
    counts = hash_group_aggregate(tok, ["token"],
                                  {"freq": ("sum", "freq")})
    return collect_table(order_dataset(
        counts, [("freq", "descending"), ("token", "ascending")], top_v,
        schema=_VOCAB_SCHEMA))


def _explode_tf(batch: pa.Table, text_col: str, key_col: str) -> pa.Table:
    import pandas as pd

    doc_idx, toks = _flat_tokens(batch.column(text_col))
    g = pd.DataFrame({"d": doc_idx, "t": toks}).groupby(
        ["d", "t"], sort=False).size().reset_index(name="tf")
    keys = batch.column(key_col).take(
        pa.array(g["d"].to_numpy(), pa.int64()))
    return pa.table({
        key_col: keys,
        "token": pa.array(g["t"].to_numpy(dtype=object), pa.string()),
        "tf": pa.array(g["tf"].to_numpy(), pa.int64()),
    })


def extract_keywords(ds: ray.data.Dataset, text_col: str, key_col: str,
                     k: int = 5,
                     num_partitions: int = 32) -> ray.data.Dataset:
    """Per-document characteristic terms: the ``k`` tokens ranked by
    (tf DESC, df ASC, token ASC) — high in the doc, rare in the corpus;
    the classic tf-idf keyword extraction made INTEGER-exact (df replaces
    idf in the ORDER BY, which induces the identical per-doc ranking and
    keeps the result bit-reproducible in SQL).

    Composition of the house primitives, each already scale-shaped:
    per-block (doc, token, tf) explode -> two-stage hash aggregate for
    corpus df -> join the df side back on (BROADCAST while the
    vocabulary is under the repo's 2M-row bound, hash-shuffle beyond
    it) -> block-pruned top-n-per-group.  Output columns:
    ``(key, token, tf, df, kw_rank)``."""
    from paradedb_ray.pipelines.joins import broadcast_join, hash_join
    from paradedb_ray.pipelines.relational import topn_per_group
    from paradedb_ray.stages.hash_agg import hash_group_aggregate

    # materialized once: both the df aggregate and the join consume it
    # (columnar, object-store-spillable; recomputing would re-tokenize
    # the corpus twice)
    tok = ds.map_batches(_explode_tf,
                         fn_kwargs={"text_col": text_col, "key_col": key_col},
                         batch_format="pyarrow",
                         batch_size=None).materialize()
    df = hash_group_aggregate(tok, ["token"],
                              {"df": ("count_star", None)}).materialize()
    # the df side is vocabulary-sized: broadcast below the repo's 2M-row
    # broadcast bound, hash-shuffle only for truly web-scale vocabularies
    if df.count() <= 2_000_000:
        joined = broadcast_join(tok, df, on="token")
    else:
        joined = hash_join(tok, df, on="token",
                           num_partitions=num_partitions)
    return topn_per_group(joined, [key_col],
                          [("tf", "descending"), ("df", "ascending"),
                           ("token", "ascending")], k, rn_col="kw_rank")


class _FreqScorer:
    """Score each doc against a broadcast vocab: integer sum of corpus
    frequencies over the doc's in-vocab tokens + coverage counts."""

    def __init__(self, text_col: str, key_col: str, vocab_ref):
        self.text_col = text_col
        self.key_col = key_col
        v = ray.get(vocab_ref) if isinstance(
            vocab_ref, ray.ObjectRef) else vocab_ref
        self.vocab = dict(zip(v.column("token").to_pylist(),
                              v.column("freq").to_pylist()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        n = batch.num_rows
        doc_idx, toks = _flat_tokens(batch.column(self.text_col))
        lens = np.bincount(doc_idx, minlength=n).astype(np.int64)
        sums = np.zeros(n, np.int64)
        inv = np.zeros(n, np.int64)
        if len(toks):
            # one vectorized hash-map probe over the flattened tokens,
            # then integer-exact scatter-adds per doc
            mapped = pd.Series(toks, dtype=object).map(self.vocab)
            hit = mapped.notna().to_numpy()
            freq = mapped.fillna(0).to_numpy(dtype=np.int64)
            np.add.at(sums, doc_idx[hit], freq[hit])
            np.add.at(inv, doc_idx[hit], 1)
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "tf_sum_freq": pa.array(sums, pa.int64()),
            "tf_in_vocab": pa.array(inv, pa.int64()),
            "tf_n_tokens": pa.array(lens, pa.int64()),
        })


def add_freq_quality(ds: ray.data.Dataset, text_col: str, key_col: str,
                     vocab: pa.Table,
                     concurrency=None) -> ray.data.Dataset:
    """Per-doc corpus-frequency quality features against ``vocab``
    (from :func:`build_token_vocab`): ``tf_sum_freq`` (sum of corpus
    counts of the doc's in-vocab tokens), ``tf_in_vocab``,
    ``tf_n_tokens`` — all int64, bit-exact."""
    if concurrency is None:
        concurrency = (1, max(4, cluster_cpus()))
    ref = ray.put(vocab)
    return ds.map_batches(
        _FreqScorer,
        fn_constructor_args=(text_col, key_col, ref),
        batch_format="pyarrow", batch_size=None,
        concurrency=concurrency)
