"""Byte-quantized fieldnorms (document lengths), Lucene ``SmallFloat``-style.

Tantivy (and therefore pg_search's BM25 scoring) does not store a document's
exact token count: it stores a single byte per document, mapped through a
256-entry table that is exact for small lengths and geometrically spaced for
large ones.  BM25's ``dl`` term is the *decoded* (quantized) value.  We
replicate the scheme so scores match the reference
(cf. /root/reference/pg_search SURVEY §5 "BM25 parity requirements"; the
encoding is the public Lucene ``SmallFloat.intToByte4`` 4-bit-mantissa
scheme that tantivy's ``fieldnorm/code.rs`` table implements).

Values 0..39 encode exactly (24 free values + the int4 subnormal/shift-0
ranges); beyond that the mantissa keeps 4 significant bits, so steps grow
geometrically per octave: 40,42..54, 56,60..84, 88,96..144, 152,168..264,
280,312..504, ...  The golden anchor is `snippet_position_01_basic.out`
row 4: a 321-token document scores with dl=312.
"""

from __future__ import annotations

import numpy as np


def _long_to_int4(i: int) -> int:
    num_bits = i.bit_length()
    if num_bits < 4:
        return i
    shift = num_bits - 4
    encoded = i >> shift  # top 4 bits, leading bit set
    encoded &= 0x07  # clear the implicit leading bit (Lucene SmallFloat)
    encoded |= (shift + 1) << 3
    return encoded


def _int4_to_long(i: int) -> int:
    bits = i & 0x07
    shift = (i >> 3) - 1
    if shift == -1:
        return bits
    return (bits | 0x08) << shift


_MAX_INT4 = _long_to_int4(2**31 - 1)
_NUM_FREE_VALUES = 255 - _MAX_INT4


def _byte4_to_int(b: int) -> int:
    if b < _NUM_FREE_VALUES:
        return b
    return _NUM_FREE_VALUES + _int4_to_long(b - _NUM_FREE_VALUES)


#: id -> decoded fieldnorm (length 256, monotonically increasing)
FIELD_NORMS_TABLE: np.ndarray = np.array(
    [_byte4_to_int(b) for b in range(256)], dtype=np.int64
)


def fieldnorm_to_id(fieldnorm: np.ndarray | int):
    """Encode exact token counts to fieldnorm byte ids (vectorized).

    Picks the largest id whose decoded value is <= fieldnorm (Lucene
    semantics: lengths round *down* onto the table).
    """
    arr = np.asarray(fieldnorm, dtype=np.int64)
    ids = np.searchsorted(FIELD_NORMS_TABLE, arr, side="right") - 1
    return ids.astype(np.uint8)
