"""NUMERIC field encodings — the Python twin of pg_search's numeric
pushdown (`pg_search/src/query/numeric.rs:1-472`, `schema/mod.rs:73-78`):

* **Numeric64(scale)** — NUMERIC(p, s) with p <= 18 stores as i64
  fixed-point: value x 10^scale.  Term/range predicates scale their
  bounds the same way and compare integers (exact, order-preserving).
* **NumericBytes** — unlimited precision: an order-preserving byte
  encoding (sign class + biased adjusted exponent + digit bytes, bytes
  complemented for negatives) so byte-wise comparison == numeric
  comparison.  Same idea as the public decimal-bytes scheme the
  reference uses; implemented from scratch.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import numpy as np
import pyarrow as pa

_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _to_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        # shortest-repr first (mirrors the reference's from_f64 via ryu):
        # Decimal(str(0.07)) == Decimal("0.07"), not the binary expansion
        return Decimal(repr(value))
    return Decimal(str(value))


def scale_i64(value, scale: int) -> int:
    """value x 10^scale as i64 (`numeric.rs` scale_i64/scale_owned_value)."""
    d = _to_decimal(value).scaleb(scale)
    i = int(d.to_integral_value(rounding=ROUND_HALF_UP))
    if not (_I64_MIN <= i <= _I64_MAX):
        raise OverflowError(
            f"value {value!r} exceeds i64 range after scaling by {scale}")
    return i


def scale_array(col, scale: int):
    """Arrow column -> (scaled int64 ndarray, valid bool ndarray).

    Vectorized for float/int columns (the hot path); decimal and string
    columns go through exact Decimal parsing."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    n = len(col)
    valid = np.asarray(pa.compute.is_valid(col))
    out = np.zeros(n, dtype=np.int64)
    if pa.types.is_floating(t):
        x = col.to_numpy(zero_copy_only=False).astype(float)
        ok = valid & ~np.isnan(x)
        out[ok] = np.rint(x[ok] * (10.0 ** scale)).astype(np.int64)
        return out, ok
    if pa.types.is_integer(t):
        x = col.to_numpy(zero_copy_only=False)
        out[valid] = x[valid].astype(np.int64) * (10 ** scale)
        return out, valid
    # decimal / string: exact per-value Decimal
    vals = col.to_pylist()
    for i, v in enumerate(vals):
        if v is None:
            valid[i] = False
            continue
        try:
            out[i] = scale_i64(v, scale)
        except (InvalidOperation, OverflowError, ValueError):
            valid[i] = False
    return out, valid


# ---------------------------------------------------------------------------
# NumericBytes: order-preserving arbitrary-precision encoding
# ---------------------------------------------------------------------------

_NEG, _ZERO, _POS = b"\x00", b"\x01", b"\x02"
_EXP_BIAS = 0x4000  # adjusted exponents in [-16384, 16383]


def numeric_bytes(value) -> bytes:
    """Order-preserving bytes: compare with plain ``bytes`` comparison.

    Layout: sign class byte, then (for nonzero) 2-byte biased adjusted
    exponent, then one byte per significant digit (digit + 1) and a 0x00
    terminator; every byte after the class is complemented for negatives
    so their order reverses."""
    d = _to_decimal(value)
    if not d.is_finite():
        # NaN / Infinity have no digits to encode (``scale_i64`` rejects
        # them too)
        raise ValueError(f"non-finite numeric value {value!r}")
    if d == 0:
        return _ZERO
    sign, digits, exp = d.as_tuple()
    # strip trailing zeros from the significant digits
    nd = len(digits)
    while nd > 1 and digits[nd - 1] == 0:
        nd -= 1
        exp += 1
    digits = digits[:nd]
    adj = exp + len(digits) - 1  # adjusted exponent (scientific notation)
    if not (-_EXP_BIAS <= adj < _EXP_BIAS):
        raise OverflowError(f"exponent {adj} out of NumericBytes range")
    body = (adj + _EXP_BIAS).to_bytes(2, "big") + bytes(
        dg + 1 for dg in digits) + b"\x00"
    if sign:
        return _NEG + bytes(b ^ 0xFF for b in body)
    return _POS + body


def cmp_value(v):
    """Wrap a query-side bytes value as a 0-d object array so numpy
    broadcasts it elementwise instead of iterating its bytes."""
    return np.array(v, dtype=object) if isinstance(v, bytes) else v


def numeric_term_count(col, value, scale) -> int:
    """Doc-freq of ``value`` in a NUMERIC column (stats-exchange path)."""
    try:
        if scale is not None:
            rep, valid = scale_array(col, scale)
            qv = scale_i64(value, scale)
        else:
            rep, valid = numeric_bytes_array(col)
            qv = numeric_bytes(value)
    except (InvalidOperation, OverflowError, ValueError):
        return 0
    return int((valid & (rep == cmp_value(qv))).sum())


def numeric_bytes_array(col):
    """Arrow column -> (object ndarray of bytes, valid mask)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.to_pylist()
    # invalid slots hold b"" so vectorized bytes comparisons never see None
    out = np.full(len(vals), b"", dtype=object)
    valid = np.zeros(len(vals), dtype=bool)
    for i, v in enumerate(vals):
        if v is None:
            continue
        try:
            out[i] = numeric_bytes(v)
            valid[i] = True
        except (InvalidOperation, OverflowError, ValueError):
            pass
    return out, valid
