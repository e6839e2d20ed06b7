"""Bulk tokenizer kernel: vectorized Fig. 2 text parsing.

The exact line parser (:mod:`repro.tracer.ingest`) tokenizes decoded
*lines*; this module tokenizes a raw **byte block** in one numpy pass:
separator positions come from one ``flatnonzero``, every integer column
is converted with a right-aligned digit sweep against a power-of-ten
table, and the fixed ``%.6f`` float columns (the tracer always writes
six fractional digits) convert via an exact integer mantissa divided by
``10**6`` -- bit-identical to ``float(str)`` because both are the
correctly-rounded value of the same decimal when the mantissa fits 15
digits (exact in int64 and float64; longer tokens fall back).

:func:`bulk_parse` is *eligibility-gated*, not lenient: any deviation
from the clean single-space nine-field layout -- tabs, ``\\r``, runs of
spaces, 8-field legacy rows, out-of-range digits, >18-digit ints --
returns ``None`` untouched and the caller re-parses the block through
the exact line-wise path, which owns error locations, quarantine
salvage and legacy-row semantics.  The kernel therefore never has to be
*almost* right: it either proves the block clean and converts it, or
declines.  Parity with the reference parser of the tests (including
float bit-identity and op-table interning order) is asserted by
``tests/tracer/test_ingest.py`` down to ``content_digest`` equality.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bulk_parse"]


def _pow10():
    return 10 ** np.arange(19, dtype=np.int64)


def _parse_ints(arr, d, starts, ends, bad, pow10):
    """Right-aligned digit sweep over one integer column.

    ``d`` is ``arr - 48`` in uint8 (wrapping), so every non-digit byte
    lands above 9 and one unsigned compare per place accumulates the
    validity flags.  Lanes shorter than the current place contribute 0
    via the ``live`` mask; their (wrapped, in-bounds) gathers are
    discarded.  Returns None when the column cannot be converted
    exactly (>18 digits would overflow int64 -- the caller's exact
    line parser owns those).
    """
    neg = arr[starts] == 45  # '-'
    s = starts + neg
    lens = ends - s
    if len(lens) == 0:
        return np.zeros(0, dtype=np.int64)
    maxlen = int(lens.max())
    if maxlen > 18 or int(lens.min()) < 1:
        return None
    vals = np.zeros(len(starts), dtype=np.int64)
    for j in range(maxlen):
        live = lens > j
        dj = d[ends - 1 - j]
        np.logical_or(bad, (dj > 9) & live, out=bad)
        vals += np.multiply(dj, pow10[j], dtype=np.int64) * live
    np.negative(vals, out=vals, where=neg)
    return vals


def _parse_floats_f6(arr, d, starts, ends, bad, pow10):
    """Exact conversion of fixed ``%.6f`` tokens: ``[-]int.dddddd``.

    The integer mantissa accumulates like ``_parse_ints`` (six always-
    present fractional digits, then the masked integer digits), and the
    value is ``mantissa / 10**6`` -- correctly rounded, hence equal to
    ``float(token)``, whenever the mantissa has <= 15 digits.  Anything
    else (scientific notation, other fractional widths, long mantissas,
    ``nan``/``inf``) returns None for the exact fallback.
    """
    neg = arr[starts] == 45
    s = starts + neg
    lens = ends - s  # token length including the dot
    if len(lens) == 0:
        return np.zeros(0, dtype=np.float64)
    if int(lens.min()) < 8 or int(lens.max()) > 16:  # <= 15 mantissa digits
        return None
    if not (arr[ends - 7] == 46).all():  # '.' fixed six places from the end
        return None
    mant = np.zeros(len(starts), dtype=np.int64)
    for j in range(6):  # fractional digits: always present
        dj = d[ends - 1 - j]
        np.logical_or(bad, dj > 9, out=bad)
        mant += np.multiply(dj, pow10[j], dtype=np.int64)
    for i in range(int(lens.max()) - 7):  # integer digits: length-masked
        live = (lens - 7) > i
        dj = d[ends - 8 - i]
        np.logical_or(bad, (dj > 9) & live, out=bad)
        mant += np.multiply(dj, pow10[6 + i], dtype=np.int64) * live
    vals = mant.astype(np.float64) / 1e6
    np.negative(vals, out=vals, where=neg)
    return vals


#: (token index, output column) for the six integer columns.
_INT_FIELDS = ((0, "rank"), (1, "file_id"), (3, "offset"), (4, "tick"),
               (5, "request_size"), (8, "abs_offset"))
_FLOAT_FIELDS = ((6, "time"), (7, "duration"))


def bulk_parse(data: bytes):
    """Parse one newline-terminated block of clean 9-field rows.

    Returns ``{column: ndarray, "op_table": [str, ...]}`` with op codes
    interned in first-appearance order (matching the line parsers), or
    ``None`` when the block is not provably clean -- the caller then
    owns the exact re-parse.  ``data`` must not include the Fig. 2
    header line.
    """
    arr = np.frombuffer(data, dtype=np.uint8)
    n_bytes = len(arr)
    if n_bytes < 24 or arr[-1] != 10:  # must end on a line break
        return None
    if int(arr.max()) > 126:  # non-ASCII: the fallback owns decoding
        return None
    # any control byte but '\n' (tab, \r, \v, \f) disqualifies the block
    if ((arr < 32) & (arr != 10)).any():
        return None
    sep = arr == 32
    np.logical_or(sep, arr == 10, out=sep)
    spos = np.flatnonzero(sep)
    starts = np.empty(len(spos), dtype=np.int64)
    starts[0] = 0
    starts[1:] = spos[:-1] + 1
    ends = spos
    # empty token == adjacent separators / separator at a line edge
    if (ends == starts).any():
        return None
    is_nl = arr[spos] == 10
    nlines = int(is_nl.sum())
    # exactly nine fields per line: the newline must be every 9th
    # separator (which also proves columns 0..7 end in single spaces)
    if nlines == 0 or len(spos) != 9 * nlines:
        return None
    if not is_nl.reshape(nlines, 9)[:, 8].all():
        return None
    starts = starts.reshape(nlines, 9)
    ends = ends.reshape(nlines, 9)
    d = arr - np.uint8(48)  # wraps: every non-digit byte lands > 9
    pow10 = _pow10()
    bad = np.zeros(nlines, dtype=bool)
    out = {}
    for k, name in _INT_FIELDS:
        vals = _parse_ints(arr, d, starts[:, k], ends[:, k], bad, pow10)
        if vals is None:
            return None
        out[name] = vals
    for k, name in _FLOAT_FIELDS:
        vals = _parse_floats_f6(arr, d, starts[:, k], ends[:, k], bad, pow10)
        if vals is None:
            return None
        out[name] = vals
    if bad.any():  # some byte in a numeric token was not a digit
        return None
    # op column: pad tokens into a fixed-width byte matrix, view as
    # |S-width keys, np.unique-intern, then remap the unique ranks into
    # first-appearance order (what sequential interning produces).
    op_start, op_end = starts[:, 2], ends[:, 2]
    op_len = op_end - op_start
    width = int(op_len.max())
    gather = op_start[:, None] + np.arange(width)
    np.minimum(gather, n_bytes - 1, out=gather)
    padded = np.take(arr, gather)
    padded *= np.arange(width) < op_len[:, None]
    keys = np.ascontiguousarray(padded).view(f"S{width}").ravel()
    uniq, first_idx, inverse = np.unique(keys, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[order] = np.arange(len(uniq))
    out["op_code"] = rank_of[inverse.reshape(-1)]
    out["op_table"] = [uniq[i].decode("ascii").rstrip("\x00") for i in order]
    return out
