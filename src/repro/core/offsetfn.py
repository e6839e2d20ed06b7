"""Inference of f(initOffset) -- the per-process initial-offset expression.

Processes of one phase access "similar" patterns whose only difference
is where each starts (Table I: simLAP "where the initOffset can be
different").  The paper expresses the start as a function of the MPI
rank, e.g. MADbench2's ``idP * 8 * 32MB`` (Table VIII) or BT-IO's
``rs*idP + rs*(ph-1) + rs*(np-1)*(ph-1)`` (Table XI).

Both are linear in ``idP``; :func:`fit_offsets` recovers the exact
integer coefficients ``initOffset = slope * idP + intercept`` when one
exists (and degrades to a lookup table otherwise).  ``render`` can
re-express the coefficients in units of a phase's request size, which
reproduces the paper's formula style.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class OffsetFunction:
    """``f(initOffset)``: either an exact linear form or a table."""

    slope: Fraction | None  # bytes (or etype units) per rank
    intercept: Fraction | None
    table: tuple[tuple[int, int], ...] = ()  # fallback: (idP, offset) pairs

    @property
    def is_linear(self) -> bool:
        return self.slope is not None

    def __call__(self, rank: int) -> int:
        if self.is_linear:
            val = self.slope * rank + self.intercept
            if val.denominator != 1:
                raise ValueError(f"offset function non-integral at rank {rank}")
            return int(val)
        for r, off in self.table:
            if r == rank:
                return off
        raise KeyError(f"rank {rank} not in offset table")

    def expression(self, rs: int | None = None, rs_label: str = "rs") -> str:
        """Human-readable form; factors through ``rs`` when it divides both
        coefficients (paper style: ``idP * 8 * 32MB``)."""
        if not self.is_linear:
            return "table(" + ", ".join(f"{r}:{o}" for r, o in self.table) + ")"
        a, b = self.slope, self.intercept
        if rs and rs > 0 and a.denominator == 1 and b.denominator == 1 \
                and int(a) % rs == 0 and int(b) % rs == 0:
            ka, kb = int(a) // rs, int(b) // rs
            parts = []
            if ka:
                parts.append(f"idP * {ka} * {rs_label}" if ka != 1 else f"idP * {rs_label}")
            if kb:
                sign = "+" if kb > 0 else "-"
                parts.append(f"{sign} {abs(kb)} * {rs_label}")
            return " ".join(parts) if parts else "0"
        parts = []
        if a:
            parts.append(f"idP * {a}")
        if b or not parts:
            if parts:
                sign = "+" if b >= 0 else "-"
                parts.append(f"{sign} {abs(b)}")
            else:
                parts.append(str(b))
        return " ".join(parts)


def fit_offsets(pairs: Mapping[int, int] | Sequence[tuple[int, int]]) -> OffsetFunction:
    """Fit ``offset = slope*idP + intercept`` exactly over (rank, offset) pairs.

    Returns a linear :class:`OffsetFunction` when every pair satisfies
    one line exactly (the common SPMD case); otherwise a table fallback.
    A single pair fits the constant line through it.
    """
    items = sorted(pairs.items() if isinstance(pairs, Mapping) else pairs)
    if not items:
        raise ValueError("need at least one (rank, offset) pair")
    if len(items) == 1:
        r0, o0 = items[0]
        return OffsetFunction(slope=Fraction(0), intercept=Fraction(o0),
                              table=tuple(items))
    (r0, o0), (r1, o1) = items[0], items[1]
    if r1 == r0:
        return OffsetFunction(slope=None, intercept=None, table=tuple(items))
    # exactness by integer cross-multiplication -- no Fraction arithmetic
    # in the loop: (r, o) is on the line through (r0, o0), (r1, o1) iff
    # (o - o0) * (r1 - r0) == (o1 - o0) * (r - r0)
    dr, do = r1 - r0, o1 - o0
    for r, o in items:
        if (o - o0) * dr != do * (r - r0):
            return OffsetFunction(slope=None, intercept=None, table=tuple(items))
    slope = Fraction(do, dr)
    intercept = Fraction(o0) - slope * r0
    return OffsetFunction(slope=slope, intercept=intercept, table=tuple(items))


#: Below this many pairs the ndarray construction/lexsort overhead
#: exceeds the whole pure-Python fit (measured ~3x slower at n=31), so
#: small fits -- one per phase op, the _make_phase hot path -- stay pure.
_NUMPY_MIN_N = 128


def fit_offsets_arrays(ranks: Sequence[int],
                       offsets: Sequence[int]) -> OffsetFunction:
    """:func:`fit_offsets` over parallel rank/offset arrays.

    Vectorizes the exactness check with numpy when the pair count is
    large enough to amortize array setup (``_NUMPY_MIN_N``) and the
    products stay comfortably inside int64 (trace offsets are file
    offsets, so an overflow means petabyte-scale files times thousands
    of ranks -- checked anyway, with a fallback to exact Python
    integers).  Both paths sort pairs the same way, so the fitted
    function and its table are identical whichever path runs.
    """
    n = len(ranks)
    if n > 2 and n >= _NUMPY_MIN_N:
        try:
            r = np.asarray(ranks, dtype=np.int64)
            o = np.asarray(offsets, dtype=np.int64)
        except OverflowError:
            return fit_offsets(list(zip(ranks, offsets)))
        order = np.lexsort((o, r))
        r = r[order]
        o = o[order]
        r0, o0 = int(r[0]), int(o[0])
        r1, o1 = int(r[1]), int(o[1])
        if r1 != r0:
            dr, do = r1 - r0, o1 - o0
            max_o = int(np.abs(o - o0).max())
            max_r = int(np.abs(r - r0).max())
            if (max(max_o * abs(dr), abs(do) * max_r) < 2 ** 62
                    and bool(((o - o0) * dr == do * (r - r0)).all())):
                slope = Fraction(do, dr)
                intercept = Fraction(o0) - slope * r0
                return OffsetFunction(slope=slope, intercept=intercept,
                                      table=tuple(zip(r.tolist(), o.tolist())))
        # duplicate first rank, possible overflow, or non-linear: the
        # exact Python path settles it
        return fit_offsets(list(zip(r.tolist(), o.tolist())))
    return fit_offsets(list(zip(ranks, offsets)))
