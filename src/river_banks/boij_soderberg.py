"""Greedy chain decomposition of zero-regular tables.

Any bundle table with nonpositive regularity index at k = 0 is a unique
positive rational combination of homogeneous-bundle tables along a chain of
labels.  The greedy step implemented here pivots at the componentwise-minimal
label compatible with the residual's regularity profile, extracts the largest
coefficient keeping the residual entrywise nonnegative on a certified window,
and repeats.  Honest chain sums are recovered exactly; inputs outside that
scope fail loudly instead of being approximated.

The arithmetic is fraction-free, in the manner of Bareiss elimination: the
residual is an integer grid R over one common denominator D.  A step takes
the least ratio a / b of a residual cell to its pivot cell by
cross-multiplying, records the coefficient a / (b * D), sets R to
b * R - a * pivot and D to b * D, and divides out gcd(D, R), so that D stays
the residual's least denominator and the integers do not grow.  Only the
coefficients are ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from river_banks.partitions import GenPartition, leq
from river_banks.tables import (
    BottSumTable,
    CohomologyTable,
    NEG_INFINITY,
    POS_INFINITY,
    UndecidableError,
    _cells,
    _grid_profile,
    homogeneous_table,
    regularity_profile,
)

MAX_TERMS = 64


class NotZeroRegularError(ValueError):
    """The input table is not zero-regular, so no decomposition is attempted."""


class NotDecomposableWithinScope(Exception):
    """The greedy run failed; carries the partial decomposition extracted so far."""

    def __init__(self, reason, partial):
        self.reason = reason
        self.partial = partial
        super().__init__(reason)


class Decomposition(NamedTuple):
    """Ordered terms (coefficient, label), smallest label first."""

    terms: tuple
    residual_zero: bool
    chain_certified: bool

    def to_json(self):
        return [{"coeff": str(Fraction(c)), "lambda": str(lam)} for c, lam in self.terms]


def decompose(t: CohomologyTable) -> Decomposition:
    """Run the greedy chain decomposition of a zero-regular table.

    The verification window spans display columns from -(P + n + 2) to
    P + n + 2 where P bounds the largest label part that can occur (read off
    the coregularity index at k = 0); every extracted coefficient is exact
    and the residual is checked entrywise on that window.  When the input has
    a twist polynomial the recomposed polynomial must match it exactly, which
    certifies the tails beyond the window.  P^0 is refused.  A window's flagged
    positive reg(0) is its first column, which no cell above row 0 certifies
    (``UndecidableError``), or one past a column that has one (``_grid_profile``).

    The residual is an integer grid over one denominator, the lcm of the
    input cells' denominators, and each step divides out the gcd of the
    denominator and the cells (module docstring).
    """
    n = t.n
    if n < 1:
        raise ValueError("the decomposition needs ambient dimension at least 1")
    prof = regularity_profile(t)
    reg0, coreg0 = prof.reg[0], prof.coreg[0]
    if reg0 == NEG_INFINITY and coreg0 == POS_INFINITY:
        return Decomposition((), True, True)
    if reg0 > 0:
        if prof.reg_window_limited[0] and reg0 == t.window[0]:
            raise UndecidableError(
                "no visible cell certifies a positive regularity index at k=0")
        raise NotZeroRegularError(f"regularity index at k=0 is {reg0} > 0")

    maxpart = max(-coreg0 - 1, 0)
    lo, hi = -maxpart - n - 2, maxpart + n + 2
    # the residual is grid / den: integer cells over one common denominator
    grid, den = _cells(t, lo, hi), 1
    if any(type(v) is Fraction for row in grid for v in row):
        den = lcm(*(v.denominator for row in grid for v in row))
        grid = [[v.numerator * (den // v.denominator) for v in row] for row in grid]

    terms = []
    prev = None
    for _ in range(MAX_TERMS):
        if not any(any(row) for row in grid):
            break
        lam = _pivot_label(grid, lo, hi, terms)
        if prev is not None and not leq(prev, lam):
            raise NotDecomposableWithinScope(
                f"chain order violated: {prev} vs {lam}", _partial(terms))
        pivot = _cells(homogeneous_table(lam), lo, hi)
        # the least ratio a / b of a residual cell to its pivot cell (b > 0)
        a = b = None
        for row, prow in zip(grid, pivot):
            for v, pv in zip(row, prow):
                if pv and (b is None or v * b < a * pv):
                    a, b = v, pv
        if a <= 0:
            raise NotDecomposableWithinScope(
                f"greedy coefficient for {lam} is zero", _partial(terms))
        g = gcd(a, b)
        a, b = a // g, b // g
        # grid / den - a / (b * den) * pivot = (b * grid - a * pivot) / (b * den)
        grid = [[b * v - a * pv for v, pv in zip(row, prow)]
                for row, prow in zip(grid, pivot)]
        terms.append((Fraction(a, b * den), lam))
        den *= b
        if den > 1:
            g = gcd(den, *(v for row in grid for v in row))
            if g > 1:
                den //= g
                grid = [[v // g for v in row] for row in grid]
        prev = lam
    else:
        raise NotDecomposableWithinScope(
            f"residual nonzero after {MAX_TERMS} terms", _partial(terms))

    if t.window is None:
        if BottSumTable(n, terms).hilbert_polynomial() != t.hilbert_polynomial():
            raise NotDecomposableWithinScope(
                "twist polynomial of the recomposition differs from the input",
                _partial(terms))
    return Decomposition(tuple(terms), True, True)


def _partial(terms):
    return Decomposition(tuple(terms), False, bool(terms))


def _pivot_label(grid, lo, hi, terms):
    """Label whose parts negate the residual grid's regularity profile."""
    reg = _grid_profile(grid, lo, hi).reg
    for k, r in enumerate(reg):
        if r == lo:
            raise NotDecomposableWithinScope(
                f"residual has no support below row {k}", _partial(terms))
    if reg[0] > 0:
        raise NotDecomposableWithinScope(
            "residual is no longer zero-regular", _partial(terms))
    return GenPartition(-r for r in reversed(reg))
