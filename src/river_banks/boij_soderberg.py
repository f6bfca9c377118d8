"""Greedy chain decomposition of zero-regular tables.

Any bundle table with nonpositive regularity index at k = 0 is a unique
positive rational combination of homogeneous-bundle tables along a chain of
labels.  The greedy step implemented here pivots at the componentwise-minimal
label compatible with the residual's regularity profile, extracts the largest
coefficient keeping the residual entrywise nonnegative on a certified window,
and repeats.  Honest chain sums are recovered exactly; inputs outside that
scope fail loudly instead of being approximated.

A generator table whose pieces already lie on a chain is answered off its
pieces, with no grid.  A piece with strictly increasing roots is a positive
multiple of one label's table (a homogeneous table is one supernatural
piece), and the combination along a chain is unique (Eisenbud-Schreyer), so
when the labels of the pieces, merged by equal roots, form a chain of at
most ``MAX_TERMS`` labels, they and their constants are the greedy's
answer.  The grid runs for every other table: a literal window, a piece
with a repeated root, labels off a chain (which the greedy resolves through
a finer chain) or more than ``MAX_TERMS`` of them.

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

from river_banks.partitions import GenPartition, _roots, leq
from river_banks.ratpoly import _decimal
from river_banks.tables import (
    BottSumTable,
    CohomologyTable,
    NEG_INFINITY,
    POS_INFINITY,
    UndecidableError,
    _cells,
    _check_grid,
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
        return [{"coeff": _decimal(Fraction(c)), "lambda": str(lam)} for c, lam in self.terms]


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
    A window past ``MAX_CELLS`` cells is refused before any cell is read or
    any piece merged, on either path.

    A generator table whose pieces lie on a chain of labels is answered off
    its pieces (``_piece_chain``), which are the greedy's own answer; any
    other table (a literal window, a piece with a repeated root, labels off
    a chain, more than ``MAX_TERMS`` of them) goes to the grid greedy
    (``_greedy``), whose residual is an integer grid over one denominator,
    the lcm of the input cells' denominators, with the gcd of the
    denominator and the cells divided out at each step (module docstring).
    """
    window = _window(t)
    if window is None:
        return Decomposition((), True, True)
    terms = _piece_chain(t)
    if terms is None:
        return _greedy(t, *window)
    return Decomposition(terms, True, True)


def _window(t):
    """``decompose``'s refusals, then its window (lo, hi) of display columns.

    None for the zero generator table, whose decomposition is empty.
    """
    n = t.n
    if n < 1:
        raise ValueError("the decomposition needs ambient dimension at least 1")
    prof = regularity_profile(t)
    reg0, coreg0 = prof.reg[0], prof.coreg[0]
    if reg0 == NEG_INFINITY and coreg0 == POS_INFINITY:
        return None
    if reg0 > 0:
        if prof.reg_window_limited[0] and reg0 == t.window[0]:
            raise UndecidableError(
                "no visible cell certifies a positive regularity index at k=0")
        raise NotZeroRegularError(f"regularity index at k=0 is {reg0} > 0")

    maxpart = max(-coreg0 - 1, 0)
    lo, hi = -maxpart - n - 2, maxpart + n + 2
    _check_grid(n, lo, hi)
    return lo, hi


def _piece_chain(t):
    """The terms of a generator table off its pieces when they lie on a chain, else None.

    Pieces with equal roots are merged, their constants p/q summed.  A piece
    whose roots r increase strictly is (p/q) * n! / schur_dim(lam) times the
    table of the label lam with parts[i] = i - n - r[i], whose piece has the
    constant schur_dim(lam) / n! (``partitions._roots``).  When these labels,
    at most ``MAX_TERMS``, form a chain, the table is that positive
    combination of homogeneous tables along a chain, which is unique
    (Eisenbud-Schreyer); the greedy returns it, smallest label first.
    """
    if t.window is not None:
        return None
    n, merged = t.n, {}
    for p, q, roots in t._pieces:
        merged[roots] = merged.get(roots, 0) + Fraction(p, q)
    if len(merged) > MAX_TERMS or any(a >= b for r in merged for a, b in zip(r, r[1:])):
        return None
    labels = sorted((tuple(i - n - r for i, r in enumerate(roots)), c)
                    for roots, c in merged.items())
    terms = []
    for parts, c in labels:
        lam = GenPartition(parts)
        if terms and not leq(terms[-1][1], lam):
            return None
        _, dim, nfact = _roots(parts)
        terms.append((c * nfact / dim, lam))
    return tuple(terms)


def _greedy(t, lo, hi):
    """The greedy run over display columns lo..hi of ``t`` (module docstring)."""
    # the residual is grid / den: integer cells over one common denominator
    grid, den = _cells(t, lo, hi), 1
    if any(type(v) is Fraction for row in grid for v in row):
        den = lcm(*(v.denominator for row in grid for v in row))
        grid = [[v.numerator * (den // v.denominator) for v in row] for row in grid]

    terms = []
    while any(any(row) for row in grid):
        if len(terms) == MAX_TERMS:
            raise NotDecomposableWithinScope(
                f"residual nonzero after {MAX_TERMS} terms", _partial(terms))
        lam = _pivot_label(grid, lo, hi, terms)
        if terms and not leq(terms[-1][1], lam):
            raise NotDecomposableWithinScope(
                f"chain order violated: {terms[-1][1]} vs {lam}", _partial(terms))
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

    if t.window is None:
        if BottSumTable(t.n, terms).hilbert_polynomial() != t.hilbert_polynomial():
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
