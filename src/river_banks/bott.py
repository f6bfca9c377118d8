"""Cohomology of twisted homogeneous bundles on projective space.

The bundle labelled by a generalized partition of length n is the
corresponding Schur functor of the universal rank-n quotient bundle on
n-dimensional projective space, twisted by a power of the hyperplane bundle
when the label has a uniform shift.  Its twists are read off the label's
root sequence: with beta_i = parts[i] + n - i (strictly decreasing), the
roots are the -beta_i, listed increasing as ``neg``.  By Bott's theorem and
the Weyl dimension formula, twist d

* vanishes in every degree when d is a root;
* otherwise has its one nonzero group in degree #{i : beta_i < -d}, the
  number of roots above d;
* of dimension schur_dim(lam) / n! * |prod(d - r for r in neg)|.

This is the dot-action straightening of (parts[0], ..., parts[n-1], -d)
in closed form: only the entry -d + 0 can be out of order, so the
inversions are the beta_i below -d; the Weyl product over the n + 1 entries
is the one over the label's n entries times the n factors beta_i + d, and
its denominator gains the factor n!.  The test suite keeps the
straightening as the oracle.  ``chi_polynomial`` is the twist polynomial
of the label's table (``tables.CohomologyTable.hilbert_polynomial``): the
same constant times the same linear factors, without the absolute value.

Two memos.  ``partitions._roots`` holds each label's roots, its Schur
dimension (the Weyl product over the roots, which ``schur_dim`` reads too)
and n!, computed once per label; the parts, checked when the label was
built, are not checked again.  The cells read it, and so does a table's
natural piece, built with the table (``tables.BottSumTable``'s
``_pieces``): the constant schur_dim / n! stays two integers, and the
regularity profile, naturality and the twist polynomial all come off the
roots.  ``_bott`` holds the answer per (label, twist) and stays because a
grid (``tables._cells``) asks for each twist once per row, and a hit is
several times cheaper than the closed form.  It has to hold the keys of
one grid while its rows are read, not the history: about 1700 for a chain
of 8 labels on P^7 over 200 columns, 1090 for O(0) on P^100 over 990
columns.  A larger memo only keeps twists that do not come back.  A hit is
the memo lookup alone.  The label's length is checked on a miss, at the top
of ``_bott``: a label of the wrong length can never be a stored key, and its
refusal raises before anything is stored, so it is refused again on every
call.  A miss multiplies the n factors d - r into the label's constant in
integers and builds its ``BottCohomology`` with ``tuple.__new__``, skipping
the class's Python-level ``__new__``.

``bott_cohomology`` is called once per label and cell of a homogeneous
sum: its row (``tables.BottSumTable._row``) is the one generator row still
read cell by cell rather than off the pieces, because the benchmark's
tracer test pins one call per term and cell (28 calls for a one-label
render of 7 columns on P^3).  A direct sum that holds a pushforward reads
its labels' rows off their pieces and calls it not at all.  Once the pin
changes, ``_bott`` and that per-cell row go.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple, Optional

from river_banks.partitions import GenPartition, _roots
from river_banks.ratpoly import RatPoly


class BottCohomology(NamedTuple):
    """The single nonzero cohomology group of a homogeneous bundle twist."""

    degree: int
    dim: int


def bott_cohomology(n: int, lam: GenPartition, d: int) -> Optional[BottCohomology]:
    """Cohomology of the lam-bundle twisted by d on P^n; None if all groups vanish.

    A repeated (label, twist) is the ``_bott`` memo lookup alone: a label
    whose length is not n is refused on the memo's miss path, and since the
    refusal raises, its key is never stored and every such call is refused.
    """
    return _bott(n, lam.parts, d)


@lru_cache(maxsize=1 << 12)
def _bott(n, parts, d):
    if len(parts) != n:
        raise ValueError(f"label has length {len(parts)}, expected {n}")
    neg, num, den = _roots(parts)
    below = bisect_left(neg, d)
    if below < n and neg[below] == d:
        return None
    for r in neg:
        num *= d - r
    return tuple.__new__(BottCohomology, (n - below, abs(num) // den))


def chi_polynomial(n: int, lam: GenPartition) -> RatPoly:
    """Euler characteristic of the twists of the lam-bundle, as a polynomial.

    The value at an integer d equals the alternating sum of the cohomology
    dimensions of the d-th twist; the degree is exactly n and the n roots are
    the negated constant entries of the weight sequence.  It is the twist
    polynomial of the label's table.
    """
    if lam.n != n:
        raise ValueError(f"label has length {lam.n}, expected {n}")
    from river_banks.tables import homogeneous_table  # tables imports this module

    return homogeneous_table(lam).hilbert_polynomial()
