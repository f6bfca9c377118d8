"""Exact kernels of paired wedge-multiplication maps in five variables.

A pair of 2-forms over a 5-dimensional space defines the stacked linear map
from the 10-dimensional space of 2-forms to two copies of the 5-dimensional
space of 4-forms given by wedging with each form; its kernel is always
nonzero, and this module computes the kernel dimension exactly.

The arithmetic stays in integers wherever the input allows.  A ``TwoForm``
keeps each integral coefficient as an ``int`` and only a genuinely rational one
as a ``Fraction``, by the exact-number rule ``ratpoly._coeff``, which refuses a
float or a bool and reads text as "p" or "p/q" only, for ``from_pairs`` too.
Of the 100 products of a basis 2-form with a basis 2-form, the 30 with four
distinct indices are nonzero; ``_WEDGE`` lists them once, at import, as
(column, coefficient index, 4-form row, sign), so that ``wedge_matrix`` is one
multiply-add per table row and block.  ``rank`` scales each row by the lcm of
its denominators and runs fraction-free (Bareiss) elimination over the
integers.
"""

from __future__ import annotations

import reprlib
from itertools import combinations
from math import lcm

from river_banks.ratpoly import _COEFF, _coeff, _digits, _ints

DIM = 5
#: Most digits in a form coefficient, in an integer or in each of p and q: two
#: forms of ten distinct 300-digit "p/q" coefficients answer in about 0.5 s,
#: and the cost grows quadratically past that.
MAX_COEFF_DIGITS = 300
BASIS2 = tuple(combinations(range(1, DIM + 1), 2))
BASIS4 = tuple(combinations(range(1, DIM + 1), 4))


def _wedge_table():
    index4 = {quad: r for r, quad in enumerate(BASIS4)}
    table = []
    for col, (a, b) in enumerate(BASIS2):
        for k, (c, d) in enumerate(BASIS2):
            quad = (a, b, c, d)
            if len(set(quad)) == 4:
                inv = sum(1 for s in range(4) for t in range(s + 1, 4) if quad[s] > quad[t])
                table.append((col, k, index4[tuple(sorted(quad))], (-1) ** inv))
    return tuple(table)


_WEDGE = _wedge_table()


class TwoForm:
    """Degree-two element, stored as coefficients over the ordered monomial basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(_coeff, coeffs))
        if len(coeffs) != len(BASIS2):
            raise ValueError(f"expected {len(BASIS2)} coefficients, got {len(coeffs)}")
        self.coeffs = coeffs

    @classmethod
    def from_pairs(cls, pairs):
        """Build from a list or tuple of ((i, j), coefficient) pairs; repeated monomials add up.

        Each pair is checked before its coefficient is added: ints 1 <= i < j <= 5
        (``ratpoly._ints``) and an exact number (``ratpoly._coeff``) of at most
        MAX_COEFF_DIGITS digits in written p and q, or numerator and denominator.
        """
        if not isinstance(pairs, (list, tuple)):
            raise ValueError("a form is a list of [[i, j], coefficient] pairs, "
                             f"got {reprlib.repr(pairs)}")
        vals = [0] * len(BASIS2)
        for pair in pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and isinstance(pair[0], (list, tuple)) and len(pair[0]) == 2):
                raise ValueError(f"expected [[i, j], coefficient], got {reprlib.repr(pair)}")
            (i, j), c = _ints(pair[0]), pair[1]
            if not (1 <= i < j <= DIM):
                raise ValueError(f"bad monomial index ({i}, {j})")
            # text is measured as written, before Fraction() reads it
            m = _COEFF.fullmatch(c) if isinstance(c, str) else None
            if m is None:
                c = _coeff(c)
            digits = (max(map(len, m.groups(""))) if m
                      else _digits(max(abs(c.numerator), c.denominator)))
            if digits > MAX_COEFF_DIGITS:
                raise ValueError(f"a coefficient has {digits} digits, past the limit of "
                                 f"{MAX_COEFF_DIGITS} digits (exterior.MAX_COEFF_DIGITS)")
            vals[BASIS2.index((i, j))] += _coeff(c)
        return cls(vals)

    @classmethod
    def random(cls, rng):
        """Integer coefficients in [-9, 9] from the given seeded generator."""
        return cls(rng.randint(-9, 9) for _ in BASIS2)

    def __eq__(self, other):
        return isinstance(other, TwoForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        body = " + ".join(f"{c}*e{i}{j}" for (i, j), c in
                          zip(BASIS2, self.coeffs) if c) or "0"
        return f"TwoForm({body})"


def wedge_matrix(eta1: TwoForm, eta2: TwoForm):
    """Matrix of w |-> (w ^ eta1, w ^ eta2); 10 rows (two 4-form blocks), 10 columns."""
    rows = [[0] * len(BASIS2) for _ in range(2 * len(BASIS4))]
    for block, eta in enumerate((eta1, eta2)):
        coeffs, offset = eta.coeffs, block * len(BASIS4)
        for col, k, row, sign in _WEDGE:
            rows[offset + row][col] += sign * coeffs[k]
    return rows


def kernel_dim(eta1: TwoForm, eta2: TwoForm) -> int:
    """Dimension of the common annihilator; at least 1 for every pair."""
    return len(BASIS2) - rank(wedge_matrix(eta1, eta2))


def rank(matrix) -> int:
    """Exact rank over the rationals via integer fraction-free elimination."""
    m = []
    for row in matrix:
        den = lcm(*(c.denominator for c in row))
        m.append([c.numerator * (den // c.denominator) for c in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank_ = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank_, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        pv = m[rank_][col]
        for r in range(rank_ + 1, nrows):
            vr = m[r][col]
            for c in range(col, ncols):
                num = pv * m[r][c] - vr * m[rank_][c]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free step produced a remainder"
                m[r][c] = q
        prev = pv
        rank_ += 1
        if rank_ == nrows:
            break
    return rank_

