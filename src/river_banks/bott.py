"""Cohomology of twisted homogeneous bundles on projective space.

The bundle labelled by a generalized partition of length n is the
corresponding Schur functor of the universal rank-n quotient bundle on
n-dimensional projective space, twisted by a power of the hyperplane bundle
when the label has a uniform shift.  For each twist at most one cohomological
degree carries a nonzero group; which one, and its dimension, falls out of a
dotted weight sequence:

    beta = (parts[0] + n, parts[1] + n - 1, ..., parts[n-1] + 1, -d)

A repeated entry kills all cohomology; otherwise the inversion count of beta
is the cohomological degree and the strictly sorted sequence, minus the
staircase (n, ..., 1, 0), labels a Schur module over an (n+1)-dimensional
space whose dimension is the answer.  This convention is certified by the
self-checks in the test suite (section dimensions of line bundles, top
cohomology of the dualizing twist, and the regularity formula below).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple, Optional

from river_banks.partitions import GenPartition, schur_dim
from river_banks.ratpoly import RatPoly


class BottCohomology(NamedTuple):
    """The single nonzero cohomology group of a homogeneous bundle twist."""

    degree: int
    dim: int


def bott_cohomology(n: int, lam: GenPartition, d: int) -> Optional[BottCohomology]:
    """Cohomology of the lam-bundle twisted by d on P^n; None if all groups vanish."""
    if lam.n != n:
        raise ValueError(f"label has length {lam.n}, expected {n}")
    return _bott(n, lam.parts, d)


@lru_cache(maxsize=1 << 16)
def _bott(n, parts, d):
    beta = [parts[i] + n - i for i in range(n)] + [-d]
    if len(set(beta)) < n + 1:
        return None
    inv = sum(1 for i in range(n + 1) for j in range(i + 1, n + 1) if beta[i] < beta[j])
    srt = sorted(beta, reverse=True)
    mu = tuple(srt[i] - (n - i) for i in range(n + 1))
    return BottCohomology(inv, schur_dim(mu, n + 1))


def homogeneous_reg(lam: GenPartition, k: int) -> int:
    """k-th regularity index of the lam-bundle: the negated k-th smallest part."""
    if not 0 <= k < lam.n:
        raise ValueError(f"index {k} out of range 0..{lam.n - 1}")
    return -lam.part(k)


def chi_polynomial(n: int, lam: GenPartition) -> RatPoly:
    """Euler characteristic of the twists of the lam-bundle, as a polynomial.

    The value at an integer d equals the alternating sum of the cohomology
    dimensions of the d-th twist; the degree is exactly n and the n roots are
    the negated constant entries of the weight sequence.
    """
    if lam.n != n:
        raise ValueError(f"label has length {lam.n}, expected {n}")
    b = [lam.parts[i] + n - i for i in range(n)]
    const = Fraction(1, factorial(n))
    for i in range(n):
        for j in range(i + 1, n):
            const *= Fraction(b[i] - b[j], j - i)
    poly = RatPoly([const])
    for bi in b:
        poly = poly * RatPoly([bi, 1])
    return poly
