"""Seeded random inputs and entry-level oracles shared by the tests.

The scan oracles compute regularity indices by scanning table entries
directly, independent of the closed forms and structural recursions under
test; the subset-sum oracle computes a pushforward entry by the full
Kunneth sum, independent of the one-row closed form.
"""

from __future__ import annotations

from itertools import combinations

from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition
from river_banks.tables import BottSumTable


def random_partition(rng, n, lo=0, hi=4):
    return GenPartition(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def random_bott_sum(rng, n=None, terms=None, lo=-3, hi=5):
    n = n or rng.randint(1, 4)
    terms = terms or rng.randint(1, 3)
    return BottSumTable(
        n, [(rng.randint(1, 4), random_partition(rng, n, lo, hi)) for _ in range(terms)]
    )


def random_kunneth(rng, n=None, lo=-5, hi=5):
    n = n or rng.randint(1, 4)
    return KunnethTable(tuple(rng.randint(lo, hi) for _ in range(n)))


def random_generator_table(rng):
    """A homogeneous sum or a pushforward, possibly twisted and dualized.

    Twists and duals return a table of the same backend, so the result is a
    ``BottSumTable`` or a ``KunnethTable``.
    """
    t = random_kunneth(rng) if rng.random() < 0.4 else random_bott_sum(rng)
    if rng.random() < 0.4:
        t = t.twist(rng.randint(-3, 3))
    if rng.random() < 0.4:
        t = t.dual()
    return t


def scan_reg(t, k):
    """Least antidiagonal above which rows j > k vanish, by direct entry scans."""
    lo, hi = t._scan_range()
    for m in range(hi, lo - 1, -1):
        if any(t.entry(j, m - j) for j in range(k + 1, t.n + 1)):
            return m + 1
    return None


def scan_coreg(t, k):
    lo, hi = t._scan_range()
    for m in range(lo, hi + 1):
        if any(t.entry(j, m - j) for j in range(0, t.n - k)):
            return m - 1
    return None


def reg_condition_holds(t, k, m):
    """The vanishing condition defining reg at antidiagonal m."""
    return not any(t.entry(j, m - j) for j in range(k + 1, t.n + 1))


def coreg_condition_holds(t, k, m):
    return not any(t.entry(j, m - j) for j in range(0, t.n - k))


def subset_sum_cohomology(a, i):
    """Row i of the multidegree-``a`` line bundle on a product of lines.

    Sums over the i-subsets of factors contributing their first cohomology
    while the rest contribute sections.
    """
    if i < 0:
        return 0
    total = 0
    for picked in combinations(range(len(a)), i):
        prod = 1
        for j, aj in enumerate(a):
            prod *= (-aj - 1 if aj <= -2 else 0) if j in picked else max(aj + 1, 0)
        total += prod
    return total
