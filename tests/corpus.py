"""Seeded random inputs and entry-level oracles shared by the tests.

The scan oracles compute regularity indices by scanning table entries
directly, independent of the closed forms and structural recursions under
test; the subset-sum oracle computes a pushforward entry by the full
Kunneth sum, independent of the one-row closed form; the strip oracle
expands a tensor product by Littlewood-Richardson tableaux, independent of
the Brauer-Klimyk straightening.
"""

from __future__ import annotations

from collections import Counter
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


def lr_strips(lam, mu):
    """Littlewood-Richardson expansion by chains of horizontal strips.

    Both labels are shifted to classical partitions, one strip per part of
    mu is added under the row-wise ballot condition, shapes needing more
    than n rows are pruned, and the results are padded to length n and
    shifted back.
    """
    n = lam.n
    c1 = -min(lam.part(0), 0)
    c2 = -min(mu.part(0), 0)
    strips = [p + c2 for p in mu.parts if p + c2 > 0]
    counts = Counter()

    def grow(shape, prev_rows, vi):
        if vi == len(strips):
            counts[shape] += 1
            return
        for rows in _strip_placements(shape, strips[vi], prev_rows, n):
            new_shape = tuple(
                (shape[r] if r < len(shape) else 0) + rows[r] for r in range(len(rows))
            )
            while new_shape and new_shape[-1] == 0:
                new_shape = new_shape[:-1]
            grow(new_shape, rows, vi + 1)

    grow(tuple(p + c1 for p in lam.parts if p + c1 > 0), None, 0)
    back = c1 + c2
    return {GenPartition(q - back for q in shape + (0,) * (n - len(shape))): mult
            for shape, mult in counts.items()}


def _strip_placements(shape, size, prev_rows, maxrows):
    """Row counts for every admissible horizontal strip of ``size`` boxes.

    A placement assigns a_r boxes to row r (0-based) with the strip condition
    a_r <= shape[r-1] - shape[r] for r >= 1; when ``prev_rows`` is given
    (the row counts of the previous letter), the ballot condition requires
    the running total through row r to stay within the previous letter's
    total through row r - 1.
    """
    nrows = len(shape)
    top = min(nrows + 1, maxrows)
    prev_cum = None
    if prev_rows is not None:
        prev_cum = []
        s = 0
        for r in range(top):
            s += prev_rows[r] if r < len(prev_rows) else 0
            prev_cum.append(s)

    out = []

    def rec(r, remaining, cum, acc):
        if r == top:
            if remaining == 0:
                out.append(tuple(acc))
            return
        old_here = shape[r] if r < nrows else 0
        cap = remaining if r == 0 else min(remaining, shape[r - 1] - old_here)
        if prev_cum is not None:
            allowed = 0 if r == 0 else prev_cum[r - 1]
            cap = min(cap, allowed - cum)
        for a in range(0, max(cap, -1) + 1):
            acc.append(a)
            rec(r + 1, remaining - a, cum + a, acc)
            acc.pop()

    rec(0, size, 0, [])
    return out
