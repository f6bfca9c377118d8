"""Tables of direct images of split line bundles from a product of lines.

The finite projection from the m-fold product of the projective line onto
m-dimensional projective space pushes the line bundle of multidegree
(a_1, ..., a_m) forward to a rank-m! bundle whose twist by d has the
cohomology of the multidegree (a_1 + d, ..., a_m + d) upstairs; that
cohomology factors over the line factors, so every entry is a short product
formula, nonzero in at most one row per twist.

Pushforwards are closed under twists and duals.  Twisting by s adds s to
every a_j.  The dual of the pushforward of O(a) is the pushforward of O(-a)
tensored with the relative dualizing bundle, which is O(-2, ..., -2) times
the pullback of O(n + 1), that is O(n - 1, ..., n - 1); so the dual is the
pushforward of the multidegree (n - 1 - a_1, ..., n - 1 - a_n).

The regularity profile is read off the sorted multidegree a_(0) <= ... <=
a_(n-1) without reading any entry.  Twist d vanishes exactly at the zero
twists d = -a_j - 1; any other twist is nonzero in the one row
i(d) = #{j : a_j <= -2 - d}, at display column d + i(d).  A step from a
twist to the next, both nonzero, raises that column by one, so:

* over the nonzero twists d <= -2 - a_(k), those with a row above k, the
  column is largest at that bound or just left of a zero twist, a twist
  -2 - a_j either way; reg(k) is one more than the largest column over the
  nonzero twists -2 - a_(j), j >= k;
* over the nonzero twists d >= -a_(n-1-k), those with a row below n - k,
  the column is smallest at that bound or just right of a zero twist, a
  twist -a_j either way; coreg(k) is one less than the smallest column over
  the nonzero twists -a_(j), j <= n - 1 - k.

That is O(n) per index whatever the size of the a_j, and no index is
window-limited.  coreg is computed on its own, not through the dual, so the
duality identity stays a check.  A pushforward is one natural piece: its
twist polynomial prod(d + a_j + 1) has the roots -a_j - 1, so it is
supernatural exactly when the a_j are distinct.
"""

from __future__ import annotations

from bisect import bisect_right
from math import prod

from river_banks.tables import NEG_INFINITY, POS_INFINITY, CohomologyTable, RegularityProfile


def product_line_cohomology(a, i: int) -> int:
    """i-th cohomology dimension of the multidegree-``a`` line bundle upstairs.

    A line factor of degree a_j has a_j + 1 sections when a_j >= 0, first
    cohomology of dimension -a_j - 1 when a_j <= -2, and nothing at a_j = -1.
    So only row i = #{j : a_j <= -2} can be nonzero, and there the entry is
    the product of the |a_j + 1|.
    """
    a = [int(x) for x in a]
    if i != sum(1 for aj in a if aj <= -2):
        return 0
    return prod(abs(aj + 1) for aj in a)


class KunnethTable(CohomologyTable):
    """Pushforward table for a multidegree ``a`` on P^len(a)."""

    def __init__(self, a):
        a = tuple(int(x) for x in a)
        if not a:
            raise ValueError("multidegree needs at least one factor")
        self.a = a
        self.n = len(a)

    def _entry(self, i, d):
        return product_line_cohomology(tuple(aj + d for aj in self.a), i)

    def dual(self):
        return KunnethTable(self.n - 1 - aj for aj in self.a)

    def twist(self, s):
        return KunnethTable(aj + s for aj in self.a)

    def _pieces(self):
        return [(1, tuple(sorted(-aj - 1 for aj in self.a)))]

    def _profile(self):
        a, n = sorted(self.a), self.n
        present = set(a)

        def column(d):
            return d + bisect_right(a, -2 - d)

        # The columns of the twists -2 - a_(j) and -a_(j), with the zero
        # twists among them out of the running.  The last entry of ``right``
        # and the first of ``left`` are never zero twists.
        right = [NEG_INFINITY if x + 1 in present else column(-2 - x) for x in a]
        left = [POS_INFINITY if x - 1 in present else column(-x) for x in a]
        return RegularityProfile(tuple(max(right[k:]) + 1 for k in range(n)),
                                 tuple(min(left[:n - k]) - 1 for k in range(n)),
                                 (False,) * n, (False,) * n)

    def __repr__(self):
        return f"<KunnethTable {','.join(str(x) for x in self.a)}>"


def pushforward_table(a) -> KunnethTable:
    """Cohomology table of the pushforward of the multidegree-``a`` line bundle."""
    return KunnethTable(a)
