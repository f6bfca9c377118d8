"""Tables of direct images of split line bundles from a product of lines.

The finite projection from the m-fold product of the projective line onto
m-dimensional projective space pushes the line bundle of multidegree
(a_1, ..., a_m) forward to a rank-m! bundle whose twist by d has the
cohomology of the multidegree (a_1 + d, ..., a_m + d) upstairs; that
cohomology factors over the line factors, so every entry is a short product
formula, nonzero in at most one row per twist.  The table keeps a sorted
copy of its multidegree, so a row is one interval of twists, between two
consecutive sorted entries, with one product per twist in it and zeros
elsewhere (``KunnethTable._row``, the table's one value rule: a cell is a
one-column row); ``product_line_cohomology`` states the same formula for
one multidegree.

Pushforwards are closed under twists and duals.  Twisting by s adds s to
every a_j.  The dual of the pushforward of O(a) is the pushforward of O(-a)
tensored with the relative dualizing bundle, which is O(-2, ..., -2) times
the pullback of O(n + 1), that is O(n - 1, ..., n - 1); so the dual is the
pushforward of the multidegree (n - 1 - a_1, ..., n - 1 - a_n).

A pushforward is one natural piece, of constant 1: its twist polynomial
prod(d + a_j + 1) has the roots -a_j - 1, so it is supernatural exactly
when the a_j are distinct.  Its regularity profile, naturality and twist
polynomial come off those roots as for every generator table
(``tables._roots_profile``), without reading any entry.
"""

from __future__ import annotations

from math import prod

from river_banks.tables import CohomologyTable


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
        self._sorted_a = tuple(sorted(a))

    def _row(self, i, lo, hi):
        # twist d sits in row #{j : a_j <= -2 - d}, so row i holds the twists
        # -1 - s[i] <= d <= -2 - s[i - 1] of the sorted multidegree s, open at
        # the ends for i = 0 and i = n.  On them exactly i of the factors
        # a_j + d + 1 are negative, so (-1)^i times their product is the
        # product of the |a_j + d + 1|; a zero twist d = -a_j - 1 has a zero
        # factor.
        s, n = self._sorted_a, self.n
        first = lo - i if i == n else max(lo - i, -1 - s[i])
        last = hi - i if i == 0 else min(hi - i, -2 - s[i - 1])
        row = [0] * (hi - lo + 1)
        if first <= last:
            sign = (-1) ** i
            row[first + i - lo:last + i - lo + 1] = [
                sign * prod(map((d + 1).__add__, s)) for d in range(first, last + 1)]
        return row

    def dual(self):
        return KunnethTable(self.n - 1 - aj for aj in self.a)

    def twist(self, s):
        return KunnethTable(aj + s for aj in self.a)

    def _pieces(self):
        return [(1, 1, tuple(-aj - 1 for aj in reversed(self._sorted_a)))]

    def __repr__(self):
        return f"<KunnethTable {','.join(str(x) for x in self.a)}>"


def pushforward_table(a) -> KunnethTable:
    """Cohomology table of the pushforward of the multidegree-``a`` line bundle."""
    return KunnethTable(a)
