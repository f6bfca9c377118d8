"""Tables of direct images of split line bundles from a product of lines.

The finite projection from the m-fold product of the projective line onto
m-dimensional projective space pushes the line bundle of multidegree
(a_1, ..., a_m) forward to a rank-m! bundle whose twist by d has the
cohomology of the multidegree (a_1 + d, ..., a_m + d) upstairs; that
cohomology factors over the line factors, so every entry is a short product
formula, nonzero in at most one row per twist (``product_line_cohomology``
states it for one multidegree).

Pushforwards are closed under twists and duals.  Twisting by s adds s to
every a_j.  The dual of the pushforward of O(a) is the pushforward of O(-a)
tensored with the relative dualizing bundle, which is O(-2, ..., -2) times
the pullback of O(n + 1), that is O(n - 1, ..., n - 1); so the dual is the
pushforward of the multidegree (n - 1 - a_1, ..., n - 1 - a_n).

A pushforward is one natural piece, of constant 1, kept when the table is
built: its twist polynomial prod(d + a_j + 1) has the roots -a_j - 1, so
it is supernatural exactly when the a_j are distinct.  Its rows, each one
interval of twists between two consecutive roots, its regularity profile,
naturality and twist polynomial come off that piece as for every generator
table (``tables.CohomologyTable._row`` and ``tables._roots_profile``).
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
        self._pieces = ((1, 1, tuple(sorted(-aj - 1 for aj in a))),)

    def dual(self):
        return KunnethTable(self.n - 1 - aj for aj in self.a)

    def twist(self, s):
        return KunnethTable(aj + s for aj in self.a)

    def __repr__(self):
        return f"<KunnethTable {','.join(str(x) for x in self.a)}>"


def pushforward_table(a) -> KunnethTable:
    """Cohomology table of the pushforward of the multidegree-``a`` line bundle."""
    return KunnethTable(a)
