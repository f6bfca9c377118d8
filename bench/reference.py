"""Independent reference values used by the benchmark's oracles.

Everything here is written from the mathematics, not from the package: plain
integer arithmetic, no imports from ``river_banks``.  The oracles compare the
package's outputs against these values outside the timed region.
"""

from __future__ import annotations

from math import prod


def weyl_dim(parts) -> int:
    """Dimension of the GL_len(parts) module with highest weight ``parts``.

    ``parts`` is weakly decreasing, largest first; the Weyl dimension formula
    is evaluated as one integer product divided once.
    """
    parts = tuple(parts)
    size = len(parts)
    num = den = 1
    for i in range(size):
        for j in range(i + 1, size):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    return num // den


def bott(n: int, parts: tuple, d: int):
    """(degree, dim) of the single nonzero group of the twisted bundle, or None.

    Bott's theorem on P^n: the dotted weight (parts + staircase, -d) either
    repeats an entry (no cohomology) or sorts with ``degree`` inversions to a
    dominant weight whose GL_{n+1} dimension is the answer.
    """
    beta = [parts[i] + n - i for i in range(n)] + [-d]
    if len(set(beta)) < n + 1:
        return None
    degree = sum(1 for i in range(n + 1) for j in range(i + 1, n + 1)
                 if beta[i] < beta[j])
    srt = sorted(beta, reverse=True)
    return degree, weyl_dim(srt[i] - (n - i) for i in range(n + 1))


def bott_sum_table(n: int, terms, twists) -> dict:
    """{(i, d): entry} of a sum of homogeneous tables, (coeff, parts) pairs, over twists.

    Cells absent from the result are zero.
    """
    table = {}
    for d in twists:
        for coeff, parts in terms:
            hit = bott(n, parts, d)
            if hit is not None:
                table[hit[0], d] = table.get((hit[0], d), 0) + coeff * hit[1]
    return table


def pushforward_entry(a, i: int, d: int) -> int:
    """Entry (i, d) of the pushforward table of multidegree ``a``, in closed form.

    Each line factor O(b) on P^1 has h^0 = b + 1 for b >= 0, h^1 = -b - 1 for
    b <= -2 and nothing at b = -1, so the twist sits in the single row
    #{j : a_j + d <= -2} with value prod |a_j + d + 1|.
    """
    b = [x + d for x in a]
    if -1 in b or i != sum(1 for x in b if x <= -2):
        return 0
    return prod(abs(x + 1) for x in b)


def pushforward_chi(a, d: int) -> int:
    """Euler characteristic of the d-th twist: prod (a_j + d + 1)."""
    return prod(x + d + 1 for x in a)
