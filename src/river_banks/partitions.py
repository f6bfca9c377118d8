"""Generalized partitions and Littlewood-Richardson expansion.

A generalized partition is a weakly decreasing integer vector of fixed
length n; negative entries are legal and encode twists (adding a constant c
to every part of the label corresponds to twisting the associated bundle by
the c-th power of the hyperplane bundle).

Storage order: ``parts[0]`` is the LARGEST part, matching the serialized
form ``"4,1,0"``.  The subscript used by the index formulas throughout this
package counts from the other end: ``lam.part(k)`` is the k-th SMALLEST
entry, so ``part(0) == parts[-1]`` and ``part(n - 1) == parts[0]``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod


class GenPartition:
    """Weakly decreasing integer vector, largest part first."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise ValueError("a generalized partition needs at least one part")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts are not weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def parse(cls, text: str) -> "GenPartition":
        """Inverse of str(): comma-separated integers, largest first."""
        return cls(int(tok) for tok in text.split(","))

    @property
    def n(self) -> int:
        return len(self.parts)

    def part(self, k: int) -> int:
        """The k-th smallest entry (k = 0 is the last stored part)."""
        if not 0 <= k < len(self.parts):
            raise IndexError(f"part index {k} out of range for length {len(self.parts)}")
        return self.parts[len(self.parts) - 1 - k]

    def shift(self, c: int) -> "GenPartition":
        return GenPartition(p + c for p in self.parts)

    def leq(self, other: "GenPartition") -> bool:
        return leq(self, other)

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"GenPartition({self.parts!r})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


#: Multiset of Schur-functor labels with multiplicities.
LRExpansion = dict


def leq(lam: GenPartition, mu: GenPartition) -> bool:
    """Componentwise order (inclusion of Young diagrams for classical parts)."""
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    return all(a <= b for a, b in zip(lam.parts, mu.parts))


def schur_dim(nu, size: int) -> int:
    """Dimension of the Schur module labelled ``nu`` over a ``size``-dimensional space.

    ``nu`` is a weakly decreasing integer vector of length ``size`` whose
    first entry is the largest; the value is the product over i < j of
    (nu_i - nu_j + j - i) / (j - i), always a positive integer.  It is computed
    in integers: the numerators' product divided exactly by the product of the
    (j - i), which is the superfactorial 0! 1! ... (size - 1)!.
    """
    nu = tuple(nu.parts) if isinstance(nu, GenPartition) else tuple(int(p) for p in nu)
    if len(nu) != size:
        raise ValueError(f"label has length {len(nu)}, expected {size}")
    if any(a < b for a, b in zip(nu, nu[1:])):
        raise ValueError(f"label is not weakly decreasing: {nu}")
    num = prod(nu[i] - nu[j] + j - i for i in range(size) for j in range(i + 1, size))
    val, rem = divmod(num, prod(map(factorial, range(size))))
    assert rem == 0 and val > 0
    return val


def lr_expand(lam: GenPartition, mu: GenPartition) -> LRExpansion:
    """Littlewood-Richardson expansion of the product of two Schur functors.

    Returns ``{nu: multiplicity}`` over all labels nu of length <= n (padded
    with the minimal shift to length exactly n) such that the nu-functor
    appears in the tensor product of the lam- and mu-functors of a rank-n
    bundle; labels needing more than n rows are dropped, since the rank-n
    functor vanishes there.

    Multiplicities are counted by enumerating chains of horizontal strips
    (one strip per part of mu) subject to the row-wise ballot condition;
    negative parts are handled by shifting both operands to classical
    partitions and shifting the result back.
    """
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    n = lam.n
    c1 = -min(lam.part(0), 0)
    c2 = -min(mu.part(0), 0)
    raw = _lr_classical(
        tuple(p + c1 for p in lam.parts), tuple(p + c2 for p in mu.parts), n
    )
    back = c1 + c2
    out = {}
    for shape, mult in raw.items():
        padded = shape + (0,) * (n - len(shape))
        out[GenPartition(q - back for q in padded)] = mult
    return out


@lru_cache(maxsize=None)
def _lr_classical(lam, mu, maxrows):
    """Counter of shapes nu (trimmed tuples) with the tableau count as value.

    ``lam`` and ``mu`` are weakly decreasing tuples of nonnegative integers;
    shapes that would need more than ``maxrows`` rows are pruned as soon as
    they appear, which is sound because adding strips never removes rows.
    """
    strips = [p for p in mu if p > 0]
    counts = Counter()

    def grow(shape, prev_rows, vi):
        if vi == len(strips):
            counts[shape] += 1
            return
        for rows in _strip_placements(shape, strips[vi], prev_rows, maxrows):
            new_shape = tuple(
                (shape[r] if r < len(shape) else 0) + rows[r] for r in range(len(rows))
            )
            while new_shape and new_shape[-1] == 0:
                new_shape = new_shape[:-1]
            grow(new_shape, rows, vi + 1)

    grow(tuple(p for p in lam if p > 0), None, 0)
    return dict(counts)


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
