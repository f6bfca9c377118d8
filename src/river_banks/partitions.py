"""Generalized partitions, Schur dimensions and tensor-product expansion.

A generalized partition is a weakly decreasing integer vector of fixed
length n; negative entries are legal and encode twists (adding a constant c
to every part of the label corresponds to twisting the associated bundle by
the c-th power of the hyperplane bundle).

Storage order: ``parts[0]`` is the LARGEST part, matching the serialized
form ``"4,1,0"``.  The subscript used by the index formulas throughout this
package counts from the other end: ``lam.part(k)`` is the k-th SMALLEST
entry, so ``part(0) == parts[-1]`` and ``part(n - 1) == parts[0]``.

``straighten`` is the dot-action straightening of a weight: add the
staircase, sort, count inversions, subtract the staircase.  The tensor
product expansion (``lr_expand``) is the Brauer-Klimyk signed sum of the
straightenings of lam + w over the weights w of the other factor.  Bott's
theorem is the straightening of one weight, but ``bott`` reads it in closed
form off the label's roots, so in the package ``straighten`` serves only
``lr_expand``; the test suite keeps it as the oracle for that closed form.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product
from math import factorial, prod

from river_banks.ratpoly import _int


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
        return cls(_int(tok) for tok in text.split(","))

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

    def __eq__(self, other):
        return isinstance(other, GenPartition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"GenPartition({self.parts!r})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


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


def straighten(weight):
    """Dot-action straightening of an integer weight of length k.

    Adds the staircase (k - 1, ..., 1, 0) and returns None when two entries
    collide; otherwise ``(inversions, nu)``, where nu is the strictly
    decreasing sort minus the staircase.
    """
    k = len(weight)
    beta = [w + k - 1 - i for i, w in enumerate(weight)]
    if len(set(beta)) < k:
        return None
    inv = sum(1 for i in range(k) for j in range(i + 1, k) if beta[i] < beta[j])
    srt = sorted(beta, reverse=True)
    return inv, tuple(srt[i] - (k - 1 - i) for i in range(k))


def lr_expand(lam: GenPartition, mu: GenPartition) -> dict:
    """Littlewood-Richardson expansion of the product of two Schur functors.

    Returns ``{nu: multiplicity}`` over the labels nu of length n whose
    functor appears in the tensor product of the lam- and mu-functors of a
    rank-n bundle, by the Brauer-Klimyk formula: each weight w of the factor
    of smaller dimension adds its multiplicity, signed by the parity of the
    inversions, to the straightening of lam + w.  It works on GL_n weights
    directly, so negative parts need no shift, and labels that would need
    more than n rows cancel.

    ``_lr_classical`` caches the expansion; its name predates Brauer-Klimyk
    and stays because the benchmark's traced runs read its statistics.  A
    tensor op expands one pair n + 2 times back to back (product table,
    sharpness check, one witness per index), so 64 entries catch every
    repeat; a larger cache only keeps pairs that do not come back.
    """
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    if schur_dim(lam, lam.n) < schur_dim(mu, mu.n):
        lam, mu = mu, lam
    return {GenPartition(nu): c for nu, c in _lr_classical(lam.parts, mu.parts)}


@lru_cache(maxsize=1 << 6)
def _lr_classical(lam, mu):
    """The nonzero ``(nu, multiplicity)`` pairs of the product, as tuples."""
    memo = {}

    def weights(row):
        """Weight multiplicities of the Gelfand-Tsetlin patterns with top ``row``.

        The next row interlaces it, row[i] >= sub[i] >= row[i + 1], and a
        pattern's weight lists the differences of successive row sums.
        """
        if len(row) == 1:
            return {row: 1}
        if row not in memo:
            out = memo[row] = Counter()
            for sub in product(*(range(b, a + 1) for a, b in zip(row, row[1:]))):
                tail = (sum(row) - sum(sub),)
                for w, m in weights(sub).items():
                    out[w + tail] += m
        return memo[row]

    acc = Counter()
    for w, m in weights(mu).items():
        hit = straighten([a + b for a, b in zip(lam, w)])
        if hit is not None:
            acc[hit[1]] += -m if hit[0] % 2 else m
    return tuple((nu, c) for nu, c in acc.items() if c)
