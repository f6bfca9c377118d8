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
straightenings of lam + w over the weights w of the other factor.  A weight
with lam + w already weakly decreasing is its own straightening with sign +,
so only the other weights go through ``straighten``.  Bott's theorem is the
straightening of one weight too, but ``bott`` reads it in closed form off
the label's roots, so in the package ``straighten`` serves only those
non-dominant weights; the test suite keeps it as the oracle for that closed
form.

``_roots`` keeps each label's roots, Weyl dimension and n!, once per label:
``schur_dim``, ``bott``'s closed form and a homogeneous table's natural
piece all read that one product.  A label whose product may pass
``MAX_WEYL_BITS`` bits is refused there, before anything is multiplied.

The weights come off Gelfand-Tsetlin patterns, one row at a time.  The
weights of every row below the top are kept in ``_WEIGHTS`` across
expansions, since the pairs a session expands share their lower rows.  The
memo is bounded by the number of weights it holds: an expansion that ends
with more than ``_MEMO_WEIGHTS`` of them clears it, so one large label
costs its own memory during its own expansion only.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from math import factorial, prod
from operator import add, ge

from river_banks.ratpoly import _decimal, _int, _ints

# the kept Gelfand-Tsetlin weights of ``_lr_classical``, and their bound
# (module docstring), from a ladder of 2^12..2^15 on the tensor benchmark
_MEMO_WEIGHTS = 1 << 13
_WEIGHTS = {}

#: Most bits of a label's Weyl product, counted as the bit lengths of its
#: factors summed (``_roots``): at n = 100 the product took 0.04 s at 0.19 M
#: bits, 0.18 s at 0.52 M, 0.71 s at 1.0 M and 5.1 s at 3.3 M.
MAX_WEYL_BITS = 1 << 19


class GenPartition:
    """Weakly decreasing vector of ints (``ratpoly._ints``), largest part first."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = _ints(parts)
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
        return ",".join(map(_decimal, self.parts))


def leq(lam: GenPartition, mu: GenPartition) -> bool:
    """Componentwise order (inclusion of Young diagrams for classical parts)."""
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    return all(a <= b for a, b in zip(lam.parts, mu.parts))


def schur_dim(lam: GenPartition) -> int:
    """Dimension of the Schur module labelled ``lam`` over an n-dimensional space, n = lam.n.

    The product over i < j of (lam_i - lam_j + j - i) / (j - i), always a
    positive integer, read off the label's roots (``_roots``).
    """
    return _roots(lam.parts)[1]


@lru_cache(maxsize=1 << 10)
def _roots(parts):
    """(increasing roots, Schur dimension, n!) of a label with n checked parts.

    The roots are i - n - parts[i].  The Schur dimension is the Weyl product
    over them, since neg[j] - neg[i] is parts[i] - parts[j] + j - i, divided
    exactly by the product of the (j - i), the superfactorial.  The product
    has at most as many bits as its factors together, and a label whose
    factors pass ``MAX_WEYL_BITS`` is refused before any is multiplied.
    """
    n = len(parts)
    neg = tuple(i - n - p for i, p in enumerate(parts))
    # each difference is at most the span: a small label pays one subtraction
    if (neg[-1] - neg[0]).bit_length() * (n * (n - 1) // 2) > MAX_WEYL_BITS:
        bits = sum((b - a).bit_length() for i, a in enumerate(neg) for b in neg[i + 1:])
        if bits > MAX_WEYL_BITS:
            raise ValueError(f"the Weyl product of a label of {n} parts may have up to {bits} "
                             f"bits, past the limit of {MAX_WEYL_BITS} bits")
    val, rem = divmod(prod(b - a for i, a in enumerate(neg) for b in neg[i + 1:]),
                      _superfactorial(n))
    assert rem == 0 and val > 0
    return neg, val, factorial(n)


@cache
def _superfactorial(size):
    """0! 1! ... (size - 1)!, the product of the (j - i) over 0 <= i < j < size."""
    return prod(map(factorial, range(size)))


def straighten(weight):
    """Dot-action straightening of an integer weight of length k.

    Adds the staircase (k - 1, ..., 1, 0) and returns None when two entries
    collide; otherwise ``(inversions, nu)``, where nu is the strictly
    decreasing sort minus the staircase.  The code subtracts (0, 1, ...,
    k - 1) instead, which differs from the staircase by a constant and so
    sorts and collides alike.
    """
    beta = [w - i for i, w in enumerate(weight)]
    if len(set(beta)) < len(beta):
        return None
    srt = sorted(beta, reverse=True)
    # each entry, largest first, is inverted with the smaller ones still before it
    inv, rest = 0, beta[:]
    for b in srt:
        i = rest.index(b)
        inv += i
        del rest[i]
    return inv, tuple(b + i for i, b in enumerate(srt))


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
    and stays because the benchmark's traced runs read its statistics.
    """
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    if schur_dim(lam) < schur_dim(mu):
        lam, mu = mu, lam
    return {GenPartition(nu): c for nu, c in _lr_classical(lam.parts, mu.parts)}


@lru_cache(maxsize=1 << 6)
def _lr_classical(lam, mu):
    """The nonzero ``(nu, multiplicity)`` pairs of the product, as tuples.

    The weights w of mu come off its Gelfand-Tsetlin patterns.  When
    lam + w is weakly decreasing, that is when lam + w + rho is already
    strictly decreasing, the term is lam + w with sign +: no sort and no
    inversion count.  Every other weight goes through ``straighten``.  The
    rows below mu are read from and added to the kept memo ``_WEIGHTS``,
    which is cleared at the end if it then holds more than
    ``_MEMO_WEIGHTS`` weights; mu's own row is used once and never kept.

    A tensor op expands its pair once: the sharpness report and the
    witnesses are read off the PRV term instead.  The 64-entry
    ``lru_cache`` stays only because the benchmark's tracer reads its
    ``cache_info()``.
    """
    acc = {}
    for w, m in _pattern_weights(mu).items():
        nu = tuple(map(add, lam, w))
        if all(map(ge, nu, nu[1:])):
            acc[nu] = acc.get(nu, 0) + m
        else:
            hit = straighten(nu)
            if hit is not None:
                acc[hit[1]] = acc.get(hit[1], 0) + (-m if hit[0] % 2 else m)
    if sum(map(len, _WEIGHTS.values())) > _MEMO_WEIGHTS:
        _WEIGHTS.clear()
    return tuple((nu, c) for nu, c in acc.items() if c)


def _pattern_weights(row):
    """Weight multiplicities of the Gelfand-Tsetlin patterns with top ``row``.

    The next row interlaces it, row[i] >= sub[i] >= row[i + 1], and a
    pattern's weight lists the differences of successive row sums.  The
    rows below ``row`` are looked up in, or added to, ``_WEIGHTS``.
    """
    if len(row) == 1:
        return {row: 1}
    out, total = {}, sum(row)
    for sub in product(*(range(b, a + 1) for a, b in zip(row, row[1:]))):
        tail = (total - sum(sub),)
        below = _WEIGHTS.get(sub)
        if below is None:
            below = _WEIGHTS[sub] = _pattern_weights(sub)
        for w, m in below.items():
            key = w + tail
            out[key] = out.get(key, 0) + m
    return out
