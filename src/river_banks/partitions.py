"""Generalized partitions, Schur dimensions and tensor-product expansion.

A generalized partition is a weakly decreasing integer vector of fixed
length n; negative entries are legal and encode twists (adding a constant c
to every part of the label corresponds to twisting the associated bundle by
the c-th power of the hyperplane bundle).

Storage order: ``parts[0]`` is the LARGEST part, matching the serialized
form ``"4,1,0"``.  The subscript used by the index formulas throughout this
package counts from the other end: ``lam.part(k)`` is the k-th SMALLEST
entry, so ``part(0) == parts[-1]`` and ``part(n - 1) == parts[0]``.

The tensor product expansion (``lr_expand``) is the Brauer-Klimyk signed
sum of the dot-action straightenings of lam + w over the weights w of the
other factor: add the staircase rho, sort, take the sign of the sort,
subtract rho.  A weight with lam + w + rho already strictly decreasing is
its own straightening with sign +, and one with two equal entries
cancels.  Bott's theorem is the straightening of one weight too, but
``bott`` reads it in closed form off the label's roots; the test suite
keeps the straightening itself as the oracle for that closed form.

``_roots`` keeps each label's roots, Weyl dimension and n!, once per label:
``schur_dim``, ``bott``'s closed form and a homogeneous table's natural
piece all read that one product.  A label whose product may pass
``MAX_WEYL_BITS`` bits is refused there, before anything is multiplied.

The weights come off Gelfand-Tsetlin patterns, one row at a time.  Their
multiplicities are symmetric, so only the weakly decreasing (dominant)
weights are counted, and the expansion walks each over its distinct
permutations.  The dominant weights of every row below the top are kept
in ``_WEIGHTS`` across expansions, since the pairs a session expands share
their lower rows; a two-part row reads its own in closed form, so no
one-part row is kept.  The memo is bounded by the number of weights it
holds: an expansion that ends with more than ``_MEMO_WEIGHTS`` of them
clears it, so one large label costs its own memory during its own
expansion only.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations, product, starmap
from math import factorial, prod
from operator import add, ge, gt, lt, mul, sub

from river_banks.ratpoly import _decimal, _int, _ints

# the kept dominant Gelfand-Tsetlin weights of ``_lr_classical``, and their bound
# (module docstring).  3000 in-process ops of the tensor benchmark's seed-3101
# stream keep at most 3366 weights in 574 rows, and S[99999,0] squared keeps
# none, so only a large label of three or more parts reaches the bound; 2^11,
# which the stream does reach, saved 0.2 MiB of peak RSS and lost tensor ops/s
# in three of three 8 s runs
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
        if not all(map(ge, parts, parts[1:])):
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
    factors pass ``MAX_WEYL_BITS`` is refused before any is multiplied.  The
    factors of pairs d apart have at least bit_length(d) bits each, n - d of
    them, so a label of 388 parts or more is refused off its length alone.
    """
    n = len(parts)
    neg = tuple(map(sub, range(-n, 0), parts))
    # the pairs (b, a) of roots with a before b, so that sub gives b - a at C level
    rev = neg[::-1]
    # each difference is at most the span: a small label pays one subtraction
    if (neg[-1] - neg[0]).bit_length() * (n * (n - 1) // 2) > MAX_WEYL_BITS:
        # and at least j - i: a long label is refused off its length alone
        least = sum(map(mul, range(n - 1, 0, -1), map(int.bit_length, range(1, n))))
        if least > MAX_WEYL_BITS:
            raise ValueError(f"the Weyl product of a label of {n} parts has factors of at "
                             f"least {least} bits, past the limit of {MAX_WEYL_BITS} bits")
        bits = sum(map(int.bit_length, starmap(sub, combinations(rev, 2))))
        if bits > MAX_WEYL_BITS:
            raise ValueError(f"the Weyl product of a label of {n} parts may have up to {bits} "
                             f"bits, past the limit of {MAX_WEYL_BITS} bits")
    val, rem = divmod(prod(starmap(sub, combinations(rev, 2))), _superfactorial(n))
    assert rem == 0 and val > 0
    return neg, val, factorial(n)


@cache
def _superfactorial(size):
    """0! 1! ... (size - 1)!, the product of the (j - i) over 0 <= i < j < size."""
    return prod(map(factorial, range(size)))


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
    return {_label(nu): c for nu, c in _lr_classical(lam.parts, mu.parts)}


@lru_cache(maxsize=1 << 6)
def _lr_classical(lam, mu):
    """The nonzero ``(nu, multiplicity)`` pairs of the product, as tuples.

    Each dominant weight of mu (``_dominant_weights``) is walked over its
    orbit (``_orbit``), and each weight w of it adds the multiplicity,
    signed, to the straightening of beta = lam + rho + w, kept as a strictly
    decreasing tuple; here rho = (0, -1, ..., 1 - n), a staircase up to a
    constant, which sorts and collides alike.  A strictly decreasing beta is
    its own straightening, with sign +.  Any other beta with two equal
    entries cancels; one with distinct entries is sorted, and its sign is
    the parity of its pairs out of order.  rho comes off each term once, at
    the end, when the kept memo ``_WEIGHTS`` is also cleared if it holds
    more than ``_MEMO_WEIGHTS`` weights; mu's own row is never kept.  A
    strictly decreasing tuple of ints minus rho is weakly decreasing, so
    each nu is a label by construction, and ``lr_expand`` wraps it without
    checking it again (``_label``).  The cache keeps the tuples, not the
    wrapped labels: 64 expansions' worth of ``GenPartition`` objects cost
    the tensor benchmark 0.2 MiB of peak RSS.

    A tensor op expands its pair once: the sharpness report and the
    witnesses are read off the PRV term instead.  The 64-entry
    ``lru_cache`` stays only because the benchmark's tracer reads its
    ``cache_info()``.
    """
    n = len(lam)
    shifted = tuple(map(add, lam, range(0, -n, -1)))
    acc = {}
    for dominant, m in _dominant_weights(mu).items():
        for w in _orbit(dominant):
            beta = tuple(map(add, shifted, w))
            if all(map(gt, beta, beta[1:])):
                acc[beta] = acc.get(beta, 0) + m
            elif len(set(beta)) == n:
                key = tuple(sorted(beta, reverse=True))
                signed = -m if sum(starmap(lt, combinations(beta, 2))) & 1 else m
                acc[key] = acc.get(key, 0) + signed
    if sum(map(len, _WEIGHTS.values())) > _MEMO_WEIGHTS:
        _WEIGHTS.clear()
    return tuple((tuple(map(add, beta, range(n))), c) for beta, c in acc.items() if c)


def _label(parts):
    """The ``GenPartition`` of ``parts``, a weakly decreasing tuple of ints, unchecked."""
    lam = object.__new__(GenPartition)
    lam.parts = parts
    return lam


def _dominant_weights(row):
    """Multiplicities of the weakly decreasing weights of the patterns with top ``row``.

    The next row interlaces it, row[i] >= lower[i] >= row[i + 1], and a
    pattern's weight is the weight of the pattern below, with top ``lower``,
    followed by sum(row) - sum(lower).  So the decreasing weights of ``row``
    are the decreasing weights of its sub-rows that end at or above that
    last entry.  The sub-rows' are looked up in, or added to, ``_WEIGHTS``.
    A one-part sub-row (x,) is its own only weight, so a two-part row reads
    its weights (x, sum(row) - x), x at or above the half sum, off no memo.
    """
    if len(row) == 1:
        return {row: 1}
    out, total = {}, sum(row)
    if len(row) == 2:
        return dict.fromkeys(((x, total - x) for x in range(-(-total // 2), row[0] + 1)), 1)
    for lower in product(*(range(b, a + 1) for a, b in zip(row, row[1:]))):
        tail = total - sum(lower)
        below = _WEIGHTS.get(lower)
        if below is None:
            below = _WEIGHTS[lower] = _dominant_weights(lower)
        for w, m in below.items():
            if w[-1] >= tail:
                key = w + (tail,)
                out[key] = out.get(key, 0) + m
    return out


def _orbit(w):
    """The distinct permutations of the weakly decreasing tuple ``w``, from ``w`` down.

    Each step takes the lexicographic predecessor: past the last i with
    a[i] > a[i + 1], the entries increase, so a[i] swaps with the last of
    them below it and the tail is reversed.  The increasing arrangement has
    no such i and ends the orbit.
    """
    a, k = list(w), len(w)
    while True:
        yield tuple(a)
        i = k - 2
        while i >= 0 and a[i] <= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = k - 1
        while a[j] >= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
