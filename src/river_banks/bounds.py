"""Checkers for the tensor-product index bounds and their consequences.

For bundles F and G on the same projective space the regularity indices of
the tensor product obey

    reg(p)   of F (x) G  <=  min over k + l = p of  reg(k) F + reg(l) G
    coreg(p) of F (x) G  >=  1 + max over k + l = p of coreg(k) F + coreg(l) G

with equality for sums of homogeneous bundles.  This module evaluates both
families of inequalities on explicit tables, each side by its one rule in
``_SIDES`` (the pick, the shift and the relation the product must bear),
computes the homogeneous tensor product itself via the Littlewood-Richardson
expansion (``BottSumTable`` merges the terms that reach one label), produces
the representation-theoretic witness behind the sharpness statement, and
evaluates the two-sided margin criterion that forces the obstruction space
of a bundle to vanish.  Each report writes its JSON by the one record rule,
``tables._record_json``.

Sharpness for two labels needs no product.  Write g_p for the max over
k + l = p of lam.part(k) + mu.part(l).  By Weyl's inequalities (Fulton,
Bull. AMS 37, 2000) every term nu of the product has nu.part(p) >= g_p, and
by the PRV theorem (Kumar, Invent. Math. 93, 1988) the dominant rearrangement
of lam + w mu is a term for every permutation w.  ``lr_witness`` takes the w
that attains g_p, so the product's reg(p), minus the least part(p) over its
terms, is -g_p: ``check_sharpness`` reports the theorem, off the factors
alone.  The test suite checks both theorems against the whole expansion.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from river_banks.partitions import GenPartition, lr_expand, schur_dim
from river_banks.ratpoly import _written
from river_banks.tables import (
    MAX_TENSOR_DIM,
    BottSumTable,
    CohomologyTable,
    _record_json,
    homogeneous_table,
    regularity_profile,
)


class BoundEntry(NamedTuple):
    p: int
    bound: object
    actual: object
    satisfied: bool
    equality: bool
    window_limited: bool

    to_json = _record_json


class BoundReport(NamedTuple):
    """Per-p bound evaluations for one side (``reg`` or ``coreg``)."""

    side: str
    entries: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries)

    @property
    def all_equal(self) -> bool:
        return all(e.equality for e in self.entries)

    @property
    def certified_violation(self) -> bool:
        return any(not e.satisfied and not e.window_limited for e in self.entries)

    @property
    def window_limited(self) -> bool:
        return any(e.window_limited for e in self.entries)

    to_json = _record_json


def tensor_homogeneous(f: BottSumTable, g: BottSumTable) -> BottSumTable:
    """Tensor product of two sums of homogeneous bundles, as a table.

    Bilinear in the summands; each pairwise product expands through the
    Littlewood-Richardson rule, and ``BottSumTable`` merges the terms of
    every pair that reach one label.  A product whose smaller factors, summed
    over the pairs of labels, have dimension past ``tables.MAX_TENSOR_DIM`` is
    refused before any expansion.
    """
    if not isinstance(f, BottSumTable) or not isinstance(g, BottSumTable):
        raise TypeError("tensor products are computed for homogeneous sums only; compute the "
                        "product table elsewhere and hand it to check-bounds as a file")
    if f.n != g.n:
        raise ValueError(f"ambient dimension mismatch: {f.n} vs {g.n}")
    dims = {lam: schur_dim(lam) for _, lam in (*f.terms, *g.terms)}
    size = sum(min(dims[lam], dims[mu]) for _, lam in f.terms for _, mu in g.terms)
    if size > MAX_TENSOR_DIM:
        raise ValueError("the smaller factors of the tensor product have dimension "
                         f"{_written(size)}, past the limit of {MAX_TENSOR_DIM}")
    return BottSumTable(f.n, [(mf * mg * c, nu) for mf, lam in f.terms for mg, mu in g.terms
                              for nu, c in lr_expand(lam, mu).items()])


#: Each side's rule: bound(p) = shift + pick over k + l = p of f(k) + g(l),
#: and the relation the product's index must bear to it.
_SIDES = {"reg": (min, 0, operator.le), "coreg": (max, 1, operator.ge)}


def check_tensor_bounds(tf: CohomologyTable, tg: CohomologyTable,
                        tfg: CohomologyTable):
    """Evaluate both bound families on (F, G, F x G) tables.

    The product table is an input rather than being recomputed, so printed
    product tables can be checked against generator-backed factors.  Window
    flags on any contributing index mark the affected entries advisory.
    Returns the (reg side, coreg side) pair of reports.
    """
    if not (tf.n == tg.n == tfg.n):
        raise ValueError("all three tables must share the ambient dimension")
    pf, pg, pfg = (regularity_profile(t) for t in (tf, tg, tfg))
    return tuple(_bound_report(side, pf, pg, getattr(pfg, side),
                               getattr(pfg, f"{side}_window_limited")) for side in _SIDES)


def _bound_report(side, pf, pg, fg, fgf):
    """One side's rule (``_SIDES``) on the factors' profiles, against the product's fg(p).

    ``fgf`` holds the window flags of the product's indices ``fg``.
    """
    pick, shift, holds = _SIDES[side]
    f, g = getattr(pf, side), getattr(pg, side)
    ff, gf = (getattr(prof, f"{side}_window_limited") for prof in (pf, pg))
    entries = []
    for p, actual in enumerate(fg):
        bound = shift + pick(f[k] + g[p - k] for k in range(p + 1))
        flags = fgf[p] or any(ff[k] or gf[p - k] for k in range(p + 1))
        entries.append(BoundEntry(p, bound, actual, holds(actual, bound),
                                  actual == bound, flags))
    return BoundReport(side, tuple(entries))


def check_sharpness(lam: GenPartition, mu: GenPartition) -> BoundReport:
    """Equality report for a pair of single homogeneous bundles.

    The reg side of ``check_tensor_bounds`` on the two bundles and their
    product, without the product: the bound comes from the factors'
    profiles, and the product's p-th regularity index is -nu.part(p) of the
    witness nu of ``lr_witness(lam, mu, p)``, a term (PRV) that no term
    undercuts (Weyl's inequalities).  So every p meets the min-formula value
    -max over k + l = p of (lam_k + mu_l), and the report is all equalities.
    """
    witnesses = [lr_witness(lam, mu, p) for p in range(lam.n)]
    pf, pg = (regularity_profile(homogeneous_table(x)) for x in (lam, mu))
    return _bound_report("reg", pf, pg, [-nu.part(p) for p, nu in enumerate(witnesses)],
                         (False,) * lam.n)


def lr_witness(lam: GenPartition, mu: GenPartition, p: int) -> GenPartition:
    """The PRV term nu of the product with nu.part(p) = max over k + l = p of lam_k + mu_l.

    nu is the decreasing sort of lam.part(k) + mu.part(p - k) for k <= p and
    lam.part(k) + mu.part(k) for k > p, a term by the PRV theorem.
    """
    if lam.n != mu.n:
        raise ValueError(f"length mismatch: {lam.n} vs {mu.n}")
    if not 0 <= p < lam.n:
        raise ValueError(f"index {p} out of range 0..{lam.n - 1}")
    # the parts, smallest first: lam.part(k) is up[k]
    up, mu_up = lam.parts[::-1], mu.parts[::-1]
    return GenPartition(sorted([*map(operator.add, up[:p + 1], mu_up[p::-1]),
                                *map(operator.add, up[p + 1:], mu_up[p + 1:])], reverse=True))


class UnobstructedReport(NamedTuple):
    holds: bool
    branch: str
    margins: tuple
    window_limited: bool

    to_json = _record_json


def unobstructed_criterion(t: CohomologyTable) -> UnobstructedReport:
    """Margin test forcing the self-extension obstruction space to vanish.

    Evaluates reg(0) - coreg(1) and reg(1) - coreg(0); the criterion holds
    when either margin is at most 3.
    """
    if t.n < 2:
        raise ValueError("the criterion needs ambient dimension at least 2")
    prof = regularity_profile(t)
    m0 = prof.reg[0] - prof.coreg[1]
    m1 = prof.reg[1] - prof.coreg[0]
    flags = (prof.reg_window_limited[0] or prof.reg_window_limited[1]
             or prof.coreg_window_limited[0] or prof.coreg_window_limited[1])
    first, second = m0 <= 3, m1 <= 3
    branch = {(True, True): "both", (True, False): "reg0-coreg1",
              (False, True): "reg1-coreg0", (False, False): "none"}[(first, second)]
    return UnobstructedReport(first or second, branch, (m0, m1), flags)
