"""Bundled reference tables and the deterministic checks anchored to them.

Five tables ship with the package: the Horrocks-Mumford table on P^4, the
two pushforward tables for multidegrees (4,1,-1) and (3,-1,-2) on P^3, the
table of their tensor product, and a natural-cohomology table on P^4 that no
bundle realizes.  ``verify()`` re-derives everything derivable (the two
pushforward tables, every index, the bound equalities) and checks the rest
against the stored values, entirely offline.
"""

from __future__ import annotations

from importlib import resources
from math import comb

from river_banks.bott import bott_cohomology
from river_banks.bounds import check_tensor_bounds, unobstructed_criterion
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition
from river_banks.tables import (
    LiteralTable,
    _cells,
    ascii_normalize,
    beilinson_terms,
    homogeneous_table,
    is_natural,
    parse_ascii,
    regularity_profile,
    render_ascii,
    structure_sheaf_table,
)

_FILES = {
    "hm": "horrocks_mumford.txt",
    "f": "push_4_1_m1.txt",
    "g": "push_3_m1_m2.txt",
    "fg": "tensor_f_g.txt",
    "phantom": "phantom_p4.txt",
}

F_DEGREES = (4, 1, -1)
G_DEGREES = (3, -1, -2)


def names():
    return tuple(_FILES)


def source(name: str) -> str:
    if name not in _FILES:
        raise KeyError(f"unknown golden table {name!r}; know {sorted(_FILES)}")
    return resources.files(__package__).joinpath(_FILES[name]).read_text()


def load(name: str) -> LiteralTable:
    return parse_ascii(source(name))


def verify():
    """Run every golden check; returns a list of (name, ok, detail) triples."""
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    hm = load("hm")
    f_lit = load("f")
    g_lit = load("g")
    fg = load("fg")
    phantom = load("phantom")

    f_gen = KunnethTable(F_DEGREES)
    g_gen = KunnethTable(G_DEGREES)
    check("pushforward-4,1,-1", _cells(f_gen, -4, 3) == _cells(f_lit, -4, 3),
          "generator matches the stored window")
    check("pushforward-3,-1,-2", _cells(g_gen, -4, 3) == _cells(g_lit, -4, 3),
          "generator matches the stored window")
    check("render-4,1,-1",
          ascii_normalize(render_ascii(f_gen, -4, 3)) == ascii_normalize(source("f")))
    check("render-3,-1,-2",
          ascii_normalize(render_ascii(g_gen, -4, 3)) == ascii_normalize(source("g")))

    for name in _FILES:
        t = load(name)
        lo, hi = t.window
        again = parse_ascii(render_ascii(t, lo, hi))
        check(f"roundtrip-{name}",
              _cells(t, lo, hi) == _cells(again, lo, hi)
              and ascii_normalize(render_ascii(t, lo, hi))
              == ascii_normalize(source(name)))

    check("hm-corner-entries",
          hm.entry(4, -9) == 100 and hm.entry(2, -2) == 2 and hm.entry(0, 5) == 100)
    prof = regularity_profile(hm)
    check("hm-indices", prof.reg[1] == 1 and prof.coreg[0] == -5,
          f"reg(1)={prof.reg[1]} coreg(0)={prof.coreg[0]}")
    check("hm-not-natural", not is_natural(hm))
    rep = unobstructed_criterion(hm)
    check("hm-obstruction-margins", rep.margins == (6, 6) and not rep.holds,
          f"margins={rep.margins}")
    check("hm-first-term", beilinson_terms(hm, 0) == [(2, 2)])

    reg_rep, coreg_rep = check_tensor_bounds(f_gen, g_gen, fg)
    check("tensor-bounds-hold", reg_rep.all_satisfied and coreg_rep.all_satisfied)
    check("tensor-bounds-equal", reg_rep.all_equal and coreg_rep.all_equal)
    pf = regularity_profile(f_gen)
    pg = regularity_profile(g_gen)
    check("factor-indices",
          pf.reg == (1, 0, -2) and pf.coreg[:2] == (-3, -1)
          and pg.reg == (2, 2, -1) and pg.coreg[:2] == (-2, 1))
    pfg = regularity_profile(fg)
    check("product-indices",
          pfg.reg == (3, 2, 0) and pfg.coreg == (-4, -1, 1),
          f"reg={pfg.reg} coreg={pfg.coreg}")

    check("phantom-natural", is_natural(phantom))
    gprof = regularity_profile(phantom)
    check("phantom-indices", gprof.reg[1] == 2 and gprof.coreg[0] == -1)
    grep = unobstructed_criterion(phantom)
    check("phantom-margin-three", grep.holds and grep.margins[1] == 3,
          f"margins={grep.margins}")
    check("phantom-term-at-1", beilinson_terms(phantom, 1) == [(2, 1)])

    ok = True
    for n in range(1, 6):
        o_n = structure_sheaf_table(n)
        for d in range(0, 4):
            hit = bott_cohomology(n, GenPartition((0,) * n), d)
            ok = ok and hit == (0, comb(n + d, n))
        top = bott_cohomology(n, GenPartition((0,) * n), -n - 1)
        ok = ok and top == (n, 1)
        ok = ok and o_n.reg(0) == 0 and o_n.coreg(0) == -1
    check("line-bundle-dimensions", ok)
    check("cotangent-middle", bott_cohomology(2, GenPartition((1, 0)), -2) == (1, 1))
    lam = GenPartition((7, 5, 2, 2, 0, 0))
    check("regularity-formula",
          tuple(homogeneous_table(lam).reg(k) for k in range(6))
          == (0, 0, -2, -2, -5, -7)
          and homogeneous_table(GenPartition((1, 0))).reg(1) == -1)

    check("duality-identity",
          pf.coreg == tuple(-r - 1 for r in regularity_profile(f_gen.dual()).reg))

    return checks
