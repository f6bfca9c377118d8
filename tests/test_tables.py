import json
import random
import re
import reprlib
import sys
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from river_banks import golden
from river_banks.boij_soderberg import Decomposition, NotZeroRegularError, decompose
from river_banks.bott import bott_cohomology, chi_polynomial
from river_banks.expr import table_from_expr
from river_banks.exterior import TwoForm
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition
from river_banks.tables import (
    NEG_INFINITY,
    POS_INFINITY,
    BottSumTable,
    CohomologyTable,
    LiteralTable,
    RegularityProfile,
    SumTable,
    MAX_CELLS,
    UndecidableError,
    WindowExceededError,
    _cells,
    _exact,
    _grid_profile,
    ascii_normalize,
    beilinson_terms,
    homogeneous_table,
    is_natural,
    is_supernatural,
    literal_from_json,
    parse_ascii,
    regularity_profile,
    render_ascii,
    structure_sheaf_table,
    table_to_json,
)

from corpus import (
    _from_roots,
    bundle_exprs,
    certified_range,
    coreg_condition_holds,
    grid_profile_by_columns,
    hilbert_by_pieces,
    hook_content_dim,
    json_by_cells,
    outcome,
    random_bott_sum,
    random_generator_table,
    random_kunneth,
    reg_condition_holds,
    render_ascii_by_cells,
    row_by_cells,
    row_by_oracles,
    scan_coreg,
    scan_euler,
    scan_natural,
    scan_reg,
    scan_twists,
    scan_vanishing_twists,
    table_rows,
    visible_entries,
)


def gp(*parts):
    return GenPartition(parts)


@st.composite
def literal_windows(draw, n=None):
    n = n or draw(st.integers(1, 4))
    lo = draw(st.integers(-6, 6))
    width = draw(st.integers(1, 8))
    row = st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=width, max_size=width)
    return LiteralTable(n, lo, lo + width - 1, draw(st.lists(row, min_size=n + 1,
                                                             max_size=n + 1)))


@st.composite
def profile_grids(draw):
    """A grid of 1..8 rows and 1..60 display columns from a random lo, with its lo and hi.

    Cells are mostly zero, some negative and some past 2**63; a row may be
    all zero, and the nonzero cells may be kept to column lo alone, to
    column hi alone, or dropped, for an all-zero grid.
    """
    rows, width = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    lo = draw(st.one_of(st.integers(-70, 70), st.integers(-2**80, 2**80)))
    cell = st.sampled_from((0, 0, 0, 0, 1, -1, 7, 2**64 + 1, -2**70))
    row = st.one_of(st.just([0] * width), st.lists(cell, min_size=width, max_size=width))
    grid = draw(st.lists(row, min_size=rows, max_size=rows))
    # the nonzero cells of column lo alone, of column hi alone, or of none (-1)
    only = draw(st.sampled_from((None, 0, width - 1, -1)))
    if only is not None:
        grid = [[v if c == only else 0 for c, v in enumerate(r)] for r in grid]
    return grid, lo, lo + width - 1


@st.composite
def generator_tables(draw, n=None, depth=2):
    """A Bott sum, a pushforward or a direct sum of them, maybe twisted and dualized.

    Labels with parts in -3..3 often have equal parts, a multidegree gets
    forced repeated entries, and a Bott sum may be empty, so root sequences
    with repeated and adjacent roots are common.
    """
    n = n or draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("bott", "push", "sum")[:3 if depth else 2]))
    if kind == "bott":
        label = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
            lambda p: GenPartition(sorted(p, reverse=True)))
        t = BottSumTable(n, draw(st.lists(st.tuples(st.integers(1, 3), label), max_size=4)))
    elif kind == "push":
        a = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                      max_size=2)):
            a[dst] = a[src]
        t = KunnethTable(a)
    else:
        t = SumTable(draw(st.lists(st.tuples(st.integers(1, 3), generator_tables(n, depth - 1)),
                                   min_size=1, max_size=3)))
    if draw(st.booleans()):
        t = t.twist(draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        t = t.dual()
    return t


@st.composite
def mixed_tables(draw, n=None):
    """A literal window, maybe twisted and dualized, or a generator table."""
    n = n or draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(generator_tables(n))
    t = draw(literal_windows(n))
    if draw(st.booleans()):
        t = t.twist(draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        t = t.dual()
    return t


@st.composite
def bott_sums_and_windows(draw):
    """A BottSumTable with integer multiplicities and a display window lo..hi."""
    n = draw(st.integers(1, 4))
    label = st.lists(st.integers(-3, 5), min_size=n, max_size=n).map(
        lambda p: GenPartition(sorted(p, reverse=True)))
    terms = draw(st.lists(st.tuples(st.integers(1, 4), label), min_size=1, max_size=3))
    lo = draw(st.integers(-10, 6))
    return BottSumTable(n, terms), lo, lo + draw(st.integers(0, 11))


def assert_same_window(got, t, lo, hi):
    assert (got.n, got.window) == (t.n, (lo, hi))
    for i in range(t.n + 1):
        for c in range(lo, hi + 1):
            assert got.entry(i, c - i) == t.entry(i, c - i)


def cell_or_window(t, i, d):
    """entry(i, d), or WindowExceededError itself for a cell outside a window."""
    try:
        return t.entry(i, d)
    except WindowExceededError:
        return WindowExceededError


def check_dual_twist_formulas(t, s, twists):
    """dual() and twist(s) obey their defining formulas and keep the backend."""
    n = t.n
    dual, twisted = t.dual(), t.twist(s)
    assert type(dual) is type(twisted) is type(t)
    for i in range(n + 1):
        for d in twists:
            assert cell_or_window(dual, i, d) == cell_or_window(t, n - i, -d - n - 1)
            assert cell_or_window(twisted, i, d) == cell_or_window(t, i, d + s)


def brute_profile(t):
    """The module docstring's definitions, read cell by cell off the stored rows.

    reg(k) is the least m in lo..hi+1 whose columns m..hi are clean in rows
    j > k; coreg(k) the greatest m in lo-1..hi whose columns lo..m are clean
    in rows j < n - k.  Either is window-limited when it sits at an end of
    its candidate range, where the window cannot tell what lies beyond.
    """
    lo, hi = t.window

    def clean(rows, cols):
        return not any(t.rows_by_i[j][c - lo] for j in rows for c in cols)

    reg, coreg = [], []
    for k in range(t.n):
        above, below = range(k + 1, t.n + 1), range(t.n - k)
        reg.append(min(m for m in range(lo, hi + 2) if clean(above, range(m, hi + 1))))
        coreg.append(max(m for m in range(lo - 1, hi + 1) if clean(below, range(lo, m + 1))))
    return RegularityProfile(tuple(reg), tuple(coreg),
                             tuple(m in (lo, hi + 1) for m in reg),
                             tuple(m in (lo - 1, hi) for m in coreg))


@st.composite
def polynomial_tables(draw):
    """A generator table on P^1..P^5, maybe a direct sum, twisted and dualized.

    Bott sums and direct sums carry rational multiplicities, and a
    pushforward's degrees reach +-10^9.
    """
    n = draw(st.integers(1, 5))
    mult = st.sampled_from((1, 2, 7, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)))
    label = st.lists(st.integers(-3, 5), min_size=n, max_size=n).map(
        lambda p: GenPartition(sorted(p, reverse=True)))
    degree = st.one_of(st.integers(-5, 5),
                       st.sampled_from((-10**9, -10**9 + 1, 10**9 - 1, 10**9)))
    base = st.one_of(
        st.lists(st.tuples(mult, label), max_size=4).map(lambda ts: BottSumTable(n, ts)),
        st.lists(degree, min_size=n, max_size=n).map(KunnethTable),
        generator_tables(n, depth=1))
    t = draw(st.one_of(base, st.lists(st.tuples(mult, base), min_size=1, max_size=3)
                       .map(SumTable)))
    if draw(st.booleans()):
        t = t.twist(draw(st.sampled_from((-10**9, -3, 1, 4, 10**9))))
    if draw(st.booleans()):
        t = t.dual()
    return t


@st.composite
def mixed_sums(draw, n=None):
    """A direct sum of 10*push(...) and S[...] summands in some order.

    Each summand may be twisted, the sum may be dualized, and the label at
    times has the rational multiplicity 1/2.
    """
    n = n or draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    label = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    terms = [(10, KunnethTable(a)),
             (draw(st.sampled_from((1, 2, 3, Fraction(1, 2)))),
              homogeneous_table(GenPartition(sorted(label)[::-1])))]
    terms = draw(st.permutations(terms))[:draw(st.integers(1, 2))]
    t = SumTable((m, u.twist(draw(st.integers(-2, 2))) if draw(st.booleans()) else u)
                 for m, u in terms)
    return t.dual() if draw(st.booleans()) else t


@st.composite
def printed_windows(draw):
    """A Bott, pushforward, literal or mixed table and a window it defines.

    Labels up to 9 and multidegrees up to +-8 give multi-digit cells, windows
    reach down to column -14 so that a negative column number is often wider
    than the cells under it, and a literal window is mostly zeros, so whole
    columns are empty.
    """
    kind = draw(st.sampled_from(("bott", "push", "literal", "sum")))
    if kind == "bott":
        n = draw(st.integers(1, 4))
        label = st.lists(st.integers(-3, 9), min_size=n, max_size=n).map(
            lambda p: GenPartition(sorted(p, reverse=True)))
        t = BottSumTable(n, draw(st.lists(st.tuples(st.integers(1, 9), label), max_size=3)))
    elif kind == "push":
        t = KunnethTable(draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5)))
    elif kind == "literal":
        t = draw(literal_windows())
    else:
        t = draw(mixed_sums().filter(lambda u: all(type(m) is int for m, _ in u.terms)))
    if t.window is None:
        lo = draw(st.integers(-14, 6))
        return t, lo, lo + draw(st.integers(0, 14))
    lo, hi = t.window
    assume(lo <= hi)
    lo = draw(st.integers(lo, hi))
    return t, lo, draw(st.integers(lo, hi))


class TestRows:
    """``_row`` is the oracles' row, or the error its first column raises, and
    ``entry`` reads the same cells one column at a time."""

    @given(table_rows(st.one_of(literal_windows(), mixed_sums(), mixed_tables(),
                                generator_tables())))
    # a literal row asked for columns left of, right of and around its window
    @example((LiteralTable(2, 0, 2, [[1, 2, 3]] * 3), 2, -3, -1))
    @example((LiteralTable(2, 0, 2, [[1, 2, 3]] * 3), 0, 3, 5))
    @example((LiteralTable(2, 0, 2, [[1, 2, 3]] * 3), 1, -1, 3))
    @example((LiteralTable(2, 0, 2, [[1, 2, 3]] * 3), 2, 1, 4))
    # halves that add up to integers column by column, and a half that does not
    @example((SumTable([(Fraction(1, 2), KunnethTable((1, 0))),
                        (Fraction(1, 2), KunnethTable((1, 0)))]), 0, -3, 3))
    @example((SumTable([(Fraction(1, 2), KunnethTable((1, 0))),
                        (1, structure_sheaf_table(2))]), 0, -3, 3))
    def test_a_row_is_the_oracles_row_and_its_cells(self, case):
        t, i, lo, hi = case
        row = outcome(t._row, i, lo, hi)
        assert row == outcome(row_by_oracles, t, i, lo, hi)
        assert row == outcome(row_by_cells, t, i, lo, hi)


class TestEntry:
    def test_horrocks_mumford_cells(self):
        hm = golden.load("hm")
        assert hm.entry(2, -2) == 2
        assert hm.entry(4, -9) == 100
        assert hm.entry(0, 3) == 4

    def test_bott_sum_cell(self):
        assert structure_sheaf_table(2).entry(0, 1) == 3

    def test_dual_dispatch(self):
        t = homogeneous_table(gp(1, 0))
        assert t.dual().entry(1, -1) == t.entry(1, -2) == 1

    def test_rows_outside_range_are_zero(self):
        hm = golden.load("hm")
        assert hm.entry(-1, 0) == 0
        assert hm.entry(5, -5) == 0

    def test_window_exceeded(self):
        hm = golden.load("hm")
        with pytest.raises(WindowExceededError):
            hm.entry(0, 6)
        with pytest.raises(WindowExceededError):
            hm.entry(4, -10)

    @given(literal_windows(), st.data())
    def test_a_cell_past_the_window_names_itself_and_the_window(self, t, data):
        lo, hi = t.window
        i = data.draw(st.integers(0, t.n))
        c = data.draw(st.one_of(st.integers(lo - 20, lo - 1), st.integers(hi + 1, hi + 20)))
        with pytest.raises(WindowExceededError) as caught:
            t.entry(i, c - i)
        exc = caught.value
        assert (exc.i, exc.d, exc.lo, exc.hi) == (i, c - i, lo, hi)
        assert str(exc) == (f"cell (i={i}, d={c - i}) sits in display column {c}, "
                            f"outside the window {lo}..{hi}")


class TestExact:
    def test_an_int_passes_through_unchanged(self):
        big = 10**30
        assert _exact(big) is big
        assert _exact(0) == 0 and type(_exact(0)) is int

    def test_an_integral_fraction_becomes_an_int(self):
        v = _exact(Fraction(6, 3))
        assert v == 2 and type(v) is int
        assert type(_exact(Fraction(0))) is int

    def test_a_proper_fraction_stays_a_fraction(self):
        v = _exact(Fraction(1, 2))
        assert v == Fraction(1, 2) and type(v) is Fraction

    def test_a_multiplicity_follows_the_exact_number_rule(self):
        big = 10**30
        t = BottSumTable(1, [(big, gp(0)), (Fraction(6, 3), gp(1)), ("1/2", gp(2)),
                             (Fraction(2, 3), gp(3))])
        assert [m for m, _ in t.terms] == [big, 2, Fraction(1, 2), Fraction(2, 3)]
        assert [type(m) for m, _ in t.terms] == [int, int, Fraction, Fraction]
        t = SumTable([(big, KunnethTable((1,))), (Fraction(6, 3), t), ("1/2", t)])
        assert [m for m, _ in t.terms] == [big, 2, Fraction(1, 2)]
        assert [type(m) for m, _ in t.terms] == [int, int, Fraction]
        assert t.hilbert_polynomial() == hilbert_by_pieces(t)

    def test_merged_multiplicities_follow_the_exact_number_rule(self):
        # equal labels are merged and sorted by their parts; a sum that is whole is an int
        t = BottSumTable(1, [(Fraction(1, 2), gp(1)), (Fraction(1, 3), (2,)), (3, gp(0)),
                             ("1/2", (1,)), (Fraction(1, 3), gp(2)), (0, gp(-1))])
        assert t.terms == ((3, gp(0)), (1, gp(1)), (Fraction(2, 3), gp(2)))
        assert [type(m) for m, _ in t.terms] == [int, int, Fraction]

    @pytest.mark.parametrize("sum_of", [
        lambda m: BottSumTable(1, [(m, gp(0))]),
        lambda m: SumTable([(m, structure_sheaf_table(1))]),
    ], ids=["bott-sum", "sum"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    def test_a_float_or_bool_multiplicity_is_refused(self, bad, sum_of):
        with pytest.raises(TypeError, match="exact number"):
            sum_of(bad)

    @pytest.mark.parametrize("site", [
        lambda v: BottSumTable(v, [(1, gp(0))]),
        lambda v: LiteralTable(v, 0, 0, [[1], [1]]),
        lambda v: LiteralTable(1, v, 1, [[1], [1]]),
        lambda v: LiteralTable(1, 0, v, [[1, 1], [1, 1]]),
        lambda v: homogeneous_table(gp(1, 0)).twist(v),
        lambda v: KunnethTable((0, 1)).twist(v),
        lambda v: SumTable([(1, KunnethTable((0,)))]).twist(v),
        lambda v: LiteralTable(1, 0, 0, [[1], [1]]).twist(v),
        lambda v: render_ascii(structure_sheaf_table(1), v, 2),
        lambda v: table_to_json(structure_sheaf_table(1), 0, v),
        lambda v: TwoForm.from_pairs([((v, 2), 1)]),
    ], ids=["bott-sum-n", "literal-n", "literal-lo", "literal-hi", "bott-sum-twist",
            "pushforward-twist", "sum-twist", "literal-twist", "grid-lo", "grid-hi",
            "form-index"])
    @pytest.mark.parametrize("bad", [1.0, True])
    def test_a_float_or_bool_is_refused_at_every_integer_edge(self, site, bad):
        site(1)
        with pytest.raises(TypeError, match="expected integers"):
            site(bad)

    @pytest.mark.parametrize("build", [lambda: BottSumTable(-1, []),
                                       lambda: LiteralTable(-1, 0, 0, [])],
                             ids=["bott-sum", "literal"])
    def test_a_negative_ambient_dimension_is_refused(self, build):
        with pytest.raises(ValueError, match="ambient dimension -1 < 0"):
            build()

    def test_a_literal_window_past_the_cell_limit_is_refused_when_built(self):
        # refused by the grid rule before a row is read, not at the first read
        with pytest.raises(ValueError, match=f"2000000002 cells, past the limit of {MAX_CELLS}"):
            LiteralTable(1, 0, 10**9, [])
        with pytest.raises(ValueError, match="empty window 1..0"):
            LiteralTable(1, 1, 0, [])

    def test_rational_recomposition_keeps_its_cells(self):
        # the integral cells come back as ints, the others as Fractions
        dec = Decomposition(((Fraction(1, 3), gp(1, 0)), (Fraction(8, 9), gp(2, 0)),
                             (Fraction(1, 3), gp(2, 1)), (Fraction(1, 2), gp(0, 0))),
                            True, True)
        half = Fraction(1, 2)
        expected = [[0, 0, 0, 1, 19 * half, 45 * half, 40],
                    [0, 0, 3, 3, 0, 0, 0],
                    [26, 12, 5 * half, half, 0, 0, 0]]
        cells = _cells(BottSumTable(2, dec.terms), -4, 2)
        assert cells == expected
        assert ([[type(v) for v in row] for row in cells]
                == [[type(v) for v in row] for row in expected])


class TestRegCoreg:
    def test_horrocks_mumford(self):
        hm = golden.load("hm")
        assert hm.reg(1) == 1
        assert hm.coreg(0) == -5

    def test_bott_sum_closed_form(self):
        rng = random.Random(21)
        for _ in range(30):
            t = random_bott_sum(rng)
            for k in range(t.n):
                assert t.reg(k) == max(-lam.part(k) for _, lam in t.terms)
                assert t.reg(k) == scan_reg(t, k)
                assert t.coreg(k) == scan_coreg(t, k)

    @given(generator_tables())
    # adjacent roots -5, -4 and a repeated part
    @example(homogeneous_table(gp(2, 2, 0)))
    # the root -3 three times over
    @example(KunnethTable((0, 2, 2, 2)))
    # the twist just left of the root 0 is itself a root
    @example(KunnethTable((-1, 0, 3)))
    def test_generator_profile_matches_the_scan_oracles(self, t):
        prof = regularity_profile(t)

        def scanned(v, vacuous):
            return vacuous if v is None else v

        assert prof.reg == tuple(scanned(scan_reg(t, k), NEG_INFINITY) for k in range(t.n))
        assert prof.coreg == tuple(scanned(scan_coreg(t, k), POS_INFINITY)
                                   for k in range(t.n))
        assert not any(prof.reg_window_limited + prof.coreg_window_limited)

    def test_kunneth_f_indices(self):
        f = KunnethTable((4, 1, -1))
        assert [f.reg(k) for k in range(3)] == [1, 0, -2]
        assert f.coreg(0) == -3
        g = KunnethTable((3, -1, -2))
        assert g.coreg(0) == -2

    def test_vacuous_indices_are_infinite(self):
        t = homogeneous_table(gp(1, 0))
        assert t.reg(2) == NEG_INFINITY
        assert t.coreg(5) == POS_INFINITY
        zero = BottSumTable(3, [])
        assert zero.reg(0) == NEG_INFINITY
        assert zero.coreg(0) == POS_INFINITY
        with pytest.raises(ValueError):
            t.reg(-1)

    def test_monotonicity(self):
        rng = random.Random(22)
        for _ in range(30):
            t = random_generator_table(rng)
            regs = [t.reg(k) for k in range(t.n)]
            coregs = [t.coreg(k) for k in range(t.n)]
            assert regs == sorted(regs, reverse=True)
            assert coregs == sorted(coregs)

    def test_literal_window_flags(self):
        # nonzero top-row cell at the left edge, zeros elsewhere
        t = LiteralTable(1, 0, 2, [[0, 0, 0], [1, 0, 0]])
        prof = regularity_profile(t)
        assert prof.reg == (1,) and prof.reg_window_limited == (False,)
        # all-clean window cannot certify how far left the index reaches
        clean = LiteralTable(1, 0, 2, [[0, 0, 0], [0, 0, 0]])
        prof = regularity_profile(clean)
        assert prof.reg == (0,) and prof.reg_window_limited == (True,)
        assert prof.coreg == (2,) and prof.coreg_window_limited == (True,)
        # dirty through the right edge pushes the answer past the window
        t = LiteralTable(1, 0, 2, [[0, 0, 0], [1, 1, 1]])
        prof = regularity_profile(t)
        assert prof.reg == (3,) and prof.reg_window_limited == (True,)

    @given(profile_grids())
    # row 1 ends right of row 2, which reg(0) reads and reg(1) does not
    @example(([[0, 0, 0], [0, 0, 5], [0, 1, 0]], 0, 2))
    # the last nonzero column is hi, and for coreg the first is lo
    @example(([[0, 0], [0, 3]], -1, 0))
    @example(([[-2, 0], [0, 0]], 4, 5))
    @example(([[0] * 4] * 3, 10**30, 10**30 + 3))
    def test_grid_profile_matches_the_column_oracle(self, case):
        assert _grid_profile(*case) == grid_profile_by_columns(*case)

    @given(literal_windows())
    def test_literal_profile_matches_definition(self, t):
        assert regularity_profile(t) == brute_profile(t)

    @given(st.data())
    def test_a_generator_sum_combines_its_summands_profiles(self, data):
        # positive multiplicities make a sum's nonzero cells its summands'
        t1 = data.draw(generator_tables())
        t2 = data.draw(generator_tables(n=t1.n))
        m = data.draw(st.sampled_from((1, 3, Fraction(2, 5))))
        p1, p2, ps = (regularity_profile(t) for t in (t1, t2, SumTable([(m, t1), (1, t2)])))
        assert ps.reg == tuple(map(max, p1.reg, p2.reg))
        assert ps.coreg == tuple(map(min, p1.coreg, p2.coreg))
        assert not any(ps.reg_window_limited + ps.coreg_window_limited)

    def test_scanned_profile_reads_each_cell_once(self, monkeypatch):
        # a literal window over the certified range of a pushforward, which
        # itself reads its profile off its multidegree
        push = KunnethTable((5, 3, 1, 0, -2, -4))
        lo, hi = certified_range(push)
        t = literal_from_json(table_to_json(push, lo, hi))
        calls = []
        inner = CohomologyTable.entry

        def counted(table, i, d):
            calls.append((i, d))
            return inner(table, i, d)

        monkeypatch.setattr(CohomologyTable, "entry", counted)
        prof = regularity_profile(t)
        assert len(calls) <= (t.n + 1) * (hi - lo + 1)
        assert prof.reg == tuple(scan_reg(t, k) for k in range(t.n))
        assert prof.coreg == tuple(scan_coreg(t, k) for k in range(t.n))
        assert prof == regularity_profile(push)


class TestDual:
    def test_involution(self):
        rng = random.Random(23)
        for _ in range(20):
            t = random_generator_table(rng)
            tt = t.dual().dual()
            for i in range(t.n + 1):
                for d in range(-8, 8):
                    assert tt.entry(i, d) == t.entry(i, d)

    def test_self_dual_structure_sheaf(self):
        o = structure_sheaf_table(2)
        assert o.dual().entry(2, -3) == 1

    def test_coreg_identity(self):
        rng = random.Random(24)
        for _ in range(30):
            t = random_generator_table(rng)
            d = t.dual()
            for k in range(t.n):
                assert t.coreg(k) == -d.reg(k) - 1

    def test_generator_dual_and_twist_follow_the_formulas(self):
        rng = random.Random(25)
        for _ in range(25):
            t = random_generator_table(rng)
            s = rng.randint(-4, 4)
            check_dual_twist_formulas(t, s, range(-9, 9))
            check_dual_twist_formulas(SumTable([(1, t), (1, random_kunneth(rng, n=t.n))]), s,
                                      range(-9, 9))

    @given(literal_windows(), st.integers(-4, 4))
    def test_literal_dual_and_twist_follow_the_formulas(self, t, s):
        lo, hi = t.window
        check_dual_twist_formulas(t, s, range(lo - t.n - 3, hi + 4))
        assert is_natural(t.dual()) == is_natural(t) == is_natural(t.twist(s))

    def test_dual_of_literal_window_is_scanned_over_its_own_columns(self):
        # twist -2 of the dual has two nonzero groups, in rows 0 and 1
        t = LiteralTable(2, 0, 1, [[0, 0], [1, 0], [0, 1]]).dual()
        assert not is_natural(t)
        assert t.window == (-2, -1)
        assert t.entry(0, -2) == t.entry(1, -2) == 1


class TestTwistAdd:
    def test_twist_zero(self):
        t = homogeneous_table(gp(1, 0))
        for i in range(3):
            for d in range(-6, 6):
                assert t.twist(0).entry(i, d) == t.entry(i, d)

    def test_twist_shifts_reg(self):
        o = structure_sheaf_table(2)
        assert o.twist(3).reg(0) == -3
        assert o.twist(3).coreg(0) == -4

    @pytest.mark.parametrize("mult", [0, -1, Fraction(-1, 2)])
    def test_sum_refuses_a_non_positive_multiplicity(self, mult):
        o = structure_sheaf_table(2)
        with pytest.raises(ValueError, match="non-positive multiplicity"):
            SumTable(((1, o), (mult, KunnethTable((1, 0)))))

    @pytest.mark.parametrize("build", [
        # disjoint windows, 0..0 and 3..3, that no cell of the sum would lie in
        lambda: SumTable([(1, LiteralTable(1, 0, 0, [[1], [0]])),
                          (1, LiteralTable(1, 3, 3, [[0], [1]]))]),
        lambda: SumTable([(1, LiteralTable(1, 0, 1, [[1, 1]] * 2)),
                          (1, LiteralTable(1, 3, 4, [[1, 1]] * 2))]),
        # a generator table and a window, on either side
        lambda: SumTable([(1, structure_sheaf_table(1)),
                          (1, LiteralTable(1, 0, 1, [[0, 0], [0, 1]]))]),
        lambda: SumTable([(1, LiteralTable(1, 0, 0, [[0], [1]])), (1, structure_sheaf_table(1))]),
        # a window nested in a sum, with the multiplicity 2
        lambda: SumTable([(1, structure_sheaf_table(2).twist(-4)), (1, SumTable(
            ((2, LiteralTable(2, -2, 1, [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])),)))]),
        # the golden windows, added to themselves and to O(0)
        lambda: SumTable([(1, golden.load("phantom")), (1, golden.load("phantom"))]),
        lambda: SumTable([(1, structure_sheaf_table(4)), (1, golden.load("hm"))]),
    ], ids=["disjoint", "disjoint-terms", "generator-window", "window-generator", "nested",
            "phantom-phantom", "generator-hm"])
    def test_a_sum_refuses_a_windowed_summand(self, build):
        with pytest.raises(ValueError, match="^a direct sum holds generator tables only, "
                                             r"got a summand with the window -?\d+\.\.-?\d+$"):
            build()

    @given(st.data())
    def test_a_literal_summand_is_refused_anywhere_in_a_sum(self, data):
        n = data.draw(st.integers(1, 3))
        window = data.draw(literal_windows(n))
        terms = data.draw(st.lists(st.tuples(st.sampled_from((1, 2, Fraction(1, 2))),
                                             generator_tables(n)), max_size=3))
        terms.insert(data.draw(st.integers(0, len(terms))), (1, window))
        with pytest.raises(ValueError, match="generator tables only"):
            SumTable(terms)

    def test_add_entries(self):
        s = SumTable([(1, structure_sheaf_table(2)), (1, homogeneous_table(gp(1, 0)))])
        assert s.entry(0, 0) == 1 + 3
        with pytest.raises(ValueError):
            SumTable([(1, structure_sheaf_table(2)), (1, structure_sheaf_table(3))])

    def test_sum_reg_law(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randint(1, 4)
            t1 = random_bott_sum(rng, n=n)
            t2 = random_bott_sum(rng, n=n)
            s = SumTable([(1, t1), (1, t2)])
            for k in range(n):
                assert s.reg(k) == max(t1.reg(k), t2.reg(k))
                assert s.coreg(k) == min(t1.coreg(k), t2.coreg(k))


P1_TABLE = """\
1: 2 1 . .
0: . . 1 2
   -2 -1 0 1
"""


class TestAsciiFormat:
    def test_render_line_on_p1(self):
        text = render_ascii(structure_sheaf_table(1), -2, 1)
        assert ascii_normalize(text) == ascii_normalize(P1_TABLE)

    def test_parse_horrocks_mumford(self):
        hm = parse_ascii(golden.source("hm"))
        assert hm.entry(4, -9) == 100

    def test_round_trip_golden(self):
        for name in golden.names():
            t = golden.load(name)
            again = parse_ascii(render_ascii(t, *t.window))
            assert again.rows_by_i == t.rows_by_i
            assert again.window == t.window

    @given(bott_sums_and_windows())
    def test_round_trip_bott_sums(self, case):
        t, lo, hi = case
        assert_same_window(parse_ascii(render_ascii(t, lo, hi)), t, lo, hi)

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            parse_ascii("1: 1 2\n0: 1\n   0 1\n")

    def test_parse_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            parse_ascii("1: -1 2\n0: 1 1\n   0 1\n")

    def test_parse_rejects_missing_index_line(self):
        with pytest.raises(ValueError):
            parse_ascii("1: 1 2\n")
        with pytest.raises(ValueError):
            parse_ascii("1: 1 2\n0: 1 1\nnot an index\n")

    @given(printed_windows())
    @example((BottSumTable(2, []), -14, -3))
    @example((KunnethTable((10**9, 0, -10**9)), -1, 2))
    @example((LiteralTable(1, -12, -10, [[0, 7, 0], [0, 123, 0]]), -12, -10))
    # the largest entry JSON writes as an integer, and the least it writes as a string
    @example((LiteralTable(1, 0, 1, [[2**63 - 1, 0], [2**63, 1]]), 0, 1))
    def test_writers_match_the_cell_by_cell_oracles(self, case):
        t, lo, hi = case
        assert render_ascii(t, lo, hi) == render_ascii_by_cells(t, lo, hi)
        assert json.dumps(table_to_json(t, lo, hi)) == json.dumps(json_by_cells(t, lo, hi))

    def test_writers_refuse_a_fractional_entry_alike(self):
        t = BottSumTable(2, [(Fraction(1, 2), gp(1, 0))])
        assert t.entry(2, -4) == Fraction(3, 2)
        for write in (render_ascii, table_to_json):
            with pytest.raises(ValueError, match=r"^non-integral entry 3/2 at \(i=2, col=-2\)$"):
                write(t, -3, 1)

    def test_parse_tolerates_trailing_period(self):
        t = parse_ascii("1: 1 .\n0: . 1\n   0 1.\n")
        assert t.window == (0, 1)

    def test_an_oversized_window_is_refused_before_any_column(self):
        # the index line of two million columns alone held over 100 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"past the limit of {MAX_CELLS}$"):
                render_ascii(structure_sheaf_table(1), 0, 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestJsonFormat:
    def test_round_trip(self):
        f = KunnethTable((4, 1, -1))
        blob = table_to_json(f, -4, 3)
        t = literal_from_json(json.loads(json.dumps(blob)))
        for i in range(4):
            for c in range(-4, 4):
                assert t.entry(i, c - i) == f.entry(i, c - i)

    @given(bott_sums_and_windows())
    def test_round_trip_bott_sums(self, case):
        t, lo, hi = case
        blob = json.loads(json.dumps(table_to_json(t, lo, hi)))
        assert_same_window(literal_from_json(blob), t, lo, hi)

    def test_big_entries_become_strings(self):
        big = 2**70
        t = LiteralTable(1, 0, 0, [[big], [0]])
        blob = table_to_json(t, 0, 0)
        assert blob["rows"][0] == [0] and blob["rows"][1] == [str(big)]
        back = literal_from_json(blob)
        assert back.entry(0, 0) == big


class TestDigitBound:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4), st.lists(st.tuples(st.integers(1, 4), st.lists(
        st.integers(-3, 3), min_size=4, max_size=4)), min_size=1, max_size=3),
        st.integers(-3, 3), st.integers(0, 2))
    # two pieces whose one root lies far from the grid in one and near it in
    # the other: the bound takes each position's farthest root over the pieces
    @example(1, [(1, [-1, 0, 0, 0]), (1, [0, 0, 0, 0])], 2, 0)
    def test_a_grid_past_the_limit_is_refused_before_it_is_written(self, n, terms, lo, width):
        # parts near multiples of 10**(700 // n), with their own offsets, so
        # the pieces differ and the entries pass the least limit CPython
        # allows (640 digits); a sound bound refuses every limit below the
        # longest entry
        big = 10 ** (700 // n)
        t = BottSumTable(n, [(m, GenPartition(sorted(
            (abs(x) * big + x for x in parts[:n]), reverse=True))) for m, parts in terms])
        hi = lo + width
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            longest = max(len(str(c)) for row in _cells(t, lo, hi) for c in row)
            assume(longest > 640)
            sys.set_int_max_str_digits(longest - 1)
            with pytest.raises(ValueError, match=r"may have up to \d+ digits, past the limit"):
                table_to_json(t, lo, hi)
        finally:
            sys.set_int_max_str_digits(old)


def cell_passes(c):
    """The cell rule, cell by cell: an int, or a string of ASCII digits."""
    return type(c) is int or type(c) is str and c.isascii() and c.isdigit()


class TestLiteralCellRule:
    def test_ints_and_ascii_digit_strings_are_read(self):
        t = LiteralTable(1, 0, 2, [[0, "12", 7], ["007", 0, str(2**70)]])
        assert t.rows_by_i == ((0, 12, 7), (7, 0, 2**70))
        assert {type(v) for row in t.rows_by_i for v in row} == {int}

    @pytest.mark.parametrize("cell, shown", [
        (1.5, "1.5"),
        (Fraction(3, 2), "Fraction(3, 2)"),
        # an integral value of the wrong type is refused too, not rounded
        (Fraction(3), "Fraction(3, 1)"),
        (3.0, "3.0"),
        (True, "True"),
        ("٣", "'٣'"),
        ("-1", "'-1'"),
        ("1_0", "'1_0'"),
        # an empty string holds no digit
        ("", "''"),
        (None, "None"),
    ])
    def test_any_other_cell_is_refused_with_its_row(self, cell, shown):
        message = f"a cell is an int or a string of ASCII digits, got {shown} in row 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LiteralTable(1, 0, 1, [[0, 1], ["2", cell]])

    @given(st.lists(st.lists(st.sampled_from(
        (0, 5, 10**20, "0", "42", "007", "", "٣", "-1", "1.5", 1.5, 3.0, True,
         Fraction(3), Fraction(1, 2), None)), min_size=3, max_size=3), min_size=2, max_size=2))
    def test_the_row_rule_is_the_cell_rule(self, rows):
        bad = next(((i, c) for i, row in enumerate(rows) for c in row if not cell_passes(c)),
                   None)
        if bad is None:
            assert LiteralTable(1, 0, 2, rows).rows_by_i == tuple(
                tuple(map(int, row)) for row in rows)
        else:
            message = (f"a cell is an int or a string of ASCII digits, "
                       f"got {reprlib.repr(bad[1])} in row {bad[0]}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                LiteralTable(1, 0, 2, rows)

    def test_both_readers_name_the_row(self):
        with pytest.raises(ValueError, match=r"got '٣' in row 1$"):
            parse_ascii("1: ٣ 1\n0: 1 1\n   0 1\n")
        with pytest.raises(ValueError, match=r"got 0\.5 in row 0$"):
            literal_from_json({"n": 1, "window": [0, 1], "rows": [[1, 1], [0.5, 0]]})


class TestNaturalSupernatural:
    def test_single_homogeneous_supernatural(self):
        rng = random.Random(27)
        for _ in range(20):
            n = rng.randint(1, 4)
            lam = GenPartition(
                sorted((rng.randint(-2, 4) for _ in range(n)), reverse=True))
            t = homogeneous_table(lam)
            assert is_natural(t)
            assert is_supernatural(t)

    def test_horrocks_mumford_not_natural(self):
        assert not is_natural(golden.load("hm"))

    def test_phantom_natural_on_window(self):
        assert is_natural(golden.load("phantom"))

    def test_mixed_sum_not_natural(self):
        t = BottSumTable(2, [(1, gp(0, 0)), (1, gp(5, 5))])
        assert not is_natural(t)
        assert not is_supernatural(t)

    def test_kunneth_supernaturality(self):
        assert is_supernatural(KunnethTable((4, 1, -1)))
        assert is_natural(KunnethTable((1, 1, 0)))
        assert not is_supernatural(KunnethTable((1, 1, 0)))

    def test_one_label_reads_its_roots_off_the_label(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(CohomologyTable, "entry", refuse)
        assert is_supernatural(homogeneous_table(gp(100000, 5, 0)))
        assert is_supernatural(BottSumTable(3, [(2, gp(10**9, 0, -10**9)),
                                                (Fraction(1, 3), gp(10**9, 0, -10**9))]))

    @given(bott_sums_and_windows())
    def test_bott_sums_match_the_entry_scan(self, table_and_window):
        t = table_and_window[0]
        natural = scan_natural(t)
        assert is_natural(t) == natural
        assert is_supernatural(t) == (natural and len(scan_vanishing_twists(t)) == t.n)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 3).flatmap(bundle_exprs))
    # the pieces differ, yet every twist has one group: natural, not supernatural
    @example("push(-1,-1) (+) O(-2) on P2")
    # a pushforward and a label with one root sequence: supernatural
    @example("push(1,0) (+) 2*O(0) on P2")
    def test_generator_tables_match_the_entry_scan(self, text):
        t = table_from_expr(text)
        chi = t.hilbert_polynomial()
        assert chi.degree == t.n
        assert all(chi(d) == scan_euler(t, d) for d in scan_twists(t))
        natural = scan_natural(t)
        assert is_natural(t) == natural
        supernatural = natural and len(scan_vanishing_twists(t)) == t.n
        assert is_supernatural(t) == supernatural

    def test_pieces_that_differ_can_be_natural(self):
        t = table_from_expr("push(-1,-1) (+) O(-2) on P2")
        assert len({roots for _, _, roots in t._pieces}) == 2
        assert is_natural(t) and scan_natural(t)
        assert not is_supernatural(t)

    @pytest.mark.parametrize("text, natural", [
        ("S[1000000000,5,0] (+) S[1000000000,5,1] on P3", True),
        ("push(1000000000,0,-1000000000) (+) S[1000000000,5,0] on P3", False),
    ])
    def test_sums_of_huge_pieces_read_no_entry(self, monkeypatch, text, natural):
        def refuse(*args):
            raise AssertionError("searched")

        t = table_from_expr(text)
        monkeypatch.setattr(CohomologyTable, "entry", refuse)
        assert is_natural(t) == natural
        assert not is_supernatural(t)

    @settings(deadline=None, max_examples=300)
    @given(mixed_tables())
    def test_windowed_tables_match_the_visible_cells(self, t):
        lo, hi = certified_range(t)
        columns = {}
        for d in range(lo - t.n - 2, hi + 3):
            for i, v in enumerate(visible_entries(t, d)):
                columns.setdefault(i + d, set()).add(v is not None)
        assert all(len(seen) == 1 for seen in columns.values())
        visible = {c for c, seen in columns.items() if True in seen}
        if t.window is None:
            assert visible == set(columns)
        else:
            assert visible == set(range(t.window[0], t.window[1] + 1))
            with pytest.raises(UndecidableError, match="twist polynomial"):
                t.hilbert_polynomial()
            with pytest.raises(UndecidableError, match="supernaturality"):
                is_supernatural(t)
        assert is_natural(t) == scan_natural(t)
        prof = regularity_profile(t)
        reg0 = prof.reg[0]
        if reg0 > 0:
            try:  # a nonzero cell of rows 1..n just left of reg(0)
                certified = not prof.reg_window_limited[0] or any(
                    t.entry(j, reg0 - 1 - j) for j in range(1, t.n + 1))
            except WindowExceededError:
                certified = False
            with pytest.raises(NotZeroRegularError if certified else UndecidableError):
                decompose(t)

    @pytest.mark.parametrize("text", [
        "S[3,1,0] (+) 2*S[2,2,-1] (+) S[5,0,0] on P3",
        "push(4,1,-1)",
        "push(2,2,0) (+) 3*S[1,0,0] (+) 2*(push(-3,1,5) (+) O(2)) on P3",
    ])
    def test_pieces_build_no_fraction(self, monkeypatch, text):
        def refuse(*args):
            raise AssertionError("built a Fraction")

        t = table_from_expr(text)
        want = regularity_profile(t), is_natural(t), is_supernatural(t)
        monkeypatch.setattr("river_banks.tables.Fraction", refuse)
        assert (regularity_profile(t), is_natural(t), is_supernatural(t)) == want

    def test_pieces_are_built_once(self, monkeypatch):
        # a label's piece comes off ``_roots`` when the table is built, and
        # every query after that reads the pieces kept on the table
        def refuse(*args):
            raise AssertionError("pieces rebuilt")

        t = SumTable([(2, KunnethTable((3, -1, -4))), (3, homogeneous_table(gp(2, 1, 0)))])

        def queries():
            return (regularity_profile(t), render_ascii(t, -8, 8), table_to_json(t, -8, 8),
                    t.hilbert_polynomial(), is_natural(t), is_supernatural(t))

        want = queries()
        monkeypatch.setattr("river_banks.tables._roots", refuse)
        assert queries() == want

    @pytest.mark.parametrize("wrap", [
        lambda t: t,
        lambda t: t.dual(),
        lambda t: t.twist(3),
    ], ids=["window", "dual", "twist"])
    @pytest.mark.parametrize("name", ["phantom", "hm"])
    def test_a_window_leaves_supernaturality_undecidable(self, monkeypatch, name, wrap):
        def refuse(*args):
            raise AssertionError("entry read")

        t = wrap(golden.load(name))
        monkeypatch.setattr(CohomologyTable, "entry", refuse)
        with pytest.raises(UndecidableError):
            is_supernatural(t)


class TestHilbertPolynomial:
    def test_structure_sheaf_p3(self):
        chi = structure_sheaf_table(3).hilbert_polynomial()
        for d in range(-6, 7):
            hits = [bott_cohomology(3, gp(0, 0, 0), d)]
            expected = sum(
                (-1) ** h.degree * h.dim for h in hits if h is not None)
            assert chi(d) == expected

    def test_kunneth_product_formula_and_alternating_sums(self):
        for a in ((4, 1, -1), (3, -1, -2)):
            t = KunnethTable(a)
            chi = t.hilbert_polynomial()
            for d in range(-10, 11):
                expected = Fraction(1)
                for aj in a:
                    expected *= aj + d + 1
                assert chi(d) == expected
                alt = sum((-1) ** i * t.entry(i, d) for i in range(t.n + 1))
                assert chi(d) == alt

    def test_dual_twist_transforms(self):
        rng = random.Random(28)
        for _ in range(20):
            t = random_generator_table(rng)
            chi = t.hilbert_polynomial()
            n = t.n
            for d in range(-8, 9):
                assert t.dual().hilbert_polynomial()(d) == (-1) ** n * chi(-d - n - 1)
                assert t.twist(2).hilbert_polynomial()(d) == chi(d + 2)
                alt = sum((-1) ** i * t.entry(i, d) for i in range(n + 1))
                assert chi(d) == alt

    @given(polynomial_tables())
    # the empty sum, whose polynomial is zero
    @example(BottSumTable(3, []))
    @example(SumTable([(Fraction(1, 2), KunnethTable([10**9, -10**9])),
                       (Fraction(2, 3), homogeneous_table(gp(2, -1)))]))
    def test_the_integer_sum_matches_the_per_piece_oracle(self, t):
        assert t.hilbert_polynomial() == hilbert_by_pieces(t)

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.integers(-4, 6), min_size=n, max_size=n)))
    def test_chi_polynomial_is_the_homogeneous_twist_polynomial(self, parts):
        # dim / n! * prod(x + part(k - 1) + k), off the hook-content dimension
        lam = GenPartition(sorted(parts, reverse=True))
        n = lam.n
        expected = _from_roots([-lam.part(k - 1) - k for k in range(1, n + 1)],
                               Fraction(hook_content_dim(lam.parts, n), factorial(n)))
        assert chi_polynomial(n, lam) == expected

    def test_literal_raises(self):
        with pytest.raises(UndecidableError,
                           match="^a finite window does not determine the twist polynomial$"):
            golden.load("hm").hilbert_polynomial()


class TestBeilinsonTerms:
    def test_horrocks_mumford_term(self):
        assert beilinson_terms(golden.load("hm"), 0) == [(2, 2)]

    def test_structure_sheaf(self):
        assert beilinson_terms(structure_sheaf_table(3), 0) == [(0, 1)]

    def test_phantom_term(self):
        assert beilinson_terms(golden.load("phantom"), 1) == [(2, 1)]

    def test_row_range_clipping(self):
        o = structure_sheaf_table(2)
        # row 2 is nonzero on column -1 but falls outside the clip j <= n + e
        assert o.entry(2, -3) == 1
        assert beilinson_terms(o, -1) == []
        assert beilinson_terms(o, -4) == []


class TestPersistence:
    def test_reg_coreg_conditions_persist(self):
        rng = random.Random(29)
        for _ in range(25):
            t = random_generator_table(rng)
            pad = 2 * t.n + 4
            for k in range(t.n):
                m = t.reg(k)
                assert all(reg_condition_holds(t, k, m + s) for s in range(pad + 1))
                assert not reg_condition_holds(t, k, m - 1)
                m = t.coreg(k)
                assert all(coreg_condition_holds(t, k, m - s) for s in range(pad + 1))
                assert not coreg_condition_holds(t, k, m + 1)
