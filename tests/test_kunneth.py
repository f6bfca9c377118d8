import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from river_banks import golden, tables
from river_banks.kunneth import KunnethTable, product_line_cohomology
from river_banks.tables import (
    CohomologyTable,
    is_natural,
    is_supernatural,
    regularity_profile,
)

from corpus import (
    certified_range,
    coreg_condition_holds,
    outcome,
    random_kunneth,
    reg_condition_holds,
    row_by_cells,
    scan_coreg,
    scan_reg,
    subset_sum_cohomology,
    table_rows,
)

# the benchmark's own oracle, written from the mathematics without the package
_spec = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parent.parent / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@st.composite
def multidegrees(draw, max_size=8):
    """Entries -7..7, often with an entry repeated two or more times."""
    a = draw(st.lists(st.integers(-7, 7), min_size=1, max_size=max_size))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                                  max_size=3)):
        a[dst % len(a)] = a[src % len(a)]
    return a


@st.composite
def pushforwards(draw, degrees=multidegrees()):
    """A pushforward of a multidegree drawn from ``degrees``, possibly twisted and dualized."""
    t = KunnethTable(draw(degrees))
    if draw(st.booleans()):
        t = t.twist(draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        t = t.dual()
    return t


class TestProductLineCohomology:
    def test_examples(self):
        assert product_line_cohomology((-3, -6, -8), 3) == 70
        assert product_line_cohomology((5, 2, 0), 0) == 18
        assert product_line_cohomology((0, -4, -5), 2) == 12

    def test_out_of_range_degree(self):
        assert product_line_cohomology((1, 1), -1) == 0
        assert product_line_cohomology((1, 1), 3) == 0

    @pytest.mark.parametrize("a", [(2.9, -1.5), (2, -1.0), (True, 0)])
    def test_a_degree_that_is_no_int_is_refused_not_truncated(self, a):
        with pytest.raises(TypeError):
            product_line_cohomology(a, 0)

    @given(st.lists(st.integers(-9, 9), max_size=8))
    def test_closed_form_matches_subset_sum(self, a):
        for i in range(-1, len(a) + 2):
            assert product_line_cohomology(a, i) == subset_sum_cohomology(a, i)


class TestPushforwardTable:
    def test_matches_stored_f(self):
        f = KunnethTable((4, 1, -1))
        lit = golden.load("f")
        for i in range(4):
            for c in range(-4, 4):
                assert f.entry(i, c - i) == lit.entry(i, c - i)

    def test_matches_stored_g(self):
        g = KunnethTable((3, -1, -2))
        lit = golden.load("g")
        for i in range(4):
            for c in range(-4, 4):
                assert g.entry(i, c - i) == lit.entry(i, c - i)

    @pytest.mark.parametrize("a", [(2.9, -1.5), (2, -1.0), (True, 0)])
    def test_a_degree_that_is_no_int_is_refused_not_truncated(self, a):
        with pytest.raises(TypeError):
            KunnethTable(a)

    def test_single_factor_is_line(self):
        t = KunnethTable((0,))
        assert t.entry(0, 3) == 4
        assert t.entry(1, -2) == 1
        assert t.entry(1, -1) == 0


def checked_columns(t):
    """The display columns of ``certified_range(t)``: all of them, up to 10^4.

    Of a wider range (entries in the billions) it keeps the two ends and the
    columns within n + 3 of a zero twist -a_j - 1, where the row of a twist
    and its zero factors change; between those the row stays put.
    """
    lo, hi = certified_range(t)
    if hi - lo <= 10**4:
        return range(lo, hi + 1)
    near = {c for aj in t.a for c in range(-aj - t.n - 4, -aj + t.n + 3)}
    return sorted({lo, hi} | {c for c in near if lo <= c <= hi})


class TestClosedFormEntry:
    @given(pushforwards())
    # a_j = -2 twice: twist 1 is the zero twist of two factors
    @example(KunnethTable((-2, -2, 3)))
    @example(KunnethTable((-2, -2, 3)).dual())
    # m = 1, a line
    @example(KunnethTable((5,)))
    @example(KunnethTable((10**9, 0, -10**9)).twist(7))
    def test_every_cell_of_the_certified_range_matches_the_kunneth_sum(self, t):
        for c in checked_columns(t):
            for i in range(t.n + 1):
                shifted = [aj + c - i for aj in t.a]
                assert (t.entry(i, c - i) == subset_sum_cohomology(shifted, i)
                        == product_line_cohomology(shifted, i))


class TestRows:
    # entries of +-10^9 among small ones, or multidegrees() with repeated entries
    @given(table_rows(pushforwards(st.one_of(
        multidegrees(), st.lists(st.sampled_from((-10**9, -10**9, -2, -1, 0, 3, 10**9)),
                                 min_size=1, max_size=5)))))
    # repeated entries: rows 1 and 2 hold no twist
    @example((KunnethTable((-2, -2, -2, 3)), 1, -6, 6))
    @example((KunnethTable((-2, -2, -2, 3)).dual(), 2, -6, 6))
    # the window lies wholly inside row 0's open interval, and row n's
    @example((KunnethTable((10**9, 0, -10**9)).twist(7), 0, 10**9, 10**9 + 3))
    @example((KunnethTable((10**9, 0, -10**9)).twist(7), 3, -10**9 - 12, -10**9 - 6))
    def test_a_row_is_its_cells_and_the_reference(self, case):
        t, i, lo, hi = case
        expected = [(int, reference.pushforward_entry(t.a, i, c - i)) for c in range(lo, hi + 1)]
        assert outcome(t._row, i, lo, hi) == outcome(row_by_cells, t, i, lo, hi) == expected


class TestInvariants:
    def test_chi_is_degree_product(self):
        rng = random.Random(31)
        for _ in range(30):
            t = random_kunneth(rng)
            for d in range(-9, 10):
                expected = Fraction(1)
                for aj in t.a:
                    expected *= aj + d + 1
                alt = sum((-1) ** i * t.entry(i, d) for i in range(t.n + 1))
                assert alt == expected == t.hilbert_polynomial()(d)

    def test_degree_minus_one_kills_column(self):
        rng = random.Random(32)
        for _ in range(30):
            t = random_kunneth(rng)
            for d in range(-9, 10):
                if any(aj + d == -1 for aj in t.a):
                    assert all(t.entry(i, d) == 0 for i in range(t.n + 1))

    def test_persistence(self):
        rng = random.Random(33)
        for _ in range(20):
            t = random_kunneth(rng)
            prof = regularity_profile(t)
            assert not any(prof.reg_window_limited + prof.coreg_window_limited)
            for k in range(t.n):
                m = t.reg(k)
                assert all(reg_condition_holds(t, k, m + s) for s in range(2 * t.n + 5))
                assert not reg_condition_holds(t, k, m - 1)
                m = t.coreg(k)
                assert all(coreg_condition_holds(t, k, m - s) for s in range(2 * t.n + 5))
                assert not coreg_condition_holds(t, k, m + 1)


class TestClosedFormProfile:
    @given(pushforwards())
    # a repeated entry: across the zero twist -3 the column rises from -1
    # at twist -2 = -2 - a_(0) to 0 at twist -4, so reg(0) = 1 comes from -4
    @example(KunnethTable((0, 2, 2, 2)))
    # -2 - a_(0) = -1 is the zero twist of a_(1) = 0
    @example(KunnethTable((-1, 0, 3)))
    def test_matches_the_sweep_and_the_scan_oracles(self, t):
        lo, hi = certified_range(t)
        prof = tables.regularity_profile(t)
        assert prof == tables._grid_profile(tables._cells(t, lo, hi), lo, hi)
        assert prof.reg == tuple(scan_reg(t, k) for k in range(t.n))
        assert prof.coreg == tuple(scan_coreg(t, k) for k in range(t.n))

    def test_profile_and_naturality_read_no_entries(self, monkeypatch):
        entries = []
        monkeypatch.setattr(CohomologyTable, "entry",
                            lambda t, i, d: entries.append((i, d)))
        t = KunnethTable((10**9, 0, -10**9))
        prof = regularity_profile(t)
        assert is_natural(t)
        assert entries == []
        assert prof.reg == (10**9, 1, 2 - 10**9)
        assert prof.coreg == (1 - 10**9, 0, 10**9 - 1)
        assert not any(prof.reg_window_limited + prof.coreg_window_limited)


class TestSupernatural:
    def test_roots_come_from_the_multidegree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("entry read")

        monkeypatch.setattr(CohomologyTable, "entry", refuse)
        assert is_supernatural(KunnethTable((10**9, 0, -10**9)))
        assert not is_supernatural(KunnethTable((1, 1, 0)))

    @given(multidegrees(max_size=5))
    def test_matches_distinct_multidegrees(self, a):
        t = KunnethTable(a)
        assert is_supernatural(t) == (len(set(a)) == t.n)
