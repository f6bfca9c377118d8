import random
from fractions import Fraction

from hypothesis import given, strategies as st

from river_banks import golden
from river_banks.kunneth import product_line_cohomology, pushforward_table
from river_banks.tables import regularity_profile

from corpus import (
    coreg_condition_holds,
    random_kunneth,
    reg_condition_holds,
    subset_sum_cohomology,
)


class TestProductLineCohomology:
    def test_examples(self):
        assert product_line_cohomology((-3, -6, -8), 3) == 70
        assert product_line_cohomology((5, 2, 0), 0) == 18
        assert product_line_cohomology((0, -4, -5), 2) == 12

    def test_out_of_range_degree(self):
        assert product_line_cohomology((1, 1), -1) == 0
        assert product_line_cohomology((1, 1), 3) == 0

    @given(st.lists(st.integers(-9, 9), max_size=8))
    def test_closed_form_matches_subset_sum(self, a):
        for i in range(-1, len(a) + 2):
            assert product_line_cohomology(a, i) == subset_sum_cohomology(a, i)


class TestPushforwardTable:
    def test_matches_stored_f(self):
        f = pushforward_table((4, 1, -1))
        lit = golden.load("f")
        for i in range(4):
            for c in range(-4, 4):
                assert f.entry(i, c - i) == lit.entry(i, c - i)

    def test_matches_stored_g(self):
        g = pushforward_table((3, -1, -2))
        lit = golden.load("g")
        for i in range(4):
            for c in range(-4, 4):
                assert g.entry(i, c - i) == lit.entry(i, c - i)

    def test_single_factor_is_line(self):
        t = pushforward_table((0,))
        assert t.entry(0, 3) == 4
        assert t.entry(1, -2) == 1
        assert t.entry(1, -1) == 0


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
