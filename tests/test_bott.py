import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from river_banks import bott, partitions
from river_banks.bott import BottCohomology, bott_cohomology, chi_polynomial
from river_banks.partitions import GenPartition
from river_banks.ratpoly import RatPoly
from river_banks.tables import NEG_INFINITY, homogeneous_table, render_ascii

from corpus import _from_roots, bott_by_straightening, hook_content_dim, random_partition


def gp(*parts):
    return GenPartition(parts)


class TestBottCohomology:
    def test_sections_of_line_bundle(self):
        assert bott_cohomology(2, gp(0, 0), 3) == BottCohomology(0, 10)

    def test_cotangent_middle_cohomology(self):
        assert bott_cohomology(2, gp(1, 0), -2) == BottCohomology(1, 1)

    def test_repeat_kills_everything(self):
        assert bott_cohomology(2, gp(1, 0), -3) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^label has length 2, expected 3$"):
            bott_cohomology(3, gp(1, 0), 0)

    # the length is checked on the memo's miss path: a refusal raises before
    # its key is stored, so it is refused on every call, whatever the memo holds

    def test_a_label_longer_than_n_is_refused(self):
        # without the check, the roots of (1, 0) read at n = 1 answer BottCohomology(-1, 3)
        with pytest.raises(ValueError, match="^label has length 2, expected 1$"):
            bott_cohomology(1, gp(1, 0), 0)

    def test_a_label_shorter_than_n_is_refused(self):
        with pytest.raises(ValueError, match="^label has length 1, expected 2$"):
            bott_cohomology(2, gp(1), 0)

    def test_a_refusal_is_repeated_and_stores_nothing(self):
        assert bott_cohomology(2, gp(1, 0), 0) == BottCohomology(0, 3)
        size = bott._bott.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="^label has length 2, expected 3$"):
                bott_cohomology(3, gp(1, 0), 0)
            assert bott._bott.cache_info().currsize == size

    def test_line_bundle_certification(self):
        for n in range(1, 6):
            o = gp(*([0] * n))
            for d in range(0, 7):
                assert bott_cohomology(n, o, d) == BottCohomology(0, comb(n + d, n))
            assert bott_cohomology(n, o, -n - 1) == BottCohomology(n, 1)
            for d in range(-n, 0):
                assert bott_cohomology(n, o, d) is None

    def test_twist_shift_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -3, 4)
            t, d = rng.randint(-3, 3), rng.randint(-8, 8)
            assert bott_cohomology(n, lam.shift(t), d) == bott_cohomology(n, lam, d + t)


labels = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(-8, 9), min_size=n, max_size=n)
    .map(lambda p: GenPartition(sorted(p, reverse=True))))


class TestRootSequence:
    @settings(max_examples=600)
    @given(labels, st.integers(-25, 24))
    def test_matches_straightening(self, lam, d):
        assert bott_cohomology(lam.n, lam, d) == bott_by_straightening(lam.n, lam.parts, d)

    def test_label_constant_is_computed_once_per_label(self):
        partitions._roots.cache_clear()
        bott._bott.cache_clear()
        render_ascii(homogeneous_table(gp(4, 2, 2, 1, -3)), -20, 19)
        info = partitions._roots.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert info.hits > 0

    @settings(max_examples=300)
    @given(labels)
    @example(gp(-1))
    @example(gp(3, 0, -2))
    @example(gp(*[-2] * 6))
    def test_weyl_product_over_roots_is_the_hook_content_dimension(self, lam):
        assert partitions._roots(lam.parts)[1] == hook_content_dim(lam.parts, lam.n)

    def test_miss_and_hit_are_bott_cohomology(self):
        bott._bott.cache_clear()
        miss = bott_cohomology(3, gp(2, 1, 0), -6)
        hit = bott_cohomology(3, gp(2, 1, 0), -6)
        for value in (miss, hit):
            assert type(value) is BottCohomology
            assert (value.degree, value.dim) == (3, 20)
            assert value._fields == ("degree", "dim")
            assert repr(value) == "BottCohomology(degree=3, dim=20)"
        assert bott._bott.cache_info().hits == 1


def scan_homogeneous_reg(n, lam, k):
    """Independent reg oracle from raw cohomology scans."""
    spread = max(abs(p) for p in lam.parts) + n + 2
    for m in range(spread, -spread - 1, -1):
        for j in range(k + 1, n + 1):
            hit = bott_cohomology(n, lam, m - j)
            if hit is not None and hit.degree == j:
                return m + 1
    return None


class TestHomogeneousReg:
    def test_examples(self):
        assert homogeneous_table(gp(0, 0)).reg(0) == 0
        assert homogeneous_table(gp(1, 0)).reg(1) == -1
        t = homogeneous_table(gp(7, 5, 2, 2, 0, 0))
        assert [t.reg(k) for k in range(6)] == [0, 0, -2, -2, -5, -7]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            homogeneous_table(gp(1, 0)).reg(-1)
        assert homogeneous_table(gp(1, 0)).reg(2) == NEG_INFINITY  # vacuous for k >= n

    def test_matches_scan_oracle(self):
        rng = random.Random(12)
        for _ in range(80):
            n = rng.randint(1, 5)
            lam = random_partition(rng, n, -4, 6)
            k = rng.randint(0, n - 1)
            assert scan_homogeneous_reg(n, lam, k) == homogeneous_table(lam).reg(k)


class TestSingleRow:
    def test_at_most_one_degree_nonzero(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 5)
            lam = random_partition(rng, n, -4, 6)
            for d in range(-12, 12):
                hit = bott_cohomology(n, lam, d)
                if hit is not None:
                    assert 0 <= hit.degree <= n and hit.dim >= 1


class TestChiPolynomial:
    def test_structure_sheaf_p2(self):
        chi = chi_polynomial(2, gp(0, 0))
        assert chi == RatPoly([1, Fraction(3, 2), Fraction(1, 2)])

    def test_matches_alternating_sum(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -3, 5)
            chi = chi_polynomial(n, lam)
            assert chi.degree == n
            for d in range(-10, 11):
                hit = bott_cohomology(n, lam, d)
                expected = 0 if hit is None else (-1) ** hit.degree * hit.dim
                assert chi(d) == expected

    def test_cotangent_value(self):
        assert chi_polynomial(2, gp(1, 0))(-2) == -1

    def test_root_structure(self):
        # O on P3: chi(d) = (d + 1)(d + 2)(d + 3) / 6
        assert chi_polynomial(3, gp(0, 0, 0)) == _from_roots([-3, -2, -1], Fraction(1, 6))
        rng = random.Random(15)
        for _ in range(40):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -3, 5)
            chi = chi_polynomial(n, lam)
            assert chi.degree == n
            assert all(chi(-(lam.part(k - 1) + k)) == 0 for k in range(1, n + 1))

