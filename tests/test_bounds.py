import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from river_banks import bounds, golden
from river_banks.bounds import (
    check_sharpness,
    check_tensor_bounds,
    lr_witness,
    tensor_homogeneous,
    unobstructed_criterion,
)
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition, lr_expand, schur_dim
from river_banks.tables import (
    BottSumTable,
    LiteralTable,
    homogeneous_table,
    regularity_profile,
    structure_sheaf_table,
)

from corpus import random_bott_sum, random_partition, sharpness_by_product


def gp(*parts):
    return GenPartition(parts)


class TestTensorHomogeneous:
    def test_pieri_square(self):
        t = tensor_homogeneous(homogeneous_table(gp(1, 0)), homogeneous_table(gp(1, 0)))
        assert dict((lam, m) for m, lam in t.terms) == {gp(2, 0): 1, gp(1, 1): 1}

    def test_unit(self):
        g = BottSumTable(3, [(2, gp(2, 1, 0)), (1, gp(0, 0, 0))])
        t = tensor_homogeneous(structure_sheaf_table(3), g)
        assert t.terms == g.terms

    def test_terms_of_two_pairs_reaching_one_label_add_up(self):
        # S[2,0] x S[1,0] = S[3,0] + S[2,1] and S[1,1] x S[1,0] = S[2,1]
        f = BottSumTable(2, [(2, gp(2, 0)), (3, gp(1, 1))])
        t = tensor_homogeneous(f, homogeneous_table(gp(1, 0)))
        assert t.terms == ((5, gp(2, 1)), (2, gp(3, 0)))

    def test_adjoint_square_dimensions(self):
        t = tensor_homogeneous(
            homogeneous_table(gp(2, 1, 0)), homogeneous_table(gp(2, 1, 0)))
        assert dict((lam, m) for m, lam in t.terms) == lr_expand(gp(2, 1, 0), gp(2, 1, 0))
        total = sum(m * schur_dim(lam) for m, lam in t.terms)
        assert total == 64

    def test_rejects_kunneth(self):
        with pytest.raises(TypeError):
            tensor_homogeneous(KunnethTable((1, 0)), structure_sheaf_table(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_homogeneous(structure_sheaf_table(2), structure_sheaf_table(3))

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-3, 6), min_size=n, max_size=n)] * 2)))
    def test_the_expansions_unchecked_labels_pass_the_label_checks(self, pair):
        # lr_expand's terms are built without GenPartition's checks; reading
        # each again through them changes neither a label nor the product table
        lam, mu = (GenPartition(sorted(p, reverse=True)) for p in pair)
        # a smaller factor past 5000 weights only makes the example slow
        assume(min(schur_dim(lam), schur_dim(mu)) <= 5000)
        got = lr_expand(lam, mu)
        assert all(nu == GenPartition(nu.parts) and nu.n == lam.n for nu in got)
        checked = BottSumTable(lam.n, [(c, GenPartition(list(nu.parts))) for nu, c in got.items()])
        product = tensor_homogeneous(homogeneous_table(lam), homogeneous_table(mu))
        assert product.terms == checked.terms

    def test_size_counts_the_smaller_factor_of_each_pair(self, monkeypatch):
        # dims 2 and 3 against 4: the pairs expand min(2, 4) + min(3, 4) = 5 weights
        f = BottSumTable(2, [(1, gp(1, 0)), (7, gp(2, 0))])
        g = homogeneous_table(gp(3, 0))
        monkeypatch.setattr(bounds, "MAX_TENSOR_DIM", 5)
        assert tensor_homogeneous(f, g).terms == tensor_homogeneous(g, f).terms
        monkeypatch.setattr(bounds, "MAX_TENSOR_DIM", 4)

        def expand(lam, mu):
            raise AssertionError("expanded past the limit")

        monkeypatch.setattr(bounds, "lr_expand", expand)
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ValueError, match="dimension 5, past the limit of 4"):
                tensor_homogeneous(a, b)


class TestCheckTensorBounds:
    def test_printed_product_example(self):
        f = KunnethTable((4, 1, -1))
        g = KunnethTable((3, -1, -2))
        fg = golden.load("fg")
        reg_rep, coreg_rep = check_tensor_bounds(f, g, fg)
        assert reg_rep.all_satisfied and reg_rep.all_equal
        assert coreg_rep.all_satisfied and coreg_rep.all_equal
        assert [e.actual for e in reg_rep.entries] == [3, 2, 0]
        assert [e.actual for e in coreg_rep.entries] == [-4, -1, 1]
        assert not reg_rep.window_limited and not coreg_rep.window_limited

    def test_structure_sheaves(self):
        o = structure_sheaf_table(2)
        reg_rep, coreg_rep = check_tensor_bounds(o, o, o)
        assert all(e.bound == 0 and e.actual == 0 for e in reg_rep.entries)
        assert reg_rep.all_equal and coreg_rep.all_equal

    def test_pieri_square_bounds(self):
        f = homogeneous_table(gp(1, 0))
        fg = tensor_homogeneous(f, f)
        reg_rep, coreg_rep = check_tensor_bounds(f, f, fg)
        assert [e.actual for e in reg_rep.entries] == [0, -1]
        assert reg_rep.all_equal
        assert coreg_rep.all_satisfied

    def test_soundness_on_random_sums(self):
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 4)
            f = random_bott_sum(rng, n=n, lo=0, hi=4)
            g = random_bott_sum(rng, n=n, lo=0, hi=4)
            fg = tensor_homogeneous(f, g)
            reg_rep, coreg_rep = check_tensor_bounds(f, g, fg)
            assert reg_rep.all_satisfied
            assert coreg_rep.all_satisfied

    def test_duality_swaps_reports(self):
        rng = random.Random(42)
        for _ in range(15):
            n = rng.randint(1, 3)
            f = random_bott_sum(rng, n=n, lo=0, hi=3)
            g = random_bott_sum(rng, n=n, lo=0, hi=3)
            fg = tensor_homogeneous(f, g)
            fg_dual = tensor_homogeneous(
                _dual_sum(f), _dual_sum(g))
            reg_rep, coreg_rep = check_tensor_bounds(f, g, fg)
            dreg_rep, _ = check_tensor_bounds(_dual_sum(f), _dual_sum(g), fg_dual)
            for e, ed in zip(coreg_rep.entries, dreg_rep.entries):
                assert e.actual == -ed.actual - 1
                assert e.bound == -ed.bound - 1
                assert e.equality == ed.equality


def _dual_sum(t):
    dual_terms = [
        (m, GenPartition(sorted((-p for p in lam.parts), reverse=True)))
        for m, lam in t.terms
    ]
    return BottSumTable(t.n, dual_terms)


class TestCheckSharpness:
    def test_pieri_square(self):
        rep = check_sharpness(gp(1, 0), gp(1, 0))
        assert [(e.p, e.actual) for e in rep.entries] == [(0, 0), (1, -1)]
        assert rep.all_equal

    def test_trivial_factor(self):
        rep = check_sharpness(gp(0, 0, 0), gp(3, 1, 0))
        assert rep.all_equal

    def test_random_equality(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 4)
            rep = check_sharpness(
                random_partition(rng, n, 0, 4), random_partition(rng, n, 0, 4))
            assert rep.all_equal


class TestLRWitness:
    def test_examples(self):
        assert lr_witness(gp(1, 0), gp(1, 0), 0) == gp(2, 0)
        assert lr_witness(gp(1, 0), gp(1, 0), 1) == gp(1, 1)

    def test_brute_force_case(self):
        lam, mu, p = gp(3, 1, 0), gp(2, 2, 0), 1
        nu = lr_witness(lam, mu, p)
        bound = max(lam.part(k) + mu.part(p - k) for k in range(p + 1))
        assert nu.part(p) <= bound
        assert nu in lr_expand(lam, mu)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_witness(gp(1, 0), gp(1, 0), 2)

    def test_corpus_never_fails(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, 0, 4)
            mu = random_partition(rng, n, 0, 4)
            for p in range(n):
                nu = lr_witness(lam, mu, p)
                bound = max(lam.part(k) + mu.part(p - k) for k in range(p + 1))
                assert nu.part(p) <= bound

    def test_shifted_operands(self):
        nu = lr_witness(gp(0, -1), gp(1, 0), 1)
        assert nu.part(1) <= max(0 + 0, -1 + 1)


# pairs of labels of one length n <= 5, parts in -2..5
label_pairs = st.integers(1, 5).flatmap(lambda n: st.tuples(*[
    st.lists(st.integers(-2, 5), min_size=n, max_size=n).map(
        lambda p: GenPartition(sorted(p, reverse=True)))] * 2))


class TestPRVWitness:
    """The PRV witnesses and the sharpness report, against the whole expansion."""

    @settings(deadline=None, max_examples=150)
    @given(label_pairs)
    def test_each_witness_is_a_term_attaining_the_least_part(self, pair):
        lam, mu = pair
        terms = lr_expand(lam, mu)
        for p in range(lam.n):
            g = max(lam.part(k) + mu.part(p - k) for k in range(p + 1))
            nu = lr_witness(lam, mu, p)
            assert nu in terms and nu.part(p) == g
            # the Weyl side: no term has a smaller part(p)
            assert min(t.part(p) for t in terms) == g

    @settings(deadline=None, max_examples=100)
    @given(label_pairs)
    def test_check_sharpness_equals_the_report_off_the_product(self, pair):
        assert check_sharpness(*pair) == sharpness_by_product(*pair)


class TestUnobstructedCriterion:
    def test_structure_sheaf(self):
        for n in (2, 3, 4):
            rep = unobstructed_criterion(structure_sheaf_table(n))
            assert rep.holds and rep.margins == (1, 1)

    def test_horrocks_mumford_fails(self):
        rep = unobstructed_criterion(golden.load("hm"))
        assert rep.margins == (6, 6)
        assert not rep.holds and rep.branch == "none"

    def test_phantom_holds_with_margin_three(self):
        rep = unobstructed_criterion(golden.load("phantom"))
        assert rep.holds
        assert rep.margins[1] == 3

    def test_needs_dimension_two(self):
        with pytest.raises(ValueError):
            unobstructed_criterion(structure_sheaf_table(1))

    @staticmethod
    def window(*cells):
        """A window over display columns 0..10 on P2 with a 1 at each (row, column)."""
        rows = [[0] * 11 for _ in range(3)]
        for i, d in cells:
            rows[i][d] = 1
        return LiteralTable(2, 0, 10, rows)

    # reg(0) - coreg(1) = max(last of rows 1, 2) - first of row 0 + 2, and
    # reg(1) - coreg(0) = last of row 2 - min(first of rows 0, 1) + 2
    @pytest.mark.parametrize("cells, margins, branch", [
        (((0, 5), (1, 2), (1, 6), (2, 5)), (3, 5), "reg0-coreg1"),
        (((0, 5), (1, 8), (2, 6)), (5, 3), "reg1-coreg0"),
    ])
    def test_one_margin_of_three_holds_on_its_branch(self, cells, margins, branch):
        rep = unobstructed_criterion(self.window(*cells))
        assert rep == (True, branch, margins, False)

    def test_coreg1_alone_off_the_window_is_flagged(self):
        # row 0 all zero: coreg(1) is read off the window's edge, and only it
        t = self.window((1, 3), (2, 4))
        assert unobstructed_criterion(t).window_limited
        prof = regularity_profile(t)
        assert prof.reg_window_limited + prof.coreg_window_limited \
            == (False, False, False, True)
