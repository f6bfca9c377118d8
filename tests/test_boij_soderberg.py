import random
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from river_banks import boij_soderberg, tables
from river_banks.boij_soderberg import (
    MAX_TERMS,
    NotDecomposableWithinScope,
    NotZeroRegularError,
    _greedy,
    _window,
    decompose,
)
from river_banks.bounds import tensor_homogeneous
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition, leq
from river_banks.tables import (
    BottSumTable,
    CohomologyTable,
    LiteralTable,
    SumTable,
    UndecidableError,
    _cells,
    homogeneous_table,
    parse_ascii,
    structure_sheaf_table,
)

from corpus import decompose_by_fractions, decomposition_outcome


def gp(*parts):
    return GenPartition(parts)


def on_the_grid(t):
    """``decompose``'s refusals, then its grid greedy ``_greedy`` for every table."""
    window = _window(t)
    return decompose(t) if window is None else _greedy(t, *window)


def random_chain_sum(rng, n=None, max_terms=4):
    """Honest integer sum of chain-ordered homogeneous tables."""
    n = n or rng.randint(1, 4)
    length = rng.randint(1, max_terms)
    lam = GenPartition(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
    chain = [lam]
    while len(chain) < length:
        bump = sorted((rng.randint(0, 1) for _ in range(n)), reverse=True)
        if not any(bump):
            bump[0] = 1
        lam = GenPartition(p + b for p, b in zip(lam.parts, bump))
        chain.append(lam)
    coeffs = [rng.randint(1, 5) for _ in chain]
    return list(zip(coeffs, chain)), BottSumTable(n, list(zip(coeffs, chain)))


@st.composite
def planted_chains(draw):
    """A zero-regular sum of homogeneous tables along a strictly increasing chain."""
    n = draw(st.integers(1, 4))
    lam = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), reverse=True)
    chain = [lam]
    for _ in range(draw(st.integers(0, 3))):
        bump = sorted(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), reverse=True)
        bump[0] = 1
        chain.append([p + b for p, b in zip(chain[-1], bump)])
    return BottSumTable(n, [(draw(st.integers(1, 5)), lam) for lam in chain])


#: multiplicities for planted sums: integers and the rationals 1/2, 2/3, 5/7
MULTIPLICITIES = (1, 2, 3, 5, Fraction(1, 2), Fraction(2, 3), Fraction(5, 7))


@st.composite
def decomposition_inputs(draw):
    """A table on P^1..P^5 for the greedy: a planted chain, a non-chain sum, a
    pushforward or a window.

    Planted chains and non-chain sums carry rational multiplicities; a
    non-chain sum has labels in any order, some with a negative part, so it
    may stop being zero-regular or need a finer chain; an incomparable sum,
    of two or three labels with parts 0..3, is zero-regular and mostly off
    a chain, so the grid greedy runs on it.  A planted chain is a sum of
    labels or a ``SumTable`` of one-label tables.  A pushforward with
    distinct entries is one label's piece; one with a repeated entry is not,
    and one summed with the label of its own roots makes two pieces with
    equal roots.  A literal window is
    cut from an integral chain over columns that cover the decomposition's
    window (wide) or leave it (narrow); a perturbed window changes a few
    nonzero cells of a wide window, so that the greedy often fails part way.
    A random window on P^1..P^4, 1 to 7 columns of cells from 0, 0, 0, 1, 2,
    has a window-limited positive reg(0) about half the time, certified by a
    cell above row 0 or by none.
    """
    n = draw(st.integers(1, 5))
    mult = st.sampled_from(MULTIPLICITIES)
    kind = draw(st.sampled_from(("chain", "sum-chain", "non-chain", "incomparable",
                                 "pushforward", "repeated", "merge", "narrow", "wide",
                                 "perturbed", "random")))
    if kind in ("pushforward", "merge"):
        a = draw(st.lists(st.integers(-1, n + 3), min_size=n, max_size=n, unique=True))
        if kind == "pushforward":
            return KunnethTable(a)
        roots = sorted(-aj - 1 for aj in a)
        lam = GenPartition(i - n - r for i, r in enumerate(roots))
        return SumTable([(draw(mult), KunnethTable(a)), (draw(mult), homogeneous_table(lam))])
    if kind == "repeated":
        n = max(n, 2)
        a = draw(st.lists(st.integers(-1, 3), min_size=n - 1, max_size=n - 1))
        return KunnethTable(a + [draw(st.sampled_from(a))])
    if kind == "random":
        n, width, lo = draw(st.integers(1, 4)), draw(st.integers(1, 7)), draw(st.integers(-4, 4))
        row = st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=width, max_size=width)
        return LiteralTable(n, lo, lo + width - 1,
                            draw(st.lists(row, min_size=n + 1, max_size=n + 1)))
    if kind in ("non-chain", "incomparable"):
        least, size, n = (-1, 1, n) if kind == "non-chain" else (0, 2, max(n, 2))
        label = st.lists(st.integers(least, 3), min_size=n, max_size=n).map(
            lambda p: sorted(p, reverse=True))
        return BottSumTable(n, draw(st.lists(st.tuples(mult, label), min_size=size,
                                             max_size=3)))
    lam = sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), reverse=True)
    chain = [lam]
    for _ in range(draw(st.integers(0, 3))):
        bump = sorted(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), reverse=True)
        bump[0] = 1
        chain.append([p + b for p, b in zip(chain[-1], bump)])
    if kind == "chain":
        return BottSumTable(n, [(draw(mult), lam) for lam in chain])
    if kind == "sum-chain":
        return SumTable([(draw(mult), homogeneous_table(GenPartition(lam))) for lam in chain])
    t = BottSumTable(n, [(draw(st.integers(1, 5)), lam) for lam in chain])
    # the decomposition's window reaches this far on either side
    reach = chain[-1][0] + n + 2
    if kind == "narrow":
        lo, hi = draw(st.integers(-reach, 0)), draw(st.integers(0, reach))
    else:
        lo, hi = draw(st.integers(-reach - 3, -reach)), draw(st.integers(reach, reach + 3))
    rows = _cells(t, lo, hi)
    if kind == "perturbed":
        support = [(i, x) for i, row in enumerate(rows) for x, v in enumerate(row) if v]
        for i, x in draw(st.lists(st.sampled_from(support), min_size=1, max_size=3)):
            rows[i][x] = max(rows[i][x] + draw(st.sampled_from((-2, -1, 1, 2))), 0)
    return LiteralTable(n, lo, hi, rows)


class TestDecompose:
    def test_single_table(self):
        dec = decompose(homogeneous_table(gp(2, 1, 0)))
        assert dec.terms == ((1, gp(2, 1, 0)),)
        assert dec.residual_zero and dec.chain_certified

    @pytest.mark.parametrize("t", [LiteralTable(0, 0, 0, [[3]]), BottSumTable(0, [])])
    def test_p0_is_refused(self, t):
        with pytest.raises(ValueError, match="ambient dimension at least 1"):
            decompose(t)

    def test_window_without_cells_above_row_0_is_undecidable(self):
        # reg(0) reads 3, the window's first column, with nothing to certify it
        with pytest.raises(UndecidableError, match="no visible cell certifies"):
            decompose(parse_ascii("1: . .\n0: 1 1\n   3 4\n"))

    def test_window_cell_certifies_positive_reg(self):
        # the cell in row 1 of column 4 makes reg(0) at least 5
        with pytest.raises(NotZeroRegularError, match="is 5 > 0"):
            decompose(parse_ascii("1: . 1\n0: 1 1\n   3 4\n"))

    def test_two_term_chain(self):
        t = BottSumTable(2, [(1, gp(0, 0)), (1, gp(1, 0))])
        dec = decompose(t)
        assert dec.terms == ((1, gp(0, 0)), (1, gp(1, 0)))

    def test_non_chain_sum_regression_baseline(self):
        # the two expansion terms are incomparable; the greedy resolves the
        # table through a finer chain whose recomposition is exact
        prod = tensor_homogeneous(
            homogeneous_table(gp(1, 0)), homogeneous_table(gp(1, 0)))
        dec = decompose(prod)
        assert dec.terms == (
            (Fraction(1, 3), gp(1, 0)),
            (Fraction(8, 9), gp(2, 0)),
            (Fraction(1, 3), gp(2, 1)),
        )
        r = BottSumTable(2, dec.terms)
        for i in range(3):
            for d in range(-10, 10):
                assert r.entry(i, d) == prod.entry(i, d)

    def test_rejects_positive_regularity(self):
        with pytest.raises(NotZeroRegularError):
            decompose(structure_sheaf_table(2, -1))

    def test_literal_with_sufficient_window(self):
        from river_banks.tables import parse_ascii, render_ascii

        t = BottSumTable(2, [(2, gp(0, 0)), (3, gp(1, 0))])
        lit = parse_ascii(render_ascii(t, -6, 6))
        dec = decompose(lit)
        assert dec.terms == ((2, gp(0, 0)), (3, gp(1, 0)))

    def test_literal_with_insufficient_window(self):
        from river_banks.tables import WindowExceededError, parse_ascii, render_ascii

        t = BottSumTable(2, [(2, gp(0, 0)), (3, gp(1, 0))])
        lit = parse_ascii(render_ascii(t, -3, 3))
        with pytest.raises(WindowExceededError):
            decompose(lit)

    @pytest.mark.parametrize("k", [MAX_TERMS - 1, MAX_TERMS, MAX_TERMS + 1])
    def test_at_most_max_terms_on_both_paths(self, k):
        # the labels (0), (1), ... on P^1 form a chain of k terms
        t = BottSumTable(1, [(1, (j,)) for j in range(k)])
        for run in (decompose, on_the_grid):
            if k <= MAX_TERMS:
                assert run(t).terms == tuple((1, gp(j)) for j in range(k))
            else:
                with pytest.raises(NotDecomposableWithinScope,
                                   match=f"residual nonzero after {MAX_TERMS} terms") as exc:
                    run(t)
                assert len(exc.value.partial.terms) == MAX_TERMS

    def test_pushforward_with_the_label_of_its_roots(self):
        # the pushforward of O(3, 0) has the roots -4, -1 of S[2,0], whose
        # piece has the constant schur_dim / 2! = 3/2 against the pushforward's 1
        t = SumTable([(1, KunnethTable((3, 0))), (1, homogeneous_table(gp(2, 0)))])
        assert decompose(t).terms == ((Fraction(5, 3), gp(2, 0)),)

    def test_zero_table(self):
        dec = decompose(BottSumTable(2, []))
        assert dec.terms == () and dec.residual_zero

    def test_json_serialization(self):
        t = BottSumTable(2, [(1, gp(0, 0)), (2, gp(1, 0))])
        dec = decompose(t)
        assert dec.to_json() == [
            {"coeff": "1", "lambda": "0,0"},
            {"coeff": "2", "lambda": "1,0"},
        ]


class TestRoundTrip:
    def test_honest_sums_recovered_exactly(self):
        rng = random.Random(51)
        for _ in range(40):
            built, t = random_chain_sum(rng)
            dec = decompose(t)
            assert dec.residual_zero and dec.chain_certified
            merged = {}
            for c, lam in built:
                merged[lam] = merged.get(lam, 0) + c
            assert {lam: c for c, lam in dec.terms} == merged
            labels = [lam for _, lam in dec.terms]
            assert all(leq(a, b) for a, b in zip(labels, labels[1:]))

    def test_positivity(self):
        rng = random.Random(52)
        for _ in range(20):
            _, t = random_chain_sum(rng)
            assert all(c > 0 for c, _ in decompose(t).terms)

    def test_scaling_homogeneity(self):
        rng = random.Random(53)
        for _ in range(15):
            built, t = random_chain_sum(rng)
            doubled = BottSumTable(t.n, [(2 * c, lam) for c, lam in built])
            dec = decompose(t)
            dec2 = decompose(doubled)
            assert [lam for _, lam in dec.terms] == [lam for _, lam in dec2.terms]
            assert [2 * c for c, _ in dec.terms] == [c for c, _ in dec2.terms]

    @given(planted_chains())
    def test_recompose_gives_back_the_planted_terms(self, t):
        assert BottSumTable(t.n, decompose(t).terms).terms == t.terms

    @given(decomposition_inputs())
    @settings(deadline=None, max_examples=300)
    # a non-chain sum the greedy resolves through a finer chain
    @example(BottSumTable(2, [(Fraction(1, 2), (2, 0)), (Fraction(2, 3), (1, 1))]))
    # a window with no cell to certify its positive reg(0)
    @example(parse_ascii("1: . .\n0: 1 1\n   3 4\n"))
    # a window that leaves the decomposition's window on the right
    @example(LiteralTable(2, -6, 3, _cells(BottSumTable(2, [(2, (0, 0)), (3, (1, 0))]),
                                           -6, 3)))
    def test_the_integer_residual_matches_the_fraction_oracle(self, t):
        assert decomposition_outcome(on_the_grid, t) == decomposition_outcome(
            decompose_by_fractions, t)

    @given(decomposition_inputs())
    @settings(deadline=None, max_examples=300)
    # two pieces with equal roots, merged
    @example(SumTable([(1, KunnethTable((3, 0))), (1, homogeneous_table(gp(2, 0)))]))
    # labels off a chain, resolved by the grid through a finer chain
    @example(BottSumTable(2, [(Fraction(1, 2), (2, 0)), (Fraction(2, 3), (1, 1))]))
    # a pushforward with a repeated root
    @example(KunnethTable((2, 2, 0)))
    def test_the_pieces_give_the_grid_greedy_s_answer(self, t):
        assert decomposition_outcome(decompose, t) == decomposition_outcome(on_the_grid, t)

    @given(planted_chains())
    def test_a_planted_chain_reads_no_cell(self, t):
        def no_cells(*args):
            raise AssertionError("a cell was read")

        t2 = SumTable([(Fraction(1, 2), t), (1, KunnethTable(range(t.n)))])
        with mock.patch.object(boij_soderberg, "_cells", no_cells), \
                mock.patch.object(tables, "_cells", no_cells), \
                mock.patch.object(CohomologyTable, "_row", no_cells), \
                mock.patch.object(BottSumTable, "_row", no_cells):
            dec, dec2 = decompose(t), decompose(t2)
        assert dec.terms == t.terms
        # the pushforward of O(0, 1, ..., n - 1) is n! copies of O
        assert BottSumTable(t.n, dec2.terms).terms == BottSumTable(
            t.n, [(Fraction(c) / 2, lam) for c, lam in t.terms] + [(factorial(t.n), (0,) * t.n)]).terms

    def test_recompose_empty(self):
        t = BottSumTable(3, decompose(BottSumTable(3, [])).terms)
        assert all(t.entry(i, d) == 0 for i in range(4) for d in range(-6, 6))
