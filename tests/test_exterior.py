import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from river_banks.cli import main
from river_banks.exterior import (
    BASIS2,
    TwoForm,
    kernel_dim,
    rank,
    wedge_matrix,
)
from river_banks.kunneth import KunnethTable
from river_banks.ratpoly import RatPoly, _coeff, _int
from river_banks.tables import BottSumTable, SumTable

from corpus import wedge_matrix_by_sorting

PRIMES = (10**9 + 7, 10**9 + 9, 10**9 + 21, 10**9 + 33)

small_ints = st.integers(-9, 9)
coefficients = small_ints | st.fractions(-20, 20, max_denominator=12)
nonzero_scalars = (st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=7)).filter(bool)
base_forms = st.one_of(
    st.randoms(use_true_random=False).map(TwoForm.random),
    st.lists(small_ints, min_size=10, max_size=10).map(TwoForm),
    st.lists(coefficients, min_size=10, max_size=10).map(TwoForm),
    st.lists(st.tuples(st.sampled_from(BASIS2), coefficients), max_size=3).map(TwoForm.from_pairs),
    st.just(TwoForm([0] * 10)),
)


def scaled(s, eta):
    return TwoForm(s * c for c in eta.coeffs)


# integer, rational, sparse and zero forms, and nonzero multiples of them
two_forms = base_forms | st.tuples(nonzero_scalars, base_forms).map(lambda p: scaled(*p))


class TestTwoForm:
    def test_from_pairs(self):
        eta = TwoForm.from_pairs([((1, 2), "1"), ((3, 4), "1/2")])
        assert eta.coeffs == (1, 0, 0, 0, 0, 0, 0, Fraction(1, 2), 0, 0)
        assert repr(eta) == "TwoForm(1*e12 + 1/2*e34)"

    def test_bad_index(self):
        with pytest.raises(ValueError):
            TwoForm.from_pairs([((2, 2), 1)])
        with pytest.raises(ValueError):
            TwoForm.from_pairs([((0, 3), 1)])

    def test_repeated_monomials_add_up(self):
        eta = TwoForm.from_pairs([((1, 2), 1), ((3, 4), 1), ((1, 2), 1), ((3, 4), "1")])
        assert eta == TwoForm.from_pairs([((1, 2), 2), ((3, 4), 2)])

    def test_coefficients_follow_the_exact_number_rule(self):
        big = 10**30
        eta = TwoForm([big, Fraction(6, 3), Fraction(1, 2), "3/4", "-2", Decimal("2.5"),
                       Decimal(3), 0, 0, 0])
        assert eta.coeffs[:7] == (big, 2, Fraction(1, 2), Fraction(3, 4), -2, Fraction(5, 2), 3)
        assert eta.coeffs[0] is big
        assert [type(c) for c in eta.coeffs[:7]] == [int, int, Fraction, Fraction, int,
                                                      Fraction, int]
        assert type(scaled(2, eta).coeffs[2]) is int

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    def test_a_float_or_bool_coefficient_is_refused(self, bad):
        with pytest.raises(TypeError, match="exact number"):
            TwoForm([bad] + [0] * 9)
        with pytest.raises(TypeError, match="exact number"):
            TwoForm.from_pairs([((1, 2), bad)])


def spelled_by_the_rule(s):
    """What the coefficient rule makes of ``s``, spelled without a regex: "p" or "p/q" in
    ASCII digits after an optional '-' is read (q = 0 divides by zero), other text refused."""
    p, slash, q = s.removeprefix("-").partition("/")
    if not all(x.isascii() and x.isdigit() for x in ((p, q) if slash else (p,))):
        return ValueError
    return ZeroDivisionError if slash and not int(q) else Fraction(s)


def outcome(build, *args):
    """The value ``build`` returns, or the class of its ValueError or ZeroDivisionError."""
    try:
        return build(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def wedge_kernel(eta1):
    """The exit code of ``wedge-kernel --eta1 eta1 --eta2 []``, its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(["wedge-kernel", "--eta1", eta1, "--eta2", "[]"])


#: texts the command line refuses, and Fraction() reads
OFF_RULE = ["1e3", "0.5", "1_0", "\u0663", " 7", "+2"]


class TestCoefficientRule:
    """Coefficient text is read by one rule in the library and on the command line."""

    @given(st.text("0123456789/-+ ._e\u0663\u00b2", max_size=6))
    @example("1e3")
    @example("0.5")
    @example("1_0")
    @example("\u0663")
    @example(" 7")
    @example("+2")
    @example("-1/0")
    def test_the_cli_and_the_library_read_the_same_texts(self, s):
        expected = spelled_by_the_rule(s)
        # wedge-kernel answers a form the library reads (exit 0) and refuses
        # the text it refuses (exit 2); a zero denominator, the known defect,
        # raises in both
        code = {ValueError: 2, ZeroDivisionError: ZeroDivisionError}.get(expected, 0)
        if isinstance(expected, Fraction):
            expected = TwoForm.from_pairs([((1, 2), expected)])
        assert outcome(TwoForm.from_pairs, [((1, 2), s)]) == expected
        assert outcome(wedge_kernel, json.dumps([[[1, 2], s]])) == code

    @pytest.mark.parametrize("read", [_int, _coeff], ids=["integer", "coefficient"])
    def test_refused_text_is_echoed_in_short(self, read):
        with pytest.raises(ValueError, match="ASCII digits") as info:
            read("1e" + "7" * 5000)
        assert len(str(info.value)) < 200

    @pytest.mark.parametrize("s", OFF_RULE + ["7", "-3/4", "007/003"])
    def test_multiplicities_follow_the_rule(self, s):
        expected = spelled_by_the_rule(s)
        for build in (lambda: BottSumTable(1, [(s, (0,))]),
                      lambda: SumTable([(s, KunnethTable((0,)))])):
            if expected is ValueError:
                with pytest.raises(ValueError, match="ASCII digits"):
                    build()
            elif expected < 0:
                # read by the rule, then refused: a multiplicity is positive
                with pytest.raises(ValueError, match="(negative|non-positive) multiplicity"):
                    build()
            else:
                assert build().terms[0][0] == expected

    @pytest.mark.parametrize("c", OFF_RULE + [0.1, True, "7", "-3/4", 5, Fraction(6, 4)])
    def test_polynomial_coefficients_follow_the_rule(self, c):
        if isinstance(c, (float, bool)):
            with pytest.raises(TypeError, match="exact number"):
                RatPoly([c])
        elif isinstance(c, str) and spelled_by_the_rule(c) is ValueError:
            with pytest.raises(ValueError, match="ASCII digits"):
                RatPoly([c])
        else:
            (got,) = RatPoly([c]).coeffs
            assert got == Fraction(c) and type(got) is Fraction


class TestWedgeMatrix:
    def test_zero_pair(self):
        zero = TwoForm([0] * 10)
        m = wedge_matrix(zero, zero)
        assert all(v == 0 for row in m for v in row)
        assert kernel_dim(zero, zero) == 10

    def test_single_monomial_kernel(self):
        e12 = TwoForm.from_pairs([((1, 2), 1)])
        assert kernel_dim(e12, e12) == 7
        m = wedge_matrix(e12, e12)
        killed = {(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)}
        for col, pair in enumerate(BASIS2):
            col_zero = all(m[r][col] == 0 for r in range(10))
            assert col_zero == (pair in killed)

    def test_generic_pair_rank(self):
        eta1 = TwoForm.from_pairs([((1, 2), 1), ((3, 4), 1)])
        eta2 = TwoForm.from_pairs([((1, 3), 1), ((2, 5), 1)])
        assert rank(wedge_matrix(eta1, eta2)) == 9
        assert kernel_dim(eta1, eta2) == 1


class TestAgainstTheSortingOracle:
    @given(two_forms, two_forms)
    def test_wedge_matrix_matches_entry_for_entry(self, eta1, eta2):
        m = wedge_matrix(eta1, eta2)
        assert m == wedge_matrix_by_sorting(eta1, eta2)
        if all(type(c) is int for c in eta1.coeffs + eta2.coeffs):
            assert all(type(v) is int for row in m for v in row)

    @given(two_forms, two_forms)
    def test_kernel_dim_is_ten_minus_the_oracle_rank(self, eta1, eta2):
        assert kernel_dim(eta1, eta2) == 10 - _gauss_rank(wedge_matrix_by_sorting(eta1, eta2))

    @given(two_forms)
    def test_values_round_trip_through_pairs(self, eta):
        again = TwoForm.from_pairs(list(zip(BASIS2, eta.coeffs)))
        assert again == eta and hash(again) == hash(eta) and repr(again) == repr(eta)
        for c in eta.coeffs:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


class TestKernelDim:
    def test_always_at_least_one(self):
        rng = random.Random(61)
        for _ in range(100):
            assert kernel_dim(TwoForm.random(rng), TwoForm.random(rng)) >= 1

    def test_swap_and_scale_invariance(self):
        rng = random.Random(62)
        for _ in range(25):
            a, b = TwoForm.random(rng), TwoForm.random(rng)
            k = kernel_dim(a, b)
            assert kernel_dim(b, a) == k
            assert kernel_dim(scaled(Fraction(3, 7), a), scaled(-2, b)) == k

    def test_rational_coefficients(self):
        a = TwoForm.from_pairs([((1, 2), "2/3"), ((4, 5), "-7/5"), ((2, 3), "1/9")])
        b = TwoForm.from_pairs([((1, 4), "5"), ((3, 5), "-1/2")])
        assert kernel_dim(a, b) >= 1


def _gauss_rank(m):
    m = [[Fraction(v) for v in row] for row in m]
    r0 = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(r0, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[r0], m[piv] = m[piv], m[r0]
        for r in range(r0 + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[r0][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[r0])]
        r0 += 1
    return r0


def rank_mod_p(matrix, p: int) -> int:
    """Rank of the reduction mod p; raises ValueError if a denominator dies mod p."""
    m = []
    for row in matrix:
        red = []
        for c in row:
            c = Fraction(c)
            if c.denominator % p == 0:
                raise ValueError(f"denominator of {c} vanishes mod {p}")
            red.append(c.numerator * pow(c.denominator, -1, p) % p)
        m.append(red)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank_ = 0
    for col in range(ncols):
        piv = next((r for r in range(rank_, nrows) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        inv = pow(m[rank_][col], -1, p)
        for r in range(rank_ + 1, nrows):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(vr - factor * vp) % p for vr, vp in zip(m[r], m[rank_])]
        rank_ += 1
        if rank_ == nrows:
            break
    return rank_


# each row is all int, all integral Fractions, all Fractions or a mix, so the
# oracle sees both of rank's row copies: the all-int one and the rescaled one
small_entries = st.integers(-5, 5)
small_fractions = st.fractions(-5, 5, max_denominator=4)
ROW_ENTRIES = (small_entries, small_entries.map(Fraction), small_fractions,
               small_entries | small_fractions)


@st.composite
def rank_matrices(draw):
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = [draw(st.lists(draw(st.sampled_from(ROW_ENTRIES)), min_size=cols, max_size=cols))
         for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        m[-1] = [a + 2 * b for a, b in zip(m[i], m[j])]
    if draw(st.booleans()):
        # a zero row and a zero column; multiplying by 0 keeps each entry's type
        k, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        m[k] = [0 * v for v in m[k]]
        for row in m:
            row[c] *= 0
    return m


def typed(m):
    return [[(type(c), c) for c in row] for row in m]


class TestRank:
    # 1 x k and k x 1 shapes, zero or not; then mixed, integral-Fraction and
    # all-int rows, the last ones rewritten by the elimination of a copy
    @given(rank_matrices())
    @example([[0, 0, 0]])
    @example([[Fraction(1, 3)] * 6])
    @example([[3], [Fraction(1, 2)], [0]])
    @example([[0], [0], [0]])
    @example([[Fraction(2), Fraction(4)], [1, 2]])
    @example([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    @example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    @settings(max_examples=300)
    def test_matches_plain_gaussian_oracle(self, m):
        before = typed(m)
        assert rank(m) == _gauss_rank(m)
        assert typed(m) == before


class TestModularCrossCheck:
    def test_rank_matches_mod_p(self):
        rng = random.Random(63)
        for _ in range(40):
            m = wedge_matrix(TwoForm.random(rng), TwoForm.random(rng))
            exact = rank(m)
            for p in PRIMES:
                try:
                    modular = rank_mod_p(m, p)
                except ValueError:
                    continue
                if modular == exact:
                    break
            else:
                pytest.fail("no prime reproduced the exact rank")
