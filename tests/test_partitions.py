import random
from itertools import count, permutations, product

import pytest
from hypothesis import given, strategies as st

from river_banks import partitions
from river_banks.partitions import (
    _MEMO_WEIGHTS,
    MAX_WEYL_BITS,
    GenPartition,
    _lr_classical,
    leq,
    lr_expand,
    schur_dim,
    straighten,
)

from corpus import hook_content_dim, lr_strips, random_partition


def gp(*parts):
    return GenPartition(parts)


class TestGenPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenPartition(())
        with pytest.raises(ValueError):
            GenPartition((1, 2))

    @pytest.mark.parametrize("parts", [(2.7, True), (2.0, 1), (2, False), ("2", 1)])
    def test_a_part_that_is_no_int_is_refused_not_truncated(self, parts):
        with pytest.raises(TypeError):
            GenPartition(parts)

    def test_part_indexing_counts_from_smallest(self):
        lam = gp(7, 5, 2, 2, 0, 0)
        assert [lam.part(k) for k in range(6)] == [0, 0, 2, 2, 5, 7]
        with pytest.raises(IndexError):
            lam.part(6)

    def test_serialization_round_trip(self):
        lam = gp(4, 1, -1)
        assert str(lam) == "4,1,-1"
        assert GenPartition.parse("4,1,-1") == lam

    def test_shift(self):
        assert gp(1, 0).shift(2) == gp(3, 2)


class TestLeq:
    def test_examples(self):
        assert leq(gp(0, 0), gp(1, 0))
        assert not leq(gp(1, 0), gp(0, 0))
        assert leq(gp(2, 1), gp(2, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            leq(gp(1, 0), gp(1, 0, 0))


def gelfand_tsetlin_count(top):
    """Number of Gelfand-Tsetlin patterns with top row ``top``, by enumeration.

    Each next row has one entry fewer and interlaces the row above it:
    top[i] >= row[i] >= top[i + 1].
    """
    if len(top) == 1:
        return 1
    rows = product(*(range(b, a + 1) for a, b in zip(top, top[1:])))
    return sum(gelfand_tsetlin_count(row) for row in rows)


class TestSchurDim:
    def test_examples(self):
        assert schur_dim(gp(0, 0, 0)) == 1
        assert schur_dim(gp(1, 0, 0)) == 3
        assert schur_dim(gp(2, 1, 0)) == 8

    def test_rejects_bad_input(self):
        # the label is checked once, when it is built
        with pytest.raises(ValueError):
            schur_dim(GenPartition((0, 1)))

    @pytest.mark.parametrize("nu", [(2.5, 0), (True, 0), (2, 0.0)])
    def test_a_part_that_is_no_int_is_refused_not_truncated(self, nu):
        with pytest.raises(TypeError):
            schur_dim(GenPartition(nu))

    def test_the_weyl_bound_is_exact_at_its_edge(self):
        # on P^2 the Weyl product is the one factor parts[0] - parts[1] + 1
        edge = 2**MAX_WEYL_BITS - 1
        assert schur_dim(gp(edge - 1, 0)) == edge
        with pytest.raises(ValueError, match=f"past the limit of {MAX_WEYL_BITS} bits"):
            schur_dim(gp(edge, 0))

    def test_against_hook_content_oracle(self):
        rng = random.Random(71)
        for _ in range(100):
            n = rng.randint(1, 5)
            lam = random_partition(rng, n, -3, 5)
            assert schur_dim(lam) == hook_content_dim(lam.parts, n)

    @given(st.lists(st.integers(-3, 5), min_size=1, max_size=4))
    def test_counts_gelfand_tsetlin_patterns(self, parts):
        nu = sorted(parts, reverse=True)
        assert schur_dim(GenPartition(nu)) == gelfand_tsetlin_count(nu)

    def test_shift_invariance(self):
        rng = random.Random(72)
        for _ in range(50):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -3, 4)
            assert schur_dim(lam) == schur_dim(lam.shift(5))


def straighten_by_search(weight):
    """Straightening by searching S_k for the permutation that sorts weight + rho.

    Returns the permutation's inversion count (its sign is the parity) and
    the sorted sequence minus rho, or None when no permutation makes the
    sequence strictly decreasing.
    """
    k = len(weight)
    beta = [w + k - 1 - i for i, w in enumerate(weight)]
    for perm in permutations(range(k)):
        seq = [beta[p] for p in perm]
        if all(a > b for a, b in zip(seq, seq[1:])):
            inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
            return inv, tuple(b - (k - 1 - i) for i, b in enumerate(seq))
    return None


class TestStraighten:
    def test_examples(self):
        assert straighten((0, 1)) is None
        assert straighten((0, 2)) == (1, (1, 1))
        assert straighten((2, 1, 0)) == (0, (2, 1, 0))

    @given(st.lists(st.integers(-4, 6), min_size=1, max_size=5))
    def test_against_permutation_search(self, weight):
        assert straighten(weight) == straighten_by_search(weight)


# the tensor workload's bands of dim(lam) * dim(mu) per n, parts in 0..8
DIM_BANDS = {2: (8, 12), 3: (250, 500), 4: (25_000, 50_000), 5: (5_000_000, 10_000_000)}


def band_pairs(rng, n, size):
    """``size`` pairs of length-n labels whose dimensions multiply into the n band."""
    lo, hi = DIM_BANDS[n]
    out = []
    while len(out) < size:
        lam, mu = random_partition(rng, n, 0, 8), random_partition(rng, n, 0, 8)
        if lo <= schur_dim(lam) * schur_dim(mu) <= hi:
            out.append((lam, mu))
    return out


def memo_weights():
    return sum(map(len, partitions._WEIGHTS.values()))


def cold_expand(lam, mu):
    partitions._WEIGHTS.clear()
    _lr_classical.cache_clear()
    return lr_expand(lam, mu)


def pieri_row_oracle(lam, m):
    """Shapes from adding a horizontal strip of m boxes to lam (single-row mu)."""
    n = lam.n
    out = set()

    def rec(r, remaining, acc):
        if r == n:
            if remaining == 0:
                out.add(GenPartition(acc))
            return
        low = lam.parts[r]
        high = remaining + low if r == 0 else min(acc[r - 1], lam.parts[r - 1])
        for v in range(low, high + 1):
            if v - low <= remaining:
                rec(r + 1, remaining - (v - low), acc + [v])

    rec(0, m, [])
    return out


class TestLRExpand:
    def test_pieri_square(self):
        assert lr_expand(gp(1, 0), gp(1, 0)) == {gp(2, 0): 1, gp(1, 1): 1}

    def test_adjoint_square(self):
        got = lr_expand(gp(2, 1, 0), gp(2, 1, 0))
        assert got == {
            gp(4, 2, 0): 1,
            gp(4, 1, 1): 1,
            gp(3, 3, 0): 1,
            gp(3, 2, 1): 2,
            gp(2, 2, 2): 1,
        }

    def test_unit(self):
        assert lr_expand(gp(1, 0), gp(0, 0)) == {gp(1, 0): 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lr_expand(gp(1, 0), gp(1, 0, 0))

    def test_pieri_rule_oracle(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(2, 4)
            lam = random_partition(rng, n, 0, 4)
            m = rng.randint(0, 4)
            got = lr_expand(lam, GenPartition((m,) + (0,) * (n - 1)))
            assert set(got) == pieri_row_oracle(lam, m)
            assert all(mult == 1 for mult in got.values())

    def test_dimension_bookkeeping(self):
        rng = random.Random(74)
        for _ in range(60):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, 0, 4)
            mu = random_partition(rng, n, 0, 4)
            lhs = schur_dim(lam) * schur_dim(mu)
            rhs = sum(c * schur_dim(nu) for nu, c in lr_expand(lam, mu).items())
            assert lhs == rhs

    def test_shift_equivariance(self):
        rng = random.Random(75)
        for _ in range(40):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -2, 3)
            mu = random_partition(rng, n, -2, 3)
            c = rng.randint(-3, 3)
            shifted = lr_expand(lam.shift(c), mu)
            assert shifted == {nu.shift(c): m for nu, m in lr_expand(lam, mu).items()}

    def test_symmetry(self):
        rng = random.Random(76)
        for _ in range(40):
            n = rng.randint(1, 4)
            lam = random_partition(rng, n, -1, 4)
            mu = random_partition(rng, n, -1, 4)
            assert lr_expand(lam, mu) == lr_expand(mu, lam)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-3, 5), min_size=n, max_size=n)] * 2)))
    def test_against_strip_oracle(self, pair):
        lam, mu = (GenPartition(sorted(p, reverse=True)) for p in pair)
        expected = lr_strips(lam, mu)
        assert lr_expand(lam, mu) == expected
        assert lr_expand(mu, lam) == expected

    def test_row_truncation(self):
        # two-row labels whose product would need four rows over rank 2
        got = lr_expand(gp(1, 1), gp(1, 1))
        assert got == {gp(2, 2): 1}

    def test_against_strip_oracle_in_the_n5_band(self):
        for lam, mu in band_pairs(random.Random(77), 5, 8):
            assert cold_expand(lam, mu) == lr_strips(lam, mu)

    def test_kept_weights_change_no_expansion(self):
        rng = random.Random(78)
        pairs = [p for n in (2, 3, 4, 5) for p in band_pairs(rng, n, 6)]
        cold = [cold_expand(lam, mu) for lam, mu in pairs]
        order = list(range(len(pairs)))
        rng.shuffle(order)
        partitions._WEIGHTS.clear()
        warm = {}
        for i in order:
            _lr_classical.cache_clear()
            warm[i] = lr_expand(*pairs[i])
        assert [warm[i] for i in range(len(pairs))] == cold

    def test_kept_weights_are_bounded(self):
        # the sub-rows (a, b) of (2k, k, 0), k <= a <= 2k and 0 <= b <= k,
        # hold a - b + 1 weights each
        k = next(k for k in count(1) if sum(
            a - b + 1 for a in range(k, 2 * k + 1) for b in range(k + 1)) > _MEMO_WEIGHTS)
        small = gp(2, 1, 0)
        cold_expand(small, small)
        assert 0 < memo_weights() <= _MEMO_WEIGHTS
        big = gp(2 * k, k, 0)
        got = lr_expand(big, big)
        assert memo_weights() <= _MEMO_WEIGHTS
        assert sum(c * schur_dim(nu) for nu, c in got.items()) == schur_dim(big) ** 2
        assert cold_expand(big, big) == got
