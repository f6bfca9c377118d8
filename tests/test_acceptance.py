"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines; every
expected value is exact and asserted with zero tolerance, and the stated
runtime budgets are enforced with a wall clock.
"""

import random
import time
from math import comb

from river_banks import golden
from river_banks.boij_soderberg import decompose
from river_banks.bott import bott_cohomology
from river_banks.bounds import (
    check_sharpness,
    check_tensor_bounds,
    lr_witness,
    unobstructed_criterion,
)
from river_banks.exterior import TwoForm, kernel_dim
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition, lr_expand, schur_dim
from river_banks.tables import (
    BottSumTable,
    homogeneous_table,
    regularity_profile,
    structure_sheaf_table,
)

from corpus import (
    coreg_condition_holds,
    random_generator_table,
    random_partition,
    reg_condition_holds,
    scan_coreg,
    scan_reg,
)


def _report(number, label, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_kunneth_reproduction():
    started = time.perf_counter()
    for degrees, name in (((4, 1, -1), "f"), ((3, -1, -2), "g")):
        gen = KunnethTable(degrees)
        lit = golden.load(name)
        for i in range(4):
            for c in range(-4, 4):
                assert gen.entry(i, c - i) == lit.entry(i, c - i)
    f = KunnethTable((4, 1, -1))
    assert [f.entry(3, -7), f.entry(3, -6)] == [70, 24]
    assert [f.entry(2, -4), f.entry(2, -3)] == [8, 6]
    assert f.entry(1, -1) == 4
    assert [f.entry(0, 1), f.entry(0, 2), f.entry(0, 3)] == [18, 56, 120]
    _report(1, "pushforward tables match the stored windows", started, budget=1.0)


def test_criterion_02_index_extraction():
    started = time.perf_counter()
    hm = golden.load("hm")
    assert hm.reg(1) == 1 and hm.coreg(0) == -5
    for table in (KunnethTable((4, 1, -1)), golden.load("f")):
        prof = regularity_profile(table)
        assert prof.reg == (1, 0, -2) and prof.coreg[:2] == (-3, -1)
    for table in (KunnethTable((3, -1, -2)), golden.load("g")):
        prof = regularity_profile(table)
        assert prof.reg == (2, 2, -1) and prof.coreg[:2] == (-2, 1)
    _report(2, "index profiles of the stored tables", started)


def test_criterion_03_tensor_bounds_with_equality():
    started = time.perf_counter()
    reg_rep, coreg_rep = check_tensor_bounds(
        KunnethTable((4, 1, -1)),
        KunnethTable((3, -1, -2)),
        golden.load("fg"),
    )
    assert reg_rep.all_satisfied and coreg_rep.all_satisfied
    assert reg_rep.all_equal and coreg_rep.all_equal
    assert [e.actual for e in reg_rep.entries] == [3, 2, 0]
    assert [e.actual for e in coreg_rep.entries][:2] == [-4, -1]
    assert not reg_rep.window_limited and not coreg_rep.window_limited
    _report(3, "printed product satisfies every bound with equality", started)


def test_criterion_04_bott_certification():
    started = time.perf_counter()
    for n in range(1, 6):
        o = GenPartition((0,) * n)
        for d in range(0, 8):
            assert bott_cohomology(n, o, d) == (0, comb(n + d, n))
        assert bott_cohomology(n, o, -n - 1) == (n, 1)
    assert bott_cohomology(2, GenPartition((1, 0)), -2) == (1, 1)
    rng = random.Random(1729)
    for _ in range(500):
        n = rng.randint(1, 5)
        lam = random_partition(rng, n, 0, 6)
        k = rng.randint(0, n - 1)
        table = homogeneous_table(lam)
        assert scan_reg(table, k) == -lam.part(k) == table.reg(k)
    _report(4, "dotted-weight convention certified on 500 random labels",
            started, budget=10.0)


def test_criterion_05_sharpness():
    started = time.perf_counter()
    rng = random.Random(1730)
    pairs = []
    for _ in range(100):
        n = rng.randint(1, 4)
        pairs.append((random_partition(rng, n, 0, 4), random_partition(rng, n, 0, 4)))
    for lam, mu in pairs:
        report = check_sharpness(lam, mu)
        assert report.all_satisfied and report.all_equal
    _report(5, "tensor products of 100 random pairs meet the bound exactly",
            started, budget=60.0)


def test_criterion_06_witness_on_same_corpus():
    started = time.perf_counter()
    rng = random.Random(1730)
    for _ in range(100):
        n = rng.randint(1, 4)
        lam = random_partition(rng, n, 0, 4)
        mu = random_partition(rng, n, 0, 4)
        for p in range(n):
            nu = lr_witness(lam, mu, p)
            bound = max(lam.part(k) + mu.part(p - k) for k in range(p + 1))
            assert nu.part(p) <= bound
            assert nu in lr_expand(lam, mu)
    _report(6, "a witness term exists at every index on the corpus", started)


def test_criterion_07_dimension_bookkeeping():
    started = time.perf_counter()
    rng = random.Random(1731)
    for _ in range(200):
        n = rng.randint(1, 4)
        lam = random_partition(rng, n, 0, 4)
        mu = random_partition(rng, n, 0, 4)
        lhs = schur_dim(lam) * schur_dim(mu)
        rhs = sum(c * schur_dim(nu) for nu, c in lr_expand(lam, mu).items())
        assert lhs == rhs
    _report(7, "dimension identity on 200 random pairs", started)


def test_criterion_08_decomposition_round_trip():
    started = time.perf_counter()
    rng = random.Random(1732)
    for _ in range(100):
        n = rng.randint(1, 4)
        length = rng.randint(1, 4)
        lam = GenPartition(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
        chain = [lam]
        while len(chain) < length:
            bump = sorted((rng.randint(0, 1) for _ in range(n)), reverse=True)
            if not any(bump):
                bump[0] = 1
            lam = GenPartition(p + b for p, b in zip(lam.parts, bump))
            chain.append(lam)
        coeffs = [rng.randint(1, 5) for _ in chain]
        table = BottSumTable(n, list(zip(coeffs, chain)))
        dec = decompose(table)
        assert dec.residual_zero and dec.chain_certified
        assert dec.terms == tuple(zip(coeffs, chain))
    _report(8, "100 honest chain sums recovered exactly", started, budget=60.0)


def test_criterion_09_unobstructedness_margins():
    started = time.perf_counter()
    for n in (2, 3, 4):
        rep = unobstructed_criterion(structure_sheaf_table(n))
        assert rep.holds and rep.margins[1] == 1
    rep = unobstructed_criterion(golden.load("hm"))
    assert not rep.holds and rep.margins == (6, 6)
    rep = unobstructed_criterion(golden.load("phantom"))
    assert rep.holds and rep.margins[1] == 3
    phantom = golden.load("phantom")
    assert phantom.reg(1) == 2
    _report(9, "margin criterion on the three reference cases", started)


def test_criterion_10_wedge_kernel():
    started = time.perf_counter()
    e12 = TwoForm.from_pairs([((1, 2), 1)])
    assert kernel_dim(e12, e12) == 7
    rng = random.Random(1733)
    for _ in range(200):
        assert kernel_dim(TwoForm.random(rng), TwoForm.random(rng)) >= 1
    _report(10, "kernel nonzero for 200 seeded pairs and the analytic case",
            started, budget=10.0)


def test_criterion_11_duality_and_persistence():
    started = time.perf_counter()
    rng = random.Random(1734)
    for _ in range(200):
        t = random_generator_table(rng)
        d = t.dual()
        pad = 2 * t.n + 4
        for k in range(t.n):
            assert t.coreg(k) == -d.reg(k) - 1
            assert t.reg(k) == scan_reg(t, k)
            assert t.coreg(k) == scan_coreg(t, k)
            m = t.reg(k)
            assert all(reg_condition_holds(t, k, m + s) for s in range(pad + 1))
            assert not reg_condition_holds(t, k, m - 1)
            m = t.coreg(k)
            assert all(coreg_condition_holds(t, k, m - s) for s in range(pad + 1))
            assert not coreg_condition_holds(t, k, m + 1)
    _report(11, "duality identity and persistence on 200 generator tables", started)
