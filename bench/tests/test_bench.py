"""Self-tests of the benchmark: deterministic streams, oracles that bite, tracing.

    python3 -m pytest bench/tests -q
"""

import itertools
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import reference
import workloads
from river_banks.boij_soderberg import Decomposition
from river_banks.kunneth import product_line_cohomology
from river_banks.partitions import GenPartition

ROOT = os.path.dirname(workloads.BENCH_DIR)


def prefix(name, seed, count=200):
    return list(itertools.islice(workloads.make(name, ROOT).items(seed), count))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_stream_digest(name):
    first = workloads.stream_digest(prefix(name, 7))
    assert first == workloads.stream_digest(prefix(name, 7))
    assert first != workloads.stream_digest(prefix(name, 8))


@pytest.mark.parametrize("name", ("pushforward", "tensor", "chains"))
def test_streams_never_repeat_an_item(name):
    keys = [workloads.item_key(item) for item in prefix(name, 3, 1000)]
    assert len(set(keys)) == len(keys)


def test_pushforward_closed_form_matches_the_subset_sum():
    rng = random.Random(5)
    for _ in range(300):
        a = [rng.randint(-6, 6) for _ in range(rng.randint(1, 6))]
        d = rng.randint(-12, 12)
        for i in range(len(a) + 1):
            shifted = [x + d for x in a]
            assert reference.pushforward_entry(a, i, d) == product_line_cohomology(shifted, i)


def first_item(wl, pred):
    return next(item for item in wl.items(1) if pred(item))


def bump_one_cell(text):
    """The render with its first nonzero cell increased by one."""
    lines = text.splitlines()
    for r, line in enumerate(lines[:-1]):
        label, *cells = line.split()
        for c, tok in enumerate(cells):
            if tok != ".":
                cells[c] = str(int(tok) + 1)
                lines[r] = " ".join([label, *cells])
                return "\n".join(lines) + "\n"
    raise AssertionError("render has no nonzero cell")


def test_pushforward_oracle_rejects_an_off_by_one_entry():
    wl = workloads.Pushforward()
    for m in (3, 4, 5):
        item = first_item(wl, lambda it: it["m"] == m)
        result = wl.run(item)
        wl.check(item, result)
        result["text"] = bump_one_cell(result["text"])
        with pytest.raises(workloads.Mismatch):
            wl.check(item, result)


def test_pushforward_oracle_rejects_a_wrong_index():
    wl = workloads.Pushforward()
    item = first_item(wl, lambda it: it["m"] == 4)
    result = wl.run(item)
    prof = result["profile"]
    result["profile"] = type(prof)((prof.reg[0] + 1,) + prof.reg[1:], prof.coreg,
                                   prof.reg_window_limited, prof.coreg_window_limited)
    with pytest.raises(workloads.Mismatch):
        wl.check(item, result)


def test_tensor_oracle_rejects_a_dropped_lr_term():
    wl = workloads.Tensor()
    item = first_item(wl, lambda it: it["n"] == 3)
    result = wl.run(item)
    wl.check(item, result)
    result["terms"] = result["terms"][1:]
    with pytest.raises(workloads.Mismatch):
        wl.check(item, result)


def test_tensor_oracle_rejects_a_witness_above_the_bound():
    wl = workloads.Tensor()
    item = {"n": 2, "lam": [1, 0], "mu": [1, 0]}
    result = wl.run(item)
    wl.check(item, result)
    result["witnesses"][0] = (1, 1)  # an expansion term, but 1 > 0 + 0 at p = 0
    with pytest.raises(workloads.Mismatch):
        wl.check(item, result)


def test_chains_oracle_rejects_a_wrong_decomposition_coefficient():
    wl = workloads.Chains()
    item = first_item(wl, lambda it: it["n"] == 3)
    result = wl.run(item)
    wl.check(item, result)
    dec = result["decomposition"]
    (c, lam), *rest = dec.terms
    result["decomposition"] = Decomposition(((c + Fraction(1, 2), lam), *rest),
                                            dec.residual_zero, dec.chain_certified)
    with pytest.raises(workloads.Mismatch):
        wl.check(item, result)


def test_chains_oracle_rejects_an_off_by_one_round_trip():
    from river_banks.tables import LiteralTable

    wl = workloads.Chains()
    item = first_item(wl, lambda it: it["n"] == 2)
    result = wl.run(item)
    lit = result["json"]
    rows = [list(row) for row in lit.rows_by_i]
    rows[0][0] += 1
    result["json"] = LiteralTable(lit.n, lit.lo, lit.hi, rows)
    with pytest.raises(workloads.Mismatch):
        wl.check(item, result)


def test_cli_oracle_rejects_a_wrong_exit_code():
    wl = workloads.Cli(ROOT)
    item = {"case": "check-sharpness"}
    code, out = wl.run(item)
    wl.check(item, (code, out))
    with pytest.raises(workloads.Mismatch):
        wl.check(item, (code + 1, out))
    with pytest.raises(workloads.Mismatch):
        wl.check(item, (code, out + b" "))


def test_cli_known_defect_is_counted_as_failing():
    wl = workloads.Cli(ROOT)
    item = {"case": "wedge-kernel-div0"}
    assert item["case"] in workloads.KNOWN_DEFECTS
    with pytest.raises(workloads.Mismatch):
        wl.check(item, wl.run(item))


def test_every_cli_case_has_a_recording():
    assert set(workloads.Cli(ROOT).expected) == {*workloads.CLI_CASES, *workloads.CLI_WARMUP}


def test_tracer_wraps_every_binding_and_nests_spans():
    import river_banks
    from river_banks import bott, tables
    from river_banks.tables import CohomologyTable, homogeneous_table, render_ascii
    from tracing import Tracer

    original = bott.bott_cohomology
    saved_entry = CohomologyTable.entry
    modules = [m for name, m in sys.modules.items() if name.startswith("river_banks")]
    saved = [(mod, dict(vars(mod))) for mod in modules]
    tracer = Tracer()
    tracer.install()
    try:
        assert tables.bott_cohomology is not original
        assert river_banks.bott_cohomology is tables.bott_cohomology
        tracer.enabled = True
        tracer.op_span("test.op", lambda: tables.render_ascii(
            homogeneous_table(GenPartition((2, 1, 0))), -3, 3))
        tracer.enabled = False
    finally:
        for mod, bindings in saved:
            for attr, value in bindings.items():
                setattr(mod, attr, value)
        CohomologyTable.entry = saved_entry
    assert tables.bott_cohomology is original and render_ascii is tables.render_ascii
    assert tracer.calls["tables.render_ascii"] == 1
    assert tracer.calls["bott.bott_cohomology"] == 7 * 4
    assert tracer.counts["entry.calls"] == 7 * 4
    by_id = {span[0]: span for span in tracer.spans}
    root = next(span for span in tracer.spans if span[3] == "test.op")
    render = next(span for span in tracer.spans if span[3] == "tables.render_ascii")
    assert render[1] == root[0] and all(span[2] == root[2] for span in tracer.spans)
    assert all(by_id[span[1]][3] == "tables.render_ascii"
               for span in tracer.spans if span[3] == "bott.bott_cohomology")
    assert 0 <= tracer.self_s["tables.render_ascii"] <= render[5] - render[4]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tensor", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
