"""Mutation check: every mutant below must make the tests named for it fail.

    python tests/mutants.py

A mutant is a file under ``src/river_banks``, an exact fragment of it, the
fragment's replacement and the ids of the tests that must kill it.  Each is
applied on its own to a fresh temporary copy of ``src/``, and pytest runs
only its tests, with that copy first on ``PYTHONPATH`` and the temporary
directory as the working directory (so hypothesis keeps what it finds
there).  The script exits 1 when a mutant survives, when its fragment is not
in the file exactly once, or when pytest ends in anything but a test
failure (an unknown test id, say); so code that moves must move its row of
the table with it.  Standard library only; pytest does not collect this
file, and CI runs it as a step of its own.

A move of an interval end that only adds or drops a root twist is an
equivalent mutant: a root gives 0 by itself, so ``r[n - 1 - i] + 1`` for
the lower end and ``r[n - i]`` for the upper one change no cell and are
not listed.  Nor is the digit bound's ``min(qs)`` read as ``max(qs)``,
which stays inside the bound's slack on every grid the tests build, nor
``decompose`` skipping its gcd step altogether: the residual and its
denominator then grow together, which changes no ratio and no coefficient.

The table holds 21 mutants; all are killed in 21-27 s (CPython 3.11.7,
2 CPUs).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/river_banks
    fragment: str
    replacement: str
    tests: tuple


ROW_TESTS = (
    "tests/test_kunneth.py::TestRows",
    "tests/test_kunneth.py::TestPushforwardTable",
)
# a direct sum of a pushforward and a label is a SumTable; labels alone merge
# into one BottSumTable
SUM_TESTS = (
    "tests/test_expr_cli.py::TestParseExpr::test_scaled_pushforward_is_evaluated_once_per_entry",
    "tests/test_tables.py::TestNaturalSupernatural::test_generator_tables_match_the_entry_scan",
    "tests/test_tables.py::TestRows",
)
DECOMPOSE_TESTS = (
    "tests/test_boij_soderberg.py::TestDecompose",
    "tests/test_boij_soderberg.py::TestRoundTrip",
)
LR_TESTS = ("tests/test_partitions.py::TestLRExpand",)
MEMO_TESTS = (
    "tests/test_partitions.py::TestLRExpand::test_kept_weights_are_bounded",
    "tests/test_partitions.py::TestLRExpand::test_kept_weights_change_no_expansion",
)

MUTANTS = (
    # the row rule over the pieces
    Mutant("row lower end one twist early", "tables.py",
           "max(lo - i, r[n - 1 - i])", "max(lo - i, r[n - 1 - i] - 1)", ROW_TESTS),
    Mutant("row upper end one twist early", "tables.py",
           "min(hi - i, r[n - i] - 1)", "min(hi - i, r[n - i] - 2)", ROW_TESTS),
    Mutant("row sign (-1)^i dropped", "tables.py",
           "sign = (-1) ** i", "sign = 1", ROW_TESTS),
    Mutant("den // q read as den", "tables.py",
           "c = sign * p * (den // q)", "c = sign * p * den", SUM_TESTS),
    Mutant("row _exact step dropped", "tables.py",
           "[_exact(Fraction(v, den)) for v in row]", "[Fraction(v, den) for v in row]",
           SUM_TESTS),
    Mutant("SumTable pieces unscaled", "tables.py",
           "(m.numerator * p, m.denominator * q, roots)", "(p, q, roots)", SUM_TESTS),
    # the regularity profile off the roots, and a window's flags
    Mutant("reg column v_j one short", "tables.py",
           "top[j] = max(roots_j) + n - j", "top[j] = max(roots_j) + n - j - 1",
           ("tests/test_tables.py::TestRegCoreg",)),
    Mutant("coreg column v_j - 1 one long", "tables.py",
           "bottom[j] = min(roots_j) + n - j - 1", "bottom[j] = min(roots_j) + n - j",
           ("tests/test_tables.py::TestRegCoreg",)),
    Mutant("window flag off column hi dropped", "tables.py",
           "(c + 1, c == hi)", "(c + 1, False)",
           ("tests/test_tables.py::TestRegCoreg",)),
    # Bott's theorem in closed form
    Mutant("Bott degree one row low", "bott.py",
           "BottCohomology(n - below,", "BottCohomology(n - below - 1,",
           ("tests/test_bott.py",)),
    # the fraction-free greedy decomposition
    Mutant("decompose takes the largest ratio", "boij_soderberg.py",
           "v * b < a * pv", "v * b > a * pv", DECOMPOSE_TESTS),
    Mutant("decompose coefficient without D", "boij_soderberg.py",
           "Fraction(a, b * den)", "Fraction(a, b)", DECOMPOSE_TESTS),
    Mutant("decompose residual not scaled by b", "boij_soderberg.py",
           "[[b * v - a * pv", "[[v - a * pv", DECOMPOSE_TESTS),
    # the fraction-free gcd step of the greedy decomposition
    Mutant("decompose gcd read off D alone", "boij_soderberg.py",
           "g = gcd(den, *(v for row in grid for v in row))", "g = den", DECOMPOSE_TESTS),
    # the Brauer-Klimyk expansion over the kept Gelfand-Tsetlin weights
    Mutant("fast path accepts a repeated entry of lam + w + rho", "partitions.py",
           "if all(map(ge, nu, nu[1:])):", "if all(a >= b - 1 for a, b in zip(nu, nu[1:])):",
           LR_TESTS),
    Mutant("sign of a reflected weight dropped", "partitions.py",
           "(-m if hit[0] % 2 else m)", "m", LR_TESTS),
    Mutant("tail taken off the row sum without its last part", "partitions.py",
           "out, total = {}, sum(row)", "out, total = {}, sum(row[:-1])", LR_TESTS),
    Mutant("straighten counts one inversion per entry moved", "partitions.py",
           "inv += i", "inv += i > 0", ("tests/test_partitions.py::TestStraighten",)),
    Mutant("weight memo never cleared", "partitions.py",
           "_WEIGHTS.clear()", "pass", MEMO_TESTS),
    Mutant("weight memo cleared after every expansion", "partitions.py",
           "> _MEMO_WEIGHTS:", ">= 0:", MEMO_TESTS),
    # the PRV witness
    Mutant("PRV pairs lam.part(k) with mu.part(k) for k <= p", "bounds.py",
           "mu_up[p::-1]", "mu_up[:p + 1]",
           ("tests/test_bounds.py::TestLRWitness", "tests/test_bounds.py::TestCheckSharpness")),
)


def run(mutant: Mutant):
    """('killed' | 'survived' | 'error', seconds, detail) for one mutant; a
    kill's detail is the test that failed first."""
    start = perf_counter()
    with tempfile.TemporaryDirectory(prefix="river-banks-mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(tmp, "src", "river_banks", mutant.path)
        with open(target) as fh:
            text = fh.read()
        count = text.count(mutant.fragment)
        if count != 1:
            return "error", 0.0, f"fragment found {count} times in {mutant.path}"
        with open(target, "w") as fh:
            fh.write(text.replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(os.path.join(ROOT, t) for t in mutant.tests)]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    seconds = perf_counter() - start
    # pytest exits 1 when a test failed and 0 when all passed; any other code
    # (an unknown id, a collection error) tells nothing about the mutant
    if proc.returncode == 1:
        # the first failed test, which pytest names by its path from the
        # temporary directory
        first = next((ln.split()[1] for ln in proc.stdout.splitlines()
                      if ln.startswith(("FAILED ", "ERROR "))), "")
        path, _, test = first.partition("::")
        return "killed", seconds, first and f"{os.path.relpath(os.path.join(tmp, path), ROOT)}::{test}"
    if proc.returncode == 0:
        return "survived", seconds, ""
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
    return "error", seconds, f"pytest exited {proc.returncode}: " + " | ".join(tail)


def main():
    start, bad = perf_counter(), 0
    for mutant in MUTANTS:
        outcome, seconds, detail = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome:8} {seconds:5.1f}s  {mutant.path}: {mutant.name}"
              + (f"  ({detail})" if detail else ""), flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
