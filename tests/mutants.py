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
Nor is ``exterior.rank`` without its division by the previous pivot, whose
entries grow but whose rank stays, nor its update loop starting at the pivot
column, which writes a column no later step reads, nor the step without its
exactness assert, which Sylvester's identity never lets fire.
``TwoForm.from_pairs`` taking i = j changes only a message, since
``BASIS2.index`` then refuses the pair.

The table holds 71 mutants; all are killed in 90 s (CPython 3.11.7,
2 CPUs, a shared host).
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
GRID_PROFILE_TESTS = (
    "tests/test_tables.py::TestRegCoreg::test_grid_profile_matches_the_column_oracle",
)
RULE_TEST = "tests/test_exterior.py::TestCoefficientRule"
ZERO_WINDOW_TEST = ("tests/test_expr_cli.py::TestCliCommands::"
                    "test_check_bounds_on_an_all_zero_window_is_limited")
CRITERION_TESTS = "tests/test_bounds.py::TestUnobstructedCriterion"
LR_TESTS = ("tests/test_partitions.py::TestLRExpand",)
WEIGHT_TESTS = ("tests/test_partitions.py::TestPatternWeights",
                "tests/test_partitions.py::TestLRExpand")
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
    # the regularity profile off the roots
    Mutant("reg column v_j one short", "tables.py",
           "top[j] = max(roots_j) + n - j", "top[j] = max(roots_j) + n - j - 1",
           ("tests/test_tables.py::TestRegCoreg",)),
    Mutant("coreg column v_j - 1 one long", "tables.py",
           "bottom[j] = min(roots_j) + n - j - 1", "bottom[j] = min(roots_j) + n - j",
           ("tests/test_tables.py::TestRegCoreg",)),
    # a window's profile off each row's banks
    Mutant("window banks count row k into reg(k)", "tables.py",
           "list(accumulate(reversed(last[1:]), max))[::-1]",
           "list(accumulate(reversed(last), max))[:0:-1]", GRID_PROFILE_TESTS),
    Mutant("window reg flag ignores column hi", "tables.py",
           "c == hi or c < lo for c in reg", "c < lo for c in reg", GRID_PROFILE_TESTS),
    Mutant("window coreg flag ignores column lo", "tables.py",
           "c == lo or c > hi for c in coreg", "c > hi for c in coreg", GRID_PROFILE_TESTS),
    # Bott's theorem in closed form, and the Weyl dimension off the roots
    Mutant("Bott degree one row low", "bott.py",
           "(BottCohomology, (n - below,", "(BottCohomology, (n - below - 1,",
           ("tests/test_bott.py",)),
    Mutant("Bott miss skips the last root factor", "bott.py",
           "for r in neg:", "for r in neg[:-1]:", ("tests/test_bott.py::TestRootSequence",)),
    Mutant("Bott length refusal dropped", "bott.py",
           '    if len(parts) != n:\n'
           '        raise ValueError(f"label has length {len(parts)}, expected {n}")\n',
           "", ("tests/test_bott.py::TestBottCohomology",)),
    Mutant("Weyl product root difference one too large", "partitions.py",
           "prod(starmap(sub, combinations(rev, 2)))",
           "prod(b - a + 1 for b, a in combinations(rev, 2))",
           ("tests/test_partitions.py::TestSchurDim", "tests/test_bott.py::TestRootSequence")),
    Mutant("superfactorial read over range(1, n + 1)", "partitions.py",
           "prod(map(factorial, range(size)))", "prod(map(factorial, range(1, size + 1)))",
           ("tests/test_partitions.py::TestSchurDim",)),
    Mutant("schur_dim reads n! off the roots' memo", "partitions.py",
           "return _roots(lam.parts)[1]", "return _roots(lam.parts)[2]",
           ("tests/test_partitions.py::TestSchurDim",)),
    Mutant("Weyl product bound skipped", "partitions.py",
           "if (neg[-1] - neg[0]).bit_length() * (n * (n - 1) // 2) > MAX_WEYL_BITS:",
           "if False:",
           ("tests/test_partitions.py::TestSchurDim::test_the_weyl_bound_is_exact_at_its_edge",)),
    Mutant("Weyl product length bound skipped", "partitions.py",
           "if least > MAX_WEYL_BITS:", "if False:",
           ("tests/test_partitions.py::TestSchurDim::test_the_length_bound_is_exact_at_its_edge",)),
    Mutant("chi_polynomial delegates to the label twisted by 1", "bott.py",
           "homogeneous_table(lam).hilbert_polynomial()",
           "homogeneous_table(lam.shift(1)).hilbert_polynomial()",
           ("tests/test_bott.py::TestChiPolynomial",
            "tests/test_tables.py::TestHilbertPolynomial::"
            "test_chi_polynomial_is_the_homogeneous_twist_polynomial")),
    # the fraction-free greedy decomposition
    Mutant("decompose takes the largest ratio", "boij_soderberg.py",
           "v * b < a * pv", "v * b > a * pv", DECOMPOSE_TESTS),
    Mutant("decompose coefficient without D", "boij_soderberg.py",
           "Fraction(a, b * den)", "Fraction(a, b)", DECOMPOSE_TESTS),
    Mutant("decompose residual not scaled by b", "boij_soderberg.py",
           "[[b * v - a * pv", "[[v - a * pv", DECOMPOSE_TESTS),
    # the decomposition off a generator table's pieces
    Mutant("piece constant read as schur_dim / n!, not n! / schur_dim", "boij_soderberg.py",
           "c * nfact / dim", "c * dim / nfact", DECOMPOSE_TESTS),
    Mutant("pieces with equal roots not merged", "boij_soderberg.py",
           "merged.get(roots, 0) + Fraction(p, q)", "Fraction(p, q)", DECOMPOSE_TESTS),
    Mutant("pieces' labels not checked for a chain", "boij_soderberg.py",
           "if terms and not leq(terms[-1][1], lam):\n            return None",
           "if False:\n            return None", DECOMPOSE_TESTS),
    # a window's positive reg(0), certified off its profile
    Mutant("positive reg(0) certificate read one column right", "boij_soderberg.py",
           "reg0 == t.window[0]", "reg0 == t.window[0] + 1",
           ("tests/test_boij_soderberg.py::TestDecompose",)),
    # the fraction-free gcd step of the greedy decomposition
    Mutant("decompose gcd read off D alone", "boij_soderberg.py",
           "g = gcd(den, *(v for row in grid for v in row))", "g = den", DECOMPOSE_TESTS),
    # the Brauer-Klimyk expansion over the kept dominant Gelfand-Tsetlin weights
    Mutant("fast path accepts a repeated entry of lam + w + rho", "partitions.py",
           "if all(map(gt, beta, beta[1:])):", "if all(map(ge, beta, beta[1:])):", LR_TESTS),
    Mutant("sign of a reflected weight dropped", "partitions.py",
           "signed = -m if sum(starmap(lt, combinations(beta, 2))) & 1 else m",
           "signed = m", LR_TESTS),
    Mutant("a beta with two equal entries kept", "partitions.py",
           "elif len(set(beta)) == n:", "else:", LR_TESTS),
    Mutant("straightened beta kept unsorted", "partitions.py",
           "key = tuple(sorted(beta, reverse=True))", "key = beta",
           ("tests/test_bounds.py::TestTensorHomogeneous::"
            "test_the_expansions_unchecked_labels_pass_the_label_checks",)),
    Mutant("tail taken off the row sum without its last part", "partitions.py",
           "out, total = {}, sum(row)", "out, total = {}, sum(row[:-1])", WEIGHT_TESTS),
    Mutant("two-part row's weights start past the half sum", "partitions.py",
           "range(-(-total // 2), row[0] + 1)", "range(total // 2 + 1, row[0] + 1)",
           WEIGHT_TESTS),
    Mutant("dominant filter >= read as >", "partitions.py",
           "if w[-1] >= tail:", "if w[-1] > tail:", WEIGHT_TESTS),
    Mutant("orbit spread drops a permutation", "partitions.py",
           "while i >= 0 and a[i] <= a[i + 1]:", "while i > 0 and a[i] <= a[i + 1]:",
           WEIGHT_TESTS),
    Mutant("weight memo never cleared", "partitions.py",
           "_WEIGHTS.clear()", "pass", MEMO_TESTS),
    Mutant("weight memo cleared after every expansion", "partitions.py",
           "> _MEMO_WEIGHTS:", ">= 0:", MEMO_TESTS),
    # the PRV witness
    Mutant("PRV pairs lam.part(k) with mu.part(k) for k <= p", "bounds.py",
           "mu_up[p::-1]", "mu_up[:p + 1]",
           ("tests/test_bounds.py::TestLRWitness", "tests/test_bounds.py::TestCheckSharpness")),
    # the bound sides, the label merge, the records' JSON and the part rule
    Mutant("coreg bound without its shift 1", "bounds.py",
           '"coreg": (max, 1, operator.ge)', '"coreg": (max, 0, operator.ge)',
           ("tests/test_bounds.py::TestCheckTensorBounds",)),
    # exit 1 against exit 3: a violation is certified only off unflagged indices
    Mutant("certified violation ignores the window flags", "bounds.py",
           "not e.satisfied and not e.window_limited for e in", "not e.satisfied for e in",
           (ZERO_WINDOW_TEST,)),
    Mutant("bound entry drops the product's own window flag", "bounds.py",
           "flags = fgf[p] or any(", "flags = any(", (ZERO_WINDOW_TEST,)),
    # the unobstructedness criterion's margins, branch and flag
    Mutant("criterion reads m0 <= 3 as m0 < 3", "bounds.py",
           "first, second = m0 <= 3, m1 <= 3", "first, second = m0 < 3, m1 <= 3",
           (f"{CRITERION_TESTS}::test_one_margin_of_three_holds_on_its_branch",)),
    Mutant("criterion's one-sided branch names swapped", "bounds.py",
           '(True, False): "reg0-coreg1",\n              (False, True): "reg1-coreg0"',
           '(True, False): "reg1-coreg0",\n              (False, True): "reg0-coreg1"',
           (f"{CRITERION_TESTS}::test_one_margin_of_three_holds_on_its_branch",)),
    Mutant("criterion flag without coreg(1)'s", "bounds.py",
           "or prof.coreg_window_limited[0] or prof.coreg_window_limited[1])",
           "or prof.coreg_window_limited[0])",
           (f"{CRITERION_TESTS}::test_coreg1_alone_off_the_window_is_flagged",)),
    # the bundled tables' checks
    Mutant("hm-obstruction-margins reads the margins alone", "golden/__init__.py",
           "rep.margins == (6, 6) and not rep.holds", "rep.margins == (6, 6)",
           ("tests/test_expr_cli.py::TestCliCommands::"
            "test_golden_verify_fails_on_a_criterion_that_always_holds",)),
    Mutant("tensor-bounds-equal check deleted", "golden/__init__.py",
           '    check("tensor-bounds-equal", reg_rep.all_equal and coreg_rep.all_equal)\n', "",
           ("tests/test_expr_cli.py::TestCliCommands::"
            "test_golden_verify_fails_on_a_corrupt_table",)),
    Mutant("merged multiplicity overwritten, not added to", "tables.py",
           "(_exact(held[0] + mult), lam)", "(mult, lam)",
           ("tests/test_bounds.py::TestTensorHomogeneous",)),
    Mutant("merged multiplicity not made exact", "tables.py",
           "(_exact(held[0] + mult), lam)", "(held[0] + mult, lam)",
           ("tests/test_tables.py::TestExact::"
            "test_merged_multiplicities_follow_the_exact_number_rule",)),
    Mutant("record JSON writes inf as -inf", "tables.py",
           'return "inf"', 'return "-inf"', ("tests/test_startup.py::TestRecords",)),
    Mutant("a bool grid bound read as an int", "tables.py",
           "_ints((n, lo, hi))", "_ints(v + 0 for v in (n, lo, hi))",
           ("tests/test_tables.py::TestExact::"
            "test_a_float_or_bool_is_refused_at_every_integer_edge",)),
    Mutant("a float part accepted", "ratpoly.py",
           "set(map(type, values)) <= {int}", "set(map(type, values)) <= {int, float}",
           ("tests/test_partitions.py::TestGenPartition",)),
    Mutant("coefficient text read by Fraction's own grammar", "ratpoly.py",
           "if isinstance(c, str) and _COEFF.fullmatch(c) is None:", "if False:",
           (f"{RULE_TEST}::test_the_cli_and_the_library_read_the_same_texts",)),
    Mutant("polynomial coefficient read by Fraction() alone", "ratpoly.py",
           "Fraction(_coeff(c)) for c in coeffs", "Fraction(c) for c in coeffs",
           (f"{RULE_TEST}::test_polynomial_coefficients_follow_the_rule",)),
    Mutant("coefficient rule takes a leading '+'", "ratpoly.py",
           'r"-?([0-9]+)', 'r"[+-]?([0-9]+)',
           (f"{RULE_TEST}::test_multiplicities_follow_the_rule[+2]",)),
    Mutant("multidegree upstairs truncated with int()", "kunneth.py",
           "a = _ints(a)\n    if i", "a = [int(x) for x in a]\n    if i",
           ("tests/test_kunneth.py::TestProductLineCohomology",)),
    # the exact rank: its row copies and the caller's matrix
    Mutant("Fraction rows copied into the integer matrix unscaled", "exterior.py",
           "if set(map(type, row)) <= {int}:", "if True:",
           ("tests/test_exterior.py::TestRank::test_matches_plain_gaussian_oracle",)),
    Mutant("the integer copy aliases the caller's row", "exterior.py",
           "m.append(list(row))", "m.append(row)",
           ("tests/test_exterior.py::TestRank::test_matches_plain_gaussian_oracle",)),
    # the digit bounds at the package's edge: a form's coefficients, and
    # integer text past the interpreter's limit
    Mutant("form digit bound skipped", "exterior.py",
           "if digits > MAX_COEFF_DIGITS:", "if False:",
           ("tests/test_expr_cli.py::TestCliCommands::"
            "test_the_library_refuses_a_malformed_form_before_building_it",)),
    Mutant("_int digit limit skipped", "ratpoly.py",
           '_check_digits(len(digits.lstrip("+-")), "an integer has")', "pass",
           ("tests/test_expr_cli.py::TestIntegerRule::"
            "test_an_integer_past_the_digit_limit_is_refused_in_one_short_line",)),
    Mutant("literal cell digit check skipped", "tables.py",
           '_check_digits(max(map(len, text), default=0), "an integer has")', "pass",
           ("tests/test_expr_cli.py::TestIntegerRule::"
            "test_the_interpreters_limit_is_the_one_every_refusal_names",)),
    Mutant("literal cell rule reads any digit", "tables.py",
           "c.isascii() and c.isdigit()", "c.isdigit()",
           ("tests/test_tables.py::TestLiteralCellRule::"
            "test_any_other_cell_is_refused_with_its_row",)),
    # the digit limit on what an answer writes, and the values a coefficient is
    Mutant("label writer skips the digit check", "ratpoly.py",
           "_check_digits(max(_digits(v.numerator), _digits(v.denominator)),\n"
           '                      "an integer in the answer has")', "pass",
           ("tests/test_expr_cli.py::TestIntegerRule::"
            "test_an_integer_past_the_digit_limit_is_refused_in_one_short_line",)),
    Mutant("answer writer skips the digit rule", "cli.py",
           "_decimal(max(_ints_in(obj), key=abs, default=0))", "pass",
           ("tests/test_expr_cli.py::TestIntegerRule::"
            "test_an_integer_past_the_digit_limit_is_refused_in_one_short_line[index]",)),
    Mutant("_coeff hands any value to Fraction()", "ratpoly.py",
           "if isinstance(c, bool) or not isinstance(c, (str, Rational, Decimal)):",
           "if isinstance(c, (float, bool)):",
           ("tests/test_expr_cli.py::TestCliCommands::"
            "test_the_library_refuses_a_malformed_form_before_building_it",)),
    # what only a fresh interpreter sees: the exit code of
    # ``python -m river_banks`` and the modules a subcommand loads
    Mutant("python -m river_banks exits 1 on every failure", "cli.py",
           "raise SystemExit(main())", "raise SystemExit(main() and 1)",
           ("tests/test_expr_cli.py::TestErrorMapping::"
            "test_an_error_gets_its_pinned_code_and_line",)),
    Mutant("cli imports bounds at start-up", "cli.py",
           "import river_banks as rb\n", "import river_banks as rb\nimport river_banks.bounds\n",
           ("tests/test_startup.py::TestImportGraph",)),
    # the ambient limit of an expression, and a window's rows refused before
    # its index line is built; that mutant is named only against the capped
    # calls, since uncapped it builds a billion strings
    Mutant("expression ambient limit one past P100", "expr.py",
           "if n > MAX_AMBIENT_DIM:", "if n > MAX_AMBIENT_DIM + 1:",
           ("tests/test_expr_cli.py::TestExitCodeContract::"
            "test_hostile_sizes_are_refused_before_any_work",)),
    Mutant("render_ascii builds its index line before the rows", "tables.py",
           '    cells = [[str(v) if v else "." for v in row] for row in _printed_rows(t, lo, hi)]\n'
           "    index = list(map(str, range(lo, hi + 1)))\n",
           "    index = list(map(str, range(lo, hi + 1)))\n"
           '    cells = [[str(v) if v else "." for v in row] for row in _printed_rows(t, lo, hi)]\n',
           ("tests/test_expr_cli.py::TestHostileCallsUnderACap",)),
    # the digit bound off the pieces
    Mutant("digit bound takes the largest root factor, not their product", "tables.py",
           "bits += sum(max(hi - min(r)", "bits += max(max(hi - min(r)",
           ("tests/test_expr_cli.py::TestExitCodeContract::"
            "test_hostile_sizes_are_refused_before_any_work",)),
    Mutant("digit bound reads each root position's nearest roots", "tables.py",
           "max(hi - min(r), max(r) - a)", "max(hi - max(r), min(r) - a)",
           ("tests/test_tables.py::TestDigitBound",)),
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
