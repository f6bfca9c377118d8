"""What a command-line call imports, and the records that replaced dataclasses.

Every import check runs a fresh interpreter and reads its ``sys.modules``:
most of a ``python -m river_banks`` call is start-up, so each subcommand
imports only the package modules it runs, and ``import river_banks`` loads
no submodule at all.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import river_banks
from river_banks.boij_soderberg import decompose
from river_banks.bounds import check_sharpness
from river_banks.expr import table_from_expr
from river_banks.partitions import GenPartition
from river_banks.tables import BottSumTable, regularity_profile

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "src" / "river_banks" / "golden"

# The public names of the package, by the module that defines them.
EXPORTS = {
    "bott": ["BottCohomology", "bott_cohomology"],
    "boij_soderberg": ["Decomposition", "NotDecomposableWithinScope", "NotZeroRegularError",
                       "decompose"],
    "bounds": ["BoundReport", "UnobstructedReport", "check_sharpness",
               "check_tensor_bounds", "lr_witness", "tensor_homogeneous",
               "unobstructed_criterion"],
    "exterior": ["TwoForm", "kernel_dim"],
    "expr": ["ExprError", "table_from_expr"],
    "kunneth": ["KunnethTable"],
    "partitions": ["GenPartition", "leq", "lr_expand", "schur_dim"],
    "ratpoly": ["RatPoly"],
    "tables": ["NEG_INFINITY", "POS_INFINITY", "BottSumTable", "CohomologyTable",
               "LiteralTable", "RegularityProfile", "SumTable", "UndecidableError",
               "WindowExceededError", "ascii_normalize", "beilinson_terms",
               "homogeneous_table", "is_natural", "is_supernatural", "literal_from_json",
               "parse_ascii", "regularity_profile", "render_ascii", "structure_sheaf_table",
               "table_to_json"],
}

TABLES = {"tables", "bott", "partitions", "ratpoly"}
EXPR = TABLES | {"expr"}
# an expression loads kunneth only when it holds a push(...)
PUSH = EXPR | {"kunneth"}

# argv, exit code, and the river_banks.* modules besides the package and cli
SUBCOMMANDS = [
    (["table", "push(4,1,-1) on P3", "--window", "-4:3"], 0, PUSH),
    (["table", "S[2,1,0] on P3", "--window", "-8:2", "--format", "json"], 0, EXPR),
    (["indices", "S[1,0] on P2"], 0, EXPR),
    (["indices", str(GOLDEN / "push_4_1_m1.txt")], 0, TABLES),
    (["tensor", "S[1,0] on P2", "S[1,0] on P2"], 0, EXPR | {"bounds"}),
    (["check-bounds", "push(4,1,-1) on P3", "push(3,-1,-2) on P3",
      str(GOLDEN / "tensor_f_g.txt")], 0, PUSH | {"bounds"}),
    (["check-sharpness", "2,1,0", "1,1,0", "--n", "3"], 0, TABLES | {"bounds"}),
    (["decompose", "S[1,0] (+) O(0) on P2"], 0, EXPR | {"boij_soderberg"}),
    (["unobstructed", "O(0) on P3"], 0, EXPR | {"bounds"}),
    (["wedge-kernel", "--trials", "3"], 0, {"exterior", "ratpoly"}),
    (["golden", "verify"], 0, TABLES | {"golden", "bounds", "kunneth"}),
    (["indices", "S[1,,0] on P2"], 2, EXPR),
]

PROBE = """
import contextlib, io, json, sys
from river_banks.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def fresh(code, *args):
    """stdout of a new interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def package_modules(modules):
    return {m for m in modules if m == "river_banks" or m.startswith("river_banks.")}


@pytest.fixture(scope="module")
def bare_modules():
    return set(json.loads(fresh("import json, sys; print(json.dumps(sorted(sys.modules)))")))


class TestImportGraph:
    def test_importing_the_package_loads_no_submodule(self):
        out = fresh("import json, sys, river_banks; print(json.dumps(sorted(sys.modules)))")
        assert package_modules(json.loads(out)) == {"river_banks"}

    @pytest.mark.parametrize("argv, code, expected", SUBCOMMANDS,
                             ids=[f"{i}-{argv[0]}" for i, (argv, _, _) in enumerate(SUBCOMMANDS)])
    def test_a_subcommand_loads_only_the_modules_it_runs(self, bare_modules, argv, code,
                                                          expected):
        got = json.loads(fresh(PROBE, json.dumps(argv)))
        assert got["code"] == code
        assert package_modules(got["modules"]) == {
            "river_banks", "river_banks.cli", *(f"river_banks.{m}" for m in expected)}
        assert "dataclasses" not in set(got["modules"]) - bare_modules

    def test_every_public_name_resolves_to_its_defining_module(self):
        out = fresh("""
import importlib, json, sys, river_banks
exports = json.loads(sys.argv[1])
print(json.dumps({
    "same": all(getattr(river_banks, name) is getattr(
        importlib.import_module(f"river_banks.{module}"), name)
        for module, names in exports.items() for name in names),
    "dir": sorted(dir(river_banks)),
}))
""", json.dumps(EXPORTS))
        got = json.loads(out)
        names = {name for names in EXPORTS.values() for name in names}
        assert len(names) == 43
        assert got["same"] and names <= set(got["dir"])
        assert set(river_banks.__all__) == names

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            river_banks.nothing

    def test_a_binding_replaced_in_its_module_shows_through(self, monkeypatch):
        bott = importlib.import_module("river_banks.bott")
        monkeypatch.setattr(bott, "bott_cohomology", len)
        assert river_banks.bott_cohomology is len


def records():
    """One record of each type, with an infinite index among them."""
    return [
        regularity_profile(table_from_expr("S[1,0] on P2")),
        regularity_profile(BottSumTable(2, [])),
        check_sharpness(GenPartition((2, 1, 0)), GenPartition((1, 1, 0))),
        check_sharpness(GenPartition((2, 1, 0)), GenPartition((1, 1, 0))).entries[0],
        river_banks.unobstructed_criterion(table_from_expr("O(0) on P3")),
        decompose(table_from_expr("S[1,0] (+) O(0) on P2")),
    ]


class TestRecords:
    """The five records keep their JSON, repr, fields, equality and immutability."""

    def test_to_json_and_repr_are_unchanged(self):
        entries = [{"p": p, "bound": -p, "actual": -p, "satisfied": True, "equality": True,
                    "window_limited": False} for p in range(3)]
        assert [r.to_json() for r in records()] == [
            {"reg": [0, -1], "coreg": [-2, -1], "reg_window_limited": [False, False],
             "coreg_window_limited": [False, False]},
            {"reg": ["-inf", "-inf"], "coreg": ["inf", "inf"],
             "reg_window_limited": [False, False], "coreg_window_limited": [False, False]},
            {"side": "reg", "entries": entries},
            entries[0],
            {"holds": True, "branch": "both", "margins": [1, 1], "window_limited": False},
            [{"coeff": "1", "lambda": "0,0"}, {"coeff": "1", "lambda": "1,0"}],
        ]
        assert [repr(r) for r in records()[::2]] == [
            "RegularityProfile(reg=(0, -1), coreg=(-2, -1), reg_window_limited=(False, False),"
            " coreg_window_limited=(False, False))",
            "BoundReport(side='reg', entries=(BoundEntry(p=0, bound=0, actual=0, satisfied=True,"
            " equality=True, window_limited=False), BoundEntry(p=1, bound=-1, actual=-1,"
            " satisfied=True, equality=True, window_limited=False), BoundEntry(p=2, bound=-2,"
            " actual=-2, satisfied=True, equality=True, window_limited=False)))",
            "UnobstructedReport(holds=True, branch='both', margins=(1, 1), window_limited=False)",
        ]
        assert repr(records()[-1]) == (
            "Decomposition(terms=((Fraction(1, 1), GenPartition((0, 0))), (Fraction(1, 1),"
            " GenPartition((1, 0)))), residual_zero=True, chain_certified=True)")

    @pytest.mark.parametrize("index, field", enumerate(
        ["reg", "coreg_window_limited", "side", "p", "margins", "terms"]))
    def test_setting_a_field_raises_attribute_error(self, index, field):
        record = records()[index]
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_equal_records_compare_equal(self):
        first, second = records(), records()
        assert first == second and all(hash(a) == hash(b) for a, b in zip(first, second))
        assert first[0] != first[1]
