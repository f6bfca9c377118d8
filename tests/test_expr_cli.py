import json
import subprocess
import sys

import pytest

from river_banks import golden
from river_banks.cli import main
from river_banks.expr import ExprError, parse_expr, table_from_expr
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition
from river_banks.tables import BottSumTable, ascii_normalize


def gp(*parts):
    return GenPartition(parts)


class TestParseExpr:
    def test_single_homogeneous(self):
        expr = parse_expr("S[1,0] on P2")
        assert expr.ambient == 2
        t = table_from_expr("S[1,0] on P2")
        assert isinstance(t, BottSumTable)
        assert t.terms == ((1, gp(1, 0)),)

    def test_pushforward(self):
        t = table_from_expr("push(4,1,-1) on P3")
        assert isinstance(t, KunnethTable)
        assert t.a == (4, 1, -1)

    def test_sum_with_scale_and_dual(self):
        t = table_from_expr("dual(S[2,1,0]) (+) 2*O(-1) on P3")
        assert isinstance(t, BottSumTable)
        assert t.n == 3
        assert t.entry(0, 1) == table_from_expr("dual(S[2,1,0]) on P3").entry(0, 1) \
            + 2 * table_from_expr("O(-1) on P3").entry(0, 1)

    def test_scaled_pushforward_is_evaluated_once_per_entry(self, monkeypatch):
        calls = []
        inner = KunnethTable._entry

        def counted(table, i, d):
            calls.append((i, d))
            return inner(table, i, d)

        monkeypatch.setattr(KunnethTable, "_entry", counted)
        t = table_from_expr("10000*push(1,2,3) on P3")
        base = KunnethTable((1, 2, 3))
        cells = [(i, d) for i in range(4) for d in range(-8, 3)]
        got = [t.entry(i, d) for i, d in cells]
        assert len(calls) == len(cells)
        assert got == [10000 * base.entry(i, d) for i, d in cells]
        assert any(got)

    def test_twist_and_parens(self):
        t = table_from_expr("twist((S[1,0] (+) O(0)), -1) on P2")
        base = table_from_expr("S[1,0] (+) O(0) on P2")
        assert t.entry(0, 1) == base.entry(0, 0)

    def test_whitespace_insensitive(self):
        a = table_from_expr("  S[ 1 , 0 ] ( + ) O( 0 )   on  P2 ")
        b = table_from_expr("S[1,0](+)O(0)on P2")
        assert a.entry(0, 2) == b.entry(0, 2)
        assert isinstance(a, BottSumTable)

    def test_errors_carry_positions(self):
        with pytest.raises(ExprError):
            parse_expr("S[1,0] extra")
        with pytest.raises(ExprError):
            parse_expr("S[0,1] on P2")
        with pytest.raises(ExprError):
            table_from_expr("O(3)")
        with pytest.raises(ExprError):
            table_from_expr("S[1,0] on P3")
        with pytest.raises(ExprError):
            table_from_expr("S[1,0] (+) S[1,0,0] on P2")


class TestCliCommands:
    def test_table_ascii(self, capsys):
        assert main(["table", "push(4,1,-1) on P3", "--window", "-4:3"]) == 0
        out = capsys.readouterr().out
        assert ascii_normalize(out) == ascii_normalize(golden.source("f"))

    def test_table_json(self, capsys):
        assert main(["table", "O(0) on P1", "--window", "0:1", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == {"n": 1, "window": [0, 1], "rows": [[0, 0], [1, 2]]}

    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_table_rejects_an_empty_window(self, capsys, fmt):
        assert main(["table", "O(0) on P1", "--window", "3:1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty window 3..1" in captured.err

    def test_indices_from_file(self, tmp_path, capsys):
        path = tmp_path / "hm.txt"
        path.write_text(golden.source("hm"))
        assert main(["indices", str(path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["reg"][1] == 1 and blob["coreg"][0] == -5

    def test_indices_from_json_file(self, tmp_path, capsys):
        path = tmp_path / "hm.table.json"
        assert main(["table", "push(4,1,-1) on P3", "--window", "-4:3",
                     "--format", "json"]) == 0
        path.write_text(capsys.readouterr().out)
        assert main(["indices", str(path)]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["reg"] == [1, 0, -2]

    def test_indices_window_limited_exit(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("1: . .\n0: . .\n   0 1\n")
        assert main(["indices", str(path)]) == 3

    def test_tensor_rejects_pushforward(self, capsys):
        rc = main(["tensor", "push(1,0) on P2", "S[1,0] on P2"])
        assert rc == 2
        assert "check-bounds" in capsys.readouterr().err

    def test_tensor_accepts_a_dual_operand(self, capsys):
        # the dual of a homogeneous sum is the homogeneous sum of the dual labels
        assert main(["tensor", "dual(S[1,0]) on P2", "S[1,0] on P2"]) == 0
        dual_out = capsys.readouterr().out
        assert main(["tensor", "S[0,-1] on P2", "S[1,0] on P2"]) == 0
        assert dual_out == capsys.readouterr().out

    def test_check_bounds_and_exit_codes(self, tmp_path, capsys):
        fg = tmp_path / "fg.txt"
        fg.write_text(golden.source("fg"))
        rc = main(["check-bounds", "push(4,1,-1) on P3", "push(3,-1,-2) on P3",
                   str(fg)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(e["satisfied"] and e["equality"] for e in out["reg"]["entries"])
        assert all(e["satisfied"] and e["equality"] for e in out["coreg"]["entries"])

    def test_check_bounds_detects_violation(self, tmp_path, capsys):
        # corrupt product table: nonzero h^3 where the bound forces vanishing
        bad = tmp_path / "bad.json"
        t = golden.load("fg")
        rows = [list(t.rows_by_i[i]) for i in range(4)]
        rows[3][4] = 99  # display column 0, row 3
        blob = {"n": 3, "window": [-4, 3], "rows": [rows[i] for i in (3, 2, 1, 0)]}
        bad.write_text(json.dumps(blob))
        rc = main(["check-bounds", "push(4,1,-1) on P3", "push(3,-1,-2) on P3",
                   str(bad)])
        assert rc == 1

    def test_check_sharpness(self, capsys):
        assert main(["check-sharpness", "1,0", "1,0", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [e["equality"] for e in out["entries"]] == [True, True]

    def test_decompose_expression(self, capsys):
        assert main(["decompose", "S[1,0] (+) O(0) on P2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == [{"coeff": "1", "lambda": "0,0"}, {"coeff": "1", "lambda": "1,0"}]

    def test_decompose_rejects_positive_reg(self, capsys):
        assert main(["decompose", "O(-1) on P2"]) == 2

    def test_unobstructed(self, tmp_path, capsys):
        assert main(["unobstructed", "O(0) on P3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] and out["margins"] == [1, 1]
        hm = tmp_path / "hm.txt"
        hm.write_text(golden.source("hm"))
        assert main(["unobstructed", str(hm)]) == 1

    def test_wedge_kernel_trials_deterministic(self, capsys):
        assert main(["wedge-kernel", "--trials", "8", "--seed", "5"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["wedge-kernel", "--trials", "8", "--seed", "5"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["min_kernel_dim"] >= 1

    def test_wedge_kernel_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("RIVER_BANKS_SEED", "99")
        assert main(["wedge-kernel", "--trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_wedge_kernel_explicit_forms(self, capsys):
        rc = main(["wedge-kernel",
                   "--eta1", '[[[1,2],"1"]]', "--eta2", '[[[1,2],"1"]]'])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kernel_dim"] == 7

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_wedge_kernel_rejects_nonpositive_trials(self, capsys, trials):
        assert main(["wedge-kernel", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err

    def test_golden_verify(self, capsys):
        assert main(["golden", "verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and len(out["checks"]) >= 20

    def test_usage_error_exit_code(self, capsys):
        assert main(["table", "S[1,0] on P2"]) == 2  # missing --window
        assert main(["indices", "S[1,0) on P2"]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "river_banks", "indices", "S[1,0] on P2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["reg"] == [0, -1]
