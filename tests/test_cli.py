import json

import jsonschema
import pytest

import expreg.cli
from expreg.cli import build_decision_report

from helpers import GOLDEN, SCHEMA


def _schema():
    return json.loads(SCHEMA.read_text())


class TestDecide:
    def test_pr_fixture_golden_bytes(self, run_cli, fixture_path):
        code, out, _ = run_cli("decide", fixture_path("exp-pr.xps"), "--witness", "--json")
        assert code == 0
        assert out == (GOLDEN / "exp-pr.decide.json").read_text()

    def test_npr_fixture_golden_bytes(self, run_cli, fixture_path):
        code, out, _ = run_cli("decide", fixture_path("exp-npr.xps"), "--json")
        assert code == 1
        assert out == (GOLDEN / "exp-npr.decide.json").read_text()

    def test_reports_validate_against_schema(self, run_cli, fixture_path):
        schema = _schema()
        for name in ("exp-pr.xps", "exp-npr.xps"):
            _, out, _ = run_cli("decide", fixture_path(name), "--witness", "--json")
            jsonschema.validate(json.loads(out), schema)

    def test_npr_report_content(self, run_cli, fixture_path):
        _, out, _ = run_cli("decide", fixture_path("exp-npr.xps"), "--json")
        report = json.loads(out)
        assert report["verdict"] == "not PR"
        assert report["linear_system"]["rows"] == [[2, -1]]
        cert = report["certificate"]
        assert cert["colouring"] == "radop-nu:3"
        assert cert["prime"] == 3
        assert cert["verification"]["var_bound"] == 40

    def test_decide_is_deterministic(self, run_cli, fixture_path):
        runs = {
            run_cli("decide", fixture_path("exp-npr.xps"), "--json")[1] for _ in range(2)
        }
        assert len(runs) == 1

    def test_parse_failure_exit_code(self, run_cli, tmp_path):
        bad = tmp_path / "bad.xps"
        bad.write_text("system 2\neq X9 ^ Y1 = X1\n")
        code, _, err = run_cli("decide", str(bad))
        assert code == 2
        assert "out of range" in err

    def test_edgeless_system_is_trivially_pr(self, run_cli, tmp_path):
        doc = tmp_path / "empty.xps"
        doc.write_text("system 2\n")
        code, out, _ = run_cli("decide", str(doc), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "PR"
        assert report["certificate"]["trivial"] is True

    def test_explicit_prime(self, run_cli, fixture_path):
        code, out, _ = run_cli(
            "decide", fixture_path("exp-npr.xps"), "--p", "3", "--json"
        )
        assert code == 1
        assert json.loads(out)["certificate"]["prime"] == 3

    def test_unverifiable_prime_is_inconclusive(self, run_cli, fixture_path):
        # the single-colour p=2 composition cannot forbid anything here
        code, out, err = run_cli("decide", fixture_path("exp-npr.xps"), "--p", "2")
        assert code == 2
        assert out == ""
        assert "refusing to guess" in err

    def test_internal_error_exits_2(self, run_cli, fixture_path, monkeypatch):
        # an escaped exception would exit 1, which reads as "not PR"
        def broken(*args, **kwargs):
            raise RuntimeError("stage broke")

        monkeypatch.setattr(expreg.cli, "build_decision_report", broken)
        code, out, err = run_cli("decide", fixture_path("exp-pr.xps"))
        assert code == 2
        assert out == ""
        assert err == "internal error: RuntimeError: stage broke\n"

    def test_usage_error_still_exits_through_argparse(self, run_cli):
        with pytest.raises(SystemExit) as exc:
            run_cli("decide")
        assert exc.value.code == 2

    def test_shift_warnings_name_each_shifted_component(self):
        # raw levels: component 1 reaches -2 at vertex 2, component 4
        # reaches -3 at vertex 5, the isolated vertex 6 stays at 0
        text = (
            "system 6\n"
            "eq X2 ^ Y1^2 = X1\n"
            "eq X1 ^ Y2 = X3\n"
            "eq X5 ^ Y3*Y4*Y5 = X4\n"
        )
        report = build_decision_report(text, want_witness=True)
        assert report["witness"]["z"] == [1] * 6
        assert report["witness"]["k"] == [2, 0, 3, 3, 0, 0]
        assert report["warnings"] == [
            "tower levels shifted up by 2 in the component of vertex 1",
            "tower levels shifted up by 3 in the component of vertex 4",
        ]

    def test_long_chain_witness_holds_edge_by_edge(self, run_cli, tmp_path):
        # two of every three edges point back down the chain, so raw levels
        # go negative
        n = 2000
        edges = []
        lines = [f"system {n}"]
        for i in range(1, n):
            tail, head = (i, i + 1) if i % 3 == 0 else (i + 1, i)
            edges.append((tail, head, {i: 2, i + 1: 1}))
            lines.append(f"eq X{tail} ^ Y{i}^2*Y{i + 1} = X{head}")
        doc = tmp_path / "chain.xps"
        doc.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("decide", str(doc), "--witness")
        assert code == 0
        (line,) = [l for l in out.splitlines() if l.startswith("witness:")]
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        z = [int(v) for v in fields["z"].strip("()").split(",")]
        k = [int(v) for v in fields["k"].strip("()").split(",")]
        assert fields["verified"] == "True"
        assert len(z) == len(k) == n
        for tail, head, coeffs in edges:
            step = sum(c * z[j - 1] for j, c in coeffs.items())
            assert k[head - 1] - k[tail - 1] == step
        assert min(k) == 0
        assert f"warning: tower levels shifted up by {k[0]} in the component of vertex 1" in out


class TestOtherCommands:
    def test_linearize(self, run_cli, fixture_path):
        code, out, _ = run_cli("linearize", fixture_path("exp-npr.xps"))
        assert (code, out) == (0, "2 -1\n")

    def test_linearize_forest_is_empty(self, run_cli, fixture_path):
        code, out, _ = run_cli("linearize", fixture_path("exp-pr.xps"))
        assert (code, out) == (0, "")

    def test_nu(self, run_cli):
        code, out, _ = run_cli("nu", "72")
        assert (code, out) == (0, "5\n")

    def test_nu_rejects_one(self, run_cli):
        assert run_cli("nu", "1")[0] == 2

    def test_cp(self, run_cli):
        code, out, _ = run_cli("cp", "3", "18")
        assert (code, out) == (0, "2\n")

    def test_cp_not_prime(self, run_cli):
        assert run_cli("cp", "4", "18")[0] == 2

    def test_colouring_eval(self, run_cli):
        code, out, _ = run_cli("colouring", "--spec", "radop-nu:3", "--eval", "64")
        assert (code, out) == (0, "2\n")

    def test_witness_with_explicit_z(self, run_cli, fixture_path):
        code, out, _ = run_cli(
            "witness", fixture_path("exp-pr.xps"), "--z", "1,1,1,1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == [0, 0, 2, 0]
        assert doc["verified"] is True

    def test_witness_rejects_non_solution(self, run_cli, fixture_path):
        code, _, err = run_cli("witness", fixture_path("exp-npr.xps"), "--z", "1,1")
        assert code == 2
        assert "cycle constraint" in err

    def test_search_command(self, run_cli, fixture_path):
        code, out, _ = run_cli(
            "search",
            fixture_path("exp-npr.xps"),
            "--colouring",
            "mod:2",
            "--var-bound",
            "20",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "found"
        assert doc["assignment"] == [2, 16, 2, 4]

    def test_rado_number_command(self, run_cli, tmp_path):
        mat = tmp_path / "schur.mat"
        mat.write_text("1 1 -1\n")
        code, out, _ = run_cli("rado-number", str(mat), "--colours", "2", "--max", "10")
        assert (code, out) == (0, "5\n")

    def test_vdw_command(self, run_cli):
        code, out, _ = run_cli("vdw", "--colours", "2", "--length", "3", "--max", "20")
        assert (code, out) == (0, "9\n")
