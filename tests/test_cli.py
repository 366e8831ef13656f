import json
import os
import random
import subprocess
import sys as _sys

import jsonschema
import pytest
from hypothesis import example, given, settings

import expreg.cli
from expreg import search
from expreg.cli import REPORT_VERSION, _dump_json, build_decision_report
from expreg.dsl import parse_system, print_system
from expreg.eqsys import ExpSystem, normalize
from expreg.rado import IntMatrix

from helpers import (
    FIXTURES,
    GOLDEN,
    REPO_ROOT,
    SCHEMA,
    brute_mod_p_partition,
    json_trees,
    mod_proof_problems,
    reference_dump_json,
)


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

    # witnesses from several levels: pr-levels has y-values up to 2^6 and
    # tall-pr the levels k = (0, 1, 0, 0) with z = (1, 1, 2, 2)
    @pytest.mark.parametrize("name", ["pr-levels", "tall-pr"])
    def test_multi_level_witness_golden_bytes(self, run_cli, fixture_path, name):
        code, out, _ = run_cli("decide", fixture_path(f"{name}.xps"), "--witness", "--json")
        assert code == 0
        assert out == (GOLDEN / f"{name}.decide.json").read_text()

    # a chord whose tree path has two steps, a loop in a second component,
    # and a not-PR proof at level 2
    def test_chord_loop_and_deep_proof_golden_bytes(self, run_cli, fixture_path):
        code, out, _ = run_cli("decide", fixture_path("four-var-npr.xps"), "--witness", "--json")
        assert code == 1
        assert out == (GOLDEN / "four-var-npr.decide.json").read_text()

    def test_reports_validate_against_schema(self, run_cli, fixture_path):
        schema = _schema()
        for name in ("exp-pr.xps", "exp-npr.xps", "four-var-npr.xps"):
            _, out, _ = run_cli("decide", fixture_path(name), "--witness", "--json")
            jsonschema.validate(json.loads(out), schema)
        _, out, _ = run_cli("decide", fixture_path("exp-npr.xps"), "--verify-bound", "9", "--json")
        jsonschema.validate(json.loads(out), schema)

    def test_npr_report_content(self, run_cli, fixture_path):
        _, out, _ = run_cli("decide", fixture_path("exp-npr.xps"), "--verify-bound", "40", "--json")
        report = json.loads(out)
        assert report["verdict"] == "not PR"
        assert report["linear_system"]["rows"] == [[2, -1]]
        cert = report["certificate"]
        assert cert["colouring"] == "radop-nu:3"
        assert cert["prime"] == 3
        assert cert["proof"] == {"prime": 3, "level": 0, "blocks": []}
        assert cert["verification"]["type"] == "empirical-cross-check"
        assert cert["verification"]["var_bound"] == 40
        assert cert["verification"]["outcome"] == "exhausted-no-solution"

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

    def test_column_budget_exit_code(self, run_cli, tmp_path):
        # one cycle row over 13 Y-columns is over the search budget
        wide = tmp_path / "wide.xps"
        wide.write_text("system 13\neq X1 ^ Y1 = X2\neq X1 ^ Y2 = X2\n")
        code, _, err = run_cli("decide", str(wide))
        assert code == 2
        assert "13 columns exceeds the search budget of 12" in err

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

    @pytest.mark.parametrize("fixture", ["exp-pr.xps", "exp-npr.xps"])
    @pytest.mark.parametrize("prime", ["4", "0", "x"])
    def test_invalid_prime_exits_2_whatever_the_verdict(self, run_cli, fixture_path, fixture, prime):
        code, out, err = run_cli("decide", fixture_path(fixture), "--p", prime)
        assert code == 2
        assert out == ""
        assert err == f"error: --p must be prime, got {prime}\n"

    def test_unverifiable_prime_is_inconclusive(self, run_cli, fixture_path):
        # the single-colour p=2 composition cannot forbid anything here
        code, out, err = run_cli("decide", fixture_path("exp-npr.xps"), "--p", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: no candidate prime in [2] proves")
        assert "refusing to guess" in err

    @pytest.mark.parametrize("extra", [[], ["--verify-bound", "6"]])
    def test_prime_past_13_is_found(self, run_cli, fixture_path, extra):
        # the row is (1, -30031), and 30,030 is the product of the primes up to 13
        code, out, _ = run_cli("decide", fixture_path("npr-p17.xps"), "--json", *extra)
        assert code == 1
        cert = json.loads(out)["certificate"]
        assert cert["colouring"] == "radop-nu:17"
        assert cert["proof"] == {"prime": 17, "level": 0, "blocks": []}

    def test_no_proof_on_auto_is_a_defect(self, run_cli, fixture_path, monkeypatch):
        # some prime always proves a matrix without the columns property
        monkeypatch.setattr(expreg.cli, "mod_proof", lambda m, primes=None: None)
        code, out, err = run_cli("decide", fixture_path("npr-p17.xps"))
        assert code == 2
        assert out == ""
        assert err.startswith("internal error: SelfCheckFailed: no prime proves")

    def test_empty_verify_lattice_is_an_error(self, run_cli, fixture_path):
        # [2, 1] holds no values, so an exhausted search there proves nothing
        code, out, err = run_cli("decide", fixture_path("exp-npr.xps"), "--verify-bound", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: variable bound 1")

    @pytest.mark.parametrize("fixture", ["exp-pr.xps", "exp-npr.xps"])
    def test_verify_bound_below_two_exits_2_whatever_the_verdict(
        self, run_cli, fixture_path, fixture
    ):
        # a PR verdict never runs the verification search, so decide checks first
        code, out, err = run_cli("decide", fixture_path(fixture), "--verify-bound", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: variable bound -3 leaves no values in [2, -3]\n"

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

    def test_witness_bases_from_the_command_line(self, run_cli, fixture_path):
        argv = ["decide", fixture_path("exp-pr.xps"), "--witness", "--a", "3", "--b", "5"]
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out.endswith(
            "witness: a=3 b=5 z=(1,1,1,1) k=(0,0,2,0) verified=True\n"
            "  x = 3^(5^0), 3^(5^0), 3^(5^2), 3^(5^0)\n"
            "  y = 5, 5, 5, 5\n"
        )

    @pytest.mark.parametrize("option", ["--a", "--b"])
    def test_witness_base_below_two_exits_2(self, fixture_path, capsys, option):
        with pytest.raises(SystemExit) as exc:
            expreg.cli.main(["decide", fixture_path("exp-pr.xps"), option, "1"])
        assert exc.value.code == 2
        assert "witness bases must be at least 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, run_cli, tmp_path):
        code, out, err = run_cli("decide", str(tmp_path / "absent.xps"))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path / 'absent.xps'}: ")

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


def _count_calls(monkeypatch, names):
    """Wrap each `module.function` in every expreg namespace that holds it,
    since modules import one another's functions by name."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in _sys.modules.items() if key.split(".")[0] == "expreg"]
    for name in names:
        module, attr = name.split(".")
        original = getattr(_sys.modules[f"expreg.{module}"], attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return counts


ONE_PASS = ("graphs.build_linear_system", "graphs.component_map", "eqsys.validate")


@pytest.mark.parametrize(
    "text",
    [
        (FIXTURES / "exp-pr.xps").read_text(),
        # a 2-cycle of parallel edges on {1, 2} and a reversed edge on {3, 4}
        "system 4\neq X1 ^ Y1 = X2\neq X1 ^ Y2 = X2\neq X4 ^ Y3*Y4 = X3\n",
    ],
    ids=["exp-pr", "two-components"],
)
def test_decide_witness_analyses_the_system_once(run_cli, tmp_path, monkeypatch, text):
    doc = tmp_path / "system.xps"
    doc.write_text(text)
    counts = _count_calls(monkeypatch, ONE_PASS)
    code, out, _ = run_cli("decide", str(doc), "--witness", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["witness"]["verified"] is True
    assert counts == dict.fromkeys(ONE_PASS, 1)


def _coefficient_system(c: int) -> str:
    return f"system 3\neq X1 ^ Y1*Y2^-1*Y3^{c} = X1\n"


class TestRadoWitness:
    """PR witnesses come from the columns partition, not from a search."""

    def test_levels_fixture(self, run_cli, fixture_path):
        code, out, _ = run_cli("decide", fixture_path("pr-levels.xps"), "--witness", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["linear_system"]["rows"] == [
            [0, -1, -1, 3, -8, 0, 1, 1, 2, 2],
            [0, 1, 2, -3, 7, -4, -1, 0, 0, -3],
            [0, 0, -1, -2, -2, 2, 0, -5, 4, 4],
            [0, -2, 2, -1, 7, 1, 2, -3, 4, -3],
        ]
        assert report["certificate"]["blocks"] == [[1, 2, 7], [3, 6, 8, 9], [4, 5, 10]]
        assert report["witness"]["z"] == [1, 6, 1, 1, 1, 2, 1, 3, 3, 1]
        assert report["witness"]["verified"] is True

    def test_large_coefficient_gets_a_witness(self, run_cli, tmp_path):
        doc = tmp_path / "c300.xps"
        doc.write_text(_coefficient_system(300))
        code, out, _ = run_cli("decide", doc, "--witness", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["witness"]["z"] == [1, 301, 1]
        assert report["witness"]["ys"][1] == {"kind": "plain", "value": 2**301}
        assert not any("omitted" in warning for warning in report["warnings"])

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_witness_past_the_digit_limit_is_omitted(self, run_cli, tmp_path, fmt):
        # z = (1, 20001, 1), and 2^20001 has 6,021 digits
        doc = tmp_path / "c20000.xps"
        doc.write_text(_coefficient_system(20000))
        code, out, _ = run_cli("decide", doc, "--witness", *fmt)
        assert code == 0
        warning = "witness omitted: y = 2^20001 has more than 4300 decimal digits"
        if fmt:
            report = json.loads(out)
            assert report["verdict"] == "PR" and report["witness"] is None
            assert warning in report["warnings"]
        else:
            assert out.startswith("verdict: PR\n") and "witness:" not in out
            assert f"warning: {warning}\n" in out

    def test_explicit_z_past_the_digit_limit_exits_2(self, run_cli, tmp_path):
        doc = tmp_path / "c20000.xps"
        doc.write_text(_coefficient_system(20000))
        code, out, err = run_cli("witness", doc, "--z", "1,20001,1", "--json")
        assert (code, out) == (2, "")
        assert err == "error: y = 2^20001 has more than 4300 decimal digits\n"

    def test_witness_takes_z_from_the_partition(self, run_cli, tmp_path):
        doc = tmp_path / "c300.xps"
        doc.write_text(_coefficient_system(300))
        code, out, _ = run_cli("witness", doc, "--json")
        assert code == 0
        assert json.loads(out)["z"] == [1, 301, 1]

    def test_witness_without_z_needs_a_partition(self, run_cli, fixture_path):
        code, out, err = run_cli("witness", fixture_path("exp-npr.xps"))
        assert (code, out) == (2, "")
        assert "--z" in err

    def test_z_bound_is_gone(self, run_cli, fixture_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("witness", fixture_path("exp-pr.xps"), "--z-bound", "8")
        assert exc.value.code == 2


class TestProofFirst:
    def test_four_variable_system_is_proved_without_a_search(
        self, run_cli, fixture_path, monkeypatch
    ):
        # the exhaustive search on this system runs for minutes at the old
        # default bound of 40; the proof needs none
        counts = _count_calls(monkeypatch, ["search.search_exp"])
        code, out, _ = run_cli("decide", fixture_path("four-var-npr.xps"), "--json")
        assert code == 1
        cert = json.loads(out)["certificate"]
        assert cert["proof"] == {"prime": 3, "level": 2, "blocks": [[2, 4], [3]]}
        assert counts["search.search_exp"] == 0

    def test_not_pr_decide_runs_the_exact_loop_once(self, run_cli, fixture_path, monkeypatch):
        # the exact loop, then the mod-2 and mod-3 loops; mod_proof does not
        # repeat the exact loop that columns_property ran
        names = ["rado._greedy_levels", "rado.columns_property"]
        counts = _count_calls(monkeypatch, names)
        code, _, _ = run_cli("decide", fixture_path("exp-npr.xps"), "--json")
        assert code == 1
        assert counts == {"rado._greedy_levels": 3, "rado.columns_property": 1}

    def test_proof_picks_the_prime_the_bounded_search_got_wrong(
        self, run_cli, fixture_path, monkeypatch
    ):
        # radop-nu:2 is empty up to 15 on exp-npr, yet colours (2, 16, 2, 4)
        # with one colour; the proof picks 3 and the cross-check runs once
        counts = _count_calls(monkeypatch, ["search.search_exp"])
        argv = ("decide", fixture_path("exp-npr.xps"), "--verify-bound", "15", "--json")
        code, out, _ = run_cli(*argv)
        assert code == 1
        cert = json.loads(out)["certificate"]
        assert cert["colouring"] == "radop-nu:3"
        assert cert["proof"] == {"prime": 3, "level": 0, "blocks": []}
        assert cert["verification"]["var_bound"] == 15
        assert counts["search.search_exp"] == 1
        found = search.search_exp(
            normalize(parse_system((FIXTURES / "exp-npr.xps").read_text()))[0],
            search.RadoPNu(2), 16, search.DEFAULT_CEILING,
        )
        assert found.assignment == (2, 16, 2, 4)

    def test_cross_check_reads_the_one_analysis(self, run_cli, fixture_path, monkeypatch):
        # the search takes its cycle rows from the analysis decide built
        counts = _count_calls(monkeypatch, ["graphs.build_linear_system", "search.search_exp"])
        argv = ("decide", fixture_path("exp-npr.xps"), "--verify-bound", "40", "--json")
        code, out, _ = run_cli(*argv)
        assert code == 1
        assert json.loads(out)["certificate"]["verification"]["skipped"] == 0
        assert counts == {"graphs.build_linear_system": 1, "search.search_exp": 1}

    def test_cross_check_solution_is_a_defect(self, run_cli, fixture_path, monkeypatch):
        def found(sys, colouring, var_bound, ceiling, lin=None):
            return search.SearchReport(2, var_bound, ceiling, 4, (2, 2, 2, 2), 0)

        monkeypatch.setattr(search, "search_exp", found)
        code, out, err = run_cli("decide", fixture_path("exp-npr.xps"), "--verify-bound", "9")
        assert code == 2
        assert out == ""
        assert err.startswith("internal error: SelfCheckFailed: radop-nu:3 colours (2, 2, 2, 2)")
        # without the cross-check there is nothing to contradict the proof
        assert run_cli("decide", fixture_path("exp-npr.xps"))[0] == 1

    def test_bench_corpus_default_decides_never_search(self, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
        import workloads

        counts = _count_calls(monkeypatch, ["search.search_exp"])
        verdicts = {"PR": 0, "not PR": 0}
        for system in workloads.corpus_systems(1):
            report = build_decision_report(workloads.system_text(system))
            verdicts[report["verdict"]] += 1
            lin = report["linear_system"]
            rows = tuple(map(tuple, lin["rows"]))
            matrix = IntMatrix(len(rows), lin["num_cols"], rows)
            if report["verdict"] == "not PR":
                assert mod_proof_problems(matrix, report["certificate"]["proof"]) == []
            elif rows:
                for p in (2, 3, 5, 7, 11, 13):
                    assert brute_mod_p_partition(matrix, p) is not None, (rows, p)
        assert counts["search.search_exp"] == 0
        assert verdicts == {"PR": 207, "not PR": 593}


def _path_with_chords(n, chords, seed):
    """A path X1 -> ... -> Xn, then chords between distinct random vertices;
    every edge has 1-3 nonzero coefficients in -2..2."""
    rng = random.Random(seed)

    def coeffs():
        c = [0] * n
        for j in rng.sample(range(n), rng.randint(1, 3)):
            c[j] = rng.choice((-2, -1, 1, 2))
        return c

    edges = [(v, v + 1, coeffs()) for v in range(1, n)]
    edges += [(*rng.sample(range(1, n + 1), 2), coeffs()) for _ in range(chords)]
    return edges


class TestLongCycles:
    # 2,000 vertices and 200 chords whose cycles run along the path
    N, CHORDS = 2000, 200

    @pytest.fixture(scope="class")
    def long_cycles(self, tmp_path_factory):
        edges = _path_with_chords(self.N, self.CHORDS, seed=2000)
        path = tmp_path_factory.mktemp("long") / "long-cycles.xps"
        path.write_text(print_system(ExpSystem.square(self.N, edges)))
        return path, edges

    def test_linearize_rows_match_potentials(self, run_cli, long_cycles):
        # with S(v) the sum of c . z along the path up to v, the row of a
        # chord (tail, head, c) takes z to S(head) - S(tail) - c . z
        path, edges = long_cycles
        code, out, _ = run_cli("linearize", path, "--json")
        assert code == 0
        lin = json.loads(out)
        rng = random.Random(7)
        z = [rng.randint(1, 9) for _ in range(self.N)]

        def dot(c):
            return sum(a * b for a, b in zip(c, z))

        potential = [0, 0]
        for _, _, c in edges[: self.N - 1]:
            potential.append(potential[-1] + dot(c))
        assert lin["num_cols"] == self.N and len(lin["rows"]) == self.CHORDS
        chords = enumerate(edges[self.N - 1 :], start=self.N)
        for (idx, (tail, head, c)), row, cycle in zip(chords, lin["rows"], lin["cycles"]):
            assert dot(row) == potential[head] - potential[tail] - dot(c)
            assert cycle[0] == [idx, 1]
            lo, hi = sorted((tail, head))
            assert sorted(step[0] for step in cycle[1:]) == list(range(lo, hi))

    def test_decide_is_over_the_column_budget(self, run_cli, long_cycles):
        code, _, err = run_cli("decide", long_cycles[0])
        assert code == 2
        assert f"{self.N} columns exceeds the search budget of 12" in err


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

    def test_colouring_eval_printed_table(self, run_cli):
        # the printed form of a table is a spec the command reads
        spec = "table[default 3: 1 2 1]"
        for x, colour in (("2", "2\n"), ("4", "3\n")):
            assert run_cli("colouring", "--spec", spec, "--eval", x)[:2] == (0, colour)

    @pytest.mark.parametrize(
        "spec,x",
        [("radop-nu:3", "1"), ("omega:mod:2", "1"), ("omega:omega:mod:2", "2"), ("mod:4", "0")],
    )
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_colouring_undefined_at_a_value_exits_2(self, run_cli, spec, x, fmt):
        # the factor-count colourings leave 1 uncoloured, omega of a prime is 1,
        # and no colouring is defined below 1
        code, out, err = run_cli("colouring", "--spec", spec, "--eval", x, *fmt)
        assert (code, out) == (2, "")
        assert err == f"error: colouring {spec} is undefined at {x}\n"

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_search_over_uncoloured_values_exits_2(self, run_cli, fixture_path, fmt):
        # omega:omega:mod:2 is undefined at every prime; the search must not
        # report a range it did not colour
        spec = "omega:omega:mod:2"
        code, out, err = run_cli(
            "search", fixture_path("exp-npr.xps"), "--colouring", spec, "--var-bound", "12", *fmt
        )
        assert (code, out) == (2, "")
        assert err == f"error: colouring {spec} is undefined at 2\n"

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

    def test_witness_rejects_a_non_integer_z(self, run_cli, fixture_path):
        code, out, err = run_cli("witness", fixture_path("exp-pr.xps"), "--z", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: --z expects a comma-separated integer vector, got '1,x'\n"

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
        assert doc["version"] == REPORT_VERSION

    def test_four_variable_search_exhausts(self, run_cli, fixture_path):
        # the loop X4^(Y1^2) = X4 gives the cycle row 2*Y1 = 0, which no
        # Y1 >= 2 satisfies: no Y-tuple reaches the X-side, none is skipped
        code, out, _ = run_cli(
            "search",
            fixture_path("four-var-npr.xps"),
            "--colouring",
            "radop-nu:2",
            "--var-bound",
            "14",
        )
        assert code == 0
        assert out == "exhausted: no monochromatic solution (bounds [2,14], skipped 0)\n"

    def test_search_rejects_an_empty_lattice(self, run_cli, fixture_path):
        code, out, err = run_cli(
            "search", fixture_path("exp-npr.xps"), "--colouring", "mod:2", "--var-bound", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: variable bound 1")

    def test_search_rejects_a_ceiling_below_two(self, run_cli, fixture_path):
        # every value is at least 2, so the search would skip every candidate
        code, out, err = run_cli(
            "search", fixture_path("exp-pr.xps"), "--colouring", "mod:2", "--ceiling", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: ceiling 0 is below 2, so every candidate would exceed it\n"

    def test_rado_number_command(self, run_cli, tmp_path):
        mat = tmp_path / "schur.mat"
        mat.write_text("1 1 -1\n")
        code, out, _ = run_cli("rado-number", str(mat), "--colours", "2", "--max", "10")
        assert (code, out) == (0, "5\n")

    def test_vdw_command(self, run_cli):
        code, out, _ = run_cli("vdw", "--colours", "2", "--length", "3", "--max", "20")
        assert (code, out) == (0, "9\n")


class TestJsonWriter:
    """`--json` output is exactly the standard encoder's indent=2, sort_keys form."""

    @settings(max_examples=400, deadline=None)
    @given(json_trees())
    @example({"10": [], "2": {}, "1": [[], {}, [{"": []}]]})
    @example([1, True, -(10**40), False, 0, None])
    @example({"all zero": [0] * 30, "one": [0], "other one": [-7], "empty": []})
    @example({"edges": [{"coeffs": [0] * 25 + [-2] + [0] * 40 + [1], "head": 3, "tail": 1}]})
    @example([[5] + [0] * 50, [0, 0, -(2**70), 0, 0, -(10**40), 0], [0, False, 0, 0, True]])
    @example({"k\u00e9y": "\u00fc\x00\x1f\"\\\n\t\u2028\U0001f600", "\x7f": "/"})
    def test_matches_the_standard_encoder(self, doc):
        assert _dump_json(doc) == reference_dump_json(doc)

    @pytest.mark.parametrize("doc", [1.5, (1, 2), {1: 2}, {"a": [b"x"]}, {"a": {None: 1}}])
    def test_rejects_what_a_report_cannot_hold(self, doc):
        with pytest.raises(TypeError):
            _dump_json(doc)

    def test_deep_acyclic_system_report(self, run_cli, tmp_path):
        # the shape of the pr-deep benchmark systems at their largest: a
        # random forest on 200 vertices, 1-3 nonzero coefficients per edge
        rng = random.Random(20161)
        n = 200
        lines = [f"system {n}"]
        for v in range(2, n + 1):
            if rng.random() < 0.03:
                continue
            u = rng.randint(max(1, v - 8), v - 1)
            tail, head = (u, v) if rng.random() < 0.5 else (v, u)
            cols = rng.sample(range(1, n + 1), rng.randint(1, 3))
            factors = "*".join(f"Y{j}^{rng.choice((-2, -1, 1, 2))}" for j in cols)
            lines.append(f"eq X{tail} ^ {factors} = X{head}")
        doc = tmp_path / "deep.xps"
        text = "\n".join(lines) + "\n"
        doc.write_text(text)
        code, out, _ = run_cli("decide", str(doc), "--witness", "--json")
        assert code == 0
        report = build_decision_report(text, source="deep.xps", want_witness=True)
        assert report["witness"] is not None
        assert out == reference_dump_json(report)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", FIXTURES / "exp-pr.xps", "--witness"],
            ["linearize", FIXTURES / "exp-npr.xps"],
            ["witness", FIXTURES / "exp-pr.xps", "--z", "1,1,1,1"],
            ["search", FIXTURES / "exp-npr.xps", "--colouring", "mod:2", "--var-bound", "20"],
            ["colouring", "--spec", "radop-nu:3", "--eval", "64"],
            ["nu", "72"],
            ["cp", "3", "18"],
            ["rado-number", "{schur}", "--colours", "2", "--max", "10"],
            ["vdw", "--colours", "2", "--length", "3", "--max", "20"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_json_subcommand(self, run_cli, tmp_path, argv):
        schur = tmp_path / "schur.mat"
        schur.write_text("1 1 -1\n")
        argv = [schur if a == "{schur}" else a for a in argv]
        code, out, _ = run_cli(*argv, "--json")
        assert code == 0
        assert out == reference_dump_json(json.loads(out))

    @pytest.mark.parametrize(
        "name,code",
        [("exp-pr", 0), ("exp-npr", 1), ("pr-levels", 0), ("tall-pr", 0), ("four-var-npr", 1)],
    )
    def test_golden_bytes_under_optimize_flag(self, name, code):
        argv = ["decide", str(FIXTURES / f"{name}.xps"), "--witness", "--json"]
        proc = subprocess.run(
            [_sys.executable, "-O", "-m", "expreg.cli", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == (GOLDEN / f"{name}.decide.json").read_text()
