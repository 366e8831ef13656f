"""Self-tests of the benchmark: its oracles, its certificate check, its determinism.

Run from the repository root:
    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import ast
import gzip
import json
import random
from pathlib import Path

import pytest

import oracles
import run as bench_run
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


def _random_matrix(rng: random.Random):
    n = rng.randint(1, 5)
    return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))], n


def test_greedy_agrees_with_label_vector_brute_force():
    rng = random.Random(20160802)
    regular = 0
    for _ in range(600):
        rows, n = _random_matrix(rng)
        brute = oracles.columns_property_brute(rows, n)
        greedy = oracles.columns_property_greedy(rows, n)
        assert (brute is None) == (greedy is None), rows
        if greedy is not None:
            regular += 1
            assert oracles.partition_problems(rows, n, greedy) == []
    assert 50 < regular < 550  # both verdicts are well represented


def test_partition_check_rejects_broken_partitions():
    rows = [(1, 1, -2)]
    assert oracles.partition_problems(rows, 3, [[1, 2, 3]]) == []
    assert oracles.partition_problems(rows, 3, [[1, 2], [3]]) != []
    assert oracles.partition_problems(rows, 3, [[1, 2, 3], [3]]) != []
    assert oracles.partition_problems([(1, -1, 0), (0, 0, 1)], 3, [[1, 2], [3]]) != []


@pytest.mark.parametrize("index", [3, 56, 76])
def test_certificate_check_flags_known_false_corpus_certificates(index):
    # default-seed corpus systems 3, 56 and 76 get radop-nu:2, yet their
    # linear side has a positive solution whose lift is one colour
    system = workloads.corpus_systems(271828)[index - 1]
    problems = oracles.colouring_problems(2, system.n, system.n, system.edges)
    assert problems and "one colour" in problems[0]


def test_certificate_check_flags_the_hand_case():
    # parallel edges with exponents Y2^2 and Y1: cycle row (-1, 2), z = (2, 1)
    edges = ((1, 2, (0, 2)), (1, 2, (1, 0)))
    _, _, rows = oracles.forest_potentials(2, 2, edges)
    assert rows in ([(-1, 2)], [(1, -2)])
    hit = oracles.monochromatic_lift(2, 2, 2, edges)
    assert hit is not None and hit[0] == (2, 1)


def test_certificate_check_accepts_exp_npr_radop_nu_3():
    # fixtures/exp-npr.xps: X1^(Y1^2) = X2 and X1^Y2 = X2, row 2*Y1 - Y2 = 0
    edges = ((1, 2, (2, 0)), (1, 2, (0, 1)))
    assert oracles.colouring_problems(3, 2, 2, edges) == []
    assert oracles.colouring_problems(2, 2, 2, edges) != []


def test_witness_check_is_edge_by_edge():
    edges = ((1, 2, (1, -1)), (2, 3, (0, 1)))
    witness = {
        "a": 2, "b": 2, "z": [1, 1], "k": [0, 0, 1],
        "xs": [{"kind": "tower", "base": 2, "expbase": 2, "level": v} for v in (0, 0, 1)],
        "ys": [{"kind": "plain", "value": 2}, {"kind": "plain", "value": 2}],
        "verified": True,
    }
    assert oracles.witness_problems(3, 2, edges, [1, 2, 3], witness) == []
    bad = dict(witness, k=[0, 0, 2])
    bad["xs"] = [{"kind": "tower", "base": 2, "expbase": 2, "level": v} for v in bad["k"]]
    assert oracles.witness_problems(3, 2, edges, [1, 2, 3], bad) == ["edge 2: k_head - k_tail != c . z"]
    # edge 1 is an identity (c . z = 0), so vertices 1 and 2 may share a level
    merged = dict(witness, k=[0, 1], xs=witness["xs"][1:])
    assert oracles.witness_problems(3, 2, edges, [1, 1, 2], merged) == []


def test_oracles_and_generators_do_not_import_expreg():
    for name in ("oracles.py", "workloads.py"):
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("expreg") for a in node.names), name
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("expreg"), name


def test_corpus_generator_matches_the_package_corpus():
    import sys

    sys.path.insert(0, str(REPO / "src"))
    from expreg.corpus import system_corpus
    from expreg.dsl import print_system

    theirs = system_corpus(100, 271828)
    ours = [s for s, _ in zip(workloads.corpus_stream(271828), theirs)]
    assert [workloads.system_text(s) for s in ours] == [print_system(s) for s in theirs]
    # the stratified corpus keeps the head of the stream, systems 3, 56 and 76 included
    assert workloads.corpus_systems(271828)[:100] == ours


def test_stratified_corpus_fills_every_cell():
    systems = workloads.corpus_systems(5)
    assert len(systems) == workloads.CORPUS_COUNT == sum(workloads.CORPUS_QUOTAS.values())
    assert len({workloads.system_text(s) for s in systems}) > 700


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench_run.tail_percentile(600) == 90.0
    assert bench_run.tail_percentile(6000) == 99.0
    assert bench_run.tail_percentile(10000) == 99.9
    assert bench_run.tail_percentile(50) == 50.0


@pytest.mark.parametrize("workload,count", [("corpus", 40), ("cp-wide", 150), ("pr-deep", 4)])
def test_two_runs_of_one_seed_agree(workload, count, tmp_path):
    """Identical verdicts, oracle tallies and per-layer counts for one seed."""
    seen = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        raw = worker.run(workload, 7, 0.0, True, workdir, REPO, count=count)
        tally = bench_run.check_outcomes(workload, 7, workdir, count=count)
        counts = {k: v for k, v in raw["layers"].items() if not k.endswith("_s")}
        outcomes = (workdir / "outcomes.jsonl").read_text(encoding="utf-8")
        assert not raw["repeat_mismatches"] and not raw["count_mismatch"]
        seen.append((outcomes, tally, counts))
    assert seen[0] == seen[1]
    outcomes, tally, counts = seen[0]
    count = len(workloads.generate(workload, 7, count))
    assert len(outcomes.splitlines()) == count
    assert tally["wrong_verdict"] == tally["bad_claim"] == tally["undecided"] == 0
    if workload == "cp-wide":
        assert counts["rado.columns_property.calls"] == count
    else:
        assert counts["cli.main.calls"] == count


def test_traced_corpus_run_reaches_every_layer(tmp_path):
    spans_path = tmp_path / "spans.jsonl.gz"
    raw = worker.run("corpus", 271828, 0.0, True, tmp_path, REPO, count=20, spans_path=spans_path)
    layers = raw["layers"]
    assert layers["search.search_exp.calls"] == (
        layers["search.search_exp.found"] + layers["search.search_exp.exhausted"]
    )
    for name in bench_run.PER_LAYER_TIMED + ("search.prime_omega",):
        assert layers[f"{name}.calls"] > 0, name
    with gzip.open(spans_path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    count = len(workloads.generate("corpus", 271828, 20))
    assert {s["item"] for s in spans} == set(range(count))
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["item"] * count
    assert all(spans[s["parent"]]["start"] <= s["start"] for s in spans if s["parent"] >= 0)


def test_run_refuses_a_checkout_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench_run.main(["--workload", "corpus", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_printed_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench_run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    raw = worker.run("corpus", 3, 0.0, True, tmp_path, REPO, count=8)
    tally = bench_run.check_outcomes("corpus", 3, tmp_path, count=8)
    metrics = bench_run.layer_metrics(raw, len(workloads.generate("corpus", 3, 8)), tally)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
