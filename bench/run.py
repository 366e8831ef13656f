"""The expreg benchmark: one workload, one seed, every metric, every oracle.

Usage, from the repository root:
    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see bench/RECORDS.json for why each was chosen):
  corpus   the corpus experiment's random systems, `decide --witness` with a
           verify bound by variable count; every layer runs on every item
  cp-wide  random {-1,0,1} matrices through `rado.is_partition_regular`
  pr-deep  large acyclic systems, `decide --witness`; witness and graphs work

The run times `setup_s` over SETUP_RUNS fresh interpreters, decides the
items in a worker process of their own (closed loop, one client), then
checks every verdict and certificate with bench/oracles.py.  The last line
of stdout is one JSON object: end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`.  Exits 2 without a result when the
checkout has no `src/expreg` to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 15
RUN_LIMIT_S = 170  # the whole run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "right_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_TIMED = (
    "cli.main",
    "cli.build_decision_report",
    "dsl.parse_system",
    "eqsys.normalize",
    "eqsys.validate",
    "graphs.build_linear_system",
    "graphs.tree_path",
    "graphs.component_map",
    "rado.columns_property",
    "search.search_exp",
    "witness.find_positive_solution",
    "witness.lift",
    "witness.path_sums",
    "witness.verify_witness",
)


class BenchError(RuntimeError):
    """The run cannot produce a result; no JSON line is printed."""


def measure_setup(root: Path, deadline: float) -> list[float]:
    """Import time of expreg and expreg.cli in SETUP_RUNS fresh interpreters."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def run_worker(args, root: Path, workdir: Path, spans: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least MIN_BEYOND samples beyond it."""
    for q in TAIL_PERCENTILES:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return TAIL_PERCENTILES[-1]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(q, len(values)) - 1]


def check_outcomes(workload: str, seed: int, workdir: Path, count: int | None = None) -> dict:
    """Run every oracle over the worker's first-pass outcomes.

    Returns counts of undecided items, wrong verdicts, bad partitions or
    witnesses and refuted forbidding colourings, with `wrong` and `failed`
    totals as the ratios use them, and one note per item (numbered from 1).
    """
    inputs = workloads.generate(workload, seed, count)
    tally = {"undecided": 0, "wrong_verdict": 0, "bad_claim": 0, "refuted_colouring": 0}
    notes = []
    with open(workdir / "outcomes.jsonl", encoding="utf-8") as fh:
        outcomes = [json.loads(line) for line in fh]
    if [o["item"] for o in outcomes] != list(range(len(inputs))):
        raise BenchError("worker outcomes do not cover the items in order")
    for item, outcome in zip(inputs, outcomes):
        i = outcome["item"] + 1
        if outcome["code"] == 2:
            tally["undecided"] += 1
            notes.append(f"item {i}: undecided: {outcome['error'].strip()}")
            continue
        if workload == "cp-wide":
            verdict_right, claim = oracles.check_matrix(item, outcome)
            colouring = []
        else:
            verdict_right, claim, colouring = oracles.check_system(item, outcome)
        if not verdict_right:
            tally["wrong_verdict"] += 1
            notes.append(f"item {i}: verdict contradicts the oracle")
        elif claim:
            tally["bad_claim"] += 1
            notes.append(f"item {i}: " + "; ".join(claim))
        elif colouring:
            tally["refuted_colouring"] += 1
            notes.append(f"item {i}: " + "; ".join(colouring))
    tally["wrong"] = tally["wrong_verdict"] + tally["bad_claim"] + tally["refuted_colouring"]
    tally["failed"] = tally["undecided"] + tally["wrong"]
    tally["notes"] = notes
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.COUNTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "expreg" / "__init__.py").is_file():
        print("error: run from the repository root; src/expreg is missing", file=sys.stderr)
        return 2
    out = BENCH / "out"
    workdir = out / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(root, deadline)
        raw = run_worker(args, root, workdir, spans, deadline)
        tally = check_outcomes(args.workload, args.seed, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = raw["items"]
    failed_hard = tally["undecided"] + tally["wrong_verdict"] + tally["bad_claim"]
    nondeterministic = bool(raw["repeat_mismatches"] or raw.get("count_mismatch"))
    correct = not (tally["wrong_verdict"] or tally["bad_claim"] or nondeterministic)

    for note in tally["notes"]:
        print(f"# {note}")
    if raw["repeat_mismatches"]:
        print(f"# items whose output changed between passes: {raw['repeat_mismatches']}")
    print(
        f"# {args.workload} seed {args.seed}: {n} items, {tally['undecided']} undecided,"
        f" {tally['wrong_verdict']} wrong verdicts, {tally['bad_claim']} bad partitions or"
        f" witnesses, {tally['refuted_colouring']} refuted forbidding colourings"
    )
    print(f"failed_ratio {tally['failed'] / n!r} ratio")
    print(f"wrong_ratio {tally['wrong'] / n!r} ratio")

    if args.trace:
        metrics = layer_metrics(raw, n, tally)
    else:
        metrics = end_to_end_metrics(raw, n, tally, setup)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed_hard,
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(raw: dict, n: int, tally: dict, setup: list[float]) -> dict:
    latency = raw["latency_s"]
    q = tail_percentile(n)
    beyond = n - _rank(q, n)
    print(f"# latency_tail_ms is p{q:g} of {n} items ({beyond} beyond it);"
          f" {raw['samples']} timed calls")
    values = {
        "items_per_s": n / math.fsum(latency),
        "latency_p50_ms": 1000 * statistics.median(latency),
        "latency_tail_ms": 1000 * percentile(latency, q),
        "decided_ratio": 1 - tally["undecided"] / n,
        "right_ratio": 1 - tally["wrong"] / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(raw: dict, n: int, tally: dict) -> dict:
    layers = raw["layers"]
    metrics = {}
    for name in PER_LAYER_TIMED:
        metrics[f"{name}.self_s"] = (layers.get(f"{name}.self_s", 0.0), "s")
        metrics[f"{name}.calls"] = (layers.get(f"{name}.calls", 0), "count")
    metrics["rado.columns_property.npr_self_s"] = (
        layers.get("rado.columns_property.npr_self_s", 0.0), "s")
    metrics["rado.columns_property.budget_exceeded"] = (
        layers.get("rado.columns_property.raised.ColumnBudgetExceeded", 0), "count")
    for key in ("found", "exhausted", "skipped"):
        metrics[f"search.search_exp.{key}"] = (layers.get(f"search.search_exp.{key}", 0), "count")
    metrics["search.prime_omega.calls"] = (layers.get("search.prime_omega.calls", 0), "count")
    searches = layers.get("search.search_exp.calls", 0)
    metrics["search.certs_per_attempt"] = (
        layers.get("search.search_exp.exhausted", 0) / searches if searches else 0.0, "ratio")
    attempts = layers.get("witness.find_positive_solution.calls", 0)
    metrics["witness.z_per_attempt"] = (
        layers.get("witness.find_positive_solution.z", 0) / attempts if attempts else 0.0, "ratio")
    traced = n / math.fsum(raw["traced_latency_s"])
    untraced = n / math.fsum(raw["untraced_latency_s"])
    metrics["trace.traced_items_per_s"] = (traced, "1/s")
    metrics["trace.untraced_items_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced, "ratio")
    metrics["trace.pass_s"] = (layers["trace.pass_s"], "s")
    metrics["oracle.wrong_ratio"] = (tally["wrong"] / n, "ratio")
    metrics["oracle.failed_ratio"] = (tally["failed"] / n, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
