#!/usr/bin/env python3
"""Time `search.search_exp` on the benchmark corpus's cross-checks and on a
runaway system, in process, for one or more checkouts.

Two measurements, each in a fresh interpreter that imports expreg from the
checkout's own `src`:

  corpus   the searches `decide --verify-bound` makes on the 800 systems of
           `bench/workloads.py`'s corpus (seed 1 by default): each system is
           decided once with `search_exp` stubbed out, to collect its
           arguments without running it; then every collected search runs,
           pass after pass.  The first pass is cold (nothing of the search
           cached in the interpreter), the later ones warm.
  runaway  `fixtures/four-var-npr.xps` under radop-nu:2 at variable
           bounds 14, 20 and 40, one search each, in that order.

Times are CPU seconds of the interpreter (`time.process_time`).  Rounds
alternate which checkout goes first.  With `--reference`, each round also
times `tests/helpers.reference_search_exp` (the tuple-by-tuple enumerator
the search must agree with) on one corpus pass.  The first checkout is
the baseline.  Every run's assignments must equal the baseline's, search
by search, and its `skipped` may not exceed the baseline's on any search:
a search that excludes the Y-tuples failing a cycle row skips a subset of
what one without the rows skips.  Anything else is an error.  Printed:
one JSON document with every time, the medians, the assignments' digest
and each side's total skips.

Usage, from the repository root:
    python3 scripts/bench_class_tables.py CHECKOUT [CHECKOUT ...] \\
        [--rounds 3] [--passes 5] [--reference]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RUNAWAY = REPO / "fixtures" / "four-var-npr.xps"
RUNAWAY_BOUNDS = (14, 20, 40)


def _import(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(REPO / "bench"))
    from expreg import cli, search

    return cli, search


def _digest(assignments) -> str:
    return hashlib.sha256(repr(assignments).encode()).hexdigest()[:16]


def corpus_searches(cli, search, seed: int) -> list[tuple]:
    """The arguments of every corpus cross-check, as the checkout's decide
    passes them: (system, colouring, bound, ceiling), and the system's
    analysis where the checkout hands it over."""
    import workloads

    calls = []
    original = search.search_exp

    def collect(sys_, colouring, bound, ceiling, *rest):
        calls.append((sys_, colouring, bound, ceiling, *rest))
        return search.SearchReport(2, bound, ceiling, sys_.num_vertices + sys_.num_y, None, 0)

    search.search_exp = collect
    try:
        for s in workloads.corpus_systems(seed):
            cli.build_decision_report(
                workloads.system_text(s), verify_bound=workloads.verify_bound(s)
            )
    finally:
        search.search_exp = original
    return calls


def measure_corpus(checkout: Path, seed: int, passes: int, reference: bool) -> dict:
    cli, search = _import(checkout)
    calls = corpus_searches(cli, search, seed)
    if reference:
        sys.path.insert(0, str(REPO / "tests"))
        from helpers import reference_search_exp

        def run(*args):
            return reference_search_exp(*args[:4])
    else:
        run = search.search_exp
    times, results = [], []
    for _ in range(passes):
        start = time.process_time()
        reports = [run(*args) for args in calls]
        times.append(time.process_time() - start)
        results.append([(r.assignment, r.skipped) for r in reports])
    if any(result != results[0] for result in results):
        raise SystemExit("passes of one checkout differ")
    return {
        "searches": len(calls),
        "pass_s": times,
        "digest": _digest([a for a, _ in results[0]]),
        "skipped": [s for _, s in results[0]],
    }


def measure_runaway(checkout: Path) -> dict:
    cli, search = _import(checkout)
    from expreg.dsl import parse_system

    system = parse_system(RUNAWAY.read_text())
    out = {}
    for bound in RUNAWAY_BOUNDS:
        start = time.process_time()
        report = search.search_exp(system, search.RadoPNu(2), bound, search.DEFAULT_CEILING)
        out[str(bound)] = {
            "s": time.process_time() - start,
            "found": report.found,
            "skipped": report.skipped,
        }
    return out


def _child(checkout: Path, mode: str, args) -> dict:
    argv = [sys.executable, __file__, str(checkout), "--measure", mode,
            "--seed", str(args.seed), "--passes", str(args.passes)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--measure", choices=("corpus", "runaway", "reference"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        checkout = args.checkouts[0].resolve()
        if args.measure == "runaway":
            result = measure_runaway(checkout)
        else:
            passes = 1 if args.measure == "reference" else args.passes
            result = measure_corpus(checkout, args.seed, passes, args.measure == "reference")
        print(json.dumps(result))
        return 0

    names = [c.resolve().name for c in args.checkouts]
    runs: dict[str, dict[str, list]] = {n: {"corpus": [], "runaway": []} for n in names}
    if args.reference:
        runs["reference"] = {"corpus": []}
    for r in range(args.rounds):
        order = list(zip(names, args.checkouts))
        if r % 2:
            order.reverse()
        for name, checkout in order:
            runs[name]["corpus"].append(_child(checkout, "corpus", args))
            runs[name]["runaway"].append(_child(checkout, "runaway", args))
        if args.reference:
            runs["reference"]["corpus"].append(_child(args.checkouts[0], "reference", args))

    base = runs[names[0]]
    base_skipped = base["corpus"][0]["skipped"]
    base_runaway = base["runaway"][0]
    problems, skipped_total = [], {}
    for name, side in runs.items():
        for rnd in side["corpus"]:
            skipped = rnd.pop("skipped")
            skipped_total[name] = sum(skipped)
            if rnd["digest"] != base["corpus"][0]["digest"]:
                problems.append(f"{name}: assignments differ")
            if any(s > b for s, b in zip(skipped, base_skipped)):
                problems.append(f"{name}: a search skips more than the baseline's")
        for rnd in side.get("runaway", []):
            for bound, v in rnd.items():
                if v["found"] != base_runaway[bound]["found"]:
                    problems.append(f"{name}: the runaway at bound {bound} differs")
                if v["skipped"] > base_runaway[bound]["skipped"]:
                    problems.append(f"{name}: the runaway at bound {bound} skips more")
    if problems:
        print(json.dumps({"error": "reports differ", "problems": sorted(set(problems))}),
              file=sys.stderr)
        return 1
    summary = {}
    for name, side in runs.items():
        corpus = side["corpus"]
        summary[name] = {
            "cold_s": statistics.median(rnd["pass_s"][0] for rnd in corpus),
            "warm_s": statistics.median(t for rnd in corpus for t in rnd["pass_s"][1:])
            if any(len(rnd["pass_s"]) > 1 for rnd in corpus) else None,
            "searches": corpus[0]["searches"],
            "skipped_total": skipped_total[name],
        }
        for bound in RUNAWAY_BOUNDS:
            if side.get("runaway"):
                summary[name][f"runaway_{bound}_s"] = statistics.median(
                    rnd[str(bound)]["s"] for rnd in side["runaway"]
                )
    print(json.dumps({
        "seed": args.seed,
        "digest": base["corpus"][0]["digest"],
        "runaway": {
            name: {b: (v["found"], v["skipped"]) for b, v in side["runaway"][0].items()}
            for name, side in runs.items() if side.get("runaway")
        },
        "summary": summary,
        "rounds": runs,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
