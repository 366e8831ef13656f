#!/usr/bin/env python3
"""Time `cli.build_decision_report` on the benchmark's corpus, in process.

The 800 systems of `bench/workloads.py`'s corpus (seed 1 by default) are
decided with two argument sets, one pass after the other:

  picks    verify_bound = the bench's `--verify-bound` for each system,
           so a not-PR verdict runs the exhaustive search once
  default  no verify_bound argument; skipped for a checkout whose
           default runs a search (bound 40), which takes minutes there

Each checkout is measured in a fresh interpreter that imports expreg from
its own `src`.  Rounds alternate which checkout goes first.  Printed: one
JSON document with every pass time in seconds, the `search.search_exp`
calls per pass, and the verdict counts.

Usage, from the repository root:
    python3 scripts/bench_proof_first.py CHECKOUT [CHECKOUT ...] [--rounds 3] [--passes 3]
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def measure(checkout: Path, seed: int, passes: int) -> dict:
    """Pass times of both argument sets for the expreg under `checkout`."""
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(REPO / "bench"))
    import workloads
    from expreg import cli, search

    calls = [0]
    original = search.search_exp

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    search.search_exp = counted
    systems = workloads.corpus_systems(seed)
    items = [(workloads.system_text(s), workloads.verify_bound(s)) for s in systems]
    modes = {"picks": [{"verify_bound": bound} for _, bound in items]}
    if inspect.signature(cli.build_decision_report).parameters["verify_bound"].default is None:
        modes["default"] = [{} for _ in items]
    out = {}
    for mode, kwargs in modes.items():
        times, verdicts = [], {}
        for _ in range(passes):
            calls[0] = 0
            start = time.perf_counter()
            for (text, _), kw in zip(items, kwargs):
                verdict = cli.build_decision_report(text, **kw)["verdict"]
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
            times.append(time.perf_counter() - start)
        out[mode] = {
            "pass_s": times,
            "search_exp_calls": calls[0],
            "verdicts": {k: v // passes for k, v in sorted(verdicts.items())},
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.checkouts[0].resolve(), args.seed, args.passes)))
        return 0

    runs: dict[str, list] = {c.resolve().name: [] for c in args.checkouts}
    for r in range(args.rounds):
        order = args.checkouts if r % 2 == 0 else args.checkouts[::-1]
        for checkout in order:
            proc = subprocess.run(
                [sys.executable, __file__, str(checkout), "--measure",
                 "--seed", str(args.seed), "--passes", str(args.passes)],
                capture_output=True, text=True, check=True,
            )
            runs[checkout.resolve().name].append(json.loads(proc.stdout))
    summary = {}
    for checkout, rounds in runs.items():
        summary[checkout] = {
            mode: {
                "median_pass_s": statistics.median(
                    t for rnd in rounds for t in rnd[mode]["pass_s"]
                ),
                "search_exp_calls_per_pass": rounds[0][mode]["search_exp_calls"],
                "verdicts": rounds[0][mode]["verdicts"],
            }
            for mode in rounds[0]
        }
    print(json.dumps({"seed": args.seed, "summary": summary, "rounds": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
