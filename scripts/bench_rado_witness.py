#!/usr/bin/env python3
"""Time the witness step of `decide --witness` on the benchmark's PR items.

Two ways to get z for each PR system of a workload (bench/workloads.py):

  construction  witness.find_positive_solution(matrix, partition), Rado's
                construction from the columns partition
  doubling      the search decide ran before it: the lexicographically
                first solution of witness.iter_positive_solutions within
                bound 4, 8, ..., 256, stopping at the first bound with one

Each is timed alone and followed by `witness.lift` (a = b = 2).  The
partitions are computed once, before timing.  Rounds alternate the order
of the four timings; printed is one JSON document per workload with the
median and minimum microseconds per item over the rounds, and how many
items get the same z both ways.

Usage, from the repository root:
    python3 scripts/bench_rado_witness.py [--workload corpus] [--seed 1] [--rounds 21]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

import workloads  # noqa: E402
from expreg import dsl  # noqa: E402
from expreg.eqsys import normalize  # noqa: E402
from expreg.graphs import build_linear_system  # noqa: E402
from expreg.rado import columns_property  # noqa: E402
from expreg.witness import find_positive_solution, iter_positive_solutions, lift  # noqa: E402


def doubling(matrix):
    bound = 4
    while bound <= 256:
        z = next(iter_positive_solutions(matrix, bound), None)
        if z is not None:
            return z
        bound *= 2
    return None


def pr_items(workload: str, seed: int) -> list:
    items = []
    for system in workloads.generate(workload, seed):
        nsys, _ = normalize(dsl.parse_system(workloads.system_text(system)))
        lin = build_linear_system(nsys)
        part = columns_property(lin.matrix)
        if part is not None:
            items.append((lin, part))
    return items


STEPS = {
    "construction": lambda lin, part: find_positive_solution(lin.matrix, part),
    "doubling": lambda lin, part: doubling(lin.matrix),
    "construction+lift": lambda lin, part: lift(lin, find_positive_solution(lin.matrix, part)),
    "doubling+lift": lambda lin, part: lift(lin, doubling(lin.matrix)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("corpus", "pr-deep"), default="corpus")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args()

    items = pr_items(args.workload, args.seed)
    same = sum(find_positive_solution(lin.matrix, part) == doubling(lin.matrix) for lin, part in items)
    gc.freeze()
    per_item: dict[str, list[float]] = {name: [] for name in STEPS}
    names = list(STEPS)
    for r in range(args.rounds):
        for name in names if r % 2 == 0 else names[::-1]:
            step = STEPS[name]
            start = time.perf_counter()
            for lin, part in items:
                step(lin, part)
            per_item[name].append((time.perf_counter() - start) / len(items) * 1e6)
    summary = {
        name: {"median_us": statistics.median(t), "min_us": min(t)} for name, t in per_item.items()
    }
    for base in ("", "+lift"):
        summary[f"ratio{base}"] = (
            summary[f"construction{base}"]["median_us"] / summary[f"doubling{base}"]["median_us"]
        )
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pr_items": len(items),
        "same_z": same,
        "summary": summary,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
