#!/usr/bin/env python3
"""Time `graphs.build_linear_system` in process, on long cycles and on the bench's systems.

Four cases, each a list of normalized systems built before timing starts:

  path-400x400     a 400-vertex path plus 400 chords between distinct
                   random vertices, every edge with 1-3 nonzero coefficients
  path-2000x200    the same with 2,000 vertices and 200 chords
  pr-deep          the 350 acyclic systems of `bench/workloads.py`'s pr-deep
                   workload for the seed (no chords, so no cycle rows)
  corpus           the 800 systems of its corpus workload for the seed

Each checkout is measured in a fresh interpreter that imports expreg from
its own `src`; rounds alternate which checkout goes first.  A pass builds
every system of a case once; the cases' systems are frozen out of garbage
collection first, so a pass pays only for the objects the analysis makes.  Printed: one JSON document with every pass
time, the median milliseconds per system, and a digest of the matrices and
cycles, which must agree between checkouts.

Usage, from the repository root:
    python3 scripts/bench_cycle_rows.py CHECKOUT [CHECKOUT ...] [--rounds 3] [--passes 3]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def path_with_chords(n: int, chords: int, seed: int) -> tuple[int, list]:
    rng = random.Random(seed)

    def coeffs():
        c = [0] * n
        for j in rng.sample(range(n), rng.randint(1, 3)):
            c[j] = rng.choice((-2, -1, 1, 2))
        return tuple(c)

    edges = [(v, v + 1, coeffs()) for v in range(1, n)]
    edges += [(*rng.sample(range(1, n + 1), 2), coeffs()) for _ in range(chords)]
    return n, edges


def measure(checkout: Path, seed: int, passes: int) -> dict:
    """Pass times and result digests of every case for the expreg under `checkout`."""
    sys.path.insert(0, str(checkout / "src"))
    sys.path.insert(0, str(REPO / "bench"))
    import workloads
    from expreg import dsl, eqsys, graphs

    def from_text(raw):
        return eqsys.normalize(dsl.parse_system(workloads.system_text(raw)))[0]

    cases = {
        "path-400x400": [eqsys.ExpSystem.square(*path_with_chords(400, 400, seed))],
        "path-2000x200": [eqsys.ExpSystem.square(*path_with_chords(2000, 200, seed))],
        "pr-deep": [from_text(s) for s in workloads.deep_systems(seed)],
        "corpus": [from_text(s) for s in workloads.corpus_systems(seed)],
    }
    # the prebuilt systems are not under test: keep them out of every
    # collection, or a full one lands in whichever pass happens to trigger it
    gc.collect()
    gc.freeze()
    out = {}
    for name, systems in cases.items():
        times = []
        for _ in range(passes):
            start = time.perf_counter()
            results = [graphs.build_linear_system(s) for s in systems]
            times.append(time.perf_counter() - start)
        digest = hashlib.sha256()
        for lin in results:
            digest.update(repr((lin.matrix.entries, [c.steps for c in lin.cycles])).encode())
        out[name] = {
            "systems": len(systems),
            "rows": sum(lin.matrix.num_rows for lin in results),
            "pass_s": times,
            "digest": digest.hexdigest()[:16],
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
            case: {
                "systems": first["systems"],
                "rows": first["rows"],
                "median_ms_per_system": round(1000 * statistics.median(
                    t for rnd in rounds for t in rnd[case]["pass_s"]
                ) / first["systems"], 4),
                "digest": first["digest"],
            }
            for case, first in rounds[0].items()
        }
    cases = next(iter(summary.values()))
    same = all(len({s[case]["digest"] for s in summary.values()}) == 1 for case in cases)
    print(json.dumps({"seed": args.seed, "same_results": same, "summary": summary,
                      "rounds": runs}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
