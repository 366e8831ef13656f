#!/usr/bin/env python3
"""Corpus experiment: decide random systems and cross-check both certificate
directions at desk scale (`expreg.corpus.run_experiment`).

Prints one line per hard failure, then the counts, and exits nonzero on
any hard failure.  Every not-PR system gets a mod-p proof.
"""

import argparse
import sys
import time

from expreg.corpus import DEFAULT_SEED, run_experiment
from expreg.dsl import print_colouring


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--z-bound", type=int, default=12)
    args = parser.parse_args()

    start = time.time()
    result = run_experiment(args.count, args.seed, args.z_bound)
    for note in result["notes"]:
        print(note)

    elapsed = time.time() - start
    pr = result["pr"]
    print(f"corpus: {args.count} systems (seed {args.seed}), {elapsed:.1f}s")
    print(f"  PR: {pr}   non-PR: {result['npr']}")
    for spec, count in result["inconclusive"].items():
        print(f"  inconclusive under {print_colouring(spec)}: {count}/{pr}")
    print(f"  hard failures: {result['hard_failures']}")
    return 1 if result["hard_failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
