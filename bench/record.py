"""Run the benchmark over several seeds and add a point to bench/RECORDS.json.

Usage, from the repository root:
    python3 bench/record.py --label <commit> --seeds 1-10 [--workloads corpus,pr-deep]

For every workload: one `--trace 0` run per seed, then one `--trace 1` run
on the first seed.  Prints every run and, per end-to-end metric, the
median, the quartiles and the spread (quartile distance over median).  The
point records those, the self-time share of each layer, the per-layer
counts and the tracing overhead, with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
RECORDS = BENCH / "RECORDS.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced pass, largest first."""
    total = metrics["trace.pass_s"]["value"]
    shares = {
        name[: -len(".self_s")]: m["value"] / total
        for name, m in metrics.items()
        if name.endswith(".self_s") and m["value"] > 0
    }
    shares["benchmark loop"] = 1 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "system": platform.system()}


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit or change the point measures")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(workloads.COUNTS))
    args = parser.parse_args()

    point = {"label": args.label, "machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            values = {k: m["value"] for k, m in result["metrics"].items()}
            print(workload, seed, result["correct"], result["failed"], json.dumps(values), flush=True)
            runs.append(values)
        end_to_end = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        for name, s in end_to_end.items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
        traced = run_once(workload, args.seeds[0], args.seconds, 1)["metrics"]
        point["workloads"][workload] = {
            "seeds": args.seeds,
            "end_to_end": end_to_end,
            "self_time_shares": layer_shares(traced),
            "trace_overhead_ratio": traced["trace.overhead_ratio"]["value"],
            "per_layer": {k: m["value"] for k, m in traced.items()},
        }

    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    records["trajectory"].append(point)
    RECORDS.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
