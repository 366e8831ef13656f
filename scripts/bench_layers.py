#!/usr/bin/env python3
"""Time each layer of the decision pipeline in process, for one or more checkouts.

A layer (ALL; `layers` gives the call each one times) maps over a case's
items (`cases`: the bench workloads at --seed, the fixtures, searches no
workload reaches, two long paths with chords).  Its inputs are the earlier
layers' outputs from the same checkout, built before timing.  An exception
is recorded as the item's output, and later layers skip the item.

Each checkout runs in a fresh interpreter that imports expreg from its own
src, on inputs from this script's repository; rounds alternate which
checkout goes first.  Times are CPU seconds of 3 passes per layer, the
first reported as cold.  One more layer, `process`, times whole processes:
per round and fixture, 3 passes of `python -m expreg.cli decide FIXTURE
--witness --json`, in wall seconds, each pass running one fresh
interpreter per checkout in turn, with the checkout's src as its
PYTHONPATH; its output is the exit code and stdout.  Printed: one JSON
document with, per checkout, case and layer, the item count, the median
cold seconds, the median warm milliseconds per item, every pass time and
a digest of the outputs.  The digest reads each output's content in the
form the report writes it (`contents`), so a change of representation
alone does not change it.
The first checkout is the baseline: if another run's digest differs, the
script names each differing (case, layer) and exits 1.

Usage, from the repository root:
    python3 scripts/bench_layers.py CHECKOUT [CHECKOUT ...] [--seed 1] [--rounds 3]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
PASSES = 3
FIXTURE_BOUND = 40
# name: (fixture, variable bound), each under radop-nu:2:
# runaway bounds, a found search that reaches the X-side, and the one
# system of them without cycle rows
SEARCHES = {**{f"four-var-npr/{b}": ("four-var-npr.xps", b) for b in (14, 20, 40)},
            "exp-npr/40": ("exp-npr.xps", 40),
            "rank-0/40": ("rank-0.xps", 40)}
ALL = ("parse", "normalize", "analysis", "columns", "proof", "cross-check", "witness",
       "writer", "decide")
READ = ALL[:5]  # the layers whose outputs later layers read


class Item(NamedTuple):
    name: str  # the .xps file name, which decide writes into its report
    text: str | None  # the system document; None for a matrix
    matrix: object = None  # a cp-wide IntMatrix
    bound: int | None = None  # the cross-check's variable bound
    prime: int | None = None  # a named search's colouring prime


class Raised(str):
    """An exception, recorded as an item's output."""


def path_with_chords(n: int, chords: int, seed: int) -> tuple[int, tuple]:
    """A path on n vertices plus random chords, 1-3 nonzero coefficients an edge."""
    rng = random.Random(seed)
    edges = []
    for k in range(n - 1 + chords):
        tail, head = (k + 1, k + 2) if k < n - 1 else rng.sample(range(1, n + 1), 2)
        c = [0] * n
        for j in rng.sample(range(n), rng.randint(1, 3)):
            c[j] = rng.choice((-2, -1, 1, 2))
        edges.append((tail, head, tuple(c)))
    return n, tuple(edges)


def cases(workloads, rado, seed: int) -> dict[str, tuple[list[Item], tuple[str, ...]]]:
    """Case name -> (items, layers)."""
    def systems(raws, bound=lambda s: None):
        return [Item(f"{i:05d}.xps", workloads.system_text(s), bound=bound(s))
                for i, s in enumerate(raws)]

    out = {
        "corpus": (systems(workloads.corpus_systems(seed), workloads.verify_bound), ALL),
        "pr-deep": (systems(workloads.deep_systems(seed)), ALL),
        "cp-wide": ([Item("", None, rado.IntMatrix.from_rows(m))
                     for m in workloads.cp_wide_matrices(seed)],
                    ("columns", "proof")),
    }
    for path in sorted((REPO / "fixtures").glob("*.xps")):
        item = Item(path.name, path.read_text(encoding="utf-8"), bound=FIXTURE_BOUND)
        out[f"fixtures/{path.stem}"] = ([item], ALL)
    for name, (source, bound) in SEARCHES.items():
        text = (REPO / "fixtures" / source).read_text()
        out[name] = ([Item("", text, bound=bound, prime=2)], ALL[:3] + ("cross-check",))
    for n, chords in ((400, 400), (2000, 200)):
        text = workloads.system_text(workloads.System(*path_with_chords(n, chords, seed)))
        out[f"path-{n}x{chords}"] = ([Item("", text)], ALL[:4])
    return out


def layers(cli, dsl, eqsys, graphs, rado, search, witness, workdir: Path) -> dict:
    """Layer name -> (inputs, call): inputs(item, out) gives the call's
    arguments from the item and its earlier outputs, or a false value where
    the layer does not run on the item."""
    def cross_check(it, out):
        prime = it.prime or (out.get("proof") and out["proof"].prime)
        return it.bound and prime and (out["normalize"][0], search.RadoPNu(prime), it.bound,
                                       search.DEFAULT_CEILING, out["analysis"])

    def report(it, out):  # skipped where decide fails in a way no layer above records
        doc = _call(lambda: cli.build_decision_report(
            it.text, source=it.name, want_witness=True, verify_bound=it.bound), ())
        return not isinstance(doc, Raised) and (doc,)

    def argv(it, out):
        (workdir / it.name).write_text(it.text, encoding="utf-8")
        bound = ["--verify-bound", str(it.bound)] if it.bound else []
        return (["decide", str(workdir / it.name), "--json", "--witness", *bound],)

    def decide(args):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        return code, stdout.getvalue(), stderr.getvalue()

    return {
        "parse": (lambda it, out: (it.text,), dsl.parse_system),
        "normalize": (lambda it, out: (out["parse"],), eqsys.normalize),
        "analysis": (lambda it, out: (out["normalize"][0],), graphs.build_linear_system),
        "columns": (lambda it, out: (it.matrix or out["analysis"].matrix,), rado.columns_property),
        "proof": (lambda it, out: out["columns"] is None and (it.matrix or out["analysis"].matrix,),
                  lambda m: rado.mod_proof(m, rado.proof_primes(m))),
        "cross-check": (cross_check, search.search_exp),
        "witness": (lambda it, out: out["columns"] and (out["analysis"], out["columns"]),
                    lambda lin, part: witness.lift(
                        lin, witness.find_positive_solution(lin.matrix, part), 2, 2)),
        "writer": (report, cli._dump_json),
        "decide": (argv, decide),
    }


def contents(cli) -> dict:
    """Layer name -> the content of one of its outputs, as the report writes
    it; the writer's and decide's outputs are their own content."""
    def blocks(part):
        return part and [list(block) for block in part.blocks]

    return {
        "parse": cli._system_json,
        "normalize": lambda out: cli._system_json(*out),
        "analysis": cli._linear_json,  # not its walk
        "columns": blocks,
        "proof": lambda proof: proof and [proof.prime, proof.level, blocks(proof)],
        "cross-check": cli._search_report_json,
        "witness": cli._witness_json,
    }


def _call(call, args):
    try:
        return call(*args)
    except Exception as exc:
        return Raised(f"{type(exc).__name__}: {exc}")


def measure(checkout: Path, seed: int) -> dict:
    """Per case and layer: items, pass times and output digest, for the
    expreg under `checkout`."""
    src = checkout / "src"
    sys.path[:0] = [str(src), str(REPO / "bench")]
    import workloads
    from expreg import cli, dsl, eqsys, graphs, rado, search, witness

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"expreg imported from {cli.__file__}, not {src}")
    result: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        table = layers(cli, dsl, eqsys, graphs, rado, search, witness, Path(tmp))
        form = contents(cli)
        for case, (items, names) in cases(workloads, rado, seed).items():
            outs: list[dict] = [{} for _ in items]
            for layer in names:
                inputs, call = table[layer]
                jobs = [(i, args) for i, (it, out) in enumerate(zip(items, outs))
                        if not any(isinstance(v, Raised) for v in out.values())
                        and (args := inputs(it, out))]
                if not jobs:
                    continue
                # keep the prebuilt inputs out of every collection, or a full
                # one lands in whichever pass happens to trigger it
                gc.collect()
                gc.freeze()
                times = []
                for _ in range(PASSES):
                    outputs = None
                    start = time.process_time()
                    outputs = [_call(call, args) for _, args in jobs]
                    times.append(time.process_time() - start)
                digest = hashlib.sha256()
                for (i, _), output in zip(jobs, outputs):
                    if layer in READ or isinstance(output, Raised):
                        outs[i][layer] = output
                    if layer in form and not isinstance(output, Raised):
                        output = form[layer](output)
                    digest.update(json.dumps([i, output], sort_keys=True).encode())
                result.setdefault(case, {})[layer] = {
                    "items": len(jobs), "pass_s": times, "digest": digest.hexdigest()[:16]}
    return result


def time_processes(checkouts: list[Path], order: list[int]) -> list[dict]:
    """Per checkout, case -> {"process": items, pass times, digest} for each
    fixture; the checkouts take turns, in `order`, process by process, so
    a change in the machine's load falls on all of them alike."""
    result: list[dict] = [{} for _ in checkouts]
    for path in sorted((REPO / "fixtures").glob("*.xps")):
        argv = [sys.executable, "-m", "expreg.cli", "decide", str(path), "--witness", "--json"]
        times: list[list[float]] = [[] for _ in checkouts]
        outputs: list = [None] * len(checkouts)
        for _ in range(PASSES):
            for k in order:
                env = dict(os.environ, PYTHONPATH=str(checkouts[k].resolve() / "src"))
                start = time.perf_counter()
                proc = subprocess.run(argv, capture_output=True, text=True, env=env)
                times[k].append(time.perf_counter() - start)
                outputs[k] = [proc.returncode, proc.stdout]
        for k, output in enumerate(outputs):
            digest = hashlib.sha256(json.dumps([0, output]).encode()).hexdigest()[:16]
            result[k][f"fixtures/{path.stem}"] = {
                "process": {"items": 1, "pass_s": times[k], "digest": digest}}
    return result


def summarize(rounds: list[dict]) -> dict:
    summary: dict = {}
    for case, by_layer in rounds[0].items():
        for layer, first in by_layer.items():
            runs = [rnd[case][layer]["pass_s"] for rnd in rounds]
            warm = statistics.median(t for run in runs for t in run[1:])
            summary.setdefault(case, {})[layer] = {
                "items": first["items"], "digest": first["digest"],
                "cold_s": round(statistics.median(run[0] for run in runs), 6),
                "warm_ms_per_item": round(1000 * warm / first["items"], 6),
                "pass_s": [[round(t, 6) for t in run] for run in runs],
            }
    return summary


def differences(base: dict, rounds: list[dict]) -> list[str]:
    """Each (case, layer) where some round's digest is not the baseline's."""
    flat = [{f"{case} {layer}": v["digest"] for case in rnd for layer, v in rnd[case].items()}
            for rnd in [base, *rounds]]
    return sorted(k for k in set().union(*flat) if len({d.get(k) for d in flat}) > 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.checkouts[0].resolve(), args.seed)))
        return 0

    runs: list[list[dict]] = [[] for _ in args.checkouts]
    order = list(enumerate(args.checkouts))
    for r in range(args.rounds):
        turns = order if r % 2 == 0 else order[::-1]
        for k, checkout in turns:
            argv = [sys.executable, __file__, str(checkout), "--measure", "--seed", str(args.seed)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=True)
            runs[k].append(json.loads(proc.stdout))
        for k, cases in enumerate(time_processes(args.checkouts, [k for k, _ in turns])):
            for case, layer in cases.items():
                runs[k][-1].setdefault(case, {}).update(layer)
    differ = [differences(runs[0][0], rounds) for rounds in runs]
    print(json.dumps({
        "seed": args.seed,
        "rounds": args.rounds,
        "checkouts": [{"checkout": str(c), "differ": d, "summary": summarize(rounds)}
                      for c, d, rounds in zip(args.checkouts, differ, runs)],
    }, indent=2))
    for checkout, key in ((c, k) for c, keys in zip(args.checkouts, differ) for k in keys):
        print(f"{checkout}: {key} differs from {args.checkouts[0]}", file=sys.stderr)
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
