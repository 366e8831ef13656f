"""Decide one workload's items in a closed loop, in a process of its own.

One client, one item at a time, no threads.  Each item is timed around the
public entry point only: `cli.main(["decide", ...])` for systems and
`rado.is_partition_regular` for matrices.  The loop makes passes over the
items until `seconds` have gone by; an item's latency is the median of its
passes.  The first pass writes one outcome line per item to
`outcomes.jsonl` in the work directory, and later passes must reproduce it.

With tracing on, every item is decided traced and untraced back to back,
so the per-layer numbers come with the tracing overhead.  The raw results
go to stdout as one JSON document.

Usage, from the repository root:
    python3 bench/worker.py --workload corpus --seed 1 --seconds 20 --trace 0 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

SYSTEM_WORKLOADS = ("corpus", "pr-deep")


def _import_expreg(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import expreg.cli
    import expreg.rado

    if not Path(expreg.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"expreg imported from {expreg.cli.__file__}, not {src}")
    return expreg.cli, expreg.rado


class SystemItems:
    """Systems written as .xps files and decided through `cli.main`."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path, count: int | None) -> None:
        self.cli = cli
        self.argvs = []
        for i, system in enumerate(workloads.generate(workload, seed, count)):
            path = workdir / f"{i:05d}.xps"
            path.write_text(workloads.system_text(system), encoding="utf-8")
            argv = ["decide", str(path), "--json", "--witness"]
            if workload == "corpus":
                argv += ["--verify-bound", str(workloads.verify_bound(system))]
            self.argvs.append(argv)

    def __len__(self) -> int:
        return len(self.argvs)

    def decide(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(self.argvs[i])
            except Exception as exc:  # an escaped exception is an undecided item
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue())

    @staticmethod
    def outcome(raw) -> dict:
        code, out, err = raw
        if code not in (0, 1):
            return {"code": code if isinstance(code, int) else 2, "error": err or str(code)}
        report = json.loads(out)
        relabel = report["normalized"]["relabel"]
        return {
            "code": code,
            "verdict": report["verdict"],
            "certificate": report["certificate"],
            "witness": report["witness"],
            "relabel": [relabel[str(v)] for v in range(1, len(relabel) + 1)],
        }


class MatrixItems:
    """Matrices decided through `rado.is_partition_regular`."""

    def __init__(self, rado, seed: int, count: int | None) -> None:
        self.rado = rado
        matrices = workloads.generate("cp-wide", seed, count)
        self.matrices = [rado.IntMatrix.from_rows(m) for m in matrices]

    def __len__(self) -> int:
        return len(self.matrices)

    def decide(self, i: int):
        start = time.perf_counter()
        try:
            regular, part = self.rado.is_partition_regular(self.matrices[i])
            raw = (regular, None if part is None else part.blocks)
        except Exception as exc:  # ColumnBudgetExceeded or a defect: undecided
            raw = (None, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, raw

    @staticmethod
    def outcome(raw) -> dict:
        regular, blocks = raw
        if regular is None:
            return {"code": 2, "error": blocks}
        return {
            "code": 0 if regular else 1,
            "regular": regular,
            "blocks": [list(b) for b in blocks] if blocks else None,
        }


def closed_loop(items, seconds: float, record):
    """Passes over the items until `seconds` have gone by.

    The first pass is always complete; the loop may stop inside a later
    one.  Returns each item's latency samples.
    """
    samples: list[list[float]] = [[] for _ in range(len(items))]
    start = time.perf_counter()
    passes = 0
    while True:
        for i in range(len(items)):
            elapsed, raw = items.decide(i)
            samples[i].append(elapsed)
            record(i, raw)
            if passes and time.perf_counter() - start >= seconds:
                return samples
        passes += 1
        if time.perf_counter() - start >= seconds:
            return samples


def traced_loop(items, seconds: float, record, tracer):
    """Whole passes until `seconds` have gone by, each item decided twice
    back to back: once traced and once untraced, in alternating order, so
    that both see the same machine and the difference is the tracing cost.

    Returns traced and untraced latency samples, and per pass the layer
    totals (plus the spans, for the first pass only).
    """
    traced = [[] for _ in range(len(items))]
    untraced = [[] for _ in range(len(items))]
    pass_totals = []
    start = time.perf_counter()
    while True:
        for i in range(len(items)):
            for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
                if with_trace:
                    tracer.install()
                    with tracer.span("item", i):
                        elapsed, raw = items.decide(i)
                    tracer.uninstall()
                    traced[i].append(elapsed)
                else:
                    elapsed, raw = items.decide(i)
                    untraced[i].append(elapsed)
                record(i, raw)
        spans = tracer.take()
        pass_totals.append((tracing.layer_totals(spans), None if pass_totals else spans))
        if time.perf_counter() - start >= seconds:
            return traced, untraced, pass_totals


class Recorder:
    """Writes first-pass outcomes and checks that later passes repeat them."""

    def __init__(self, items, path: Path) -> None:
        self.items = items
        self.digests: list[str | None] = [None] * len(items)
        self.mismatches: set[int] = set()
        self.fh = open(path, "w", encoding="utf-8")

    def __call__(self, i: int, raw) -> None:
        digest = hashlib.sha256(repr(raw).encode()).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
            self.fh.write(json.dumps({"item": i, **self.items.outcome(raw)}) + "\n")
        elif digest != self.digests[i]:
            self.mismatches.add(i)

    def close(self) -> None:
        self.fh.close()


def _medians(samples):
    return [statistics.median(s) for s in samples]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        root: Path, count: int | None = None, spans_path: Path | None = None) -> dict:
    cli, rado = _import_expreg(root)
    if workload in SYSTEM_WORKLOADS:
        items = SystemItems(cli, workload, seed, workdir, count)
    else:
        items = MatrixItems(rado, seed, count)
    recorder = Recorder(items, workdir / "outcomes.jsonl")
    result: dict = {"items": len(items)}
    try:
        if not trace:
            samples = closed_loop(items, seconds, recorder)
            result["latency_s"] = _medians(samples)
            result["samples"] = sum(len(s) for s in samples)
        else:
            with tracing.Tracer() as tracer:
                traced, untraced, pass_totals = traced_loop(items, seconds, recorder, tracer)
            result["traced_latency_s"] = _medians(traced)
            result["untraced_latency_s"] = _medians(untraced)
            result["layers"] = _pass_layers(pass_totals)
            result["count_mismatch"] = any(
                _counts(t) != _counts(pass_totals[0][0]) for t, _ in pass_totals
            )
            if spans_path is not None:
                tracing.write_spans(spans_path, pass_totals[0][1])
    finally:
        recorder.close()
    result["repeat_mismatches"] = sorted(recorder.mismatches)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _counts(totals: dict) -> dict:
    return {k: v for k, v in totals.items() if not k.endswith("_s")}


def _pass_layers(pass_totals) -> dict:
    """Counts of the first traced pass; seconds averaged over the passes."""
    layers = dict(_counts(pass_totals[0][0]))
    names = {k for totals, _ in pass_totals for k in totals if k.endswith("_s")}
    for name in names:
        layers[name] = statistics.fmean(totals.get(name, 0.0) for totals, _ in pass_totals)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.COUNTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir,
                 Path.cwd(), spans_path=args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
