"""Spans around the public functions of each expreg layer, patched from outside.

A traced function is replaced by a wrapper in every module namespace that
holds it: `cli` imports `normalize`, `lift` and others by name, `search`
imports `lift` and `prime_omega`, `witness` imports `tree_path`, so a patch
on the defining module alone would miss most calls.  Spans stay in memory
as [name, start, end, parent, item, outcome] and are written out at the
end of the run.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("cli", "dsl", "eqsys", "graphs", "rado", "search", "witness")


def _search_outcome(report):
    return {"found": int(report.found), "exhausted": int(report.exhausted), "skipped": report.skipped}


# name -> outcome of a return value, as counts added to `<name>.<count>`
TARGETS = {
    "cli.main": None,
    "cli.build_decision_report": None,
    "dsl.parse_system": None,
    "eqsys.validate": None,
    "eqsys.normalize": None,
    "graphs.build_linear_system": None,
    "graphs.tree_path": None,
    "graphs.component_map": None,
    "rado.columns_property": lambda part: {"npr": int(part is None)},
    "search.search_exp": _search_outcome,
    "search.prime_omega": None,
    "witness.find_positive_solution": lambda z: {"z": int(z is not None)},
    "witness.lift": None,
    "witness.path_sums": None,
    "witness.verify_witness": None,
}


class Tracer:
    """Wrappers for TARGETS in every expreg namespace, installed on demand.

    Entering the context finds every namespace entry to patch; `install`
    and `uninstall` then only swap attributes, which is cheap enough to do
    around each item.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, func, outcome):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span[5] = {"raised." + type(exc).__name__: 1}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("expreg")] + [
            importlib.import_module(f"expreg.{m}") for m in MODULES
        ]
        for name, outcome in TARGETS.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"expreg.{module}"], attr)
            wrapper = self._wrap(name, original, outcome)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        return self

    def install(self) -> None:
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str, item: int):
        """The benchmark's own root span around one item."""
        self.item = item
        span = [name, time.perf_counter(), 0.0, -1, item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start an empty list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per name: self seconds, calls, and outcome counts, over the given spans.

    Self time is a span's duration minus the durations of its children;
    `npr_self_s` is the self time of calls whose outcome was not PR, and
    `trace.pass_s` the time inside root spans.  Keys ending in `_s` are
    seconds, all others are counts.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(int)
    for i, (name, start, end, parent, _, outcome) in enumerate(spans):
        own = end - start - child[i]
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        for key, count in (outcome or {}).items():
            totals[f"{name}.{key}"] += count
        if outcome and outcome.get("npr"):
            totals[f"{name}.npr_self_s"] += own
        if parent < 0:
            totals["trace.pass_s"] += end - start
    return dict(totals)


def write_spans(path, spans: list[list]) -> None:
    """One JSON object per span, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for name, start, end, parent, item, outcome in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "item": item, "outcome": outcome}
                )
                + "\n"
            )
