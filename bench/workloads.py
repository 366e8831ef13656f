"""Seeded input generators for the three benchmark workloads.

Nothing here imports expreg: the program receives only the generated
inputs.  A system is a `System(n, edges)` with n X-vertices, n Y-variables
and edges `(tail, head, coeffs)`; a matrix is a tuple of integer rows.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import oracles

# Items per workload.  Each count is sized so that one pass takes 15-30 s
# on a 2.1 GHz Xeon core, which keeps the seed-to-seed spread of the timing
# metrics inside their bounds.  cp-wide stays below 10,000 items so its
# tail percentile is p99 with about 95 samples beyond it.
CORPUS_COUNT = 800
CP_WIDE_COUNT = 9500
PR_DEEP_COUNT = 350

# The corpus is a stratified sample of the corpus generator: items per
# (variable count, PR by the oracle) cell, in the generator's long-run
# shares (24,000 systems) scaled to CORPUS_COUNT.  Latency differs by two
# orders of magnitude between cells, so a plain sample of 800 moves the
# median latency by 10% from seed to seed; fixed cell counts do not.
CORPUS_QUOTAS = {
    (1, False): 190, (1, True): 11,
    (2, False): 169, (2, True): 33,
    (3, False): 135, (3, True): 61,
    (4, False): 99, (4, True): 102,
}

# `--verify-bound` by raw variable count (X plus Y), as in the corpus
# experiment script; more variables need a smaller exhaustive lattice.
PICK_BOUNDS = {1: 40, 2: 40, 3: 20, 4: 10, 5: 7, 6: 6, 7: 5, 8: 4}

# cp-wide: the ROADMAP panel has 8-10 columns, but one 10-column not-PR
# matrix can take minutes and rare 8-column ones take a second, which
# makes a run's time hinge on a handful of matrices; the column range is
# shrunk for all matrices alike.
CP_ROWS = (2, 4)
CP_COLS = (6, 7)

# pr-deep: forest shape and coefficient sparsity.
DEEP_VERTICES = (60, 200)
DEEP_WINDOW = 8  # a vertex hangs off one of the 8 vertices before it
DEEP_NEW_ROOT = 0.03  # chance that a vertex starts a new weak component
DEEP_NONZERO = (1, 3)  # nonzero coefficients per edge
DEEP_COEFFS = (-2, -1, 1, 2)


class System(NamedTuple):
    n: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]


def corpus_stream(seed: int):
    """The corpus generator with its defaults (up to 4 variables, 5 edges,
    coefficients in [-2, 2]); the same seed gives the same systems, in the
    same order, as `expreg.corpus.system_corpus(count, seed)`."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        edges = tuple(
            (rng.randint(1, n), rng.randint(1, n), tuple(rng.randint(-2, 2) for _ in range(n)))
            for _ in range(m)
        )
        yield System(n, edges)


def corpus_systems(seed: int, count: int = CORPUS_COUNT) -> list[System]:
    """The seeded corpus stream, keeping a system while its cell's quota
    (scaled to `count`) has room.  Systems stay in stream order, so the
    first systems of the stream are always the first items."""
    quotas = {cell: max(1, round(q * count / CORPUS_COUNT)) for cell, q in CORPUS_QUOTAS.items()}
    systems = []
    for system in corpus_stream(seed):
        _, _, rows = oracles.forest_potentials(system.n, system.n, system.edges)
        cell = (system.n, oracles.columns_property(rows, system.n) is not None)
        if quotas[cell]:
            quotas[cell] -= 1
            systems.append(system)
            if not any(quotas.values()):
                return systems


def cp_wide_matrices(seed: int, count: int = CP_WIDE_COUNT) -> list[tuple[tuple[int, ...], ...]]:
    """Random {-1, 0, 1} matrices, the same number of each shape in
    CP_ROWS x CP_COLS (shapes in turn), so the mix of shapes is fixed."""
    rng = random.Random(seed)
    shapes = [(r, c) for r in range(CP_ROWS[0], CP_ROWS[1] + 1)
              for c in range(CP_COLS[0], CP_COLS[1] + 1)]
    return [
        tuple(tuple(rng.randint(-1, 1) for _ in range(cols)) for _ in range(rows))
        for rows, cols in (shapes[i % len(shapes)] for i in range(count))
    ]


def deep_systems(seed: int, count: int = PR_DEEP_COUNT) -> list[System]:
    """Acyclic systems: a random forest, one sparse edge per non-root vertex,
    with negative coefficients so levels shift.  Vertex counts are evenly
    spaced over DEEP_VERTICES, because time grows with their square."""
    rng = random.Random(seed)
    low, high = DEEP_VERTICES
    systems = []
    for i in range(count):
        n = low + (high - low) * i // max(1, count - 1)
        edges = []
        for v in range(2, n + 1):
            if rng.random() < DEEP_NEW_ROOT:
                continue
            u = rng.randint(max(1, v - DEEP_WINDOW), v - 1)
            tail, head = (u, v) if rng.random() < 0.5 else (v, u)
            coeffs = [0] * n
            for j in rng.sample(range(n), rng.randint(*DEEP_NONZERO)):
                coeffs[j] = rng.choice(DEEP_COEFFS)
            edges.append((tail, head, tuple(coeffs)))
        systems.append(System(n, tuple(edges)))
    return systems


def system_text(system: System) -> str:
    """The `.xps` document in the canonical form `dsl.print_system` writes."""
    lines = [f"system {system.n}"]
    for tail, head, coeffs in system.edges:
        factors = [
            f"Y{i}" if c == 1 else f"Y{i}^{c}" for i, c in enumerate(coeffs, start=1) if c
        ]
        lines.append(f"eq X{tail} ^ {'*'.join(factors) or '1'} = X{head}")
    return "\n".join(lines) + "\n"


def verify_bound(system: System) -> int:
    """The corpus `--verify-bound` for a system's raw variable count."""
    return PICK_BOUNDS[min(2 * system.n, 8)]


COUNTS = {"corpus": CORPUS_COUNT, "cp-wide": CP_WIDE_COUNT, "pr-deep": PR_DEEP_COUNT}
_GENERATORS = {"corpus": corpus_systems, "cp-wide": cp_wide_matrices, "pr-deep": deep_systems}


def generate(workload: str, seed: int, count: int | None = None) -> list:
    """The inputs of a workload for a seed; `count` overrides the item count."""
    return _GENERATORS[workload](seed, COUNTS[workload] if count is None else count)
