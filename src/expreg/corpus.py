"""Seeded random system corpus shared by the test suite and the scripts.

Every randomized check in the repository draws from here with an explicit
seed, so runs are reproducible byte for byte.  `run_experiment` is the
corpus experiment that `scripts/run_corpus.py` prints and acceptance
criterion 10 asserts.
"""

from __future__ import annotations

import random

from .dsl import print_colouring
from .eqsys import Edge, ExpSystem, normalize
from .graphs import build_linear_system
from .rado import is_partition_regular, mod_proof, proof_primes
from .search import DEFAULT_CEILING, Mod, RadoPNu, search_exp, search_witnesses

DEFAULT_SEED = 271828
# shape of a random system: vertex count, edge count, coefficient range
MAX_N = 4
MAX_EDGES = 5
COEFF_BOUND = 2

# colourings a PR system's lifted witnesses are asked to be monochromatic under
PANEL = (Mod(2), Mod(3), RadoPNu(3))
# verify bound per variable count (X plus Y), scaled so a full scan stays
# around 10^5 assignments
PICK_BOUNDS = {1: 40, 2: 40, 3: 20, 4: 10, 5: 7, 6: 6, 7: 5, 8: 4}


def random_system(rng: random.Random) -> ExpSystem:
    n = rng.randint(1, MAX_N)
    m = rng.randint(1, MAX_EDGES)
    edges = tuple(
        Edge(
            rng.randint(1, n),
            rng.randint(1, n),
            tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n)),
        )
        for _ in range(m)
    )
    return ExpSystem(n, n, edges)


def system_corpus(count: int, seed: int = DEFAULT_SEED) -> list[ExpSystem]:
    rng = random.Random(seed)
    return [random_system(rng) for _ in range(count)]


def run_experiment(count: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Decide the first `count` corpus systems and cross-check both certificates.

    A PR system is asked for a lifted witness that is monochromatic under
    each PANEL colouring (`search_witnesses`): none within its bounds is
    inconclusive, never a refutation.  Hard failures come from the not-PR
    side only; acceptance criterion 10 recolours the PR witnesses itself,
    on their materialised values.  A not-PR system takes the first prime
    with a mod-p proof, as `decide` does (some prime always has one), and
    its radop-nu colouring is then refuted by either check: a
    monochromatic lifted witness from `search_witnesses`, or a solution
    from the exhaustive search a little past its PICK_BOUNDS bound; either
    is a hard failure.  Each system's linear side is built once.  Returns
    the counts `pr`, `npr`, `hard_failures` and `inconclusive` (PANEL spec
    -> count), and `notes`, one line per hard failure.
    """
    out = {"pr": 0, "npr": 0, "hard_failures": 0, "notes": []}
    out["inconclusive"] = dict.fromkeys(PANEL, 0)
    for index, raw in enumerate(system_corpus(count, seed=seed), start=1):
        sys_, _ = normalize(raw)
        lin = build_linear_system(sys_)
        regular, _ = is_partition_regular(lin.matrix)
        nvars = sys_.num_vertices + sys_.num_y
        if regular:
            out["pr"] += 1
            for spec in PANEL:
                if search_witnesses(lin, spec) is None:
                    out["inconclusive"][spec] += 1
            continue
        out["npr"] += 1
        spec = RadoPNu(mod_proof(lin.matrix, proof_primes(lin.matrix)).prime)
        recheck = PICK_BOUNDS[min(nvars, 8)] + (1 if nvars >= 5 else 2)
        if search_witnesses(lin, spec) is not None:
            out["hard_failures"] += 1
            out["notes"].append(
                f"system {index}: a lifted witness is monochromatic under {print_colouring(spec)}"
            )
        elif search_exp(sys_, spec, recheck, DEFAULT_CEILING, lin).found:
            out["hard_failures"] += 1
            out["notes"].append(
                f"system {index}: emitted colouring {print_colouring(spec)} admitted a solution"
            )
    return out
