"""Independent oracles and strategies for the test suite.

Everything here re-derives results through a different code path than the
package: the brute-force partition search enumerates label vectors, the
span test solves an augmented system, and simple cycles come from subset
enumeration.  Keeping these separate is the point.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from expreg.eqsys import Edge, ExpSystem
from expreg.graphs import component_map, path_weight, spanning_forest, tree_path
from expreg.rado import IntMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"
SCHEMA = REPO_ROOT / "schema" / "decision-report.schema.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# rational span / kernel, solved rather than reduced


def solves_in_span(vectors, target) -> bool:
    """target = sum x_i * vectors_i has a rational solution (augmented elimination)."""
    m = len(target)
    r = len(vectors)
    aug = [
        [Fraction(vectors[j][i]) for j in range(r)] + [Fraction(target[i])]
        for i in range(m)
    ]
    row = 0
    for col in range(r):
        pivot = next((i for i in range(row, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
        if row == m:
            break
    return not any(
        all(v == 0 for v in aug[i][:r]) and aug[i][r] != 0 for i in range(m)
    )


def rational_kernel(rows, n: int) -> list[tuple[int, ...]]:
    """Integer basis of the kernel of the given row matrix (RREF + clearing)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [v / pv for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        lcm = 1
        for v in vec:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        basis.append(tuple(int(v * lcm) for v in vec))
    return basis


# ---------------------------------------------------------------------------
# brute-force columns property over label vectors


def brute_columns_property(matrix: IntMatrix):
    """First valid ordered partition under lexicographic label-vector order."""
    n = matrix.num_cols
    cols = matrix.columns()
    for labels in itertools.product(range(n), repeat=n):
        used = sorted(set(labels))
        if used != list(range(len(used))):
            continue
        blocks = [
            tuple(j + 1 for j in range(n) if labels[j] == c) for c in range(len(used))
        ]
        if _partition_valid(cols, blocks):
            return tuple(blocks)
    return None


def _partition_valid(cols, blocks) -> bool:
    if any(_block_sum(cols, blocks[0])):
        return False
    earlier = [cols[j - 1] for j in blocks[0]]
    for block in blocks[1:]:
        if not solves_in_span(earlier, _block_sum(cols, block)):
            return False
        earlier.extend(cols[j - 1] for j in block)
    return True


def _block_sum(cols, block):
    dim = len(cols[0])
    return tuple(sum(cols[j - 1][i] for j in block) for i in range(dim))


# ---------------------------------------------------------------------------
# exhaustive simple-cycle enumeration by edge subsets


def simple_cycle_rows(sys: ExpSystem) -> list[tuple[int, ...]]:
    """Signed coefficient row of every simple cycle (loops and 2-cycles included)."""
    m = len(sys.edges)
    rows = []
    for mask in range(1, 1 << m):
        idxs = [i + 1 for i in range(m) if mask & (1 << i)]
        row = _subset_cycle_row(sys, idxs)
        if row is not None:
            rows.append(row)
    return rows


def _subset_cycle_row(sys: ExpSystem, idxs):
    deg: Counter = Counter()
    for i in idxs:
        e = sys.edges[i - 1]
        deg[e.tail] += 1
        deg[e.head] += 1
    if any(d != 2 for d in deg.values()):
        return None
    adj = defaultdict(list)
    for i in idxs:
        e = sys.edges[i - 1]
        adj[e.tail].append((i, e.head))
        if e.tail != e.head:
            adj[e.head].append((i, e.tail))
    start = min(deg)
    signs = {}
    current = start
    used = set()
    while True:
        step = next(((i, w) for i, w in adj[current] if i not in used), None)
        if step is None:
            break
        i, w = step
        used.add(i)
        signs[i] = 1 if sys.edges[i - 1].tail == current else -1
        current = w
    if used != set(idxs) or current != start:
        return None
    row = [0] * sys.num_y
    for i, sign in signs.items():
        for j, c in enumerate(sys.edges[i - 1].coeffs):
            row[j] += sign * c
    return tuple(row)


def simple_paths(sys: ExpSystem, start: int, end: int):
    """All vertex-simple signed paths between two vertices (loops excluded)."""
    adj = defaultdict(list)
    for i, e in enumerate(sys.edges, start=1):
        if e.tail != e.head:
            adj[e.tail].append((i, e.head, 1))
            adj[e.head].append((i, e.tail, -1))
    paths = []

    def dfs(v, steps, visited):
        if v == end:
            paths.append(tuple(steps))
            return
        for i, w, sign in adj[v]:
            if w not in visited:
                visited.add(w)
                steps.append((i, sign))
                dfs(w, steps, visited)
                steps.pop()
                visited.remove(w)

    if start == end:
        return [()]
    dfs(start, [], {start})
    return paths


# ---------------------------------------------------------------------------
# per-vertex forest paths


def tree_path_sums(sys: ExpSystem, z) -> tuple[int, ...]:
    """Raw tower levels with one forest path per vertex, from its component's
    smallest vertex: the quadratic construction that path_sums replaces."""
    forest = spanning_forest(sys)
    reps = component_map(sys)
    return tuple(
        path_weight(sys, tree_path(sys, forest, reps[v], v), z)
        for v in range(1, sys.num_vertices + 1)
    )


# ---------------------------------------------------------------------------
# hypothesis strategies


def edges_strategy(n: int, coeff: int, allow_zero=True):
    low = -coeff
    coeff_list = st.lists(st.integers(low, coeff), min_size=n, max_size=n)
    return st.tuples(st.integers(1, n), st.integers(1, n), coeff_list).map(
        lambda t: Edge(t[0], t[1], tuple(t[2]))
    )


def systems_strategy(max_n: int = 4, max_edges: int = 5, coeff: int = 2):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(edges_strategy(n, coeff), max_size=max_edges).map(
            lambda es: ExpSystem(n, n, tuple(es))
        )
    )


def forests_strategy(max_n: int = 10, coeff: int = 3):
    """Acyclic systems with several components, edges either way round and
    negative coefficients, so raw path sums go below zero.

    Vertices join in a random order; each one after the first may attach to
    an earlier one or start a component of its own.
    """

    def build(n, order, links):
        edges = []
        for i, (attach, j, forward, coeffs) in enumerate(links[1:], start=1):
            if attach:
                u, v = order[j % i], order[i]
                edges.append(Edge(u, v, coeffs) if forward else Edge(v, u, coeffs))
        return ExpSystem(n, n, tuple(edges))

    def link(n):
        coeffs = st.lists(st.integers(-coeff, coeff), min_size=n, max_size=n).map(tuple)
        return st.tuples(st.booleans(), st.integers(0, n), st.booleans(), coeffs)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.permutations(range(1, n + 1)),
            st.lists(link(n), min_size=n, max_size=n),
        )
    )
