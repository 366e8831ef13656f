"""Multigraph structure of a system: components, spanning forest, cycle basis.

Edge indices are 1-based throughout, matching vertex numbering.  A signed
step (e, +1) traverses edge e from tail to head, (e, -1) the other way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .eqsys import ExpSystem
from .rado import IntMatrix


class VerticesDisconnected(ValueError):
    pass


@dataclass(frozen=True)
class SignedPath:
    """A walk through the underlying undirected multigraph."""

    steps: tuple[tuple[int, int], ...]
    start: int
    end: int


@dataclass(frozen=True)
class SignedCycle:
    """A closed walk; no edge index repeats."""

    steps: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class LinearSystem:
    """The cycle-indexed linear constraints on the Y-exponents."""

    matrix: IntMatrix
    cycles: tuple[SignedCycle, ...]


def _adjacency(sys: ExpSystem, restrict: set[int] | None = None):
    """vertex -> [(neighbour, edge index, sign when leaving vertex)], loops omitted."""
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for idx, e in enumerate(sys.edges, start=1):
        if restrict is not None and idx not in restrict:
            continue
        if e.tail == e.head:
            continue
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    return adj


def weak_components(sys: ExpSystem) -> list[list[int]]:
    """Connected components of the underlying undirected multigraph.

    Blocks are sorted by smallest member, which doubles as the canonical
    representative.
    """
    adj = _adjacency(sys)
    seen: set[int] = set()
    blocks = []
    for v in range(1, sys.num_vertices + 1):
        if v in seen:
            continue
        block = []
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            block.append(u)
            for w, _, _ in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        blocks.append(sorted(block))
    return blocks


def component_map(sys: ExpSystem) -> dict[int, int]:
    """vertex -> smallest vertex of its weak component."""
    return {v: block[0] for block in weak_components(sys) for v in block}


def spanning_forest(sys: ExpSystem) -> tuple[int, ...]:
    """Edge indices forming a spanning forest; edges considered in list order."""
    parent = list(range(sys.num_vertices + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = []
    for idx, e in enumerate(sys.edges, start=1):
        if e.tail == e.head:
            continue
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[max(a, b)] = min(a, b)
            forest.append(idx)
    return tuple(forest)


def forest_walk(sys: ExpSystem) -> list[tuple[int, tuple[int, int] | None]]:
    """Every vertex in breadth-first order over the spanning forest.

    Each weak component is rooted at its smallest vertex, which comes with
    step None; every other vertex comes after its parent, with the signed
    step (edge, sign) that leads from the parent to it.  One pass over the
    forest adjacency, built once: O(V + E).
    """
    adj = _adjacency(sys, restrict=set(spanning_forest(sys)))
    seen = [False] * (sys.num_vertices + 1)
    order: list[tuple[int, tuple[int, int] | None]] = []
    for root in range(1, sys.num_vertices + 1):
        if seen[root]:
            continue
        seen[root] = True
        order.append((root, None))
        front = len(order) - 1
        while front < len(order):
            u = order[front][0]
            front += 1
            for w, idx, sign in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, (idx, sign)))
    return order


def tree_path(sys: ExpSystem, forest: tuple[int, ...], start: int, end: int) -> SignedPath:
    """The unique forest path from start to end.

    Raises VerticesDisconnected when the endpoints lie in different weak
    components.
    """
    adj = _adjacency(sys, restrict=set(forest))
    if start == end:
        return SignedPath((), start, end)
    back: dict[int, tuple[int, int, int]] = {}  # vertex -> (previous vertex, edge, sign)
    queue = deque([start])
    seen = {start}
    while queue:
        u = queue.popleft()
        if u == end:
            break
        for w, idx, sign in adj[u]:
            if w not in seen:
                seen.add(w)
                back[w] = (u, idx, sign)
                queue.append(w)
    if end not in back:
        raise VerticesDisconnected(f"no path between {start} and {end}")
    steps = []
    v = end
    while v != start:
        u, idx, sign = back[v]
        steps.append((idx, sign))
        v = u
    steps.reverse()
    return SignedPath(tuple(steps), start, end)


def fundamental_cycles(sys: ExpSystem, forest: tuple[int, ...] | None = None) -> list[SignedCycle]:
    """One cycle per non-forest edge: the edge forward, then the forest path back.

    Loops become singleton cycles.
    """
    if forest is None:
        forest = spanning_forest(sys)
    in_forest = set(forest)
    cycles = []
    for idx, e in enumerate(sys.edges, start=1):
        if idx in in_forest:
            continue
        if e.tail == e.head:
            cycles.append(SignedCycle(((idx, +1),)))
        else:
            back = tree_path(sys, forest, e.head, e.tail)
            cycles.append(SignedCycle(((idx, +1),) + back.steps))
    return cycles


def path_weight(sys: ExpSystem, path: SignedPath, z: tuple[int, ...]) -> int:
    """Signed sum of coefficient-vector dot products along the path."""
    total = 0
    for idx, sign in path.steps:
        e = sys.edges[idx - 1]
        total += sign * sum(c * zz for c, zz in zip(e.coeffs, z))
    return total


def cycle_edge_sum(sys: ExpSystem, cycle: SignedCycle) -> tuple[int, ...]:
    """Signed sum of the coefficient vectors along the cycle's step order."""
    total = [0] * sys.num_y
    for idx, sign in cycle.steps:
        e = sys.edges[idx - 1]
        for i, c in enumerate(e.coeffs):
            total[i] += sign * c
    return tuple(total)


def build_linear_system(sys: ExpSystem) -> LinearSystem:
    """The linear constraint system on the Y-exponents, one row per basis cycle.

    Row orientation: loops are traversed forward; for a chord cycle the row
    follows the forest path from the chord's tail to its head (so a pair of
    parallel edges u, v contributes u - v, and a triangle with chord w
    contributes u + v - w).  The stored cycles list the chord first, which
    is the opposite traversal; either sign gives the same constraint.
    """
    cycles = fundamental_cycles(sys)
    rows = []
    for cyc in cycles:
        s = cycle_edge_sum(sys, cyc)
        first = sys.edges[cyc.steps[0][0] - 1]
        if first.tail == first.head:
            rows.append(s)
        else:
            rows.append(tuple(-v for v in s))
    matrix = IntMatrix(len(rows), sys.num_y, tuple(rows))
    return LinearSystem(matrix, tuple(cycles))
