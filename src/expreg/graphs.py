"""Multigraph structure of a system: components, spanning forest, cycle basis.

`build_linear_system` is the one analysis of a normalized system: from one
spanning forest, the chords give the cycle rows of the linear side and one
walk gives the components and the order in which tower levels are summed.
Later stages read that result instead of recomputing any of it.

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
    """The analysis of `system`: one cycle-indexed row of constraints on the
    Y-exponents per basis cycle, and the forest walk and component map
    (vertex -> smallest vertex of its weak component) of the same forest."""

    matrix: IntMatrix
    cycles: tuple[SignedCycle, ...]
    system: ExpSystem
    walk: list[tuple[int, tuple[int, int] | None]]
    reps: dict[int, int]


def _adjacency(sys: ExpSystem, forest: tuple[int, ...]):
    """vertex -> [(neighbour, forest edge index, sign when leaving vertex)]."""
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for idx in forest:
        e = sys.edges[idx - 1]
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    return adj


def weak_components(sys: ExpSystem) -> list[list[int]]:
    """Connected components of the underlying undirected multigraph.

    Blocks are sorted by smallest member, which doubles as the canonical
    representative.
    """
    blocks: dict[int, list[int]] = {}
    reps = component_map(forest_walk(sys, spanning_forest(sys)))
    for v in range(1, sys.num_vertices + 1):
        blocks.setdefault(reps[v], []).append(v)
    return list(blocks.values())


def component_map(walk: list[tuple[int, tuple[int, int] | None]]) -> dict[int, int]:
    """vertex -> smallest vertex of its weak component, read off a forest walk.

    The walk lists each component in one run that starts at its root, the
    component's smallest vertex, which is the only vertex with step None.
    """
    reps: dict[int, int] = {}
    root = 0
    for v, step in walk:
        if step is None:
            root = v
        reps[v] = root
    return reps


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


def forest_walk(
    sys: ExpSystem, forest: tuple[int, ...]
) -> list[tuple[int, tuple[int, int] | None]]:
    """Every vertex in breadth-first order over the given spanning forest.

    Each weak component is rooted at its smallest vertex, which comes with
    step None; every other vertex comes after its parent, with the signed
    step (edge, sign) that leads from the parent to it.  One pass over the
    forest adjacency, built once: O(V + E).
    """
    adj = _adjacency(sys, forest)
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
    adj = _adjacency(sys, forest)
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


def fundamental_cycles(sys: ExpSystem, forest: tuple[int, ...]) -> list[SignedCycle]:
    """One cycle per non-forest edge: the edge forward, then the forest path back.

    Loops become singleton cycles.
    """
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


def cycle_edge_sum(sys: ExpSystem, cycle: SignedCycle) -> tuple[int, ...]:
    """Signed sum of the coefficient vectors along the cycle's step order."""
    total = [0] * sys.num_y
    for idx, sign in cycle.steps:
        e = sys.edges[idx - 1]
        for i, c in enumerate(e.coeffs):
            total[i] += sign * c
    return tuple(total)


def build_linear_system(sys: ExpSystem) -> LinearSystem:
    """The linear constraint system on the Y-exponents, one row per basis cycle,
    with the forest walk and component map of the same spanning forest.

    Row orientation: loops are traversed forward; for a chord cycle the row
    follows the forest path from the chord's tail to its head (so a pair of
    parallel edges u, v contributes u - v, and a triangle with chord w
    contributes u + v - w).  The stored cycles list the chord first, which
    is the opposite traversal; either sign gives the same constraint.
    """
    forest = spanning_forest(sys)
    walk = forest_walk(sys, forest)
    cycles = fundamental_cycles(sys, forest)
    rows = []
    for cyc in cycles:
        s = cycle_edge_sum(sys, cyc)
        first = sys.edges[cyc.steps[0][0] - 1]
        if first.tail == first.head:
            rows.append(s)
        else:
            rows.append(tuple(-v for v in s))
    matrix = IntMatrix(len(rows), sys.num_y, tuple(rows))
    return LinearSystem(matrix, tuple(cycles), sys, walk, component_map(walk))
