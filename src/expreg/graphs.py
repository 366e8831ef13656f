"""Multigraph structure of a system: components, spanning forest, cycle basis.

`build_linear_system` is the one analysis of a normalized system.  It takes
one spanning forest and walks it once; the walk gives the components and
the order in which tower levels are summed.  Each chord's cycle is one
climb from its endpoints up the walk's parent pointers, and its row sums
only the nonzero terms of the edges on that cycle, so a row costs the
path's length times their nonzero terms.  Later stages read that result
instead of recomputing any of it.

Edge indices are 1-based throughout, matching vertex numbering.  A signed
step (e, +1) traverses edge e from tail to head, (e, -1) the other way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .eqsys import ExpSystem
from .rado import IntMatrix


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
    # vertex -> [(neighbour, forest edge index, sign when leaving vertex)]
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for idx in forest:
        e = sys.edges[idx - 1]
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
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


def parent_table(sys: ExpSystem, walk: list[tuple[int, tuple[int, int] | None]]):
    """vertex -> (parent, signed step from the parent, depth), read off a
    forest walk; a root is its own parent, with step None and depth 0."""
    table: list = [None] * (sys.num_vertices + 1)
    for v, step in walk:
        if step is None:
            table[v] = (v, None, 0)
        else:
            idx, sign = step
            e = sys.edges[idx - 1]
            parent = e.tail if sign > 0 else e.head
            table[v] = (parent, step, table[parent][2] + 1)
    return table


def tree_path(table: list, start: int, end: int) -> tuple[tuple[int, int], ...]:
    """The signed steps of the unique forest path from start to end.

    Both endpoints climb the parent table, the deeper one first, until they
    meet; they must lie in one weak component.  Costs the path's length.
    """
    up: list[tuple[int, int]] = []
    down: list[tuple[int, int]] = []
    while start != end:
        if table[start][2] >= table[end][2]:
            start, (idx, sign), _ = table[start]
            up.append((idx, -sign))
        else:
            end, step, _ = table[end]
            down.append(step)
    down.reverse()
    return tuple(up + down)


def fundamental_cycles(
    sys: ExpSystem, walk: list[tuple[int, tuple[int, int] | None]]
) -> list[SignedCycle]:
    """One cycle per edge outside the walk's forest: the edge forward, then
    the forest path back.

    Loops become singleton cycles.  The parent table is built only when
    some non-loop edge needs a path, so loops alone cost no table.
    """
    in_forest = {step[0] for _, step in walk if step is not None}
    table = None
    cycles = []
    for idx, e in enumerate(sys.edges, start=1):
        if idx in in_forest:
            continue
        if e.tail == e.head:
            cycles.append(SignedCycle(((idx, +1),)))
        else:
            if table is None:
                table = parent_table(sys, walk)
            cycles.append(SignedCycle(((idx, +1),) + tree_path(table, e.head, e.tail)))
    return cycles


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
    cycles = fundamental_cycles(sys, walk) if len(forest) < len(sys.edges) else []
    terms: dict[int, list[tuple[int, int]]] = {}  # edge -> its nonzero (column, coefficient)
    rows = []
    for cyc in cycles:
        first = sys.edges[cyc.steps[0][0] - 1]
        if first.tail == first.head:
            rows.append(first.coeffs)
            continue
        row = [0] * sys.num_y
        for idx, sign in cyc.steps:
            nonzero = terms.get(idx)
            if nonzero is None:
                coeffs = sys.edges[idx - 1].coeffs
                columns = compress(range(len(coeffs)), coeffs)
                nonzero = terms[idx] = [(i, coeffs[i]) for i in columns]
            for i, c in nonzero:
                row[i] -= sign * c
        rows.append(tuple(row))
    matrix = IntMatrix(len(rows), sys.num_y, tuple(rows))
    return LinearSystem(matrix, tuple(cycles), sys, walk, component_map(walk))
