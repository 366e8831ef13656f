"""Multigraph structure of a system: components, spanning forest, cycle basis.

`build_linear_system` is the one analysis of a normalized system.  It takes
one spanning forest and walks it once; the walk records each vertex's
parent, and gives the components and the order in which tower levels are
summed.  One loop over the edges outside the forest then builds each basis
cycle together with its row: a chord's cycle is one climb from its
endpoints up the walk's parent pointers, and its row sums only the nonzero
terms of the edges on that cycle, so a row costs the path's length times
their nonzero terms.  Later stages read that result instead of recomputing
any of it.

Edge indices are 1-based throughout, matching vertex numbering.  A signed
step (e, +1) traverses edge e from tail to head, (e, -1) the other way; a
cycle is the tuple of its signed steps, and no edge index repeats in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .eqsys import ExpSystem
from .rado import IntMatrix


@dataclass(frozen=True)
class LinearSystem:
    """The analysis of `system`: one cycle-indexed row of constraints on the
    Y-exponents per basis cycle ((edge, sign), ...), and the forest walk
    ((vertex, parent, step) entries) and component map (vertex -> smallest
    vertex of its weak component) of the same forest."""

    matrix: IntMatrix
    cycles: tuple[tuple[tuple[int, int], ...], ...]
    system: ExpSystem
    walk: list[tuple[int, int, tuple[int, int] | None]]
    reps: dict[int, int]


def component_map(walk: list[tuple[int, int, tuple[int, int] | None]]) -> dict[int, int]:
    """vertex -> smallest vertex of its weak component, read off a forest walk.

    The walk lists each component in one run that starts at its root, the
    component's smallest vertex, which is the only vertex with step None.
    """
    reps: dict[int, int] = {}
    root = 0
    for v, _, step in walk:
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
) -> list[tuple[int, int, tuple[int, int] | None]]:
    """Every vertex in breadth-first order over the given spanning forest,
    as (vertex, parent, step).

    Each weak component is rooted at its smallest vertex, written
    (root, root, None); every other vertex comes after its parent, with the
    signed step (edge, sign) that leads from the parent to it.  One pass
    over the forest adjacency, built once: O(V + E).
    """
    # vertex -> [(neighbour, forest edge index, sign when leaving vertex)]
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for idx in forest:
        e = sys.edges[idx - 1]
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    seen = [False] * (sys.num_vertices + 1)
    order: list[tuple[int, int, tuple[int, int] | None]] = []
    for root in range(1, sys.num_vertices + 1):
        if seen[root]:
            continue
        seen[root] = True
        order.append((root, root, None))
        front = len(order) - 1
        while front < len(order):
            u = order[front][0]
            front += 1
            for w, idx, sign in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, u, (idx, sign)))
    return order


def parent_table(walk: list[tuple[int, int, tuple[int, int] | None]]):
    """vertex -> (parent, signed step from the parent, depth), read off a
    forest walk; a root is its own parent, with step None and depth 0."""
    table: list = [None] * (len(walk) + 1)
    for v, parent, step in walk:
        table[v] = (parent, step, 0 if step is None else table[parent][2] + 1)
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


def build_linear_system(sys: ExpSystem) -> LinearSystem:
    """The linear constraint system on the Y-exponents, one row per basis cycle,
    with the forest walk and component map of the same spanning forest.

    Each edge outside the forest, in edge order, gives one cycle and its
    row.  A loop is the cycle ((e, +1),) and its row is its own exponent
    vector.  A chord is traversed forward, then along the forest path from
    its head back to its tail; its row follows the forest path from the
    chord's tail to its head (so a pair of parallel edges u, v contributes
    u - v, and a triangle with chord w contributes u + v - w), which is the
    opposite traversal; either sign gives the same constraint.  The parent
    table is built at the first chord, so loops alone cost no table, and an
    acyclic system skips the loop.
    """
    forest = spanning_forest(sys)
    walk = forest_walk(sys, forest)
    cycles: list[tuple[tuple[int, int], ...]] = []
    rows = []
    if len(forest) < len(sys.edges):
        in_forest = set(forest)
        table = None
        terms: dict[int, list[tuple[int, int]]] = {}  # edge -> its nonzero (column, coefficient)
        for idx, e in enumerate(sys.edges, start=1):
            if idx in in_forest:
                continue
            if e.tail == e.head:
                cycles.append(((idx, +1),))
                rows.append(e.coeffs)
                continue
            if table is None:
                table = parent_table(walk)
            cycle = ((idx, +1),) + tree_path(table, e.head, e.tail)
            row = [0] * sys.num_y
            for edge, sign in cycle:
                nonzero = terms.get(edge)
                if nonzero is None:
                    coeffs = sys.edges[edge - 1].coeffs
                    columns = compress(range(len(coeffs)), coeffs)
                    nonzero = terms[edge] = [(i, coeffs[i]) for i in columns]
                for i, c in nonzero:
                    row[i] -= sign * c
            cycles.append(cycle)
            rows.append(tuple(row))
    matrix = IntMatrix(len(rows), sys.num_y, tuple(rows))
    return LinearSystem(matrix, tuple(cycles), sys, walk, component_map(walk))
