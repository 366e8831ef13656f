"""Core data model: exponential equation systems over paired X/Y variables.

A system couples a multigraph on the X-variables with one integer exponent
vector per edge.  An edge (i, j) with coefficient vector c encodes the
equation X_i ^ (Y_1^c1 * ... * Y_n^cn) = X_j.  All variables range over
integers > 1.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class Edge(NamedTuple):
    """One equation: X_tail raised to a Y-monomial equals X_head."""

    tail: int
    head: int
    coeffs: tuple[int, ...]

    def is_identity(self) -> bool:
        """True when the exponent vector is zero, i.e. the edge reads X_tail = X_head."""
        return not any(self.coeffs)


class ExpSystem(NamedTuple):
    """A system of exponential equations.

    `num_vertices` counts the X-variables (digraph vertices) and `num_y`
    the Y-variables (length of every coefficient vector).  Freshly authored
    systems are square (`num_vertices == num_y`); normalization may merge
    X-vertices and leave the Y-count untouched.
    """

    num_vertices: int
    num_y: int
    edges: tuple[Edge, ...]

    @classmethod
    def square(cls, n: int, edges: Iterable[tuple[int, int, Sequence[int]]]) -> "ExpSystem":
        """Build an n-by-n system from (tail, head, coeffs) triples."""
        return cls(n, n, tuple(Edge(t, h, tuple(c)) for t, h, c in edges))

    def is_square(self) -> bool:
        return self.num_vertices == self.num_y

    def has_loops(self) -> bool:
        return any(e.tail == e.head and not e.is_identity() for e in self.edges)

    def has_parallel_edges(self) -> bool:
        seen = set()
        for e in self.edges:
            if (e.tail, e.head) in seen:
                return True
            seen.add((e.tail, e.head))
        return False


def validate(sys: ExpSystem) -> list[str]:
    """Return a list of invariant violations; empty means well-formed."""
    problems = []
    if sys.num_vertices < 1:
        problems.append(f"vertex count must be >= 1, got {sys.num_vertices}")
    if sys.num_y < 1:
        problems.append(f"Y-variable count must be >= 1, got {sys.num_y}")
    for idx, e in enumerate(sys.edges, start=1):
        if not 1 <= e.tail <= sys.num_vertices:
            problems.append(f"edge {idx}: tail {e.tail} out of range 1..{sys.num_vertices}")
        if not 1 <= e.head <= sys.num_vertices:
            problems.append(f"edge {idx}: head {e.head} out of range 1..{sys.num_vertices}")
        if len(e.coeffs) != sys.num_y:
            problems.append(
                f"edge {idx}: coefficient vector has length {len(e.coeffs)}, expected {sys.num_y}"
            )
    return problems


def normalize(sys: ExpSystem) -> tuple[ExpSystem, dict[int, int]]:
    """Eliminate identity equations X_i = X_j by merging their vertices.

    Zero-coefficient edges are removed: loops are tautologies and are
    dropped; non-loops force their endpoints to coincide, so the endpoint
    classes are merged (union-find, applied in edge-list order) and every
    other edge is relabelled.  Surviving vertex classes are renumbered
    1..m by their smallest member.  Returns the reduced system and the
    old-to-new vertex map.
    """
    problems = validate(sys)
    if problems:
        raise ValueError("invalid system: " + "; ".join(problems))

    parent = list(range(sys.num_vertices + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in sys.edges:
        if e.is_identity() and e.tail != e.head:
            a, b = find(e.tail), find(e.head)
            if a != b:
                # keep the smaller index as class representative
                lo, hi = (a, b) if a < b else (b, a)
                parent[hi] = lo

    reps = sorted({find(v) for v in range(1, sys.num_vertices + 1)})
    new_label = {rep: i for i, rep in enumerate(reps, start=1)}
    relabel = {v: new_label[find(v)] for v in range(1, sys.num_vertices + 1)}

    edges = tuple(
        Edge(relabel[e.tail], relabel[e.head], e.coeffs)
        for e in sys.edges
        if not e.is_identity()
    )
    return ExpSystem(len(reps), sys.num_y, edges), relabel
