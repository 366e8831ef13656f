import random

import pytest

from expreg.eqsys import ExpSystem
from expreg.graphs import (
    SignedPath,
    VerticesDisconnected,
    build_linear_system,
    forest_walk,
    fundamental_cycles,
    path_weight,
    spanning_forest,
    tree_path,
    weak_components,
)
from expreg.rado import in_span

from helpers import rational_kernel, simple_cycle_rows, simple_paths


def _sys(n, edges):
    return ExpSystem.square(n, edges)


def _zero(n):
    return [0] * n


class TestWeakComponents:
    def test_two_blocks(self):
        s = _sys(3, [(1, 2, _zero(3))])
        assert weak_components(s) == [[1, 2], [3]]

    def test_empty_graph(self):
        s = _sys(2, [])
        assert weak_components(s) == [[1], [2]]

    def test_direction_ignored(self):
        s = _sys(3, [(1, 2, _zero(3)), (3, 2, _zero(3))])
        assert weak_components(s) == [[1, 2, 3]]


class TestSpanningForest:
    def test_triangle(self):
        s = _sys(3, [(1, 2, _zero(3)), (2, 3, _zero(3)), (1, 3, _zero(3))])
        assert spanning_forest(s) == (1, 2)

    def test_parallel_edges(self):
        s = _sys(2, [(1, 2, [1, 0]), (1, 2, [0, 1])])
        assert spanning_forest(s) == (1,)

    def test_empty(self):
        assert spanning_forest(_sys(2, [])) == ()


class TestFundamentalCycles:
    def test_triangle(self):
        s = _sys(3, [(1, 2, _zero(3)), (2, 3, _zero(3)), (1, 3, _zero(3))])
        cycles = fundamental_cycles(s)
        assert len(cycles) == 1
        assert cycles[0].steps == ((3, 1), (2, -1), (1, -1))

    def test_parallel(self):
        s = _sys(2, [(1, 2, [1, 0]), (1, 2, [0, 1])])
        (cycle,) = fundamental_cycles(s)
        assert cycle.steps == ((2, 1), (1, -1))

    def test_loop(self):
        s = _sys(1, [(1, 1, [2])])
        (cycle,) = fundamental_cycles(s)
        assert cycle.steps == ((1, 1),)


class TestForestWalk:
    def test_roots_at_smallest_vertex(self):
        s = _sys(4, [(2, 1, _zero(4)), (3, 2, _zero(4))])
        assert forest_walk(s) == [(1, None), (2, (1, -1)), (3, (2, -1)), (4, None)]

    def test_skips_chords_and_loops(self):
        s = _sys(3, [(1, 1, [1, 0, 0]), (1, 2, _zero(3)), (2, 3, _zero(3)), (3, 1, _zero(3))])
        assert forest_walk(s) == [(1, None), (2, (2, 1)), (3, (3, 1))]

    def test_parent_precedes_child(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 8)
            edges = [
                (rng.randint(1, n), rng.randint(1, n), _zero(n)) for _ in range(rng.randint(0, 10))
            ]
            s = _sys(n, edges)
            walk = forest_walk(s)
            assert sorted(v for v, _ in walk) == list(range(1, n + 1))
            placed = set()
            for v, step in walk:
                if step is not None:
                    idx, sign = step
                    e = s.edges[idx - 1]
                    parent, child = (e.tail, e.head) if sign > 0 else (e.head, e.tail)
                    assert child == v and parent in placed
                placed.add(v)
            assert [v for v, step in walk if step is None] == [
                block[0] for block in weak_components(s)
            ]


class TestTreePath:
    def test_path_graph_reversed(self):
        s = _sys(3, [(1, 2, _zero(3)), (2, 3, _zero(3))])
        forest = spanning_forest(s)
        assert tree_path(s, forest, 3, 1).steps == ((2, -1), (1, -1))

    def test_same_endpoints(self):
        s = _sys(2, [(1, 2, _zero(2))])
        assert tree_path(s, spanning_forest(s), 2, 2).steps == ()

    def test_disconnected(self):
        s = _sys(3, [(1, 2, _zero(3))])
        with pytest.raises(VerticesDisconnected):
            tree_path(s, spanning_forest(s), 1, 3)


class TestPathWeight:
    def test_single_edge(self):
        s = _sys(2, [(1, 2, [1, 1])])
        path = SignedPath(((1, 1),), 1, 2)
        assert path_weight(s, path, (1, 2)) == 3

    def test_reversed_edge(self):
        s = _sys(2, [(1, 2, [1, 1])])
        path = SignedPath(((1, -1),), 2, 1)
        assert path_weight(s, path, (1, 2)) == -3

    def test_empty_path(self):
        s = _sys(2, [(1, 2, [1, 1])])
        assert path_weight(s, SignedPath((), 1, 1), (1, 2)) == 0


class TestLinearSystem:
    def test_parallel_edges_row(self):
        s = _sys(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        lin = build_linear_system(s)
        assert lin.matrix.entries == ((2, -1),)

    def test_triangle_row(self):
        u, v, w = (1, 0, 0), (0, 2, 0), (0, 0, -1)
        s = _sys(3, [(1, 2, u), (2, 3, v), (1, 3, w)])
        lin = build_linear_system(s)
        expected = tuple(a + b - c for a, b, c in zip(u, v, w))
        assert lin.matrix.entries == (expected,)

    def test_loop_row(self):
        s = _sys(1, [(1, 1, [3])])
        assert build_linear_system(s).matrix.entries == ((3,),)

    def test_forest_empty(self):
        s = _sys(4, [(1, 3, _zero(4)), (2, 3, _zero(4))])
        lin = build_linear_system(s)
        assert lin.matrix.num_rows == 0
        assert lin.matrix.num_cols == 4


def _random_multigraph(rng, max_vertices, max_edges):
    n = rng.randint(1, max_vertices)
    m = rng.randint(0, max_edges)
    edges = [
        (rng.randint(1, n), rng.randint(1, n), [rng.randint(-2, 2) for _ in range(n)])
        for _ in range(m)
    ]
    return ExpSystem.square(n, edges)


def test_cycle_space_rank():
    rng = random.Random(1234)
    for _ in range(150):
        s = _random_multigraph(rng, 8, 16)
        cycles = fundamental_cycles(s)
        components = len(weak_components(s))
        assert len(cycles) == len(s.edges) - s.num_vertices + components


def test_every_simple_cycle_in_basis_span():
    rng = random.Random(4321)
    for _ in range(60):
        s = _random_multigraph(rng, 6, 7)
        basis_rows = list(build_linear_system(s).matrix.entries)
        for row in simple_cycle_rows(s):
            assert in_span(basis_rows, row)


def test_path_independence_for_kernel_vectors():
    # any z annihilated by the basis rows gives the same weight along every
    # simple path between the same endpoints
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        s = _random_multigraph(rng, 5, 6)
        lin = build_linear_system(s)
        kernel = rational_kernel(lin.matrix.entries, s.num_y)
        if not kernel:
            continue
        for z in kernel:
            for start in range(1, s.num_vertices + 1):
                for end in range(start, s.num_vertices + 1):
                    weights = {
                        sum(
                            sign * sum(c * v for c, v in zip(s.edges[i - 1].coeffs, z))
                            for i, sign in steps
                        )
                        for steps in simple_paths(s, start, end)
                    }
                    assert len(weights) <= 1
                    checked += len(weights)
    assert checked > 50
