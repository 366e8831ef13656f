import random

from expreg.eqsys import ExpSystem
from expreg.graphs import (
    build_linear_system,
    component_map,
    forest_walk,
    parent_table,
    spanning_forest,
    tree_path,
)

from helpers import (
    SignedPath,
    path_weight,
    rational_kernel,
    reference_linear_system,
    reference_tree_path,
    reference_weak_components,
    simple_cycle_rows,
    simple_paths,
    solves_in_span,
)


def _sys(n, edges):
    return ExpSystem.square(n, edges)


def _zero(n):
    return [0] * n


def _walk(s):
    return forest_walk(s, spanning_forest(s))


class TestWeakComponents:
    def test_two_blocks(self):
        s = _sys(3, [(1, 2, _zero(3))])
        assert component_map(_walk(s)) == {1: 1, 2: 1, 3: 3}

    def test_empty_graph(self):
        s = _sys(2, [])
        assert component_map(_walk(s)) == {1: 1, 2: 2}

    def test_direction_ignored(self):
        s = _sys(3, [(1, 2, _zero(3)), (3, 2, _zero(3))])
        assert component_map(_walk(s)) == {1: 1, 2: 1, 3: 1}


def test_components_match_breadth_first_search():
    rng = random.Random(17)
    for _ in range(150):
        s = _random_multigraph(rng, 8, 10)
        blocks = reference_weak_components(s)
        reps = {v: block[0] for block in blocks for v in block}
        assert component_map(_walk(s)) == reps
        assert build_linear_system(s).reps == reps


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
        cycles = build_linear_system(s).cycles
        assert cycles == (((3, 1), (2, -1), (1, -1)),)

    def test_parallel(self):
        s = _sys(2, [(1, 2, [1, 0]), (1, 2, [0, 1])])
        (cycle,) = build_linear_system(s).cycles
        assert cycle == ((2, 1), (1, -1))

    def test_loop(self):
        s = _sys(1, [(1, 1, [2])])
        (cycle,) = build_linear_system(s).cycles
        assert cycle == ((1, 1),)


class TestForestWalk:
    def test_roots_at_smallest_vertex(self):
        s = _sys(4, [(2, 1, _zero(4)), (3, 2, _zero(4))])
        walk = forest_walk(s, spanning_forest(s))
        assert walk == [(1, 1, None), (2, 1, (1, -1)), (3, 2, (2, -1)), (4, 4, None)]

    def test_skips_chords_and_loops(self):
        s = _sys(3, [(1, 1, [1, 0, 0]), (1, 2, _zero(3)), (2, 3, _zero(3)), (3, 1, _zero(3))])
        assert _walk(s) == [(1, 1, None), (2, 1, (2, 1)), (3, 2, (3, 1))]

    def test_parent_precedes_child(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 8)
            edges = [
                (rng.randint(1, n), rng.randint(1, n), _zero(n)) for _ in range(rng.randint(0, 10))
            ]
            s = _sys(n, edges)
            walk = forest_walk(s, spanning_forest(s))
            assert sorted(v for v, _, _ in walk) == list(range(1, n + 1))
            placed = set()
            for v, parent, step in walk:
                if step is None:
                    assert parent == v
                else:
                    idx, sign = step
                    e = s.edges[idx - 1]
                    start, end = (e.tail, e.head) if sign > 0 else (e.head, e.tail)
                    assert (start, end) == (parent, v) and parent in placed
                placed.add(v)
            assert [v for v, _, step in walk if step is None] == [
                block[0] for block in reference_weak_components(s)
            ]


class TestTreePath:
    # the breadth-first reference that the parent-pointer climb must match
    def test_path_graph_reversed(self):
        s = _sys(3, [(1, 2, _zero(3)), (2, 3, _zero(3))])
        forest = spanning_forest(s)
        assert reference_tree_path(s, forest, 3, 1).steps == ((2, -1), (1, -1))

    def test_same_endpoints(self):
        s = _sys(2, [(1, 2, _zero(2))])
        assert reference_tree_path(s, spanning_forest(s), 2, 2).steps == ()


def test_tree_path_matches_breadth_first_search():
    # every ordered pair of vertices in one component, start = end included
    rng = random.Random(2718)
    pairs = 0
    for _ in range(150):
        s = _random_multigraph(rng, 12, 16)
        forest = spanning_forest(s)
        table = parent_table(forest_walk(s, forest))
        for block in reference_weak_components(s):
            for start in block:
                for end in block:
                    expected = reference_tree_path(s, forest, start, end).steps
                    assert tree_path(table, start, end) == expected
                    pairs += start != end
    assert pairs > 1000


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


def test_linear_system_matches_dense_reference():
    # coefficient vectors are often reused or zero, so parallel edges and
    # loops give zero rows; systems have several components
    rng = random.Random(31415)
    seen = {"loop": 0, "parallel": 0, "zero row": 0, "components": 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        pool = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)] + [(0,) * n]
        edges = [
            (rng.randint(1, n), rng.randint(1, n), rng.choice(pool))
            for _ in range(rng.randint(0, 12))
        ]
        s = _sys(n, edges)
        matrix, cycles = reference_linear_system(s)
        lin = build_linear_system(s)
        assert lin.matrix == matrix
        assert list(lin.cycles) == cycles
        ends = [frozenset((t, h)) for t, h, _ in edges]
        seen["loop"] += any(t == h for t, h, _ in edges)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["zero row"] += any(not any(row) for row in matrix.entries)
        seen["components"] += len(reference_weak_components(s)) > 1
    assert min(seen.values()) >= 50, seen


def test_cycle_space_rank():
    rng = random.Random(1234)
    for _ in range(150):
        s = _random_multigraph(rng, 8, 16)
        cycles = build_linear_system(s).cycles
        components = len(reference_weak_components(s))
        assert len(cycles) == len(s.edges) - s.num_vertices + components


def test_every_simple_cycle_in_basis_span():
    rng = random.Random(4321)
    for _ in range(60):
        s = _random_multigraph(rng, 6, 7)
        basis_rows = list(build_linear_system(s).matrix.entries)
        for row in simple_cycle_rows(s):
            assert solves_in_span(basis_rows, row)


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
