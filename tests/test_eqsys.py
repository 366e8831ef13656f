import itertools
import random

import pytest
from hypothesis import given, settings

from expreg.eqsys import Edge, ExpSystem, normalize, validate
from expreg.search import PASS, eval_exp

from helpers import systems_strategy

BIG_CEILING = 10**5000  # exhaustive small evaluations must never hit it


def test_validate_well_formed():
    s = ExpSystem.square(2, [(1, 2, [1, 0])])
    assert validate(s) == []


def test_validate_out_of_range_head():
    s = ExpSystem.square(2, [(1, 3, [1, 0])])
    assert any("head 3 out of range" in p for p in validate(s))


def test_validate_coeff_length():
    s = ExpSystem.square(2, [(1, 2, [1])])
    assert any("length 1, expected 2" in p for p in validate(s))


def test_validate_empty_counts_and_tail():
    assert validate(ExpSystem(0, 1, ())) == ["vertex count must be >= 1, got 0"]
    assert validate(ExpSystem(1, 0, ())) == ["Y-variable count must be >= 1, got 0"]
    s = ExpSystem.square(2, [(3, 1, [1, 0])])
    assert validate(s) == ["edge 1: tail 3 out of range 1..2"]


def test_normalize_rejects_invalid_system():
    s = ExpSystem.square(2, [(3, 1, [1, 0])])
    with pytest.raises(ValueError, match=r"^invalid system: edge 1: tail 3 out of range 1\.\.2$"):
        normalize(s)


def test_normalize_merges_identity_edge():
    s = ExpSystem.square(2, [(1, 2, [0, 0]), (2, 2, [1, 1])])
    reduced, relabel = normalize(s)
    assert relabel == {1: 1, 2: 1}
    assert reduced.num_vertices == 1
    assert reduced.num_y == 2
    assert reduced.edges == (Edge(1, 1, (1, 1)),)


def test_normalize_keeps_plain_system():
    s = ExpSystem.square(2, [(1, 2, [1, 0])])
    reduced, relabel = normalize(s)
    assert reduced == s
    assert relabel == {1: 1, 2: 2}


def test_normalize_drops_tautological_loop():
    s = ExpSystem.square(1, [(1, 1, [0])])
    reduced, _ = normalize(s)
    assert reduced.edges == ()
    assert reduced.num_vertices == 1


def test_normalize_chain_is_order_independent():
    chain = [(1, 2, [0, 0, 0]), (2, 3, [0, 0, 0])]
    for perm in itertools.permutations(chain):
        reduced, relabel = normalize(ExpSystem.square(3, perm))
        assert reduced.num_vertices == 1
        assert set(relabel.values()) == {1}


def test_relabel_surjective():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        edges = [
            (rng.randint(1, n), rng.randint(1, n), [rng.choice([0, 0, 1]) for _ in range(n)])
            for _ in range(rng.randint(0, 6))
        ]
        reduced, relabel = normalize(ExpSystem.square(n, edges))
        assert set(relabel.values()) == set(range(1, reduced.num_vertices + 1))


@settings(max_examples=200, deadline=None)
@given(systems_strategy(max_n=4, max_edges=5, coeff=2))
def test_normalize_idempotent(s):
    once, _ = normalize(s)
    twice, relabel = normalize(once)
    assert twice == once
    assert relabel == {v: v for v in range(1, once.num_vertices + 1)}


def _is_solution(sys, xs, ys):
    return all(st == PASS for st in eval_exp(sys, xs, ys, BIG_CEILING))


def test_normalize_preserves_solutions_exhaustively():
    # systems with identity edges mixed in; every assignment with values in
    # {2,3,4} must keep its solution status across normalization
    rng = random.Random(7)
    checked_any = False
    for _ in range(25):
        n = rng.randint(1, 3)
        edges = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.4:
                coeffs = [0] * n
            else:
                coeffs = [rng.randint(-2, 2) for _ in range(n)]
            edges.append((rng.randint(1, n), rng.randint(1, n), coeffs))
        sys0 = ExpSystem.square(n, edges)
        reduced, relabel = normalize(sys0)
        for assignment in itertools.product((2, 3, 4), repeat=2 * n):
            xs, ys = assignment[:n], assignment[n:]
            original = _is_solution(sys0, xs, ys)
            induced = [None] * reduced.num_vertices
            consistent = True
            for old, new in relabel.items():
                if induced[new - 1] is None:
                    induced[new - 1] = xs[old - 1]
                elif induced[new - 1] != xs[old - 1]:
                    consistent = False
            if not consistent:
                # merged vertices got different values: cannot solve the
                # original either, since it contains that identity equation
                assert not original
                continue
            assert original == _is_solution(reduced, induced, ys)
            checked_any = True
    assert checked_any
