import os
import subprocess
import sys as _sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expreg.witness
from expreg.corpus import system_corpus
from expreg.eqsys import ExpSystem, normalize
from expreg.graphs import LinearSystem, build_linear_system
from expreg.rado import IntMatrix
from expreg.search import PASS, Constant, RadoP, RadoPNu, colour_of, eval_exp
from expreg.witness import (
    NotASolution,
    NotNormalized,
    Plain,
    SelfCheckFailed,
    Tower,
    Witness,
    compute_k,
    expand_pattern,
    find_positive_solution,
    forbidding_colouring,
    lift,
    nu_squared_reduce,
    path_sums,
    prime_omega,
    tower_to_int,
    verify_witness,
    weight,
)

from helpers import (
    REPO_ROOT,
    forests_strategy,
    rational_kernel,
    systems_strategy,
    tree_path_sums,
)


class TestPrimeOmega:
    def test_72(self):
        assert prime_omega(72) == 5

    def test_power(self):
        assert prime_omega(8) == 3

    def test_prime(self):
        assert prime_omega(1_000_003) == 1

    def test_undefined_below_two(self):
        for bad in (1, 0, -5):
            with pytest.raises(ValueError):
                prime_omega(bad)

    def test_large_semiprime(self):
        p, q = 999983, 999979
        assert prime_omega(p * q) == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6), st.integers(1, 10))
def test_omega_complete_additivity(x, y, m):
    assert prime_omega(x * y) == prime_omega(x) + prime_omega(y)
    assert prime_omega(x**m) == m * prime_omega(x)
    assert prime_omega(x) >= 1


class TestFindPositiveSolution:
    def test_lexicographic_first(self):
        assert find_positive_solution(IntMatrix.from_rows([[1, 1, -1]]), 4) == (1, 1, 2)

    def test_unconstrained(self):
        assert find_positive_solution(IntMatrix(0, 2, ()), 1) == (1, 1)

    def test_doubling(self):
        assert find_positive_solution(IntMatrix.from_rows([[2, -1]]), 10) == (1, 2)

    def test_out_of_bound(self):
        assert find_positive_solution(IntMatrix.from_rows([[5, -1]]), 4) is None

    def test_more_columns_than_the_recursion_limit(self):
        n = _sys.getrecursionlimit() + 500
        row = [1] + [0] * (n - 2) + [-1]
        assert find_positive_solution(IntMatrix.from_rows([row]), 2) == (1,) * n


class TestWeight:
    def test_single_edge(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert weight(s, (1, 2)) == 6

    def test_zero_coeffs(self):
        s = ExpSystem.square(2, [(1, 2, [0, 0])])
        assert weight(s, (1, 2)) == 0

    def test_two_edges(self):
        s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        assert weight(s, (1, 1)) == 6


class TestComputeK:
    def test_forward_edge(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert compute_k(s, (1, 2)) == (0, 3)

    def test_reversed_edge_shifts(self):
        s = ExpSystem.square(2, [(2, 1, [1, 0])])
        assert compute_k(s, (3, 1)) == (3, 0)

    def test_rejects_non_solution(self):
        s = ExpSystem.square(1, [(1, 1, [1])])
        with pytest.raises(NotASolution):
            compute_k(s, (1,))


class TestPathSums:
    @settings(max_examples=200, deadline=None)
    @given(systems_strategy(max_n=5, max_edges=7, coeff=3), st.data())
    def test_matches_per_vertex_paths(self, s, data):
        # any integer point of the kernel of the cycle rows is a valid z
        basis = rational_kernel(build_linear_system(s).matrix.entries, s.num_y)
        mults = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        z = tuple(sum(m * vec[i] for m, vec in zip(mults, basis)) for i in range(s.num_y))
        assert path_sums(s, z) == tree_path_sums(s, z)

    @settings(max_examples=200, deadline=None)
    @given(forests_strategy(), st.data())
    def test_matches_per_vertex_paths_on_forests(self, s, data):
        z = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=s.num_y, max_size=s.num_y)))
        assert path_sums(s, z) == tree_path_sums(s, z)

    def test_rejects_non_solution(self):
        s = ExpSystem.square(2, [(1, 2, [1, 0]), (1, 2, [0, 1])])
        with pytest.raises(NotASolution):
            path_sums(s, (1, 2))


class TestLift:
    def test_spec_instance(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        w = lift(s, (1, 2), a=2, b=3)
        assert w.ys == (Plain(3), Plain(9))
        assert w.k == (0, 3)
        assert w.xs == (Tower(2, 3, 0), Tower(2, 3, 3))
        # 2^(3*9) == 2^27, checked directly in the integers
        assert 2 ** (3 * 9) == 2**27
        assert verify_witness(s, w)

    def test_forest_always_lifts(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        for z in ((1, 1), (2, 3), (4, 4)):
            assert verify_witness(s, lift(s, z))

    def test_rejects_non_solution(self):
        s = ExpSystem.square(1, [(1, 1, [1])])
        with pytest.raises(NotASolution):
            lift(s, (2,))

    def test_self_check_rejects_inconsistent_levels(self, monkeypatch):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        monkeypatch.setattr(expreg.witness, "compute_k", lambda sys, z: (0, 2))
        with pytest.raises(SelfCheckFailed):
            lift(s, (1, 2))

    def test_self_check_survives_optimize_flag(self):
        # `python -O` strips assert statements; the self-check must not be one
        code = (
            "import expreg.witness as w\n"
            "from expreg.eqsys import ExpSystem\n"
            "w.compute_k = lambda sys, z: (0, 2)\n"
            "try:\n"
            "    w.lift(ExpSystem.square(2, [(1, 2, [1, 1])]), (1, 2))\n"
            "except w.SelfCheckFailed:\n"
            "    print('raised')\n"
        )
        proc = subprocess.run(
            [_sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        )
        assert proc.stdout == "raised\n", proc.stderr


class TestVerifyWitness:
    def test_bad_levels(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        w = Witness(2, 2, (1, 2), (0, 2), (Tower(2, 2, 0), Tower(2, 2, 2)), (Plain(2), Plain(4)))
        assert not verify_witness(s, w)  # 0 + 3 != 2

    def test_empty_system(self):
        s = ExpSystem.square(1, [])
        w = Witness(2, 2, (1,), (0,), (Tower(2, 2, 0),), (Plain(2),))
        assert verify_witness(s, w)


class TestForbiddingColouring:
    def test_power_of_two(self):
        f = forbidding_colouring(RadoP(3))
        assert isinstance(f, RadoPNu)
        assert colour_of(f, 2**6) == 2

    def test_constant_passthrough(self):
        c = Constant(7)
        assert forbidding_colouring(c) is c

    def test_36(self):
        f = forbidding_colouring(RadoP(3))
        assert colour_of(f, 36) == 1


class TestExpandPattern:
    def test_order_and_count(self):
        values = expand_pattern((1, 2), 2, 2, 3)
        assert values == [Plain(2), Plain(3), Plain(9), Tower(2, 3, 1), Tower(2, 3, 2)]
        assert len(values) == 2 + 2 + 1

    def test_sisto_triple(self):
        a, b = 5, 6
        values = expand_pattern((1,), 1, a, b)
        assert values == [Plain(a), Plain(b), Tower(a, b, 1)]
        assert tower_to_int(values[2], 10**30) == a**b

    def test_degenerate(self):
        assert expand_pattern((), 0, 2, 2) == [Plain(2)]


class TestNuSquaredReduce:
    def test_parallel_edges(self):
        s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        assert nu_squared_reduce(s).entries == ((2, -1),)

    def test_forest(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        m = nu_squared_reduce(s)
        assert m.num_rows == 0 and m.num_cols == 2

    def test_triangle(self):
        u, v, w = (1, -2, 0), (0, 1, 1), (2, 0, -1)
        s = ExpSystem.square(3, [(1, 2, u), (2, 3, v), (1, 3, w)])
        expected = tuple(a + b - c for a, b, c in zip(u, v, w))
        assert nu_squared_reduce(s).entries == (expected,)

    def test_requires_normalized(self):
        s = ExpSystem.square(2, [(1, 2, [0, 0])])
        with pytest.raises(NotNormalized):
            nu_squared_reduce(s)

    def test_self_check_rejects_disagreement(self, monkeypatch):
        s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        real = build_linear_system(s)
        skewed = LinearSystem(IntMatrix.from_rows([[2, 1]]), real.cycles)
        monkeypatch.setattr(expreg.witness, "build_linear_system", lambda sys: skewed)
        with pytest.raises(SelfCheckFailed):
            nu_squared_reduce(s)


def _lift_corpus(count=100, bound=20):
    from expreg.corpus import iter_systems

    out = []
    for raw in iter_systems():
        sys, _ = normalize(raw)
        z = find_positive_solution(build_linear_system(sys).matrix, bound)
        if z is not None:
            out.append((sys, z))
            if len(out) == count:
                return out
    return out


def test_lift_soundness_over_corpus():
    cases = _lift_corpus()
    assert len(cases) >= 100
    for sys, z in cases:
        for a in (2, 3):
            for b in (2, 3):
                w = lift(sys, z, a, b)
                assert verify_witness(sys, w)
                # edge identity on every edge, including non-forest ones
                for e in sys.edges:
                    step = sum(c * v for c, v in zip(e.coeffs, z))
                    assert w.k[e.head - 1] - w.k[e.tail - 1] == step


def test_level_range_bound_over_corpus():
    for sys, z in _lift_corpus():
        k = compute_k(sys, z)
        cap = 2 * weight(sys, z)
        assert all(0 <= kv <= cap for kv in k)


def test_reduction_round_trip_over_corpus():
    for raw in system_corpus(120):
        sys, _ = normalize(raw)
        assert nu_squared_reduce(sys) == build_linear_system(sys).matrix


def test_forbidding_soundness_desk_scale():
    # if the digit colouring forbids linear solutions up to the factor-count
    # budget, its composition with the factor count forbids exponential
    # solutions whose values stay below 2^budget
    from expreg.search import search_exp, search_lin

    s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
    matrix = build_linear_system(s).matrix
    # values <= 40 have factor count <= 5, so a linear bound of 6 covers them
    assert search_lin(matrix, RadoP(3), 6).exhausted
    assert search_exp(s, RadoPNu(3), 40, 10**6).exhausted


def test_small_witness_evaluates():
    s, _ = normalize(ExpSystem.square(2, [(1, 2, [1, 1])]))
    w = lift(s, (1, 1), 2, 2)
    xs = [tower_to_int(t, 10**9) for t in w.xs]
    ys = [tower_to_int(t, 10**9) for t in w.ys]
    assert None not in xs and None not in ys
    assert all(st == PASS for st in eval_exp(s, xs, ys, 10**9))


def test_pattern_covers_lifted_witness():
    # with the doubled level budget, the expanded pattern for (z, a, b)
    # contains every value a lifted witness uses

    def canon(tv):
        return Plain(tv.base) if isinstance(tv, Tower) and tv.level == 0 else tv

    for sys, z in _lift_corpus(count=40):
        a, b = 3, 2
        w = lift(sys, z, a, b)
        values = {canon(tv) for tv in expand_pattern(z, 2 * weight(sys, z), a, b)}
        for tv in w.xs + w.ys:
            assert canon(tv) in values
