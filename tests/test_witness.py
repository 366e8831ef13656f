import dataclasses
import os
import random
import subprocess
import sys as _sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expreg.witness
from expreg.corpus import system_corpus
from expreg.eqsys import ExpSystem, normalize
from expreg.graphs import build_linear_system
from expreg.rado import ColumnsPartition, IntMatrix, columns_property
from expreg.search import PASS, RadoP, RadoPNu, colour_of, eval_exp
from expreg.witness import (
    MAX_Y_DIGITS,
    NotASolution,
    SelfCheckFailed,
    Witness,
    WitnessTooLarge,
    compute_k,
    find_positive_solution,
    iter_positive_solutions,
    lift,
    path_sums,
    prime_omega,
    verify_witness,
)

import helpers
from helpers import (
    REPO_ROOT,
    NotNormalized,
    annihilates,
    expand_pattern,
    forests_strategy,
    iter_systems,
    nu_squared_reduce,
    rational_kernel,
    search_lin,
    systems_strategy,
    tree_path_sums,
    weight,
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


def _first_solution(m: IntMatrix, bound: int):
    return next(iter_positive_solutions(m, bound), None)


class TestFindPositiveSolution:
    """The first solution of the lexicographic search, the reference for
    `find_positive_solution`'s construction (TestRadoConstruction)."""

    def test_lexicographic_first(self):
        assert _first_solution(IntMatrix.from_rows([[1, 1, -1]]), 4) == (1, 1, 2)

    def test_unconstrained(self):
        assert _first_solution(IntMatrix(0, 2, ()), 1) == (1, 1)

    def test_doubling(self):
        assert _first_solution(IntMatrix.from_rows([[2, -1]]), 10) == (1, 2)

    def test_out_of_bound(self):
        assert _first_solution(IntMatrix.from_rows([[5, -1]]), 4) is None

    def test_more_columns_than_the_recursion_limit(self):
        n = _sys.getrecursionlimit() + 500
        row = [1] + [0] * (n - 2) + [-1]
        assert _first_solution(IntMatrix.from_rows([row]), 2) == (1,) * n


def _planted_pr_matrix(rng: random.Random) -> IntMatrix:
    """8-12 columns, 2-4 rows, entries within +-9, with the columns property
    planted: a random ordered partition whose S_0 sums to zero and whose
    later block sums are small combinations of earlier columns."""
    while True:
        n, m = rng.randint(8, 12), rng.randint(2, 4)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(2, n), rng.randint(1, 3)))
        blocks = [order[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
        cols: list[list[int] | None] = [None] * n
        earlier: list[int] = []
        for block in blocks:
            target = [0] * m
            for j in rng.sample(earlier, min(len(earlier), 3)):
                c = rng.choice((-2, -1, 1, 2))
                target = [t + c * x for t, x in zip(target, cols[j])]
            for j in block[:-1]:
                cols[j] = [rng.randint(-9, 9) for _ in range(m)]
                target = [t - x for t, x in zip(target, cols[j])]
            cols[block[-1]] = target
            earlier += block
        if all(abs(x) <= 9 for col in cols for x in col):
            return IntMatrix.from_rows(list(zip(*cols)))


class TestRadoConstruction:
    def test_planted_panel(self):
        rng = random.Random(12)
        for _ in range(60):
            m = _planted_pr_matrix(rng)
            part = columns_property(m)
            assert part is not None
            z = find_positive_solution(m, part)
            assert min(z) >= 1 and annihilates(m.entries, z)
            levels = expreg.witness._level_vectors(m, part)
            placed: set[int] = set()
            for block, v in zip(part.blocks, levels):
                # v_t is in ker A, constant and positive on S_t, zero on later blocks
                placed.update(block)
                assert annihilates(m.entries, v)
                assert len({v[j - 1] for j in block}) == 1 and v[block[0] - 1] > 0
                assert all(v[j - 1] == 0 for j in range(1, m.num_cols + 1) if j not in placed)
            # the bound stated in find_positive_solution's docstring
            k = max(abs(x) for v in levels for x in v)
            assert max(z) < (k + 1) ** len(part.blocks)

    def test_random_small_pr_matrices(self):
        rng = random.Random(5)
        checked = 0
        while checked < 150:
            n = rng.randint(2, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            )
            part = columns_property(m)
            if part is None:
                continue
            z = find_positive_solution(m, part)
            assert min(z) >= 1 and annihilates(m.entries, z)
            # existence only: the search finds some solution within max(z)
            assert _first_solution(m, max(z)) is not None
            checked += 1

    def test_no_rows_gives_all_ones(self):
        for n in (1, 4, 300):
            m = IntMatrix(0, n, ())
            assert find_positive_solution(m, columns_property(m)) == (1,) * n

    def test_level_coefficients(self):
        m = IntMatrix.from_rows([[1, -1, 300]])
        part = columns_property(m)
        assert part.blocks == ((1, 2), (3,))
        assert find_positive_solution(m, part) == (1, 301, 1)

    def test_self_check_rejects_a_wrong_level_vector(self, monkeypatch):
        m = IntMatrix.from_rows([[1, -1, 300]])
        wrong = [[1, 1, 0], [0, 0, 1]]  # the second level ignores the 300
        monkeypatch.setattr(expreg.witness, "_level_vectors", lambda a, part: wrong)
        with pytest.raises(SelfCheckFailed):
            find_positive_solution(m, ColumnsPartition(((1, 2), (3,))))


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
        assert compute_k(build_linear_system(s), (1, 2)) == (0, 3)

    def test_reversed_edge_shifts(self):
        s = ExpSystem.square(2, [(2, 1, [1, 0])])
        assert compute_k(build_linear_system(s), (3, 1)) == (3, 0)

    def test_rejects_non_solution(self):
        s = ExpSystem.square(1, [(1, 1, [1])])
        with pytest.raises(NotASolution):
            compute_k(build_linear_system(s), (1,))


class TestPathSums:
    @settings(max_examples=200, deadline=None)
    @given(systems_strategy(max_n=5, max_edges=7, coeff=3), st.data())
    def test_matches_per_vertex_paths(self, s, data):
        # any integer point of the kernel of the cycle rows is a valid z
        basis = rational_kernel(build_linear_system(s).matrix.entries, s.num_y)
        mults = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
        z = tuple(sum(m * vec[i] for m, vec in zip(mults, basis)) for i in range(s.num_y))
        assert path_sums(build_linear_system(s), z) == tree_path_sums(s, z)

    @settings(max_examples=200, deadline=None)
    @given(forests_strategy(), st.data())
    def test_matches_per_vertex_paths_on_forests(self, s, data):
        z = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=s.num_y, max_size=s.num_y)))
        assert path_sums(build_linear_system(s), z) == tree_path_sums(s, z)

    @settings(max_examples=100, deadline=None)
    @given(forests_strategy(max_n=40, coeff=2, max_nonzero=3), st.data())
    def test_matches_per_vertex_paths_on_sparse_forests(self, s, data):
        # the pr-deep shape: 1-3 nonzero coefficients per edge, some negative
        z = tuple(data.draw(st.lists(st.integers(1, 4), min_size=s.num_y, max_size=s.num_y)))
        lin = build_linear_system(s)
        assert path_sums(lin, z) == tree_path_sums(s, z)
        w = lift(lin, z)
        assert verify_witness(s, w)
        if s.edges:
            head = s.edges[0].head
            k = tuple(v + (i == head - 1) for i, v in enumerate(w.k))
            assert not verify_witness(s, dataclasses.replace(w, k=k))

    def test_rejects_non_solution(self):
        s = ExpSystem.square(2, [(1, 2, [1, 0]), (1, 2, [0, 1])])
        with pytest.raises(NotASolution):
            path_sums(build_linear_system(s), (1, 2))

    def test_rejects_z_of_the_wrong_length(self):
        lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
        with pytest.raises(NotASolution, match="z has length 3, expected 2"):
            path_sums(lin, (1, 1, 1))


class TestLift:
    def test_spec_instance(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        w = lift(build_linear_system(s), (1, 2), a=2, b=3)
        # y = (3^1, 3^2) = (3, 9) and x = (2^(3^0), 2^(3^3))
        assert w == Witness(2, 3, (1, 2), (0, 3))
        assert [f.name for f in dataclasses.fields(Witness)] == ["a", "b", "z", "k"]
        # 2^(3*9) == 2^27, checked directly in the integers
        assert 2 ** (3 * 9) == 2**27
        assert verify_witness(s, w)

    def test_forest_always_lifts(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        for z in ((1, 1), (2, 3), (4, 4)):
            assert verify_witness(s, lift(build_linear_system(s), z))

    def test_rejects_non_solution(self):
        s = ExpSystem.square(1, [(1, 1, [1])])
        with pytest.raises(NotASolution):
            lift(build_linear_system(s), (2,))

    def test_rejects_base_one(self):
        lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
        with pytest.raises(ValueError, match="witness bases must be at least 2"):
            lift(lin, (1, 2), a=1)

    def test_rejects_a_zero_in_z(self):
        lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
        with pytest.raises(NotASolution, match="z must be a positive vector"):
            lift(lin, (0, 2))

    def test_y_digit_limit(self):
        # 10^4299 has 4300 digits, 10^4300 one more
        s = ExpSystem.square(1, [(1, 1, [0])])
        w = lift(build_linear_system(s), (MAX_Y_DIGITS - 1,), b=10)
        assert len(str(w.b ** w.z[0])) == MAX_Y_DIGITS
        with pytest.raises(WitnessTooLarge):
            lift(build_linear_system(s), (MAX_Y_DIGITS,), b=10)

    def test_self_check_rejects_inconsistent_levels(self, monkeypatch):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        monkeypatch.setattr(expreg.witness, "compute_k", lambda lin, z: (0, 2))
        with pytest.raises(SelfCheckFailed):
            lift(build_linear_system(s), (1, 2))

    def test_self_check_survives_optimize_flag(self):
        # `python -O` strips assert statements; the self-check must not be one
        code = (
            "import expreg.witness as w\n"
            "from expreg.eqsys import ExpSystem\n"
            "from expreg.graphs import build_linear_system\n"
            "w.compute_k = lambda lin, z: (0, 2)\n"
            "try:\n"
            "    w.lift(build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])])), (1, 2))\n"
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
        w = Witness(2, 2, (1, 2), (0, 2))
        assert not verify_witness(s, w)  # 0 + 3 != 2

    def test_empty_system(self):
        s = ExpSystem.square(1, [])
        w = Witness(2, 2, (1,), (0,))
        assert verify_witness(s, w)

    def test_wrong_lengths(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert verify_witness(s, Witness(2, 2, (1, 2), (0, 3)))
        assert not verify_witness(s, Witness(2, 2, (1, 2), (0, 3, 3)))
        assert not verify_witness(s, Witness(2, 2, (1, 2, 1), (0, 3)))


class TestForbiddingColouring:
    # radop-nu:3, the base-3 digit colouring of the factor count, is what
    # decide emits to forbid a system whose linear side radop:3 forbids
    def test_power_of_two(self):
        assert colour_of(RadoPNu(3), 2**6) == 2

    def test_36(self):
        assert colour_of(RadoPNu(3), 36) == 1


class TestExpandPattern:
    def test_order_and_count(self):
        values = expand_pattern((1, 2), 2, 2, 3)
        assert values == [(2, 1), (3, 1), (3, 2), (2, 3), (2, 9)]
        assert len(values) == 2 + 2 + 1

    def test_sisto_triple(self):
        a, b = 5, 6
        values = expand_pattern((1,), 1, a, b)
        assert values == [(a, 1), (b, 1), (a, b)]
        assert pow(*values[2]) == a**b

    def test_degenerate(self):
        assert expand_pattern((), 0, 2, 2) == [(2, 1)]


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
        skewed = dataclasses.replace(real, matrix=IntMatrix.from_rows([[2, 1]]))
        monkeypatch.setattr(helpers, "build_linear_system", lambda sys: skewed)
        with pytest.raises(SelfCheckFailed):
            nu_squared_reduce(s)


def _lift_corpus(count=100, bound=20):
    out = []
    for raw in iter_systems():
        sys, _ = normalize(raw)
        z = _first_solution(build_linear_system(sys).matrix, bound)
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
                w = lift(build_linear_system(sys), z, a, b)
                assert verify_witness(sys, w)
                # edge identity on every edge, including non-forest ones
                for e in sys.edges:
                    step = sum(c * v for c, v in zip(e.coeffs, z))
                    assert w.k[e.head - 1] - w.k[e.tail - 1] == step


def test_level_range_bound_over_corpus():
    for sys, z in _lift_corpus():
        k = compute_k(build_linear_system(sys), z)
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
    from expreg.search import search_exp

    s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
    matrix = build_linear_system(s).matrix
    # values <= 40 have factor count <= 5, so a linear bound of 6 covers them
    assert search_lin(matrix, RadoP(3), 6).exhausted
    assert search_exp(s, RadoPNu(3), 40, 10**6).exhausted


def test_small_witness_evaluates():
    s, _ = normalize(ExpSystem.square(2, [(1, 2, [1, 1])]))
    w = lift(build_linear_system(s), (1, 1), 2, 2)
    xs = [w.a ** (w.b**k) for k in w.k]
    ys = [w.b**z for z in w.z]
    assert max(xs + ys) <= 10**9
    assert all(st == PASS for st in eval_exp(s, xs, ys, 10**9))


def test_pattern_covers_lifted_witness():
    # with the doubled level budget, the expanded pattern for (z, a, b)
    # contains every value a lifted witness uses, as (base, exponent) pairs
    for sys, z in _lift_corpus(count=40):
        a, b = 3, 2
        w = lift(build_linear_system(sys), z, a, b)
        values = set(expand_pattern(z, 2 * weight(sys, z), a, b))
        for power in [(a, b**k) for k in w.k] + [(b, zv) for zv in w.z]:
            assert power in values
