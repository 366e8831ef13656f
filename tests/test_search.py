import itertools
import os
import random
import subprocess
import sys as _sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expreg.search
from expreg.corpus import system_corpus
from expreg.dsl import parse_system
from expreg.graphs import build_linear_system
from expreg.eqsys import Edge, ExpSystem, normalize
import expreg.rado
from expreg.rado import IntMatrix, NotPrime, SelfCheckFailed
from expreg.search import (
    CEILING,
    FAIL,
    PASS,
    Constant,
    Mod,
    OmegaOf,
    RadoP,
    RadoPNu,
    SearchReport,
    Table,
    Uncoloured,
    colour_of,
    eval_exp,
    rado_number,
    search_exp,
    search_witnesses,
    vdw_number,
    witness_colours,
)
from expreg.witness import lift

import helpers
from helpers import (
    FIXTURES,
    REPO_ROOT,
    find_progression,
    reference_colour,
    reference_search_exp,
    search_lin,
    systems_strategy,
)


class TestColourOf:
    def test_mod(self):
        assert colour_of(Mod(5), 12) == 2

    def test_radop(self):
        assert colour_of(RadoP(3), 18) == 2

    def test_radop_nu(self):
        assert colour_of(RadoPNu(3), 2**6) == 2

    def test_undefined_at_one(self):
        # the factor count of 1 is 0, which has no colour
        for spec in (RadoPNu(3), OmegaOf(Mod(2))):
            with pytest.raises(ValueError):
                colour_of(spec, 1)

    def test_table_with_default(self):
        t = Table((5, 6, 7), default=9)
        assert colour_of(t, 2) == 6
        assert colour_of(t, 4) == 9

    def test_table_reads_a_huge_power_of_one(self):
        # 1**n = 1 however large n is, so no size limit on n may apply
        assert colour_of(Table((7, 8, 9), default=5), 1, 2**65) == 7

    def test_rejects_what_is_not_a_spec(self):
        with pytest.raises(TypeError, match="not a colouring spec"):
            colour_of(object(), 2)

    def test_bounded_pow_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            expreg.search._bounded_pow(2, -1, 10)

    def test_radop_nu_needs_a_prime(self):
        with pytest.raises(NotPrime, match="4 is not prime"):
            RadoPNu(4)

    def test_negative_colours_rejected(self):
        with pytest.raises(ValueError):
            Constant(-1)
        with pytest.raises(ValueError):
            Table((0, -2))


# every kind, a factor count over each kind, and one nested factor count
EVERY_KIND = (
    Constant(4),
    Mod(2),
    Mod(3),
    Mod(5),
    Mod(7),
    RadoP(2),
    RadoP(3),
    RadoP(5),
    RadoPNu(3),
    Table((9, 8, 7, 6), default=5),
    OmegaOf(Constant(1)),
    OmegaOf(Mod(3)),
    OmegaOf(Mod(4)),
    OmegaOf(RadoP(3)),
    OmegaOf(RadoPNu(2)),
    OmegaOf(Table((3, 1, 2), default=4)),
    OmegaOf(OmegaOf(Mod(3))),
)


def assert_matches_reference(spec, a, n=None):
    """colour_of(spec, a, n) agrees with the definition on the built value
    a**n, raising ValueError exactly where the definition does; without n,
    colour_of's default exponent is checked against a itself."""
    args = (a,) if n is None else (a, n)
    try:
        expected = reference_colour(spec, a ** (n or 1))
    except ValueError:
        with pytest.raises(ValueError):
            colour_of(spec, *args)
    else:
        assert colour_of(spec, *args) == expected, (a, n, spec)


class TestColourOfTower:
    def test_matches_materialized(self):
        # (2^d)**(2^x) is 2^(d * 2^x), whose colour only the factor count
        # d * 2^x or modular exponentiation can reach once x grows
        doubly = [(2**d, 2**x) for d in (1, 2, 3) for x in (0, 1, 2, 3, 4)]
        level0 = [(a, 1) for a in (1, 2, 3, 4, 6, 9, 12, 13)]
        plain = [(v, 1) for v in (1, 2, 3, 4, 5, 8, 27, 729)]
        towers = [(2, 3**2), (3, 2**3), (5, 2), (12, 3**2), (1, 2**3)]
        for a, n in towers + doubly + level0 + plain:
            for spec in EVERY_KIND:
                assert_matches_reference(spec, a, n)

    def test_plain_values_are_level_zero(self):
        for spec in EVERY_KIND:
            for x in range(1, 200):
                assert_matches_reference(spec, x)
                assert_matches_reference(spec, x, 1)

    def test_every_undefined_value_raises(self):
        for spec in EVERY_KIND:
            for x in (0, -1, -7):
                with pytest.raises(ValueError):
                    reference_colour(spec, x)
                with pytest.raises(ValueError):
                    colour_of(spec, x)
        for spec in (RadoPNu(3), OmegaOf(Mod(2)), OmegaOf(Constant(0))):
            with pytest.raises(ValueError):
                colour_of(spec, 1)
            with pytest.raises(ValueError):
                colour_of(spec, 1, 2**5)
        # the inner factor count of a prime is 1
        for prime in (2, 3, 5, 7, 11, 397):
            with pytest.raises(ValueError):
                colour_of(OmegaOf(OmegaOf(Mod(2))), prime)
            with pytest.raises(ValueError):
                colour_of(OmegaOf(OmegaOf(Mod(2))), prime, 1)

    def test_pure_prime_power_base(self):
        # 9**(2**10) has only the digit 1 in base 3
        assert colour_of(RadoP(3), 9, 2**10) == 1


class TestDRestrict:
    # the colour of the doubly exponential power (2^d)**(2^x) = 2^(d * 2^x)

    def test_radop_nu(self):
        assert colour_of(RadoPNu(3), 2, 2**1) == 2
        assert colour_of(RadoPNu(3), 2**3, 2**2) == 1

    def test_mod2_always_zero(self):
        for d in (1, 2, 7):
            for x in (1, 5, 40):
                assert colour_of(Mod(2), 2**d, 2**x) == 0

    def test_table_in_range(self):
        assert colour_of(Table((9, 8, 7, 6)), 2, 2**1) == 6  # value 4

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EVERY_KIND), st.integers(1, 3), st.integers(0, 4))
    def test_matches_direct_evaluation(self, spec, d, x):
        assert_matches_reference(spec, 2**d, 2**x)


class TestEvalExp:
    def test_tower_pair(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert eval_exp(s, (2, 2**27), (3, 9), 10**9) == [PASS]

    def test_small_pass(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert eval_exp(s, (2, 16), (2, 2), 10**6) == [PASS]

    def test_ceiling(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert eval_exp(s, (3, 9), (5, 40), 10**6) == [CEILING]

    def test_fail(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        assert eval_exp(s, (2, 17), (2, 2), 10**6) == [FAIL]

    def test_negative_exponents_exact(self):
        # X1^(Y1^-1 * Y2) = X2 with Y1=4, Y2=2 gives exponent 1/2: 16^(1/2) = 4
        s = ExpSystem.square(2, [(1, 2, [-1, 1])])
        assert eval_exp(s, (16, 4), (4, 2), 10**6) == [PASS]
        assert eval_exp(s, (16, 5), (4, 2), 10**6) == [FAIL]

    def test_rejects_values_below_two(self):
        s = ExpSystem.square(1, [])
        with pytest.raises(ValueError):
            eval_exp(s, (1,), (2,), 100)

    def test_rejects_a_length_mismatch(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        with pytest.raises(ValueError, match="assignment length mismatch"):
            eval_exp(s, (2, 4), (2,), 100)


class TestSearchExp:
    def test_forest_mod2(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        report = search_exp(s, Mod(2), 16, 10**6)
        assert report.assignment == (2, 16, 2, 2)

    def test_constant_finds_plain_solution(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        report = search_exp(s, Constant(0), 16, 10**6)
        assert report.found
        assert report.assignment == (2, 16, 2, 2)

    def test_doubling_system_exhausts_under_radop_nu3(self):
        # the cycle row 2*Y1 - Y2 = 0 asks for Y2 = Y1^2, which radop-nu:3
        # never gives Y1's colour, so no tuple reaches the X-side
        s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        report = search_exp(s, RadoPNu(3), 24, 10**6)
        assert report == reference_search_exp(s, RadoPNu(3), 24, 10**6)
        assert report.exhausted
        assert report.skipped == 0

    def test_npr_fixture_found_under_single_colour(self):
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        report = search_exp(s, RadoPNu(2), 40, 10**6)
        assert report.assignment == (2, 16, 2, 4)
        # only the Y-tuples with Y2 = Y1^2 can be skipped
        assert report.skipped == 6279

    def test_relabelled_colours_skip_the_same(self):
        # the second table is the first with colours 0 and 1 swapped
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        first, second = (
            search_exp(s, Table((0, 1) * 20), 40, 10**6),
            search_exp(s, Table((1, 0) * 20, default=1), 40, 10**6),
        )
        assert first == second
        assert first.assignment == (2, 16, 2, 4)
        assert first.skipped == 1583

    def test_found_search_counts_the_whole_box(self):
        # ceiling skips past the solution count as much as those before it
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        report = search_exp(s, RadoPNu(2), 16, 10**6)
        assert report.assignment == (2, 16, 2, 4)
        assert report == reference_search_exp(s, RadoPNu(2), 16, 10**6)

    def test_npr_fixture_exhausts_under_radop_nu3(self):
        # the colouring the mod-3 proof picks: no monochromatic Y-tuple
        # satisfies the cycle row, so none is a ceiling skip
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        report = search_exp(s, RadoPNu(3), 40, 10**6)
        assert report.exhausted
        assert report.skipped == 0

    def test_uncoloured_value_in_range_raises(self):
        # omega:omega:mod:2 is undefined at every prime: their factor count is 1
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        with pytest.raises(Uncoloured) as info:
            search_exp(s, OmegaOf(OmegaOf(Mod(2))), 12, 10**6)
        assert info.value.value == 2
        assert search_exp(s, OmegaOf(Mod(2)), 12, 10**6).exhausted

    def test_empty_lattice_rejected(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        for bound in (1, 0):
            with pytest.raises(ValueError):
                search_exp(s, Constant(0), bound, 10**6)

    def test_ceiling_below_two_rejected(self):
        # every value is at least 2, so every candidate would be a ceiling skip
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        for ceiling in (1, 0, -5):
            with pytest.raises(ValueError, match=f"ceiling {ceiling} is below 2"):
                search_exp(s, Constant(0), 16, ceiling)
        assert search_exp(s, Constant(0), 16, 2).exhausted

    def test_analysis_of_another_system_rejected(self):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        other = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1]), (1, 2, [1, 0])]))
        with pytest.raises(ValueError, match="another system"):
            search_exp(s, Constant(0), 9, 10**6, other)

    def test_self_check_rejects_a_wrong_assignment(self, monkeypatch):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        monkeypatch.setattr(
            expreg.search._ClassLattice, "walk", lambda self: ((2, 2, 2, 2), 0)
        )
        with pytest.raises(SelfCheckFailed):
            search_exp(s, Constant(0), 16, 10**6)


# every raw variable count of systems_strategy gets a lattice the reference
# enumerator walks in well under a second
REFERENCE_BOUNDS = {2: 40, 4: 9, 6: 5, 8: 4}
SPECS = [
    Constant(0),
    Mod(2),
    Mod(3),
    RadoP(3),
    RadoPNu(2),
    RadoPNu(3),
    OmegaOf(Mod(2)),
    Table((0, 1, 1, 0, 1, 0), default=1),
]


class TestSearchExpMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        systems_strategy(),
        st.sampled_from(SPECS),
        st.sampled_from([64, 10**3, 10**6]),
        st.data(),
    )
    def test_random_systems(self, sys, spec, ceiling, data):
        cap = REFERENCE_BOUNDS[sys.num_vertices + sys.num_y]
        bound = data.draw(st.integers(2, cap), label="var_bound")
        assert search_exp(sys, spec, bound, ceiling) == reference_search_exp(
            sys, spec, bound, ceiling
        )

    def test_corpus_searches(self):
        # the searches decide makes: both outcomes, ceiling skips on both;
        # once from an empty class-table cache, then again with it warm
        searches = []
        for raw in system_corpus(60, seed=7):
            sys, _ = normalize(raw)
            bound = REFERENCE_BOUNDS[min(2 * sys.num_y, 8)]
            for p in (2, 3):
                searches.append((sys, RadoPNu(p), bound, 10**6))
        expected = [reference_search_exp(*args) for args in searches]
        expreg.search._class_tables.cache_clear()
        for _ in ("cold", "warm"):
            assert [search_exp(*args) for args in searches] == expected
        assert expreg.search._class_tables.cache_info().hits > 0
        outcomes = {(report.found, report.skipped > 0) for report in expected}
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def _system_of_rank(rng: random.Random, nx: int, ny: int, rank: int) -> ExpSystem:
    """A random system on nx vertices and ny Y-variables whose cycle rows
    have the given rank: a random spanning tree, then loops (and chords,
    at full rank), some of them adding no rank, until the rows reach it.
    Below full rank every loop's row vanishes on one exponent vector t in
    {1, 2}^ny, so that Y = v^t satisfies the rows for every v."""
    t = [rng.choice((1, 2)) for _ in range(ny)]
    t[rng.randrange(ny)] = 1

    def coeffs(orthogonal: bool) -> tuple[int, ...]:
        c = [rng.randint(-1, 2) for _ in range(ny)]
        if orthogonal:
            k = t.index(1)
            c[k] = -sum(cj * tj for j, (cj, tj) in enumerate(zip(c, t)) if j != k)
        return tuple(c)

    edges = []
    for v in range(2, nx + 1):
        u = rng.randint(1, v - 1)
        edges.append(Edge(u, v, coeffs(False)) if rng.random() < 0.5 else Edge(v, u, coeffs(False)))
    while True:
        rows = build_linear_system(ExpSystem(nx, ny, tuple(edges))).matrix.entries
        if ny - len(helpers.rational_kernel(rows, ny)) == rank:
            return ExpSystem(nx, ny, tuple(edges))
        v = rng.randint(1, nx)
        if rank < ny:
            edges.append(Edge(v, v, coeffs(True)))
        else:
            edges.append(Edge(rng.randint(1, nx), v, coeffs(False)))


class TestRowFilter:
    """Only the Y-tuples that satisfy every cycle row are walked; the
    tuple-by-tuple reference tests each one against its own rows."""

    def test_random_systems_of_every_rank(self):
        rng = random.Random(2016)
        bounds = {2: 30, 3: 14, 4: 9, 5: 7}
        seen = set()
        for nx in (1, 2):
            for ny in (1, 2, 3):
                for rank in range(ny + 1):
                    for _ in range(6):
                        sys = _system_of_rank(rng, nx, ny, rank)
                        bound = bounds[nx + ny]
                        spec = Table(tuple(rng.randrange(rng.randint(1, 3)) for _ in range(bound)))
                        ceiling = rng.choice([64, 10**3, 10**6])
                        report = search_exp(sys, spec, bound, ceiling)
                        assert report == reference_search_exp(sys, spec, bound, ceiling), sys
                        seen.add((rank > 0, report.found, report.skipped > 0))
        # on cyclic systems too, some Y-tuples satisfy the rows: they give
        # solutions and ceiling skips
        assert {(True, True, False), (True, False, True), (True, True, True)} <= seen

    def test_first_solution_of_a_repeated_row(self):
        # the loop's row Y1 = Y3 leaves Y2, Y3 free, streamed in that order,
        # so (Y1, Y2, Y3) = (3, 2, 3) comes before (2, 3, 2); both give the
        # edge the exponent 6, one row, and the smaller tuple must win.
        # Every value but 2, 3 and 64 has a colour of its own
        sys = ExpSystem(2, 3, (Edge(1, 1, (1, 0, -1)), Edge(1, 2, (0, 1, 1))))
        spec = Table(tuple(0 if v in (2, 3, 64) else v for v in range(1, 65)))
        report = search_exp(sys, spec, 64, 10**6)
        assert report == reference_search_exp(sys, spec, 64, 10**6)
        assert report.assignment == (2, 64, 2, 3, 2)

    def test_large_row_coefficients(self):
        # the solve works on prime-exponent keys, whose size does not grow
        # with the coefficients; the reference tests each tuple's row on
        # exact powers.  A loop's exponent is its row: Y1^e = Y2 and
        # Y1 = Y2^e hold at e = 3 only, Y1^e = Y2^e and Y1^e = (Y2*Y3)^e at
        # every e; at e = 10^4 their exponent's powers pass the ceiling
        shapes = (((3, -1), 12), ((1, -3), 12), ((3, -3), 12), ((3, -3, -3), 8))
        seen = set()
        for e in (3, 10, 100, 10**4):
            for coeffs, bound in shapes:
                coeffs = tuple(c * e // 3 if abs(c) == 3 else c for c in coeffs)
                sys = ExpSystem(1, len(coeffs), (Edge(1, 1, coeffs),))
                for spec in (Constant(0), RadoPNu(2)):
                    report = search_exp(sys, spec, bound, 10**6)
                    assert report == reference_search_exp(sys, spec, bound, 10**6), (sys, spec)
                    seen.add((e, report.found, report.skipped > 0))
        assert {(3, True, False), (10**4, False, True), (10**4, False, False)} <= seen

    def test_pivots_keep_the_integer_solutions(self):
        # 2*Y1 + 2*Y2 - 4*Y3 = 0 and Y1 - Y2 = 0 reduce to Y1 = Y3, Y2 = Y3
        matrix = IntMatrix.from_rows([[2, 2, -4], [1, -1, 0], [0, 0, 0]])
        assert expreg.search._pivots(matrix) == ((0, 1, ((2, -1),)), (1, 1, ((2, -1),)))
        # a loop X^(Y1^2) = X: Y1^2 = 1, which no value satisfies
        assert expreg.search._pivots(IntMatrix.from_rows([[2, 0]])) == ((0, 1, ()),)


class TestClassRows:
    """Shapes of the class rows that random systems rarely hit, each
    against the tuple-by-tuple reference."""

    @pytest.mark.parametrize(
        "sys,spec,bound,ceiling",
        [
            # every edge an identity: normalized away, no edges left
            (
                normalize(ExpSystem.square(3, [(1, 2, [0, 0, 0]), (2, 3, [0, 0, 0])]))[0],
                Mod(2),
                9,
                10**6,
            ),
            # one Y-variable: one row per class value
            (ExpSystem(2, 1, (Edge(1, 2, (2,)),)), Constant(0), 20, 10**6),
            (ExpSystem(2, 1, (Edge(1, 2, (1,)), Edge(2, 2, (-1,)))), Constant(0), 12, 64),
            # an edge zero on the first Y-variable, one nonzero only there
            (
                ExpSystem.square(3, [(1, 2, [0, 1, 1]), (2, 3, [2, 0, 0])]),
                Constant(0),
                5,
                10**6,
            ),
            (ExpSystem.square(2, [(1, 2, [0, -1]), (2, 1, [2, 0])]), Mod(2), 9, 10**6),
            # a loop whose row Y1 = Y2 some Y-tuples satisfy, and one whose
            # row Y1 = 1 none does
            (ExpSystem.square(2, [(1, 1, [1, -1]), (1, 2, [0, 1])]), Constant(0), 9, 10**6),
            (ExpSystem.square(2, [(1, 1, [1, -1]), (2, 2, [1, 0])]), Constant(0), 9, 64),
            # n = d on a class wholly past the ceiling: colour 0 is {3, ..., 12},
            # walked before colour 1, {2}, and x^1 > 2 is a ceiling, not a pass
            (ExpSystem(1, 2, (Edge(1, 1, (1, -1)),)), Table((0, 1)), 12, 2),
            # ceiling 64: Y1 >= 5 puts Y1^3 past it, so every row from there is a ceiling
            (ExpSystem.square(2, [(1, 2, [3, 0])]), Constant(0), 9, 64),
            (ExpSystem.square(2, [(1, 2, [3, -1])]), Mod(3), 9, 64),
            # Y1^2 / Y2^2 with both powers past ceiling 64 on colour 0, {9, ..., 12}:
            # a ceiling on every tuple there, although the ratio reduces to 1
            (ExpSystem.square(2, [(1, 2, [2, -2])]), Table((1,) * 8), 12, 64),
        ],
        ids=[
            "edgeless",
            "one-y-found",
            "one-y-loop",
            "first-y-zero-or-only-3y",
            "first-y-zero-or-only-2y",
            "loop-n-eq-d",
            "loop-n-ne-d",
            "loop-class-past-ceiling",
            "ceiling-rows",
            "ceiling-rows-rational",
            "both-powers-past-ceiling",
        ],
    )
    def test_matches_reference(self, sys, spec, bound, ceiling):
        assert search_exp(sys, spec, bound, ceiling) == reference_search_exp(
            sys, spec, bound, ceiling
        )

    def test_edgeless_system_passes_everywhere(self):
        sys, _ = normalize(ExpSystem.square(3, [(1, 2, [0, 0, 0]), (2, 3, [0, 0, 0])]))
        assert sys.edges == ()
        assert search_exp(sys, Mod(2), 9, 10**6) == SearchReport(2, 9, 10**6, 4, (2, 2, 2, 2), 0)

    def test_ceiling_rows_are_skipped(self):
        report = search_exp(ExpSystem.square(2, [(1, 2, [3, 0])]), Constant(0), 9, 64)
        assert report.exhausted
        assert report.skipped > 0

    def test_later_class_with_a_smaller_solution(self):
        # colour 0 is {3, 5, 6, ..., 30} with first solution (3, 27, 3); colour
        # 1 is {2, 4}, with (2, 4, 2), the smaller one.  `skipped` counts the
        # ceiling skips of both classes over the whole box, past either
        # solution too: (4, 2, 4) and (4, 4, 4) among colour 1's.
        sys = ExpSystem(2, 1, (Edge(1, 2, (1,)),))
        spec = Table((0, 1, 0, 1))
        report = search_exp(sys, spec, 30, 64)
        assert report == reference_search_exp(sys, spec, 30, 64)
        assert report.assignment == (2, 4, 2)
        assert report.skipped == 19658


class TestVertices:
    def test_count_and_first_match_every_assignment(self):
        # random systems of up to 6 vertices over up to 5 values, with edges
        # to earlier vertices at 35 % density, against a brute force that
        # tries every assignment in lexicographic order
        rng = random.Random(24)
        found = 0
        for _ in range(3000):
            n, v = rng.randint(0, 6), rng.randint(1, 5)
            doms = [rng.getrandbits(v) for _ in range(n)]
            preds = [[] for _ in range(n)]
            branches = [False] * n
            for i in range(n):
                for j in range(i):
                    if rng.random() < 0.35:
                        preds[i].append((j, tuple(rng.getrandbits(v) for _ in range(v))))
                        branches[j] = True
            allowed = [
                xs
                for xs in itertools.product(range(v), repeat=n)
                if all(
                    doms[i] >> x & 1 and all(table[xs[j]] >> x & 1 for j, table in preds[i])
                    for i, x in enumerate(xs)
                )
            ]
            count = expreg.search._Vertices(doms, preds, branches).count()
            assert count == (len(allowed), allowed[0] if allowed else None)
            found += bool(allowed)
        assert 0 < found < 3000


class TestClassTables:
    """The tables of a colour class, built once per process and shared by
    every search over the class, and the rows each walk counts once."""

    def test_one_class_shared_by_two_systems_and_two_ceilings(self):
        # Constant(0) has the one class {2, ..., 9}: one table per ceiling,
        # built by the first system's search and reused by the second's,
        # and the 64 one still there when ceiling 64 comes round again
        tables = expreg.search._class_tables
        tables.cache_clear()
        systems = (
            ExpSystem.square(2, [(1, 2, [1, 1])]),
            ExpSystem(2, 1, (Edge(1, 2, (2,)), Edge(2, 2, (-1,)))),
        )
        for ceiling in (64, 10**6, 64):
            for sys in systems:
                assert search_exp(sys, Constant(0), 9, ceiling) == reference_search_exp(
                    sys, Constant(0), 9, ceiling
                )
        assert (tables.cache_info().misses, tables.cache_info().hits) == (2, 4)
        lattices = [
            expreg.search._ClassLattice(
                sys, list(range(2, 10)), ceiling, expreg.search._pivots(build_linear_system(sys).matrix)
            )
            for ceiling in (64, 10**6)
            for sys in systems
        ]
        assert lattices[0].tables is lattices[1].tables
        assert lattices[2].tables is lattices[3].tables
        assert lattices[0].tables is not lattices[2].tables

    def test_cache_keeps_its_size(self):
        tables = expreg.search._class_tables
        tables.cache_clear()
        size = tables.cache_info().maxsize
        sys = ExpSystem(2, 1, (Edge(1, 2, (1,)),))
        # Constant(0) at bound b has the one class {2, ..., b}
        for bound in [*range(2, size + 12), 2, 3]:
            assert search_exp(sys, Constant(0), bound, 64) == reference_search_exp(
                sys, Constant(0), bound, 64
            )
        info = tables.cache_info()
        assert info.misses == size + 12
        assert info.currsize == size


class TestSearchLin:
    def test_schur_mod2(self):
        report = search_lin(IntMatrix.from_rows([[1, 1, -1]]), Mod(2), 10)
        assert report.assignment == (2, 2, 4)

    def test_doubling_radop3_exhausts(self):
        report = search_lin(IntMatrix.from_rows([[2, -1]]), RadoP(3), 2000)
        assert report.exhausted

    def test_doubling_constant_finds(self):
        report = search_lin(IntMatrix.from_rows([[2, -1]]), Constant(0), 4)
        assert report.assignment == (1, 2)

    def test_monotone_in_bound(self):
        m = IntMatrix.from_rows([[2, -1]])
        for bound in (50, 200, 800):
            assert search_lin(m, RadoP(3), bound).exhausted

    def test_self_check_rejects_a_wrong_vector(self, monkeypatch):
        monkeypatch.setattr(helpers, "annihilates", lambda rows, z: True)
        with pytest.raises(SelfCheckFailed):
            search_lin(IntMatrix.from_rows([[2, -1]]), Constant(0), 4)


class TestRadoNumber:
    def test_schur_number(self):
        assert rado_number(IntMatrix.from_rows([[1, 1, -1]]), 2, 10) == 5

    def test_trivial_equation(self):
        assert rado_number(IntMatrix.from_rows([[1, -1]]), 1, 5) == 1

    def test_non_regular_exceeds(self):
        assert rado_number(IntMatrix.from_rows([[2, -1]]), 2, 50) is None

    def test_needs_a_colour(self):
        with pytest.raises(ValueError, match="at least one colour required"):
            rado_number(IntMatrix.from_rows([[1, 1, -1]]), 0, 5)

    def test_agrees_with_constant_search(self):
        m = IntMatrix.from_rows([[1, 1, -1]])
        for bound in (1, 2, 3, 5):
            found = search_lin(m, Constant(0), bound).found
            threshold = rado_number(m, 1, bound)
            assert found == (threshold is not None and threshold <= bound)


class TestProgressions:
    def test_alternating_table(self):
        assert find_progression([1, 2, 1, 2, 1, 2, 1, 2], 3) == (1, 2)

    def test_degenerate_length_one(self):
        assert find_progression([4, 4], 1) == (1, 0)

    def test_no_progression(self):
        assert find_progression([1, 2, 2, 1], 3) is None

    def test_vdw_two_colours_three(self):
        assert vdw_number(2, 3, 20) == 9

    def test_vdw_exceeds(self):
        assert vdw_number(2, 3, 8) is None

    def test_vdw_one_colour(self):
        assert vdw_number(1, 4, 10) == 4

    def test_vdw_length_one(self):
        assert vdw_number(2, 1, 10) == 1

    @pytest.mark.parametrize("colours,length", [(0, 3), (2, 0)])
    def test_vdw_needs_colours_and_length(self, colours, length):
        with pytest.raises(ValueError, match="colours and length must be positive"):
            vdw_number(colours, length, 10)


def test_search_witnesses_finds_monochromatic():
    lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
    w = search_witnesses(lin, Mod(2))
    assert w is not None
    assert w.a == w.b == 2
    w3 = search_witnesses(lin, Mod(3))
    assert w3 is not None


def test_witness_colours_reads_every_value():
    # x = (2^(3^0), 2^(3^3)) = (2, 2^27) and y = (3, 9)
    w = lift(build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])])), (1, 2), 2, 3)
    values = [2, 2**27, 3, 9]
    for spec in EVERY_KIND:
        try:
            expected = {reference_colour(spec, v) for v in values}
        except ValueError:
            with pytest.raises(ValueError):
                witness_colours(spec, w)
        else:
            assert witness_colours(spec, w) == expected, spec


def test_search_witnesses_raises_on_uncoloured_towers():
    # the factor count of 2^(2^0) = 2 is 1, where omega:mod:2 is undefined
    lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
    with pytest.raises(ValueError):
        search_witnesses(lin, OmegaOf(OmegaOf(Mod(2))))


@pytest.mark.parametrize(
    "patch,call",
    [
        pytest.param(
            "s._ClassLattice.walk = lambda self: ((2, 2, 2, 2), 0)",
            "s.search_exp(ExpSystem.square(2, [(1, 2, [1, 1])]), s.Constant(0), 16, 10**6)",
            id="class-walk",
        ),
        pytest.param(
            "rado.check_columns_partition = lambda m, part: ['broken']",
            "rado.columns_property(IntMatrix.from_rows([[1, 1, -1]]))",
            id="columns-partition",
        ),
        pytest.param("pass", "rado._vector_sum([])", id="vector-sum"),
        pytest.param(
            "rado.check_mod_proof = lambda m, proof: ['broken']",
            "rado.mod_proof(IntMatrix.from_rows([[2, -1]]), (3,))",
            id="mod-proof",
        ),
        pytest.param(
            "import expreg.cli as cli\n"
            "s.search_exp = lambda *a: s.SearchReport(2, 9, 9, 4, (2,) * 4, 0)",
            "cli.build_decision_report("
            "'system 2\\neq X1 ^ Y1^2 = X2\\neq X1 ^ Y2 = X2\\n', verify_bound=9)",
            id="cross-check-solution",
        ),
        pytest.param(
            "import expreg.witness as w\n"
            "w._level_vectors = lambda a, part: [[1, 1, 0], [0, 0, 1]]",
            "w.find_positive_solution("
            "IntMatrix.from_rows([[1, -1, 300]]), rado.ColumnsPartition(((1, 2), (3,))))",
            id="construction",
        ),
    ],
)
def test_self_checks_survive_optimize_flag(patch, call):
    # `python -O` strips assert statements; the self-checks must not be ones
    code = (
        "import expreg.rado as rado\n"
        "import expreg.search as s\n"
        "from expreg.eqsys import ExpSystem\n"
        "from expreg.rado import IntMatrix\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except rado.SelfCheckFailed:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [_sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.stdout == "raised\n", proc.stderr


def test_digit_colourings_do_not_retest_the_prime(monkeypatch):
    # RadoP and RadoPNu check p when built, so colouring a range does not;
    # the public rado_colour still checks
    calls = []
    original = expreg.rado.is_prime

    def counted(n):
        calls.append(n)
        return original(n)

    spec, digit = RadoPNu(5), RadoP(3)
    monkeypatch.setattr(expreg.rado, "is_prime", counted)
    monkeypatch.setattr(expreg.search, "is_prime", counted)
    classes = expreg.search._colour_classes(spec, 2, 200)
    assert sum(map(len, classes.values())) == 199
    assert expreg.search._colour_classes(digit, 1, 50)
    assert calls == []
    with pytest.raises(NotPrime):
        expreg.rado.rado_colour(4, 9)
    assert calls == [4]
