import os
import subprocess
import sys as _sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expreg.search
from expreg.corpus import system_corpus
from expreg.dsl import parse_system
from expreg.graphs import build_linear_system
from expreg.eqsys import ExpSystem, normalize
from expreg.rado import IntMatrix, SelfCheckFailed
from expreg.search import (
    CEILING,
    FAIL,
    PASS,
    Constant,
    Mod,
    OmegaOf,
    RadoP,
    RadoPNu,
    Table,
    Uncoloured,
    colour_of,
    colour_of_tower,
    eval_exp,
    rado_number,
    search_exp,
    search_witnesses,
    vdw_number,
)
from expreg.witness import Plain, Tower

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


def _materialize(tv) -> int:
    return tv.value if isinstance(tv, Plain) else tv.base ** (tv.expbase**tv.level)


def assert_matches_reference(spec, tv):
    """colour_of_tower agrees with the definition on the materialized value,
    raising ValueError exactly where the definition does."""
    try:
        expected = reference_colour(spec, _materialize(tv))
    except ValueError:
        with pytest.raises(ValueError):
            colour_of_tower(spec, tv)
    else:
        assert colour_of_tower(spec, tv) == expected, (tv, spec)


class TestColourOfTower:
    def test_matches_materialized(self):
        # Tower(2^d, 2, x) is 2^(d * 2^x), whose colour only the factor count
        # d * 2^x or modular exponentiation can reach once x grows
        doubly = [Tower(2**d, 2, x) for d in (1, 2, 3) for x in (0, 1, 2, 3, 4)]
        level0 = [Tower(a, 3, 0) for a in (1, 2, 3, 4, 6, 9, 12, 13)]
        plain = [Plain(v) for v in (1, 2, 3, 4, 5, 8, 27, 729)]
        towers = [Tower(2, 3, 2), Tower(3, 2, 3), Tower(5, 2, 1), Tower(12, 3, 2), Tower(1, 2, 3)]
        for tv in towers + doubly + level0 + plain:
            for spec in EVERY_KIND:
                assert_matches_reference(spec, tv)

    def test_plain_values_are_level_zero(self):
        for spec in EVERY_KIND:
            for x in range(1, 200):
                assert_matches_reference(spec, Plain(x))
                assert_matches_reference(spec, Tower(x, 2, 0))

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
                colour_of_tower(spec, Tower(1, 2, 5))
        # the inner factor count of a prime is 1
        for prime in (2, 3, 5, 7, 11, 397):
            with pytest.raises(ValueError):
                colour_of(OmegaOf(OmegaOf(Mod(2))), prime)
            with pytest.raises(ValueError):
                colour_of_tower(OmegaOf(OmegaOf(Mod(2))), Tower(prime, 2, 0))

    def test_pure_prime_power_base(self):
        # 9^(2^10) has only the digit 1 in base 3
        assert colour_of_tower(RadoP(3), Tower(9, 2, 10)) == 1


class TestDRestrict:
    # the colour of the doubly exponential tower Tower(2^d, 2, x) = 2^(d * 2^x)

    def test_radop_nu(self):
        assert colour_of_tower(RadoPNu(3), Tower(2, 2, 1)) == 2
        assert colour_of_tower(RadoPNu(3), Tower(2**3, 2, 2)) == 1

    def test_mod2_always_zero(self):
        for d in (1, 2, 7):
            for x in (1, 5, 40):
                assert colour_of_tower(Mod(2), Tower(2**d, 2, x)) == 0

    def test_table_in_range(self):
        assert colour_of_tower(Table((9, 8, 7, 6)), Tower(2, 2, 1)) == 6  # value 4

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EVERY_KIND), st.integers(1, 3), st.integers(0, 4))
    def test_matches_direct_evaluation(self, spec, d, x):
        assert_matches_reference(spec, Tower(2**d, 2, x))


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
        s = ExpSystem.square(2, [(1, 2, [2, 0]), (1, 2, [0, 1])])
        report = search_exp(s, RadoPNu(3), 24, 10**6)
        assert report.exhausted
        assert report.skipped > 0

    def test_npr_fixture_found_under_single_colour(self):
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        report = search_exp(s, RadoPNu(2), 40, 10**6)
        assert report.assignment == (2, 16, 2, 4)
        assert report.skipped == 10656

    def test_npr_fixture_exhausts_under_radop_nu3(self):
        s = parse_system((FIXTURES / "exp-npr.xps").read_text())
        report = search_exp(s, RadoPNu(3), 40, 10**6)
        assert report.exhausted
        assert report.skipped == 294831

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

    def test_self_check_rejects_a_wrong_assignment(self, monkeypatch):
        s = ExpSystem.square(2, [(1, 2, [1, 1])])
        monkeypatch.setattr(
            expreg.search._ClassLattice, "first_solution", lambda self: (2, 2, 2, 2)
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
        # the searches decide makes: both outcomes, ceiling skips on both
        outcomes = set()
        for raw in system_corpus(60, seed=7):
            sys, _ = normalize(raw)
            bound = REFERENCE_BOUNDS[min(2 * sys.num_y, 8)]
            for p in (2, 3):
                report = search_exp(sys, RadoPNu(p), bound, 10**6)
                assert report == reference_search_exp(sys, RadoPNu(p), bound, 10**6)
                outcomes.add((report.found, report.skipped > 0))
        assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


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
        monkeypatch.setattr(helpers, "_annihilates", lambda rows, z: True)
        with pytest.raises(SelfCheckFailed):
            search_lin(IntMatrix.from_rows([[2, -1]]), Constant(0), 4)


class TestRadoNumber:
    def test_schur_number(self):
        assert rado_number(IntMatrix.from_rows([[1, 1, -1]]), 2, 10) == 5

    def test_trivial_equation(self):
        assert rado_number(IntMatrix.from_rows([[1, -1]]), 1, 5) == 1

    def test_non_regular_exceeds(self):
        assert rado_number(IntMatrix.from_rows([[2, -1]]), 2, 50) is None

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


def test_search_witnesses_finds_monochromatic():
    lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
    w = search_witnesses(lin, Mod(2))
    assert w is not None
    assert w.a == w.b == 2
    w3 = search_witnesses(lin, Mod(3))
    assert w3 is not None


def test_search_witnesses_raises_on_uncoloured_towers():
    # the factor count of 2^(2^0) = 2 is 1, where omega:mod:2 is undefined
    lin = build_linear_system(ExpSystem.square(2, [(1, 2, [1, 1])]))
    with pytest.raises(ValueError):
        search_witnesses(lin, OmegaOf(OmegaOf(Mod(2))))


@pytest.mark.parametrize(
    "patch,call",
    [
        (
            "s._ClassLattice.first_solution = lambda self: (2, 2, 2, 2)",
            "s.search_exp(ExpSystem.square(2, [(1, 2, [1, 1])]), s.Constant(0), 16, 10**6)",
        ),
        (
            "rado.check_columns_partition = lambda m, part: ['broken']",
            "rado.columns_property(IntMatrix.from_rows([[1, 1, -1]]))",
        ),
        ("pass", "rado._vector_sum([])"),
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
