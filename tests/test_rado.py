import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expreg.rado
import expreg.witness
from expreg.rado import (
    ColumnBudgetExceeded,
    ColumnsPartition,
    DimensionMismatch,
    IntMatrix,
    ModProof,
    NotPrime,
    SelfCheckFailed,
    _Annihilator,
    check_columns_partition,
    check_mod_proof,
    columns_property,
    is_partition_regular,
    is_prime,
    mod_proof,
    rado_colour,
)
from expreg.search import RadoP

from helpers import (
    annihilator_mod_p,
    brute_columns_property,
    brute_mod_p_partition,
    mod_proof_problems,
    passes_mod_p,
    reference_columns_property,
    scale_row,
    search_lin,
    single_equation_oracle,
    solves_in_span,
)


def _tall_rows(rng) -> list[list[int]]:
    """5-8 rows of up to 6 columns, each an integer combination of 2-3
    random base rows, so the rows outnumber their rank."""
    cols = rng.randint(2, 6)
    base = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(2, 3))]
    return [
        [sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)]
        for coeffs in ([rng.randint(-2, 2) for _ in base] for _ in range(rng.randint(5, 8)))
    ]


class TestIntMatrix:
    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            IntMatrix(1, 0, ((),))

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="row count does not match entries"):
            IntMatrix(2, 2, ((1, 2),))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch, match="ragged matrix rows"):
            IntMatrix(2, 2, ((1, 2), (3,)))


class TestInSpan:
    def test_scaled_vector(self):
        assert solves_in_span([(1, -1)], (2, -2))

    def test_empty_spans_zero(self):
        assert solves_in_span([], (0, 0))
        assert not solves_in_span([], (0, 1))

    def test_independent(self):
        assert not solves_in_span([(1, 0)], (0, 1))

    def test_exact_annihilator_is_span_membership(self):
        # columns drawn from at most 3 base vectors in up to 8 dimensions:
        # tall, rank-deficient sets whose dimension is above their rank
        rng = random.Random(18)

        def combo(vectors, dim):
            coeffs = [rng.randint(-3, 3) for _ in vectors]
            return tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(dim))

        outcomes = []
        for _ in range(400):
            dim = rng.randint(1, 8)
            base = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, 3))]
            cols = [combo(base, dim) for _ in range(rng.randint(0, 5))]
            test = _Annihilator(0, dim)
            for col in cols:
                test.add(col)
            targets = [
                combo(cols, dim),
                combo(base, dim),
                tuple(rng.randint(-3, 3) for _ in range(dim)),
            ]
            for target in targets:
                expected = solves_in_span(cols, target)
                assert test.contains(target) == expected, (cols, target)
                outcomes.append(expected)
        assert 300 < sum(outcomes) < 1000  # both outcomes are well represented


class TestColumnsProperty:
    def test_schur_partition(self):
        part = columns_property(IntMatrix.from_rows([[1, 1, -1]]))
        assert part == ColumnsPartition(((1, 3), (2,)))

    def test_doubling_has_none(self):
        assert columns_property(IntMatrix.from_rows([[2, -1]])) is None

    def test_self_check_rejects_an_unsound_partition(self, monkeypatch):
        monkeypatch.setattr(expreg.rado, "check_columns_partition", lambda m, part: ["broken"])
        with pytest.raises(SelfCheckFailed):
            columns_property(IntMatrix.from_rows([[1, 1, -1]]))

    def test_self_check_error_is_importable_from_witness(self):
        assert expreg.witness.SelfCheckFailed is SelfCheckFailed

    def test_zero_row_matrix(self):
        part = columns_property(IntMatrix(0, 3, ()))
        assert part == ColumnsPartition(((1, 2, 3),))

    def test_from_rows_needs_a_row(self):
        # with no rows there is no row to read the column count from
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])

    def test_x_equals_y(self):
        regular, part = is_partition_regular(IntMatrix.from_rows([[1, -1]]))
        assert regular
        assert part == ColumnsPartition(((1, 2),))

    def test_budget(self):
        wide = IntMatrix.from_rows([[0] * 13])
        with pytest.raises(ColumnBudgetExceeded):
            columns_property(wide)

    def test_zero_row_matrix_ignores_budget(self):
        part = columns_property(IntMatrix(0, 20, ()))
        assert part == ColumnsPartition((tuple(range(1, 21)),))

    def test_returned_partition_revalidates(self):
        rng = random.Random(5)
        for _ in range(150):
            cols = rng.randint(1, 4)
            rows = [
                [rng.randint(-3, 3) for _ in range(cols)]
                for _ in range(rng.randint(1, 3))
            ]
            m = IntMatrix.from_rows(rows)
            part = columns_property(m)
            if part is not None:
                assert check_columns_partition(m, part) == []

    @pytest.mark.parametrize(
        "blocks,problems",
        [
            (((1, 2), ()), ["empty block", "blocks do not cover all columns"]),
            (((1, 2), (4,)), ["column index 4 out of range", "blocks do not cover all columns"]),
            (((1, 2, 2), (3,)), ["column 2 appears twice"]),
            (
                ((1,), (2, 3)),
                [
                    "first block does not sum to zero",
                    "block 1 sum is outside the span of earlier columns",
                ],
            ),
            (((1, 2), (3,)), ["block 1 sum is outside the span of earlier columns"]),
        ],
    )
    def test_check_names_every_unsound_partition(self, blocks, problems):
        m = IntMatrix.from_rows([[1, -1, 0], [0, 0, 1]])
        assert check_columns_partition(m, ColumnsPartition(blocks)) == problems

    def test_matches_brute_force_enumeration(self):
        # same first-found partition as the label-vector oracle, including order
        rng = random.Random(17)
        for _ in range(120):
            cols = rng.randint(1, 5)
            rows = [
                [rng.randint(-2, 2) for _ in range(cols)]
                for _ in range(rng.randint(1, 3))
            ]
            m = IntMatrix.from_rows(rows)
            part = columns_property(m)
            brute = brute_columns_property(m)
            assert (part.blocks if part else None) == brute

    def test_matches_backtracking_reference(self):
        # the greedy loop returns the certificate the backtracking search finds
        rng = random.Random(2016)
        for _ in range(200):
            cols = rng.randint(5, 7)
            rows = [
                [rng.randint(-2, 2) for _ in range(cols)]
                for _ in range(rng.randint(1, 4))
            ]
            # zero and repeated columns make block sums, complement sums and
            # the zero-sum test of S_0 meet zero and equal values
            for j in rng.sample(range(cols), rng.randint(0, 2)):
                for row in rows:
                    row[j] = 0
            for j in rng.sample(range(cols), rng.randint(0, 2)):
                k = rng.randrange(cols)
                for row in rows:
                    row[j] = row[k]
            m = IntMatrix.from_rows(rows)
            part = columns_property(m)
            assert (part.blocks if part else None) == reference_columns_property(m), rows

    def test_tall_matrices_match_backtracking_reference(self):
        rng = random.Random(19)
        regular = 0
        for _ in range(300):
            m = IntMatrix.from_rows(_tall_rows(rng))
            part = columns_property(m)
            assert (part.blocks if part else None) == reference_columns_property(m), m
            regular += part is not None
        assert 10 < regular < 290  # both outcomes

    # expected certificates computed once with reference_columns_property;
    # the backtracking search takes seconds on both not-PR matrices
    @pytest.mark.parametrize(
        "rows, blocks",
        [
            (
                [
                    [0, 2, 0, 0, -1, 1, 0, 1, -2, 0],
                    [-2, 1, 1, -2, 2, 0, -1, 1, 2, -2],
                    [-2, 2, -2, 0, -2, 0, -2, -2, -1, 2],
                ],
                ((5, 6, 10), (1, 2, 9), (3, 4, 7, 8)),
            ),
            (
                [
                    [-2, 2, -2, 0, -2, 1, -2, 0, 2, 0, 2, -1],
                    [2, 2, 1, -1, 0, 2, -1, 0, 1, -1, 0, 1],
                    [0, 1, 0, 2, 0, -1, 2, 2, 0, 0, 0, 2],
                ],
                ((3, 10, 11), (1, 2, 5, 6, 9), (4, 7, 8, 12)),
            ),
            (
                [
                    [1, -1, 0, -1, -1, 0, -1, 1, 0, 0],
                    [1, -1, 0, 1, -1, 1, 1, 1, 0, 0],
                ],
                None,
            ),
            (
                [
                    [0, 0, 1, -1, 1, -1, -1, 0, 1, -1, 0, -1],
                    [0, 1, -1, 0, -1, -1, 1, 1, 1, 1, 0, 1],
                    [-1, -1, 0, 0, 0, -1, 0, 0, -1, -1, 0, 0],
                ],
                None,
            ),
        ],
        ids=["pr-10", "pr-12", "npr-10", "npr-12"],
    )
    def test_wide_matrix(self, rows, blocks):
        part = columns_property(IntMatrix.from_rows(rows))
        assert (part.blocks if part else None) == blocks


def _proof_json(proof: ModProof) -> dict:
    return {"prime": proof.prime, "level": proof.level, "blocks": [list(b) for b in proof.blocks]}


class TestModProof:
    def test_doubling_is_proved_mod_3_not_mod_2(self):
        m = IntMatrix.from_rows([[2, -1]])
        assert mod_proof(m, (2,)) is None
        assert mod_proof(m, (2, 3, 5, 7, 11, 13)) == ModProof(3, ())
        assert mod_proof(m) == ModProof(3, ())

    def test_prime_past_13(self):
        # 30,030 = 2*3*5*7*11*13 and 6,469,693,230 is the primorial of 29
        assert mod_proof(IntMatrix.from_rows([[1, -30031]])) == ModProof(17, ())
        assert mod_proof(IntMatrix.from_rows([[1, -6469693231]])) == ModProof(31, ())

    def test_every_not_pr_matrix_gets_the_least_prime(self):
        # entries up to 9 put some least primes past 13
        rng = random.Random(17)
        primes = []
        for _ in range(150):
            cols = rng.randint(2, 5)
            rows = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            m = IntMatrix.from_rows(rows)
            proof = mod_proof(m)
            assert (proof is None) == (columns_property(m) is not None), rows
            if proof is not None:
                least = next(
                    p for p in itertools.count(2)
                    if is_prime(p) and brute_mod_p_partition(m, p) is None
                )
                assert proof.prime == least, rows
                assert mod_proof_problems(m, _proof_json(proof)) == []
                primes.append(proof.prime)
        assert max(primes) > 13 and len(primes) < 150  # both outcomes, and primes past 13

    def test_item_10_system_stops_at_level_2(self):
        # cycle row Y1 + Y2 + Y3 - Y4 and loop row 2*Y1
        m = IntMatrix.from_rows([[1, 1, 1, -1], [2, 0, 0, 0]])
        proof = mod_proof(m, (2, 3, 5, 7, 11, 13))
        assert proof == ModProof(3, ((2, 4), (3,)))
        assert proof.level == 2

    @pytest.mark.parametrize("p", [2, 3])
    def test_agrees_with_brute_force_over_ordered_partitions(self, p):
        # entries up to 4 make columns whose rational kernel basis is a
        # sublattice of index p, where a weaker test would admit more
        rng = random.Random(1000 + p)
        proved = 0
        for _ in range(250):
            cols = rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            m = IntMatrix.from_rows(rows)
            proof = mod_proof(m, (p,))
            assert (proof is None) == (brute_mod_p_partition(m, p) is not None), rows
            if proof is not None:
                proved += 1
                assert mod_proof_problems(m, _proof_json(proof)) == []
                assert columns_property(m) is None
        assert 20 < proved < 230  # both outcomes are well represented

    @pytest.mark.parametrize("p", [2, 3])
    def test_tall_matrices_agree_with_brute_force(self, p):
        rng = random.Random(2000 + p)
        proved = 0
        for _ in range(150):
            m = IntMatrix.from_rows(_tall_rows(rng))
            proof = mod_proof(m, (p,))
            assert (proof is None) == (brute_mod_p_partition(m, p) is not None), m
            proved += proof is not None
        assert 10 < proved < 140  # both outcomes

    def test_pr_matrix_tries_no_prime(self, monkeypatch):
        # B is 2 * 10**9 here; walking the primes up to it took about an hour
        calls = []
        monkeypatch.setattr(expreg.rado, "is_prime", lambda n: calls.append(n) or is_prime(n))
        assert mod_proof(IntMatrix.from_rows([[10**9, -10**9]])) is None
        assert calls == []

    def test_pr_matrices_are_never_proved(self):
        rng = random.Random(31)
        regular = 0
        for _ in range(300):
            cols = rng.randint(1, 7)
            rows = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
            m = IntMatrix.from_rows(rows)
            if columns_property(m) is not None:
                regular += 1
                assert all(mod_proof(m, (p,)) is None for p in (2, 3, 5, 7, 11, 13)), rows
                assert mod_proof(m) is None, rows
        assert regular > 50

    def test_annihilator_basis_spans_the_whole_lattice(self):
        # the rational kernel of (2, 1, 1) scales to (-1, 2, 0) and (-1, 0, 2),
        # whose residues mod 2 miss (0, 1, -1); the engine's basis does not
        test = _Annihilator(2, 3)
        test.add((2, 1, 1))
        assert not test.contains((0, 1, 0))
        assert test.contains((0, 1, 1))
        assert not passes_mod_p(annihilator_mod_p([(2, 1, 1)], 3, 2), (0, 1, 0), 2)

    def test_check_rejects_an_unsound_proof(self):
        m = IntMatrix.from_rows([[1, 1, -1]])
        assert check_mod_proof(m, ModProof(3, ())) != []
        assert mod_proof_problems(m, _proof_json(ModProof(3, ()))) != []
        assert check_mod_proof(m, ModProof(4, ())) == ["4 is not prime"]
        assert check_mod_proof(m, ModProof(3, ((1, 2, 3),))) != []


class TestSingleEquationOracle:
    def test_schur(self):
        assert single_equation_oracle((1, 1, -1))

    def test_doubling(self):
        assert not single_equation_oracle((2, -1))

    def test_three_way(self):
        assert single_equation_oracle((3, -1, -2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            single_equation_oracle((1, 0))


def test_oracle_agreement_small():
    entries = [-2, -1, 1, 2]
    for n in (2, 3):
        for coeffs in itertools.product(entries, repeat=n):
            regular, _ = is_partition_regular(IntMatrix.from_rows([list(coeffs)]))
            assert regular == single_equation_oracle(coeffs), coeffs


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3
    ),
    st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
    st.integers(0, 2),
)
def test_row_scaling_invariance(rows, factor, which):
    m = IntMatrix.from_rows(rows)
    scaled = scale_row(m, which % m.num_rows + 1, factor)
    assert is_partition_regular(m)[0] == is_partition_regular(scaled)[0]


class TestRadoColour:
    def test_base3(self):
        assert rado_colour(3, 18) == 2

    def test_base5(self):
        assert rado_colour(5, 7) == 2

    def test_shifted(self):
        assert rado_colour(3, 54) == 2

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            rado_colour(4, 10)

    def test_positive_only(self):
        with pytest.raises(ValueError):
            rado_colour(3, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 10**9))
def test_digit_shift_invariance(p, x):
    assert rado_colour(p, p * x) == rado_colour(p, x)


def test_rado_colouring_excludes_non_columns_property_matrices():
    # empirical form of the classical exclusion: for each matrix here that
    # fails the columns property, some small prime's digit colouring admits
    # no monochromatic solution with entries up to 2000
    corpus = [
        IntMatrix.from_rows([[2, -1]]),
        IntMatrix.from_rows([[1, -3]]),
        IntMatrix.from_rows([[1, 1]]),
    ]
    for m in corpus:
        assert columns_property(m) is None
        verified = None
        for p in (2, 3, 5, 7, 11, 13):
            report = search_lin(m, RadoP(p), 2000)
            if report.exhausted:
                verified = p
                break
        assert verified is not None, f"no prime excluded {m.entries}"
