"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from pathlib import Path


from expreg.cli import build_decision_report
from expreg.corpus import PANEL, PICK_BOUNDS, run_experiment, system_corpus
from expreg.dsl import parse_system, print_colouring
from expreg.eqsys import ExpSystem, normalize
from expreg.graphs import build_linear_system
from expreg.rado import IntMatrix, is_partition_regular, mod_proof
from expreg.search import (
    PASS,
    RadoPNu,
    eval_exp,
    rado_number,
    search_exp,
    search_witnesses,
    vdw_number,
)
from expreg.witness import (
    iter_positive_solutions,
    lift,
    prime_omega,
    verify_witness,
)

from helpers import (
    find_progression,
    iter_systems,
    nu_squared_reduce,
    reference_colour,
    reference_weak_components,
    simple_cycle_rows,
    single_equation_oracle,
    solves_in_span,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _check(criterion: str, ok: bool, budget: float, elapsed: float, detail: str = ""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {criterion}: {verdict} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.2f}s"


def test_criterion_01_pr_example():
    start = time.time()
    report = build_decision_report(
        (FIXTURES / "exp-pr.xps").read_text(), want_witness=True, a=2, b=2
    )
    ok = report["verdict"] == "PR" and report["linear_system"]["rows"] == []
    w = report["witness"]
    ok = ok and w is not None and w["a"] == 2 and w["b"] == 2 and w["z"] == [1, 1, 1, 1]
    ok = ok and w["verified"] is True
    # direct bounded evaluation of the materialized witness
    sys, _ = normalize(parse_system((FIXTURES / "exp-pr.xps").read_text()))
    lifted = lift(build_linear_system(sys), (1, 1, 1, 1), 2, 2)
    xs = [lifted.a ** (lifted.b**k) for k in lifted.k]
    ys = [lifted.b**z for z in lifted.z]
    ok = ok and max(xs + ys) <= 10**6
    ok = ok and all(s == PASS for s in eval_exp(sys, xs, ys, 10**6))
    _check("01 pr-example", ok, 1.0, time.time() - start)


def test_criterion_02_npr_example():
    start = time.time()
    report = build_decision_report((FIXTURES / "exp-npr.xps").read_text(), verify_bound=40)
    ok = report["verdict"] == "not PR"
    ok = ok and report["linear_system"]["rows"] == [[2, -1]]
    cert = report["certificate"]
    ok = ok and cert["colouring"] == "radop-nu:3" and cert["prime"] == 3
    ok = ok and cert["proof"] == {"prime": 3, "level": 0, "blocks": []}
    ver = cert["verification"]
    ok = ok and ver["var_bound"] == 40 and ver["ceiling"] == 10**6
    ok = ok and ver["outcome"] == "exhausted-no-solution"
    # the certificate claims exhaustion; re-run the search it names
    sys, _ = normalize(parse_system((FIXTURES / "exp-npr.xps").read_text()))
    ok = ok and search_exp(sys, RadoPNu(3), 40, 10**6).exhausted
    _check("02 npr-example", ok, 60.0, time.time() - start)


def test_criterion_03_columns_property_vs_oracle():
    start = time.time()
    entries = [-3, -2, -1, 1, 2, 3]
    mismatches = 0
    cases = 0
    for n in (2, 3, 4):
        for coeffs in itertools.product(entries, repeat=n):
            cases += 1
            regular, _ = is_partition_regular(IntMatrix.from_rows([list(coeffs)]))
            if regular != single_equation_oracle(coeffs):
                mismatches += 1
    _check(
        "03 oracle-agreement",
        mismatches == 0,
        10.0,
        time.time() - start,
        f"{cases} cases, {mismatches} mismatches",
    )


def test_criterion_04_rado_number():
    start = time.time()
    matrix = IntMatrix.from_rows([[1, 1, -1]])

    # independent oracle: enumerate all 2-colourings with colour(1) fixed
    def solutions(n):
        return [
            (x, y, x + y)
            for x in range(1, n + 1)
            for y in range(x, n + 1)
            if x + y <= n
        ]

    def every_colouring_forced(n):
        sols = solutions(n)
        for bits in itertools.product((0, 1), repeat=n - 1):
            colouring = (0,) + bits
            if not any(
                colouring[x - 1] == colouring[y - 1] == colouring[z - 1]
                for x, y, z in sols
            ):
                return False
        return True

    ok = not every_colouring_forced(4) and every_colouring_forced(5)
    witness_colouring = [0, 1, 1, 0]  # {1,4} | {2,3} avoids x+y=z in [4]
    ok = ok and not any(
        witness_colouring[x - 1] == witness_colouring[y - 1] == witness_colouring[z - 1]
        for x, y, z in solutions(4)
    )
    ok = ok and rado_number(matrix, 2, 10) == 5
    _check("04 rado-number", ok, 5.0, time.time() - start)


def test_criterion_05_van_der_waerden():
    start = time.time()

    def naive_has_mono_ap(table, length):
        n = len(table)
        for a in range(1, n + 1):
            for d in range(1, (n - a) // (length - 1) + 1):
                values = {table[a - 1 + i * d] for i in range(length)}
                if len(values) == 1:
                    return True
        return False

    def forced(n):
        result = True
        for bits in itertools.product((0, 1), repeat=n - 1):
            table = [0] + list(bits)
            found = find_progression(table, 3) is not None
            assert found == naive_has_mono_ap(table, 3)  # op agrees with oracle
            if not found:
                result = False
        return result

    ok = not forced(8) and forced(9) and vdw_number(2, 3, 20) == 9
    _check("05 van-der-waerden", ok, 30.0, time.time() - start)


def _lift_cases(target=100, bound=20):
    cases = []
    for raw in iter_systems():
        sys, _ = normalize(raw)
        z = next(iter_positive_solutions(build_linear_system(sys).matrix, bound), None)
        if z is not None:
            cases.append((sys, z))
            if len(cases) == target:
                return cases
    return cases


def test_criterion_06_lift_soundness_corpus():
    start = time.time()
    cases = _lift_cases()
    failures = 0
    for sys, z in cases:
        lin = build_linear_system(sys)
        for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)):
            w = lift(lin, z, a, b)
            if not verify_witness(sys, w):
                failures += 1
            for e in sys.edges:
                step = sum(c * v for c, v in zip(e.coeffs, z))
                if w.k[e.head - 1] - w.k[e.tail - 1] != step:
                    failures += 1
    _check(
        "06 lift-soundness",
        len(cases) >= 100 and failures == 0,
        60.0,
        time.time() - start,
        f"{len(cases)} systems, {failures} failures",
    )


def test_criterion_07_reduction_round_trip():
    start = time.time()
    checked = 0
    for raw in system_corpus(150):
        sys, _ = normalize(raw)
        if nu_squared_reduce(sys) != build_linear_system(sys).matrix:
            _check("07 reduction-round-trip", False, 30.0, time.time() - start)
        checked += 1
    _check("07 reduction-round-trip", checked == 150, 30.0, time.time() - start)


def test_criterion_08_cycle_space():
    start = time.time()
    rng = random.Random(20210407)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(0, 7)
        sys = ExpSystem.square(
            n,
            [
                (rng.randint(1, n), rng.randint(1, n), [rng.randint(-2, 2) for _ in range(n)])
                for _ in range(m)
            ],
        )
        lin = build_linear_system(sys)
        expected = len(sys.edges) - sys.num_vertices + len(reference_weak_components(sys))
        if len(lin.cycles) != expected:
            bad += 1
            continue
        rows = list(lin.matrix.entries)
        for row in simple_cycle_rows(sys):
            if not solves_in_span(rows, row):
                bad += 1
                break
    _check("08 cycle-space", bad == 0, 60.0, time.time() - start, f"{bad} bad graphs")


def test_criterion_09_factor_count_properties():
    start = time.time()
    rng = random.Random(161803)
    failures = 0
    for _ in range(1000):
        x = rng.randint(2, 10**6)
        y = rng.randint(2, 10**6)
        m = rng.randint(1, 10)
        if prime_omega(x * y) != prime_omega(x) + prime_omega(y):
            failures += 1
        if prime_omega(x**m) != m * prime_omega(x):
            failures += 1
        if prime_omega(x) < 1:
            failures += 1
    _check("09 factor-count", failures == 0, 5.0, time.time() - start)


# witness values at most this large are materialized and re-coloured
WITNESS_CAP = 10**12


def _under_cap(base: int, exponent: int) -> int | None:
    """base**exponent for base >= 2 when it is at most WITNESS_CAP, else None."""
    if exponent > WITNESS_CAP.bit_length():
        return None
    value = base**exponent
    return value if value <= WITNESS_CAP else None


def _recoloured_pr_witnesses(count: int):
    """Per PR system of the first `count` corpus systems and PANEL colouring
    with a witness: the colours reference_colour gives the witness values
    that materialize under WITNESS_CAP.  The witnesses were picked with the
    package's colouring in the exponents, so this check does not share its
    code."""
    for raw in system_corpus(count):
        sys_, _ = normalize(raw)
        lin = build_linear_system(sys_)
        if not is_partition_regular(lin.matrix)[0]:
            continue
        for spec in PANEL:
            w = search_witnesses(lin, spec)
            if w is not None:
                powers = [(w.a, w.b**k) for k in w.k] + [(w.b, z) for z in w.z]
                values = (_under_cap(base, exponent) for base, exponent in powers)
                yield [reference_colour(spec, v) for v in values if v is not None]


def test_criterion_10_end_to_end_consistency():
    start = time.time()
    result = run_experiment(100)
    pr_count, npr_count = result["pr"], result["npr"]
    hard_failures = result["hard_failures"]
    rates = {print_colouring(c): f"{n}/{pr_count}" for c, n in result["inconclusive"].items()}
    # every witness has some value checked, and one colour on all of them
    recoloured = list(_recoloured_pr_witnesses(100))
    witness_failures = sum(len(set(colours)) != 1 for colours in recoloured)
    checked = sum(map(len, recoloured))
    detail = (
        f"PR={pr_count} nonPR={npr_count} "
        f"inconclusive={rates} hard_failures={hard_failures} "
        f"witnesses={len(recoloured)} values_recoloured={checked} "
        f"witness_failures={witness_failures}"
    )
    _check(
        "10 end-to-end",
        hard_failures == 0
        and pr_count > 0
        and npr_count > 0
        and len(recoloured) > 0
        and witness_failures == 0,
        300.0,
        time.time() - start,
        detail,
    )


def test_corpus_check_refutes_the_old_bounded_search_picks():
    # default-seed systems 3, 56 and 76 got radop-nu:2 when the first prime
    # whose bounded search came up empty was certified; a lifted witness is
    # monochromatic under it, which run_experiment now counts as a hard
    # failure, while the prime their proof picks admits none
    systems = system_corpus(76)
    for index in (3, 56, 76):
        sys_, _ = normalize(systems[index - 1])
        lin = build_linear_system(sys_)
        pick = PICK_BOUNDS[sys_.num_vertices + sys_.num_y]
        assert search_exp(sys_, RadoPNu(2), pick, 10**6).exhausted
        assert search_witnesses(lin, RadoPNu(2)) is not None
        proof = mod_proof(lin.matrix, (2, 3, 5, 7, 11, 13))
        assert proof.prime > 2
        assert search_witnesses(lin, RadoPNu(proof.prime)) is None
