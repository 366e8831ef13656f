"""Exact linear algebra, the columns-property decision procedure and its
mod-p counterpart, which proves a digit colouring forbids a system.

Everything here works over unbounded integers and `fractions.Fraction`;
the columns property is a brittle algebraic predicate and floating point
is never acceptable.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


class DimensionMismatch(ValueError):
    pass


class ColumnBudgetExceeded(ValueError):
    pass


class NotPrime(ValueError):
    pass


class SelfCheckFailed(RuntimeError):
    """An internal consistency check failed: a defect, never a bad input."""


DEFAULT_COLUMN_BUDGET = 12


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular integer matrix; zero rows are allowed, zero columns are not."""

    num_rows: int
    num_cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_cols < 1:
            raise ValueError("matrix must have at least one column")
        if self.num_rows < 0 or len(self.entries) != self.num_rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.num_cols:
                raise DimensionMismatch("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        if not rows:
            raise ValueError("from_rows needs at least one row")
        return cls(len(rows), len(rows[0]), rows)

    def column(self, j: int) -> tuple[int, ...]:
        """Column j, 1-based."""
        return tuple(row[j - 1] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(1, self.num_cols + 1)]


class _Span:
    """Incrementally built row-echelon basis for a rational span."""

    exact = True

    def __init__(self) -> None:
        self.rows: list[tuple[Fraction, ...]] = []  # each normalized to leading 1
        self.pivots: list[int] = []

    def _residual(self, vec: Sequence[int | Fraction]) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for pivot, row in zip(self.pivots, self.rows):
            if v[pivot]:
                c = v[pivot]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence[int | Fraction]) -> bool:
        return not any(self._residual(vec))

    def add(self, vec: Sequence[int | Fraction]) -> None:
        v = self._residual(vec)
        for pivot, x in enumerate(v):
            if x:
                inv = 1 / x
                self.rows.append(tuple(a * inv for a in v))
                self.pivots.append(pivot)
                return


class _ModAnnihilator:
    """Block sums tested mod p against the annihilator of the columns added.

    `basis` is a basis of the lattice of integer vectors phi with
    phi . a = 0 for every column a added, and `contains(s)` holds when
    phi . s = 0 (mod p) for every phi in it.  It starts as the unit
    vectors, so with no column added the test is s = 0 (mod p).  Adding a
    column runs Euclid on the values phi . a with unimodular steps and
    drops the one vector left with a nonzero value, so the basis spans the
    whole lattice, not a sublattice: the test is the strictest it gives.
    """

    exact = False

    def __init__(self, p: int, dim: int) -> None:
        self.p = p
        self.basis = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]

    def contains(self, vec: Sequence[int]) -> bool:
        p = self.p
        return all(sum(map(operator.mul, phi, vec)) % p == 0 for phi in self.basis)

    def add(self, col: Sequence[int]) -> None:
        kept, live = [], []
        for phi in self.basis:
            v = sum(map(operator.mul, phi, col))
            if v:
                live.append((v, phi))
            else:
                kept.append(phi)
        while len(live) > 1:
            live.sort(key=lambda item: abs(item[0]))
            v0, phi0 = live[0]
            rest = [live[0]]
            for v, phi in live[1:]:
                q = v // v0
                phi = tuple(a - q * b for a, b in zip(phi, phi0))
                if v - q * v0:
                    rest.append((v - q * v0, phi))
                else:
                    kept.append(phi)
            live = rest
        self.basis = kept


@dataclass(frozen=True)
class ColumnsPartition:
    """Ordered partition S_0, ..., S_d of the column indices (1-based)."""

    blocks: tuple[tuple[int, ...], ...]


def check_columns_partition(m: IntMatrix, part: ColumnsPartition) -> list[str]:
    """Re-validate a partition against the columns-property definition.

    Returns violations; empty means the certificate is sound.  Exact
    arithmetic throughout.
    """
    problems = []
    seen: set[int] = set()
    for block in part.blocks:
        if not block:
            problems.append("empty block")
        for j in block:
            if not 1 <= j <= m.num_cols:
                problems.append(f"column index {j} out of range")
            elif j in seen:
                problems.append(f"column {j} appears twice")
            seen.add(j)
    if seen != set(range(1, m.num_cols + 1)):
        problems.append("blocks do not cover all columns")
    if problems:
        return problems

    cols = m.columns()
    first_sum = _vector_sum(cols[j - 1] for j in part.blocks[0])
    if any(first_sum):
        problems.append("first block does not sum to zero")
    span = _Span()
    for j in part.blocks[0]:
        span.add(cols[j - 1])
    for i, block in enumerate(part.blocks[1:], start=1):
        s = _vector_sum(cols[j - 1] for j in block)
        if not span.contains(s):
            problems.append(f"block {i} sum is outside the span of earlier columns")
        for j in block:
            span.add(cols[j - 1])
    return problems


def _vector_sum(vectors) -> tuple[int, ...]:
    total: tuple[int, ...] | None = None
    for v in vectors:
        total = v if total is None else tuple(a + b for a, b in zip(total, v))
    if total is None:
        raise SelfCheckFailed("no columns to sum")
    return total


def _greedy_levels(m: IntMatrix, test) -> tuple[list[tuple[int, ...]], list[int]]:
    """The greedy level loop behind both certificates.

    `test` decides which block sums a level admits: a `_Span` of the
    columns taken so far (Rado's columns property) or a `_ModAnnihilator`
    (the mod-p proof).  Its bound `contains` tests one level's candidates
    and `add` takes each column of the chosen block.  An exact test's
    level 0 compares each block sum with zero directly.

    Each level tries the nonempty subsets of the r remaining columns by
    decreasing mask, bit r-1-i standing for the i-th remaining column: the
    full set first, and dropping a later column is preferred over dropping
    an earlier one, which is lexicographic order on label vectors.  It
    takes the first admissible block and never undoes it.  Exchange lemma:
    if a valid partition T_0, ..., T_d of the remaining columns exists and
    B is any nonempty block taken at this level, then T_0 - B, ..., T_d - B
    (empty blocks dropped) is valid too, because the sum over T_i - B
    differs from the sum over T_i by columns of B, which both tests treat
    as zero from then on, and taking columns never makes a test stricter.
    So the first admissible block never needs undoing, a level with none
    means no partition exists, and the result is the one a backtracking
    search would return.

    Returns the blocks taken and the columns left at the level where no
    block was admissible (none when every column was placed).  Raises
    ColumnBudgetExceeded when the column count is above
    DEFAULT_COLUMN_BUDGET; the subsets tried per level are exponential in
    the number of columns.
    """
    if m.num_cols > DEFAULT_COLUMN_BUDGET:
        raise ColumnBudgetExceeded(
            f"{m.num_cols} columns exceeds the search budget of {DEFAULT_COLUMN_BUDGET}"
        )
    cols = m.columns()
    remaining = list(range(1, m.num_cols + 1))
    blocks: list[tuple[int, ...]] = []
    while remaining:
        r = len(remaining)
        full = (1 << r) - 1
        bit_cols = [cols[remaining[r - 1 - b] - 1] for b in range(r)]
        total = _vector_sum(bit_cols)
        zero_sum = test.exact and not blocks
        contains = test.contains
        # The candidate for complement c is the block full ^ c, whose sum is
        # total - comp[c].  The blocks run down from `full`, so c runs up
        # from 0, and c with its lowest bit cleared is an earlier c: each
        # comp[c] is one addition away from an entry already built.
        comp = [(0,) * m.num_rows]
        for c in range(full):
            if c:
                low = bit_cols[(c & -c).bit_length() - 1]
                comp.append(tuple(map(operator.add, comp[c & (c - 1)], low)))
            if zero_sum:
                if comp[c] == total:
                    break
            elif contains(tuple(map(operator.sub, total, comp[c]))):
                break
        else:
            return blocks, remaining
        block = [j for i, j in enumerate(remaining) if not c >> (r - 1 - i) & 1]
        blocks.append(tuple(block))
        for j in block:
            test.add(cols[j - 1])
        remaining = [j for j in remaining if j not in block]
    return blocks, remaining


def columns_property(m: IntMatrix) -> ColumnsPartition | None:
    """Find an ordered column partition witnessing Rado's criterion, or None.

    Deterministic: returns the first valid partition under lexicographic
    order on column-label vectors (block membership of low-index columns
    decided first), found by `_greedy_levels` with the rational span as
    its test.  A matrix with no rows has all-zero columns in Q^0, so the
    single block S_0 = all columns always works there.

    Raises ColumnBudgetExceeded when the column count is above
    DEFAULT_COLUMN_BUDGET.  A matrix with no rows never searches (S_0 =
    everything is immediate), so the budget does not apply there.
    """
    if m.num_rows == 0:
        return ColumnsPartition((tuple(range(1, m.num_cols + 1)),))
    blocks, rest = _greedy_levels(m, _Span())
    if rest:
        return None
    part = ColumnsPartition(tuple(blocks))
    problems = check_columns_partition(m, part)
    if problems:
        raise SelfCheckFailed(f"unsound partition {part.blocks}: {problems}")
    return part


class ModProof(NamedTuple):
    """A proof that radop-nu:p (c_p composed with Omega) forbids a system.

    `_greedy_levels`, testing block sums mod `prime`, took `blocks` and
    then found no admissible block among the remaining columns at `level`.
    A NamedTuple, which builds faster at import than a dataclass.
    """

    prime: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def level(self) -> int:
        return len(self.blocks)


def mod_proof(m: IntMatrix, primes: Sequence[int] | None = None) -> ModProof | None:
    """The proof for the first of `primes` that has one, or None.

    `primes` defaults to 2, 3, 5, ... up to the first prime above B = (the
    column count) * (the product of the num_rows largest column l1-norms,
    each at least 1); then None means the columns property holds.  Proof:
    let the exact loop stop after taking columns T, leaving R.  A nonempty
    s in R sums outside the span of T, so a nonzero (k+1)-minor of [k
    independent columns of T | sum(s)] gives an integer phi annihilating T
    with phi . sum(s) = D, 0 < |D| <= B by multilinearity and Hadamard's
    bound.  The gcd g_s of phi . sum(s) over the `_ModAnnihilator` basis
    of T divides D, so a prime above B divides no g_s: it admits T's exact
    blocks, then no block of R, and by the exchange lemma its loop stops.

    Soundness.  Let y be a solution that c_p composed with Omega colours
    with one colour.  Omega is completely additive, so z = Omega(y) is a
    positive solution of A z = 0, and every z_j has the same lowest
    nonzero base-p digit d.  Group the columns into blocks S_0, S_1, ...
    by the p-adic valuation of z_j, lowest first.  For an integer phi with
    phi . a_j = 0 on every earlier block, dividing phi . (A z) = 0 by
    p^v(S_t) leaves d * phi . sum(S_t) = 0 (mod p): the blocks form a
    partition that the mod-p test admits level by level.  By the exchange
    lemma of `_greedy_levels` the loop would then place every column,
    whatever blocks it took.  So a loop that stops is a proof that the
    colouring forbids the system.

    The proof is re-checked by `check_mod_proof`.  Raises
    ColumnBudgetExceeded like `columns_property`.
    """
    if primes is None:
        norms = sorted((max(1, sum(map(abs, col))) for col in m.columns()), reverse=True)
        bound = m.num_cols * math.prod(norms[: m.num_rows])
        last = next(filter(is_prime, itertools.count(bound + 1)))
        primes = filter(is_prime, range(2, last + 1))
    for p in primes:
        blocks, rest = _greedy_levels(m, _ModAnnihilator(p, m.num_rows))
        if rest:
            proof = ModProof(p, tuple(blocks))
            problems = check_mod_proof(m, proof)
            if problems:
                raise SelfCheckFailed(f"unsound mod-{p} proof {proof.blocks}: {problems}")
            return proof
    return None


def check_mod_proof(m: IntMatrix, proof: ModProof) -> list[str]:
    """Re-validate a mod-p proof; empty means it is sound.

    The exchange lemma asks nothing of the blocks taken except that they
    are disjoint and leave columns over.  Every nonempty subset of the
    columns left is summed on its own and must fail the mod-p test
    against the annihilator of the columns taken.
    """
    p = proof.prime
    taken = [j for block in proof.blocks for j in block]
    rest = [j for j in range(1, m.num_cols + 1) if j not in taken]
    if not is_prime(p):
        return [f"{p} is not prime"]
    if not (all(proof.blocks) and rest and sorted(taken + rest) == list(range(1, m.num_cols + 1))):
        return ["blocks are empty, overlap, leave no column or name one out of range"]
    cols = m.columns()
    test = _ModAnnihilator(p, m.num_rows)
    for j in taken:
        test.add(cols[j - 1])
    for size in range(1, len(rest) + 1):
        for subset in itertools.combinations(rest, size):
            if test.contains(_vector_sum(cols[j - 1] for j in subset)):
                return [f"columns {subset} pass the mod-{p} test at level {proof.level}"]
    return []


def is_partition_regular(m: IntMatrix) -> tuple[bool, ColumnsPartition | None]:
    """Rado's theorem: partition regular iff the columns property holds.

    The certificate (the partition, or None) comes along with the verdict.
    """
    part = columns_property(m)
    return part is not None, part


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything a desk search will meet."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rado_colour(p: int, x: int) -> int:
    """The lowest nonzero base-p digit of x, a colour in [1, p-1].

    For p = 2 this is identically 1 (a single colour); allowed but useless
    for forbidding anything.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return lowest_digit(p, x)


def lowest_digit(p: int, x: int) -> int:
    """rado_colour without the primality test, for a p checked already."""
    if x < 1:
        raise ValueError("colouring is defined on positive integers")
    while x % p == 0:
        x //= p
    return x % p
