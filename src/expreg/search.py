"""Brute-force oracles: colouring evaluation and exhaustive searches.

Colourings have one evaluator, `colour_of`, which colours a tower a^(b^k)
in its exponents; a plain value is the tower at level 0.

Everything here is exhaustive and honest.  Assignments whose intermediate
values would blow past the ceiling are skipped and counted, never treated
as silent non-solutions, and every Found result re-verifies before it is
reported.  The exponential search counts those skips class by class
instead of walking each tuple, and reports the same numbers a walk would.
It streams a class's rows of per-edge constraints, one per Y-tuple, and
one walk over the rows answers both questions: the first solution, and
the skips before the best one so far.  Many Y-tuples share a row, and the
X-side work is done once per distinct row.  The constraints come from
class tables that depend only on the class's values and the ceiling, so
they are built once per process and shared by every search over the
class; the colour classes themselves are computed afresh by each search.
The re-verification goes through `eval_exp`, which evaluates each edge on
its own and never reads those rows.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .eqsys import ExpSystem
from .graphs import LinearSystem
from .rado import IntMatrix, NotPrime, SelfCheckFailed, is_prime, lowest_digit
from .witness import (
    Plain,
    Tower,
    TowerValue,
    Witness,
    iter_positive_solutions,
    lift,
    prime_omega,
    tower_to_int,
)


# ---------------------------------------------------------------------------
# colouring specs


@dataclass(frozen=True)
class Constant:
    colour: int

    def __post_init__(self) -> None:
        if self.colour < 0:
            raise ValueError("colours must be non-negative")


@dataclass(frozen=True)
class Mod:
    """colour(x) = x mod m."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")


@dataclass(frozen=True)
class RadoP:
    """colour(x) = lowest nonzero base-p digit of x."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


@dataclass(frozen=True)
class RadoPNu:
    """The base-p digit colouring composed with the prime-factor count; x >= 2."""

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")


@dataclass(frozen=True)
class OmegaOf:
    """An arbitrary colouring composed with the prime-factor count; x >= 2."""

    base: "ColouringSpec"


@dataclass(frozen=True)
class Table:
    """Explicit colours for 1..len(colours), default beyond that range."""

    colours: tuple[int, ...]
    default: int = 0

    def __post_init__(self) -> None:
        if self.default < 0 or any(c < 0 for c in self.colours):
            raise ValueError("colours must be non-negative")


ColouringSpec = Constant | Mod | RadoP | RadoPNu | OmegaOf | Table


def colour_of(spec: ColouringSpec, a: int, b: int = 1, k: int = 0) -> int:
    """Colour of the tower a^(b^k); a plain value x is a = x, k = 0.

    The colour is read in the exponents, so the tower is never built:
    residues go through pow, the base-p digit of a^n is the digit of a to
    the n-th power, and the factor count is n * prime_omega(a).  Raises
    ValueError where the colouring is undefined: below 1, and at 1 under
    a factor count (prime_omega's own error).
    """
    if a < 1:
        raise ValueError("colourings are defined on positive integers")
    n = b**k
    if isinstance(spec, Constant):
        return spec.colour
    if isinstance(spec, Mod):
        return pow(a, n, spec.modulus)
    if isinstance(spec, RadoP):
        return pow(lowest_digit(spec.p, a), n, spec.p)
    if isinstance(spec, RadoPNu):
        return lowest_digit(spec.p, n * prime_omega(a))
    if isinstance(spec, OmegaOf):
        return colour_of(spec.base, n * prime_omega(a))
    if isinstance(spec, Table):
        value = tower_to_int(Tower(a, b, k), len(spec.colours))
        return spec.default if value is None else spec.colours[value - 1]
    raise TypeError(f"not a colouring spec: {spec!r}")


def colour_of_tower(spec: ColouringSpec, tv: TowerValue) -> int:
    """colour_of on a witness value; a Plain value is level 0."""
    if isinstance(tv, Plain):
        return colour_of(spec, tv.value)
    return colour_of(spec, tv.base, tv.expbase, tv.level)


# ---------------------------------------------------------------------------
# bounded evaluation of exponential equations

PASS = "pass"
FAIL = "fail"
CEILING = "ceiling"

DEFAULT_CEILING = 10**6


def _bounded_pow(base: int, exp: int, ceiling: int) -> int | None:
    """base**exp, or None as soon as the value exceeds the ceiling."""
    if exp < 0:
        raise ValueError("negative exponent")
    result = 1
    b = base
    e = exp
    while e:
        if e & 1:
            result *= b
            if result > ceiling:
                return None
        e >>= 1
        if e:
            b *= b
            if b > ceiling:
                # some remaining bit would multiply this (or a bigger square) in
                return None
    return result


def _exponent(edge, ys, ceiling: int) -> tuple[int, int] | None:
    """The edge's Y-monomial as a reduced fraction num/den, or None once
    either side exceeds the ceiling."""
    num = den = 1
    for c, y in zip(edge.coeffs, ys):
        if c > 0:
            p = _bounded_pow(y, c, ceiling)
            if p is None:
                return None
            num *= p
            if num > ceiling:
                return None
        elif c < 0:
            p = _bounded_pow(y, -c, ceiling)
            if p is None:
                return None
            den *= p
            if den > ceiling:
                return None
    g = math.gcd(num, den)
    return num // g, den // g


def _edge_status(edge, xs, ys, ceiling: int) -> str:
    exponent = _exponent(edge, ys, ceiling)
    if exponent is None:
        return CEILING
    num, den = exponent
    # X_tail^(num/den) = X_head  <=>  X_tail^num = X_head^den over the reals
    lhs = _bounded_pow(xs[edge.tail - 1], num, ceiling)
    rhs = _bounded_pow(xs[edge.head - 1], den, ceiling)
    if lhs is None or rhs is None:
        return CEILING
    return PASS if lhs == rhs else FAIL


def eval_exp(sys: ExpSystem, xs, ys, ceiling: int) -> list[str]:
    """Per-edge status of an explicit assignment: pass, fail, or ceiling.

    Negative exponents are handled exactly through the rational exponent
    num/den; the comparison cross-multiplies instead of taking roots.
    """
    xs = tuple(xs)
    ys = tuple(ys)
    if len(xs) != sys.num_vertices or len(ys) != sys.num_y:
        raise ValueError("assignment length mismatch")
    if any(v < 2 for v in xs) or any(v < 2 for v in ys):
        raise ValueError("all assigned values must exceed 1")
    return [_edge_status(e, xs, ys, ceiling) for e in sys.edges]


# ---------------------------------------------------------------------------
# exhaustive searches


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive monochromatic search.

    `assignment` is the lexicographically first solution when one exists;
    otherwise the full lattice was enumerated and `skipped` counts the
    monochromatic candidates whose evaluation hit the ceiling.
    """

    var_low: int
    var_high: int
    ceiling: int | None
    num_variables: int
    assignment: tuple[int, ...] | None
    skipped: int

    @property
    def found(self) -> bool:
        return self.assignment is not None

    @property
    def exhausted(self) -> bool:
        return self.assignment is None


class Uncoloured(ValueError):
    """A searched value where the colouring is undefined."""

    def __init__(self, value: int) -> None:
        super().__init__(f"colouring is undefined at {value}")
        self.value = value


def _colour_classes(spec: ColouringSpec, low: int, high: int) -> dict[int, list[int]]:
    classes: dict[int, list[int]] = {}
    for v in range(low, high + 1):
        try:
            c = colour_of(spec, v)
        except ValueError:
            raise Uncoloured(v) from None
        classes.setdefault(c, []).append(v)
    return classes


def check_var_bound(var_bound: int) -> None:
    """Reject a variable bound that leaves [2, var_bound] empty, where an
    exhausted search would prove nothing."""
    if var_bound < 2:
        raise ValueError(f"variable bound {var_bound} leaves no values in [2, {var_bound}]")


def search_exp(
    sys: ExpSystem, colouring: ColouringSpec, var_bound: int, ceiling: int
) -> SearchReport:
    """First monochromatic solution of the system with all variables in [2, var_bound].

    A monochromatic assignment must give all X- and Y-variables the same
    colour, so the search runs per colour class and keeps the global
    lexicographic-first winner (X-variables before Y-variables).  The
    report is the one a tuple-by-tuple walk of the classes in colour order
    would give, each walk stopping at the best solution found so far:
    `skipped` counts the tuples before it (all of them, while there is
    none) on which no edge fails and some edge hits the ceiling.  Those
    tuples are counted per class, not enumerated, in one walk over the
    class's Y-tuples; a class whose own first solution becomes the best
    so far is walked a second time, to count below it.  See
    `_ClassLattice`.  A var_bound or ceiling below 2 is a ValueError: every
    value is at least 2, so the search would be vacuous.  A value in range
    where the colouring is undefined raises Uncoloured: an exhausted report
    must cover every value it names.
    """
    check_var_bound(var_bound)
    if ceiling < 2:
        raise ValueError(f"ceiling {ceiling} is below 2, so every candidate would exceed it")
    classes = _colour_classes(colouring, 2, var_bound)
    nx = sys.num_vertices
    best: tuple[int, ...] | None = None
    skipped = 0
    for colour in sorted(classes):
        lattice = _ClassLattice(sys, classes[colour], ceiling)
        first, unfailed = lattice.walk(below=best)
        if first is not None and (best is None or first < best):
            best = first
            _, unfailed = lattice.walk(below=best, solve=False)
        # no tuple before the first solution passes, so every unfailed one
        # before the winner is a ceiling skip
        skipped += unfailed
    if best is not None:
        statuses = eval_exp(sys, best[:nx], best[nx:], ceiling)
        if any(s != PASS for s in statuses):
            raise SelfCheckFailed(f"found assignment {best} failed re-verification: {statuses}")
    return SearchReport(2, var_bound, ceiling, nx + sys.num_y, best, skipped)


# An edge's constraint on the X-vertices for one Y-tuple is a pair
# (unfailed, passing) of masks for a loop, or of tables per value of the
# earlier endpoint for any other edge.  A side is None where it is
# trivial: unfailed everywhere, or passing nowhere.  Constraints are
# interned by value in their class's tables, so equal ones are one object:
# identity is equality, and a row of them is a cheap dict key.
class _Constraint(tuple):
    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


# both sides trivial: every X-assignment a ceiling skip
_AT_CEILING = _Constraint((None, None))


class _ClassTables:
    """What a colour class's constraints owe to its values and the ceiling
    alone, so every lattice over the class shares it: bounded powers, the
    largest useful exponent, and the constraint of a loop or a link per
    reduced exponent.  Bit i of a mask stands for values[i]."""

    def __init__(self, values: tuple[int, ...], ceiling: int) -> None:
        self.values = values
        self.ceiling = ceiling
        self.full = (1 << len(values)) - 1
        # the largest exponent that keeps some value within the ceiling
        self.top, power = 0, values[0]
        while power <= ceiling:
            self.top, power = self.top + 1, power * values[0]
        self._powers: dict[int, tuple[list[int], int]] = {}
        self._links: dict[tuple[int, int], _Constraint] = {}
        self._loops: dict[tuple[int, int], _Constraint] = {}
        # every constraint of the class by value, so that equal ones are one
        # object: a side is a mask for a loop and a tuple of masks for a link
        self._interned: dict[tuple, _Constraint] = {(None, None): _AT_CEILING}

    def power(self, c: int) -> tuple[list[int], int]:
        """v**c per value, ceiling + 1 past the ceiling, and the number of
        values within it: a prefix, as the values increase."""
        power = self._powers.get(c)
        if power is None:
            table = []
            for v in self.values:
                p = _bounded_pow(v, c, self.ceiling)
                if p is None:
                    break
                table.append(p)
            k = len(table)
            table += [self.ceiling + 1] * (len(self.values) - k)
            power = self._powers[c] = (table, k)
        return power

    def over_mask(self, c: int) -> int:
        """Values whose c-th power exceeds the ceiling: a suffix of the class."""
        k = self.power(c)[1]
        return self.full >> k << k

    def _intern(self, unfailed, passing) -> _Constraint:
        key = (unfailed, passing)
        return self._interned.setdefault(key, _Constraint(key))

    def link(self, a: int, b: int) -> _Constraint:
        """The constraint of u^a = v^b on v, per u = values[i]: the v with
        the pair unfailed, and those with u^a = v^b <= C."""
        key = (a, b)
        if key not in self._links:
            powers_a, ka = self.power(a)
            powers_b, kb = self.power(b)
            roots = {powers_b[j]: 1 << j for j in range(kb)}
            over_b = self.full >> kb << kb
            rest = len(self.values) - ka
            passing = tuple(roots.get(p, 0) for p in powers_a[:ka]) + (0,) * rest
            unfailed = tuple(over_b | root for root in passing[:ka]) + (self.full,) * rest
            self._links[key] = self._intern(
                None if unfailed.count(self.full) == len(unfailed) else unfailed,
                passing if any(passing) else None,
            )
        return self._links[key]

    def loop(self, n: int, d: int) -> _Constraint:
        """The constraint of x^n = x^d, for n/d reduced."""
        key = (n, d)
        if key not in self._loops:
            if n == d:
                # x^n = x^d for x >= 2 only when n = d, i.e. n = d = 1
                constraint = self._intern(None, self.full ^ self.over_mask(1) or None)
            else:
                unfailed = self.over_mask(n) | self.over_mask(d)
                constraint = self._intern(None if unfailed == self.full else unfailed, None)
            self._loops[key] = constraint
        return self._loops[key]


# One process's searches share a few dozen classes (14 across the bench
# corpus's 593 cross-checks); the cache holds that many and no more.
_class_tables = functools.lru_cache(maxsize=32)(_ClassTables)


class _ClassLattice:
    """The assignments of one colour class, counted instead of walked.

    Bit i of a mask stands for values[i].  Once the Y-values are fixed, an
    edge either exceeds the ceiling in its Y-monomial, which makes it a
    ceiling whatever the X-values, or reduces to an exponent n/d.  It then
    does not fail iff x_tail^n > C, x_head^d > C or x_tail^n = x_head^d,
    and it passes iff x_tail^n = x_head^d <= C.  Given one endpoint, the
    other's values form the overflow suffix plus at most one exact root,
    so the X-tuples of one Y-tuple are counted by assigning X-vertices in
    index order, each to the intersection of the masks its loops and its
    edges to earlier vertices allow.

    A row holds one constraint per edge for one Y-tuple.  Each edge's
    exponents grow lazily, one variable at a time, over the class's power
    tables, and each distinct exponent is resolved once per lattice to a
    constraint of the class tables, so the rows stream in product order
    and only the rows seen so far are held, never the lattice.  Rows
    repeat, since many Y-tuples leave the same constraints, and a walk
    does a row's X-side work once: its first passing X-part and its count
    serve every later Y-tuple with that row.  One walk over the rows both
    finds the first passing assignment and counts the unfailed ones.
    """

    def __init__(self, sys: ExpSystem, values: list[int], ceiling: int) -> None:
        self.sys = sys
        self.tables = tables = _class_tables(tuple(values), ceiling)
        # per edge: its constraint by unreduced exponent (num, den)
        self._constraints: list[dict[tuple[int, int], _Constraint]] = [{} for _ in sys.edges]
        # per edge: (coefficient, power table) per Y-variable
        self._factors = [[(c, tables.power(abs(c))[0]) for c in e.coeffs] for e in sys.edges]
        # per edge: its later endpoint, and its earlier one (None for a loop)
        self._ends = [
            (e.tail - 1, None)
            if e.tail == e.head
            else (max(e.tail, e.head) - 1, min(e.tail, e.head) - 1)
            for e in sys.edges
        ]
        # per edge: its constraint at a reduced exponent (n, d)
        self._resolve = [
            tables.loop
            if e.tail == e.head
            else tables.link
            if e.tail < e.head
            else lambda n, d: tables.link(d, n)
            for e in sys.edges
        ]

    def _constraint(self, k: int, cell: tuple[int, int]) -> _Constraint:
        """Edge k's constraint at the unreduced exponent cell = (num, den)."""
        num, den = cell
        ceiling = self.tables.ceiling
        if num > ceiling or den > ceiling:
            # not memoized: exponents past the ceiling are many and all alike
            return _AT_CEILING
        g = math.gcd(num, den)
        n, d = num // g, den // g
        top = self.tables.top
        # past top, every value's n-th or d-th power is past the ceiling
        constraint = _AT_CEILING if n > top or d > top else self._resolve[k](n, d)
        self._constraints[k][cell] = constraint
        return constraint

    def _column(self, k: int, cells: Iterable[tuple[int, int]]) -> Iterator[_Constraint]:
        """Edge k's constraints at the given unreduced exponents."""
        known, top = self._constraints[k], self.tables.top
        # num > top * den leaves the reduced numerator past top too, and
        # den > top * num the denominator
        return (
            _AT_CEILING
            if cell[0] > top * cell[1] or cell[1] > top * cell[0]
            else known.get(cell) or self._constraint(k, cell)
            for cell in cells
        )

    def _rows(self) -> Iterator[tuple]:
        """A row per Y-tuple, in product order: one constraint per edge."""
        columns = []
        for k, factors in enumerate(self._factors):
            # every factor is at least 1 and a power past the ceiling is
            # ceiling + 1, so a product is past the ceiling iff a factor is
            cells: Iterable[tuple[int, int]] = [(1, 1)]
            for c, table in factors:
                cells = _times(cells, c, table)
            columns.append(self._column(k, cells))
        return zip(*columns) if columns else itertools.repeat(())

    def _vertices(self, row, passing: bool) -> "_Vertices | None":
        """Per-vertex constraints of one row: where every edge passes (None
        when some edge passes nowhere), or where no edge fails."""
        nx = self.sys.num_vertices
        doms = [self.tables.full] * nx
        preds: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in doms]
        read = [False] * nx
        for (i, j), constraint in zip(self._ends, row):
            side = constraint[passing]
            if side is None:
                if passing:
                    return None
            elif j is None:
                doms[i] &= side
            else:
                preds[i].append((j, side))
                read[j] = True
        return _Vertices(doms, preds, read)

    def walk(
        self, below: tuple[int, ...] | None, solve: bool = True
    ) -> tuple[tuple[int, ...] | None, int]:
        """One pass over the class: its lexicographically first passing
        assignment (None when there is none, or without `solve`), and the
        number of assignments on which no edge fails, all of them or only
        those sorting before `below`."""
        nx = self.sys.num_vertices
        values = self.tables.values
        first = first_ys = None
        total = 0
        if below is not None:
            below_xs, below_ys = below[:nx], below[nx:]
        # per distinct row: its count, or (before, tie) against `below`
        seen: dict[tuple, int | tuple[int, bool]] = {}
        ys_tuples = itertools.product(values, repeat=self.sys.num_y)
        for ys, row in zip(ys_tuples, self._rows()):
            known = seen.get(row)
            if known is None:
                # a repeat's first X-part comes with a later Y-tuple, so
                # only a row's first Y-tuple can give the first solution
                if solve:
                    vertices = self._vertices(row, passing=True)
                    xs = None if vertices is None else vertices.first()
                    if xs is not None and (first is None or xs < first):
                        first, first_ys = xs, ys
                vertices = self._vertices(row, passing=False)
                known = seen[row] = (
                    vertices.count(0)
                    if below is None
                    else vertices.count_before(values, below_xs)
                )
            if below is None:
                total += known
            else:
                before, tie = known
                # a tuple whose X-part ties with `below` sorts before it by its Y-part
                total += before + (tie and ys < below_ys)
        if first is None:
            return None, total
        return tuple(values[k] for k in first) + first_ys, total


def _times(cells: Iterable[tuple[int, int]], c: int, table: list[int]) -> Iterator:
    """Each exponent (num, den) times each power in the table, into the
    numerator for c > 0 and the denominator for c < 0, in product order.
    Lazy, so that a class's exponents are never all held at once."""
    if c > 0:
        return ((n * p, d) for n, d in cells for p in table)
    if c < 0:
        return ((n, d * p) for n, d in cells for p in table)
    return (cell for cell in cells for _ in table)


class _Vertices:
    """Constraints on the X-vertices, as masks over one colour class.

    Vertex i may take the bits of doms[i] that every (j, table) in
    preds[i] allows: table[k] is the mask permitted when vertex j < i
    holds bit k, and branches[j] says whether any such table exists.  The
    walks below keep an explicit stack, so their depth is not bounded by
    the recursion limit.
    """

    def __init__(
        self, doms: list[int], preds: list[list[tuple[int, tuple[int, ...]]]], branches: list[bool]
    ) -> None:
        self.doms = doms
        self.preds = preds
        self.xs = [0] * len(doms)
        # a vertex no later vertex reads contributes its mask's size as a factor
        self.branches = branches

    def _mask(self, i: int) -> int:
        mask = self.doms[i]
        xs = self.xs
        for j, table in self.preds[i]:
            mask &= table[xs[j]]
        return mask

    def count(self, start: int) -> int:
        """Completions of the assignment of vertices before `start`."""
        # a vertex with no edge to an earlier one that no later one reads
        # has a constant mask, whose size is a factor of every completion
        factor = 1
        order = []
        for i in range(start, len(self.doms)):
            if self.preds[i] or self.branches[i]:
                order.append(i)
            else:
                factor *= self.doms[i].bit_count()
        m = len(order)
        if not m or not factor:
            return factor
        xs, branches = self.xs, self.branches
        pending = [0] * (m + 1)
        weight = [factor] * (m + 1)
        total = 0
        pending[0] = self._mask(order[0])
        p = 0
        while p >= 0:
            if p == m:
                total += weight[m]
                p -= 1
                continue
            mask = pending[p]
            if not mask:
                p -= 1
                continue
            i = order[p]
            if branches[i]:
                low = mask & -mask
                pending[p] = mask ^ low
                xs[i] = low.bit_length() - 1
                weight[p + 1] = weight[p]
            else:
                pending[p] = 0
                weight[p + 1] = weight[p] * mask.bit_count()
            p += 1
            if p < m:
                pending[p] = self._mask(order[p])
        return total

    def count_before(self, values: tuple[int, ...], bound) -> tuple[int, bool]:
        """Assignments sorting before the X-tuple `bound`, and whether
        `bound` itself is one."""
        total = 0
        xs = self.xs
        for i, v in enumerate(bound):
            mask = self._mask(i)
            k = bisect.bisect_left(values, v)
            lower = mask & ((1 << k) - 1)
            if lower and not self.branches[i]:
                total += lower.bit_count() * self.count(i + 1)
            else:
                while lower:
                    low = lower & -lower
                    lower ^= low
                    xs[i] = low.bit_length() - 1
                    total += self.count(i + 1)
            if k == len(values) or values[k] != v or not mask >> k & 1:
                return total, False
            xs[i] = k
        return total, True

    def first(self) -> tuple[int, ...] | None:
        """The smallest assignment, as bit indices, or None."""
        nx = len(self.doms)
        xs = self.xs
        pending = [0] * (nx + 1)
        if nx:
            pending[0] = self._mask(0)
        i = 0
        while i >= 0:
            if i == nx:
                return tuple(xs)
            mask = pending[i]
            if not mask:
                i -= 1
                continue
            low = mask & -mask
            pending[i] = mask ^ low
            xs[i] = low.bit_length() - 1
            i += 1
            if i < nx:
                pending[i] = self._mask(i)
        return None


def _solution_value_sets(matrix: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """Distinct-value sets of solutions within [1, bound]^n, deduplicated."""
    seen: set[tuple[int, ...]] = set()
    for z in iter_positive_solutions(matrix, bound):
        seen.add(tuple(sorted(set(z))))
    return sorted(seen)


def _exists_avoiding_colouring(n: int, colours: int, constraints) -> list[int] | None:
    """A colouring of [1, n] making no constraint set monochromatic, or None.

    Backtracking over values in increasing order; colour symmetry is broken
    by never introducing colour c before all colours below c are in use, so
    the search is exhaustive up to colour permutation.
    """
    by_max: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for members in constraints:
        if members and members[-1] <= n:
            by_max[members[-1]].append(members)
    assigned = [0] * (n + 1)

    def dfs(v: int, used: int) -> bool:
        if v > n:
            return True
        for c in range(min(used + 1, colours)):
            assigned[v] = c
            ok = True
            for members in by_max[v]:
                first = assigned[members[0]]
                if all(assigned[u] == first for u in members[1:]):
                    ok = False
                    break
            if ok and dfs(v + 1, used + (1 if c == used else 0)):
                return True
        return False

    if dfs(1, 0):
        return assigned[1:]
    return None


def rado_number(matrix: IntMatrix, colours: int, max_n: int) -> int | None:
    """Least N <= max_n such that every colouring of [1, N] has a monochromatic
    solution with entries <= N; None when the threshold exceeds max_n."""
    if colours < 1:
        raise ValueError("at least one colour required")
    sets = _solution_value_sets(matrix, max_n)
    for n in range(1, max_n + 1):
        active = [s for s in sets if s[-1] <= n]
        if _exists_avoiding_colouring(n, colours, active) is None:
            return n
    return None


def vdw_number(colours: int, length: int, max_n: int) -> int | None:
    """Least N <= max_n such that every colouring of [1, N] has a monochromatic
    arithmetic progression of the given length; None beyond max_n."""
    if colours < 1 or length < 1:
        raise ValueError("colours and length must be positive")
    if length == 1:
        return 1
    for n in range(1, max_n + 1):
        aps = [
            tuple(a + i * d for i in range(length))
            for a in range(1, n + 1)
            for d in range(1, (n - a) // (length - 1) + 1)
        ]
        if _exists_avoiding_colouring(n, colours, aps) is None:
            return n
    return None


WITNESS_BASES = ((2, 2), (3, 3), (2, 3), (3, 2), (5, 5))
MAX_WITNESS_SOLUTIONS = 200


def search_witnesses(lin: LinearSystem, spec: ColouringSpec, z_bound: int = 12) -> Witness | None:
    """First lifted witness that is monochromatic under the given colouring.

    Scans the first MAX_WITNESS_SOLUTIONS solutions of the linear side in
    lexicographic order and the WITNESS_BASES pairs in order; colours of the
    tower values are evaluated in the exponents.  Returns None when nothing
    within the bounds is monochromatic (which never refutes anything:
    existence is guaranteed, location is not).  A tower value where the
    colouring is undefined is a ValueError, not a skip.
    """
    for z in itertools.islice(iter_positive_solutions(lin.matrix, z_bound), MAX_WITNESS_SOLUTIONS):
        for a, b in WITNESS_BASES:
            w = lift(lin, z, a, b)
            if len({colour_of_tower(spec, tv) for tv in w.xs + w.ys}) == 1:
                return w
    return None
