"""Brute-force oracles: colouring evaluation and exhaustive searches.

Colourings have one evaluator, `colour_of`, which colours a tower a^(b^k)
in its exponents; a plain value is the tower at level 0.

Everything here is exhaustive and honest.  Assignments whose intermediate
values would blow past the ceiling are skipped and counted, never treated
as silent non-solutions, and every Found result re-verifies before it is
reported.  The exponential search counts those skips class by class
instead of walking each tuple, and reports the same numbers a walk would.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

from .eqsys import ExpSystem
from .graphs import LinearSystem
from .rado import IntMatrix, NotPrime, SelfCheckFailed, is_prime, rado_colour
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
        return pow(rado_colour(spec.p, a), n, spec.p)
    if isinstance(spec, RadoPNu):
        return rado_colour(spec.p, n * prime_omega(a))
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
# primes whose radop-nu colouring `decide --p auto` tries, in order
AUTO_PRIMES = (2, 3, 5, 7, 11, 13)


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
    report is the one a tuple-by-tuple walk of each class would give,
    stopping at the winner: `skipped` counts the tuples before it (all of
    them, when there is none) on which no edge fails and some edge hits
    the ceiling.  Those tuples are counted per class, not enumerated; see
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
        first = lattice.first_solution()
        if first is not None and (best is None or first < best):
            best = first
        # no tuple before the first solution passes, so every unfailed one
        # before the winner is a ceiling skip
        skipped += lattice.count_unfailed(below=best)
    if best is not None:
        statuses = eval_exp(sys, best[:nx], best[nx:], ceiling)
        if any(s != PASS for s in statuses):
            raise SelfCheckFailed(f"found assignment {best} failed re-verification: {statuses}")
    return SearchReport(2, var_bound, ceiling, nx + sys.num_y, best, skipped)


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
    """

    def __init__(self, sys: ExpSystem, values: list[int], ceiling: int) -> None:
        self.sys = sys
        self.values = values
        self.ceiling = ceiling
        self.full = (1 << len(values)) - 1
        self._over: dict[int, int] = {}
        self._links: dict[tuple[int, int], tuple[list[int], list[int]]] = {}

    def _over_mask(self, e: int) -> int:
        """Values whose e-th power exceeds the ceiling: a suffix of the class."""
        mask = self._over.get(e)
        if mask is None:
            k = next(
                (i for i, v in enumerate(self.values) if _bounded_pow(v, e, self.ceiling) is None),
                len(self.values),
            )
            mask = self._over[e] = self.full >> k << k
        return mask

    def _link(self, a: int, b: int) -> tuple[list[int], list[int]]:
        """Per u = values[i]: the v with u^a, v^b unfailed, and those with u^a = v^b <= C."""
        key = (a, b)
        if key not in self._links:
            roots: dict[int, int] = {}
            for j, v in enumerate(self.values):
                power = _bounded_pow(v, b, self.ceiling)
                if power is None:
                    break
                roots[power] = 1 << j
            over_b = self._over_mask(b)
            unfailed, passing = [], []
            for u in self.values:
                power = _bounded_pow(u, a, self.ceiling)
                root = 0 if power is None else roots.get(power, 0)
                unfailed.append(self.full if power is None else over_b | root)
                passing.append(root)
            self._links[key] = (unfailed, passing)
        return self._links[key]

    def _vertices(self, exps, passing: bool) -> "_Vertices | None":
        """Per-vertex constraints of one Y-tuple's edge exponents; None when
        `passing` is asked of a tuple whose edges cannot all pass."""
        nx = self.sys.num_vertices
        doms = [self.full] * nx
        preds: list[list[tuple[int, list[int]]]] = [[] for _ in range(nx)]
        for e, exp in zip(self.sys.edges, exps):
            if exp is None:
                if passing:
                    return None
                continue
            n, d = exp
            t, h = e.tail - 1, e.head - 1
            if t == h:
                # x^n = x^d for x >= 2 only when n = d, i.e. n = d = 1
                if passing:
                    doms[t] &= (self.full ^ self._over_mask(1)) if n == d else 0
                elif n != d:
                    doms[t] &= self._over_mask(n) | self._over_mask(d)
            elif t < h:
                preds[h].append((t, self._link(n, d)[passing]))
            else:
                preds[t].append((h, self._link(d, n)[passing]))
        return _Vertices(doms, preds)

    def _exponents(self, ys) -> tuple:
        return tuple(_exponent(e, ys, self.ceiling) for e in self.sys.edges)

    def _y_tuples(self):
        return itertools.product(self.values, repeat=self.sys.num_y)

    def first_solution(self) -> tuple[int, ...] | None:
        """The lexicographically first assignment on which every edge passes."""
        best: tuple[int, ...] | None = None
        best_ys = None
        for ys in self._y_tuples():
            vertices = self._vertices(self._exponents(ys), passing=True)
            xs = None if vertices is None else vertices.first()
            # later Y-tuples sort after earlier ones with the same X-part
            if xs is not None and (best is None or xs < best):
                best, best_ys = xs, ys
        if best is None:
            return None
        return tuple(self.values[k] for k in best) + best_ys

    def count_unfailed(self, below: tuple[int, ...] | None) -> int:
        """Assignments on which no edge fails, all of them or only those
        sorting before `below`."""
        nx = self.sys.num_vertices
        total = 0
        for ys in self._y_tuples():
            vertices = self._vertices(self._exponents(ys), passing=False)
            if below is None:
                before, tie = vertices.count(0), False
            else:
                before, tie = vertices.count_before(self.values, below[:nx])
            # a tuple whose X-part ties with `below` sorts before it by its Y-part
            total += before + (tie and ys < below[nx:])
        return total


class _Vertices:
    """Constraints on the X-vertices, as masks over one colour class.

    Vertex i may take the bits of doms[i] that every (j, table) in
    preds[i] allows: table[k] is the mask permitted when vertex j < i
    holds bit k.  The walks below keep an explicit stack, so their depth
    is not bounded by the recursion limit.
    """

    def __init__(self, doms: list[int], preds: list[list[tuple[int, list[int]]]]) -> None:
        self.doms = doms
        self.preds = preds
        self.xs = [0] * len(doms)
        # a vertex no later vertex reads contributes its mask's size as a factor
        read = {j for later in preds for j, _ in later}
        self.branches = [i in read for i in range(len(doms))]

    def _mask(self, i: int) -> int:
        mask = self.doms[i]
        xs = self.xs
        for j, table in self.preds[i]:
            mask &= table[xs[j]]
        return mask

    def count(self, start: int) -> int:
        """Completions of the assignment of vertices before `start`."""
        nx = len(self.doms)
        xs, branches = self.xs, self.branches
        pending = [0] * (nx + 1)
        weight = [1] * (nx + 1)
        total = 0
        if start < nx:
            pending[start] = self._mask(start)
        i = start
        while i >= start:
            if i == nx:
                total += weight[nx]
                i -= 1
                continue
            mask = pending[i]
            if not mask:
                i -= 1
                continue
            if branches[i]:
                low = mask & -mask
                pending[i] = mask ^ low
                xs[i] = low.bit_length() - 1
                weight[i + 1] = weight[i]
            else:
                pending[i] = 0
                weight[i + 1] = weight[i] * mask.bit_count()
            i += 1
            if i < nx:
                pending[i] = self._mask(i)
        return total

    def count_before(self, values: list[int], bound) -> tuple[int, bool]:
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
