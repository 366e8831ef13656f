"""Certificates for both decision directions.

When the linear side is solvable we lift a solution z to a tower witness
x_i = a^(b^k_i), y_i = b^(z_i); when it is not, we compose a forbidding
colouring of the linear side with the prime-factor count.  Tower equality
is always decided in the exponents, never by materializing the towers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .eqsys import Edge, ExpSystem
from .graphs import build_linear_system, component_map, forest_walk
from .rado import IntMatrix, is_prime


class NotASolution(ValueError):
    pass


class NotNormalized(ValueError):
    pass


class SelfCheckFailed(RuntimeError):
    """An internal consistency check failed: a defect, never a bad input."""


# ---------------------------------------------------------------------------
# prime-factor count (with multiplicity)


def _pollard_rho(n: int) -> int:
    # Brent's variant with deterministic parameter sweep; n must be odd,
    # composite, and not a perfect prime power below the trial bound.
    for c in range(1, 50):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to split {n}")  # unreachable at desk scale


def prime_omega(x: int) -> int:
    """Number of prime factors of x counted with multiplicity.

    Undefined below 2: the colouring built on top of it never has to look
    at 1, and 1 would otherwise get the impossible value 0.
    """
    if x < 2:
        raise ValueError(f"prime factor count undefined for {x}")
    count = 0
    for p in (2, 3, 5, 7):
        while x % p == 0:
            x //= p
            count += 1
    d = 11
    while d * d <= x and d < 10_000:
        for q in (d, d + 2):
            while x % q == 0:
                x //= q
                count += 1
        d += 6
    if x == 1:
        return count
    return count + _omega_large(x)


def _omega_large(n: int) -> int:
    # n has no factor below 10^4
    if is_prime(n):
        return 1
    root = math.isqrt(n)
    if root * root == n:
        return 2 * _omega_large(root)
    d = _pollard_rho(n)
    return _omega_large(d) + _omega_large(n // d)


# ---------------------------------------------------------------------------
# tower values


@dataclass(frozen=True)
class Plain:
    """An explicitly materialized integer value."""

    value: int


@dataclass(frozen=True)
class Tower:
    """base^(expbase^level); level 0 denotes base itself."""

    base: int
    expbase: int
    level: int


TowerValue = Plain | Tower


def tower_to_int(tv: TowerValue, ceiling: int) -> int | None:
    """Materialize when the value provably fits under ceiling, else None."""
    if isinstance(tv, Plain):
        return tv.value if tv.value <= ceiling else None
    exp_bits = tv.level * math.log2(tv.expbase) if tv.level else 0
    if exp_bits > 64:
        return None
    exponent = tv.expbase**tv.level
    if exponent * math.log2(tv.base) > ceiling.bit_length() + 1:
        return None
    value = tv.base**exponent
    return value if value <= ceiling else None


# ---------------------------------------------------------------------------
# solving and lifting


def iter_positive_solutions(a: IntMatrix, bound: int):
    """Yield every z in [1, bound]^n with A z = 0, in lexicographic order.

    Depth-first enumeration with per-row interval pruning, kept on an
    explicit stack so the column count is not limited by the recursion
    depth; exact and deterministic.
    """
    n = a.num_cols
    rows = a.entries

    def feasible(prefix: list[int]) -> bool:
        k = len(prefix)
        for row in rows:
            fixed = sum(c * v for c, v in zip(row, prefix))
            lo = hi = fixed
            for c in row[k:]:
                if c > 0:
                    lo += c
                    hi += c * bound
                elif c < 0:
                    lo += c * bound
                    hi += c
            if not lo <= 0 <= hi:
                return False
        return True

    if n == 0:
        yield ()
        return
    # prefix[-1] is the value under trial in the deepest column so far
    prefix = [0]
    while prefix:
        prefix[-1] += 1
        if prefix[-1] > bound:
            prefix.pop()
        elif feasible(prefix):
            if len(prefix) == n:
                yield tuple(prefix)
            else:
                prefix.append(0)


def find_positive_solution(a: IntMatrix, bound: int) -> tuple[int, ...] | None:
    """Lexicographically smallest z in [1, bound]^n with A z = 0, or None."""
    return next(iter_positive_solutions(a, bound), None)


def weight(sys: ExpSystem, z: tuple[int, ...]) -> int:
    """Coefficient mass times exponent mass: the tower-level budget of z."""
    mass = sum(abs(c) for e in sys.edges for c in e.coeffs)
    return mass * sum(z)


def path_sums(sys: ExpSystem, z: tuple[int, ...]) -> tuple[int, ...]:
    """Raw per-vertex sums along forest paths from each component representative.

    Checks first that z annihilates every cycle row, which is exactly what
    makes the sums independent of the chosen paths.  The sums themselves
    come from one walk of the spanning forest, each vertex adding its
    parent step's signed weight to its parent's sum: after the check, the
    cost is O(V + E + F * num_y) for F forest edges, where one path per
    vertex would cost O(V * (V + E)).
    """
    if len(z) != sys.num_y:
        raise NotASolution(f"z has length {len(z)}, expected {sys.num_y}")
    lin = build_linear_system(sys)
    for i, row in enumerate(lin.matrix.entries):
        if sum(c * v for c, v in zip(row, z)) != 0:
            raise NotASolution(f"z violates cycle constraint {i + 1}: {row}")
    sums = [0] * (sys.num_vertices + 1)
    for v, step in forest_walk(sys):
        if step is None:
            continue
        idx, sign = step
        e = sys.edges[idx - 1]
        parent = e.tail if sign > 0 else e.head
        sums[v] = sums[parent] + sign * sum(c * zz for c, zz in zip(e.coeffs, z))
    return tuple(sums[1:])


def compute_k(sys: ExpSystem, z: tuple[int, ...]) -> tuple[int, ...]:
    """Tower levels: path sums shifted so each weak component has minimum 0.

    Raw path sums can be negative when coefficients are; only differences
    k_head - k_tail are constrained, so a per-component shift is free and
    keeps the levels usable as exponents.  Raises NotASolution when z fails
    a cycle constraint.  Beyond that check, the cost is linear in the size
    of the system.
    """
    raw = path_sums(sys, z)
    reps = component_map(sys)
    low: dict[int, int] = {}
    for v in range(1, sys.num_vertices + 1):
        r = reps[v]
        low[r] = min(low.get(r, raw[v - 1]), raw[v - 1])
    return tuple(raw[v - 1] - low[reps[v]] for v in range(1, sys.num_vertices + 1))


@dataclass(frozen=True)
class Witness:
    """A solved instance: y_i = b^(z_i), x_i = a^(b^(k_i))."""

    a: int
    b: int
    z: tuple[int, ...]
    k: tuple[int, ...]
    xs: tuple[TowerValue, ...]
    ys: tuple[TowerValue, ...]


def lift(sys: ExpSystem, z: tuple[int, ...], a: int = 2, b: int = 2) -> Witness:
    """Build the tower witness for a solution z of the linear side.

    The y-values are materialized (z is desk-scale by construction); the
    x-values stay symbolic towers.  Raises SelfCheckFailed if the levels
    miss an edge identity, which would be a defect of the construction.
    """
    if a < 2 or b < 2:
        raise ValueError("witness bases must be at least 2")
    if any(v < 1 for v in z):
        raise NotASolution("z must be a positive vector")
    k = compute_k(sys, z)
    xs = tuple(Tower(a, b, kv) for kv in k)
    ys = tuple(Plain(b**zv) for zv in z)
    w = Witness(a, b, tuple(z), k, xs, ys)
    # well-definedness self-check: the levels satisfy every edge, not just
    # the forest edges the construction walked
    if not verify_witness(sys, w):
        raise SelfCheckFailed("lift produced inconsistent levels")
    return w


def verify_witness(sys: ExpSystem, w: Witness) -> bool:
    """Check every edge identity k_head - k_tail = coeffs . z, in exact integers.

    Equality of a^(b^u) with a^(b^v) for a, b >= 2 is equality of u and v,
    so no tower is ever materialized.
    """
    if len(w.z) != sys.num_y or len(w.k) != sys.num_vertices:
        return False
    for e in sys.edges:
        step = sum(c * zz for c, zz in zip(e.coeffs, w.z))
        if w.k[e.tail - 1] + step != w.k[e.head - 1]:
            return False
    return True


def forbidding_colouring(c):
    """Compose a colouring of the linear side with the prime-factor count.

    The result colours integers >= 2; the value 1 gets the reserved
    sentinel, which never matters because all pattern variables exceed 1.
    """
    from . import search as _search  # imported here to avoid a module cycle

    if isinstance(c, _search.RadoP):
        return _search.RadoPNu(c.p)
    if isinstance(c, _search.Constant):
        return c
    return _search.OmegaOf(c)


def expand_pattern(xs: tuple[int, ...], budget: int, a: int, b: int) -> list[TowerValue]:
    """The tuple a, b^(x_1), ..., b^(x_n), a^(b^1), ..., a^(b^budget)."""
    values: list[TowerValue] = [Plain(a)]
    values.extend(Plain(b**x) for x in xs)
    values.extend(Tower(a, b, level) for level in range(1, budget + 1))
    return values


# ---------------------------------------------------------------------------
# reduction direction


def nu_squared_reduce(sys: ExpSystem) -> IntMatrix:
    """Derive the linear system by formally applying the prime-factor count twice.

    Each edge contributes coeffs . omega(Y) = omega^2(X_head) - omega^2(X_tail)
    (both sides exceed 1 on a normalized system, so the double application is
    legal).  Summing signed edge relations around each basis cycle must cancel
    every X-term exactly, leaving a Y-row; the result is checked entry-for-entry
    against the direct cycle construction before it is returned.
    """
    if any(e.is_identity() for e in sys.edges):
        raise NotNormalized("identity equations present; normalize first")

    ny, nx = sys.num_y, sys.num_vertices

    def edge_relation(e: Edge) -> list[int]:
        row = list(e.coeffs) + [0] * nx
        row[ny + e.tail - 1] += 1
        row[ny + e.head - 1] -= 1
        return row

    lin = build_linear_system(sys)
    rows = []
    for cyc in lin.cycles:
        combined = [0] * (ny + nx)
        first = sys.edges[cyc.steps[0][0] - 1]
        # same orientation as build_linear_system: loops forward, chord
        # cycles along the forest path
        flip = -1 if first.tail != first.head else 1
        for idx, sign in cyc.steps:
            rel = edge_relation(sys.edges[idx - 1])
            for i, v in enumerate(rel):
                combined[i] += flip * sign * v
        x_part = combined[ny:]
        if any(x_part):
            raise SelfCheckFailed(f"X-terms failed to cancel around cycle {cyc}: {x_part}")
        rows.append(tuple(combined[:ny]))

    matrix = IntMatrix(len(rows), ny, tuple(rows))
    if matrix != lin.matrix:
        raise SelfCheckFailed("reduction disagrees with the direct construction")
    return matrix
