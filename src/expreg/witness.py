"""Certificates for both decision directions.

When the linear side has the columns property, its partition gives a
positive solution z, lifted to the witness (a, b, z, k) through the cycle
rows, forest walk and components of the system's one analysis
(`graphs.LinearSystem`).  Every value a witness names is a power
base**exponent that is never built: x_i = a**(b**k_i) and y_i = b**z_i.
When the linear side has not the columns property, a forbidding colouring
composes a colouring of the linear side with the prime-factor count
computed here.  Equality of x-values is always decided in the exponents.
`verify_witness` takes the raw system and does its own arithmetic, so a
lift's self-check does not reuse the construction it checks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress

from .eqsys import ExpSystem
from .graphs import LinearSystem
from .rado import ColumnsPartition, IntMatrix, SelfCheckFailed, is_prime

MAX_Y_DIGITS = 4300  # CPython's default limit for int <-> str conversion


class NotASolution(ValueError):
    pass


class WitnessTooLarge(ValueError):
    """Some y = b^z would have more than MAX_Y_DIGITS decimal digits."""


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


def _level_vectors(a: IntMatrix, part: ColumnsPartition) -> list[list[int]]:
    """Rado's kernel vector v_t for each level t of a columns partition.

    v_t is 1 on S_t minus the coefficients that write the block sum of S_t
    in the columns of earlier blocks (none for S_0), cleared of denominators
    and divided by its gcd.  Fraction-free elimination on the rows (a_j, e_j)
    of [A^T | I] finds them: a row reduced to (0, c) has A c = 0.
    """
    m, n = a.num_rows, a.num_cols
    aug = list(zip(*a.entries, *[(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]))
    rows, levels = [], []  # rows: (pivot < m, reduced row)
    for block in part.blocks:
        cols = [aug[j - 1] for j in block]
        for i, vec in enumerate([[*map(sum, zip(*cols))], *cols]):
            for pivot, row in rows:
                if vec[pivot]:
                    f, g = row[pivot], vec[pivot]
                    vec = [f * x - g * y for x, y in zip(vec, row)]
            g = math.gcd(*vec) if vec[m + block[0] - 1] >= 0 else -math.gcd(*vec)
            if not i:
                levels.append([x // g for x in vec[m:]])
            elif any(vec[:m]):
                rows.append((next(p for p in range(m) if vec[p]), [x // g for x in vec]))
    return levels


def find_positive_solution(a: IntMatrix, part: ColumnsPartition) -> tuple[int, ...]:
    """Rado's positive solution of A z = 0, built from a columns partition.

    z sums the level vectors v_t of `_level_vectors` from the last level
    up, each with the smallest integer weight w_t that makes z positive on
    S_t (v_s is 0 there for s < t), then is divided by its gcd.  With K
    the largest |entry| of any v_t and L levels, |w_t| <= (K + 1)^(L-1-t),
    so every entry of z is below (K + 1)^L.  One level (as with no rows) gives
    z = (1, ..., 1).  Raises SelfCheckFailed unless z > 0 and A z = 0.
    """
    z = [1] * a.num_cols
    if len(part.blocks) > 1:
        z = [0] * a.num_cols
        for block, v in zip(reversed(part.blocks), reversed(_level_vectors(a, part))):
            w = max([-((z[j - 1] - 1) // v[j - 1]) for j in block])
            z = [x + w * y for x, y in zip(z, v)]
        g = math.gcd(*z)
        z = [x // g for x in z]
    z = tuple(z)
    if min(z) < 1 or any([sum(map(operator.mul, row, z)) for row in a.entries]):
        raise SelfCheckFailed(f"construction from {part.blocks} gave {z}")
    return z


def path_sums(lin: LinearSystem, z: tuple[int, ...]) -> tuple[int, ...]:
    """Raw per-vertex sums along forest paths from each component representative.

    Checks first that z annihilates every cycle row, which is exactly what
    makes the sums independent of the chosen paths.  The sums themselves
    come from the analysis's walk of the spanning forest: each entry
    (vertex, parent, step) adds its step's signed weight to its parent's
    sum.  After the check, the cost is O(V + F * num_y) for F forest edges,
    where one path per vertex would cost O(V * (V + E)).  Each weight
    multiplies only the step's nonzero coefficients; finding them is a scan
    in C, so the Python-level work is per nonzero term.
    """
    sys = lin.system
    if len(z) != sys.num_y:
        raise NotASolution(f"z has length {len(z)}, expected {sys.num_y}")
    for i, row in enumerate(lin.matrix.entries):
        if sum(map(operator.mul, row, z)) != 0:
            raise NotASolution(f"z violates cycle constraint {i + 1}: {row}")
    sums = [0] * (sys.num_vertices + 1)
    for v, parent, step in lin.walk:
        if step is None:
            continue
        idx, sign = step
        coeffs = sys.edges[idx - 1].coeffs
        weight = sum(map(operator.mul, compress(coeffs, coeffs), compress(z, coeffs)))
        sums[v] = sums[parent] + sign * weight
    return tuple(sums[1:])


def compute_k(lin: LinearSystem, z: tuple[int, ...]) -> tuple[int, ...]:
    """Levels k: path sums shifted so each weak component has minimum 0.

    Raw path sums can be negative when coefficients are; only differences
    k_head - k_tail are constrained, so a per-component shift is free and
    keeps the levels usable as exponents.  Raises NotASolution when z fails
    a cycle constraint.  Beyond that check, the cost is linear in the size
    of the system.
    """
    raw = path_sums(lin, z)
    low: dict[int, int] = {}
    for v, r in lin.reps.items():
        low[r] = min(low.get(r, raw[v - 1]), raw[v - 1])
    return tuple(raw[v - 1] - low[lin.reps[v]] for v in range(1, len(raw) + 1))


@dataclass(frozen=True)
class Witness:
    """A solved instance: x_i = a**(b**k_i) and y_i = b**z_i, none of them built."""

    a: int
    b: int
    z: tuple[int, ...]
    k: tuple[int, ...]


def lift(lin: LinearSystem, z: tuple[int, ...], a: int = 2, b: int = 2) -> Witness:
    """Build the witness (a, b, z, k) for a solution z of the linear side of lin.system.

    Each y = b**z_i must have at most MAX_Y_DIGITS decimal digits, for the
    report that writes it out (else WitnessTooLarge, before any power is
    taken).  Raises SelfCheckFailed if the levels miss an edge identity,
    which would be a defect of the construction.
    """
    if a < 2 or b < 2:
        raise ValueError("witness bases must be at least 2")
    if any(v < 1 for v in z):
        raise NotASolution("z must be a positive vector")
    k = compute_k(lin, z)
    if max(z) >= MAX_Y_DIGITS / math.log10(b):
        raise WitnessTooLarge(f"y = {b}^{max(z)} has more than {MAX_Y_DIGITS} decimal digits")
    w = Witness(a, b, tuple(z), k)
    # well-definedness self-check: the levels satisfy every edge, not just
    # the forest edges the construction walked
    if not verify_witness(lin.system, w):
        raise SelfCheckFailed("lift produced inconsistent levels")
    return w


def verify_witness(sys: ExpSystem, w: Witness) -> bool:
    """Check every edge identity k_head - k_tail = coeffs . z, in exact integers.

    Equality of a**(b**u) with a**(b**v) for a, b >= 2 is equality of u
    and v, so no x-value is ever built.  Like path_sums, each dot product
    runs over the nonzero coefficients only, but it indexes them itself.
    """
    if len(w.z) != sys.num_y or len(w.k) != sys.num_vertices:
        return False
    z = w.z
    for e in sys.edges:
        coeffs = e.coeffs
        step = sum([coeffs[j] * z[j] for j in compress(range(len(coeffs)), coeffs)])
        if w.k[e.tail - 1] + step != w.k[e.head - 1]:
            return False
    return True
