"""Brute-force oracles: colouring evaluation and exhaustive searches.

Colourings have one evaluator, `colour_of`, which colours a power a**n
in its exponent, so a witness value a**(b**k) or b**z is never built.

Everything here is exhaustive and honest.  Assignments whose intermediate
values would blow past the ceiling are skipped and counted, never treated
as silent non-solutions, and every Found result re-verifies before it is
reported.  The exponential search first excludes, by proof, every Y-tuple
that fails a cycle row of the linear side: around a cycle the edge
exponents compose, and X^e = X with X >= 2 forces e = 1, so a solution
has prod Y_k^(r_k) = 1 for every row r.  Per colour class it enumerates
only the Y-tuples that satisfy every row, from the free variables of an
echelon form of the rows, solving for the others on the values'
prime-exponent keys, and does the X-side work on those alone.  It
counts their ceiling skips class by class instead of walking each
X-tuple, and reports the numbers such a walk would give.  Many Y-tuples
share a row of per-edge constraints, and the X-side work is done once per
distinct row.  The constraints come from class tables that depend only on
the class's values and the ceiling, so they are built once per process
and shared by every search over the class; the colour classes themselves
are computed afresh by each search.  The re-verification goes through
`eval_exp`, which evaluates each edge on its own and never reads those
rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from .eqsys import ExpSystem
from .graphs import LinearSystem, build_linear_system
from .rado import Frozen, IntMatrix, NotPrime, SelfCheckFailed, is_prime, lowest_digit
from .witness import Witness, iter_positive_solutions, lift, prime_omega


# ---------------------------------------------------------------------------
# colouring specs


class Constant(Frozen):
    __slots__ = ("colour",)

    def __init__(self, colour: int) -> None:
        if colour < 0:
            raise ValueError("colours must be non-negative")
        self._init(colour)


class Mod(Frozen):
    """colour(x) = x mod m."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int) -> None:
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        self._init(modulus)


class RadoP(Frozen):
    """colour(x) = lowest nonzero base-p digit of x."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self._init(p)


class RadoPNu(Frozen):
    """The base-p digit colouring composed with the prime-factor count; x >= 2."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self._init(p)


class OmegaOf(Frozen):
    """An arbitrary colouring composed with the prime-factor count; x >= 2."""

    __slots__ = ("base",)

    def __init__(self, base: "ColouringSpec") -> None:
        self._init(base)


class Table(Frozen):
    """Explicit colours for 1..len(colours), default beyond that range."""

    __slots__ = ("colours", "default")

    def __init__(self, colours: tuple[int, ...], default: int = 0) -> None:
        if default < 0 or any(c < 0 for c in colours):
            raise ValueError("colours must be non-negative")
        self._init(colours, default)


ColouringSpec = Constant | Mod | RadoP | RadoPNu | OmegaOf | Table


def colour_of(spec: ColouringSpec, a: int, n: int = 1) -> int:
    """Colour of the power a**n, n >= 1; a plain value x is a = x, n = 1.

    The colour is read in the exponent, so the power is never built:
    residues go through pow, the base-p digit of a**n is the digit of a to
    the n-th power, the factor count is n * prime_omega(a), and a table
    reads a**n only while it stays within the table.  Raises ValueError
    where the colouring is undefined: below 1, and at 1 under a factor
    count (prime_omega's own error).
    """
    if a < 1:
        raise ValueError("colourings are defined on positive integers")
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
        value = _bounded_pow(a, n, len(spec.colours))
        return spec.default if value is None else spec.colours[value - 1]
    raise TypeError(f"not a colouring spec: {spec!r}")


def witness_colours(spec: ColouringSpec, w: Witness) -> set[int]:
    """The colours of a witness's values a**(b**k_i) and b**z_i."""
    return {colour_of(spec, w.a, w.b**k) for k in w.k} | {colour_of(spec, w.b, z) for z in w.z}


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


class SearchReport(NamedTuple):
    """Outcome of an exhaustive monochromatic search.

    `assignment` is the lexicographically first solution when one exists.
    Either way the full lattice was searched.  A tuple whose Y-values fail
    a cycle row of the linear side is excluded by proof: it solves nothing,
    whatever its X-values.  `skipped` counts the other monochromatic
    tuples on which no edge fails and some edge hits the ceiling, so it
    does not depend on which colour is called what.
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
    sys: ExpSystem,
    colouring: ColouringSpec,
    var_bound: int,
    ceiling: int,
    lin: LinearSystem | None = None,
) -> SearchReport:
    """First monochromatic solution of the system with all variables in [2, var_bound].

    A monochromatic assignment must give all X- and Y-variables the same
    colour, so the search runs per colour class and keeps the global
    lexicographic-first winner (X-variables before Y-variables).  Every
    solution satisfies each cycle row r of the linear side as a product,
    prod Y_k^(r_k) = 1, so each class walks only the Y-tuples that do (see
    `_pivots` and `_ClassLattice`).  `skipped` counts, over those Y-tuples
    of the whole box, the tuples on which no edge fails and some edge hits
    the ceiling, whether or not a solution exists; the classes' counts add
    up.  `lin` is the system's analysis, `build_linear_system(sys)`, built
    here when not given.  A var_bound or ceiling below 2 is a ValueError:
    every value is at least 2, so the search would be vacuous.  A value in
    range where the colouring is undefined raises Uncoloured: an exhausted
    report must cover every value it names.
    """
    check_var_bound(var_bound)
    if ceiling < 2:
        raise ValueError(f"ceiling {ceiling} is below 2, so every candidate would exceed it")
    if lin is None:
        lin = build_linear_system(sys)
    elif lin.system != sys:
        raise ValueError("lin is the analysis of another system")
    pivots = _pivots(lin.matrix)
    classes = _colour_classes(colouring, 2, var_bound)
    nx = sys.num_vertices
    best: tuple[int, ...] | None = None
    skipped = 0
    for values in classes.values():
        first, skips = _ClassLattice(sys, values, ceiling, pivots).walk()
        if first is not None and (best is None or first < best):
            best = first
        skipped += skips
    if best is not None:
        statuses = eval_exp(sys, best[:nx], best[nx:], ceiling)
        if any(s != PASS for s in statuses):
            raise SelfCheckFailed(f"found assignment {best} failed re-verification: {statuses}")
    return SearchReport(2, var_bound, ceiling, nx + sys.num_y, best, skipped)


# A pivot of the reduced cycle rows: (column, a, terms), the row
# a * Y[column] + sum(b * Y[free] for free, b in terms) = 0 on the
# prime-exponent vectors, with a > 0.
_Pivot = tuple[int, int, tuple[tuple[int, int], ...]]


def _pivots(matrix: IntMatrix) -> tuple[_Pivot, ...]:
    """A reduced echelon form of the rows, one pivot per row of a basis.

    A pivot's terms hold free columns only: each pivot column is 0 in
    every other pivot's row.  The steps are fraction-free, each row
    divided by the gcd of its entries, so they keep the rational row
    space.  A Y-tuple's prime-exponent vectors are integers, so they
    satisfy the reduced rows exactly when they satisfy the given ones.
    """
    rows = [list(row) for row in matrix.entries if any(row)]
    cols: list[int] = []
    for col in range(matrix.num_cols):
        r = len(cols)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        top = rows[r]
        for j, row in enumerate(rows):
            if j != r and row[col]:
                row = [top[col] * x - row[col] * y for x, y in zip(row, top)]
                g = math.gcd(*row) or 1
                rows[j] = [x // g for x in row]
        cols.append(col)
    pivots = []
    for row, col in zip(rows, cols):
        g = math.gcd(*row) if row[col] > 0 else -math.gcd(*row)
        terms = tuple((k, x // g) for k, x in enumerate(row) if x and k != col)
        pivots.append((col, row[col] // g, terms))
    return tuple(pivots)


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
    largest useful exponent, the constraint of a link per reduced exponent,
    and the values' prime-exponent keys.  Bit i of a mask stands for
    values[i]."""

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
        self._keys: dict[int, tuple[list[int], dict[int, int]]] = {}
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

    def keys(self, base: int) -> tuple[list[int], dict[int, int]]:
        """Each value's prime-exponent key, the sum of v_q(value) * base**i
        over the primes q of the class (the i-th one met), and the value
        index by key.  Keys add where values multiply: while no digit of a
        sum of multiples of keys reaches the base in absolute value, two
        such sums are equal iff their prime-exponent vectors are."""
        keys = self._keys.get(base)
        if keys is None:
            place: dict[int, int] = {}
            table = []
            for v in self.values:
                key, q = 0, 2
                while v > 1:
                    if q * q > v:
                        q = v
                    while v % q == 0:
                        v //= q
                        key += base ** place.setdefault(q, len(place))
                    q += 1
                table.append(key)
            keys = self._keys[base] = (table, {key: i for i, key in enumerate(table)})
        return keys

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
        """The constraint of x^n = x^d, for n/d reduced.  A loop's exponent
        is its own cycle row's product, so on a Y-tuple that satisfies the
        rows n = d = 1: x passes wherever it is within the ceiling."""
        if n != d:
            raise SelfCheckFailed(f"loop exponent {n}/{d} on a Y-tuple that satisfies its row")
        return self._intern(None, self.full ^ self.over_mask(1) or None)


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

    A row holds one constraint per edge for one Y-tuple, and only the
    Y-tuples that satisfy every cycle row get one.  Without cycle rows
    that is every Y-tuple, and the rows stream in product order: each
    edge's exponents grow lazily, one variable at a time, over the
    class's power tables.  With cycle rows, the free variables of
    `_pivots` stream in product order the same way, and each pivot
    variable is solved for on prime-exponent keys: a times its key must be
    the sum its row leaves, a * key(Y[col]) = -sum(b * key(Y[free])),
    which is the row on prime-exponent vectors.  Keys stay small whatever
    the coefficients, where exact powers would not.  Only a solved tuple's
    row is built, from its own bounded powers.
    Each distinct exponent is resolved once per lattice to a constraint of
    the class tables, and only the rows seen so far are held, never the
    lattice.  Rows repeat, since many Y-tuples leave the same constraints,
    and a walk does a row's X-side work once: its first passing X-part
    and its count serve every later Y-tuple with that row.  One walk over
    the rows both finds the first passing assignment and counts the
    ceiling skips: per row, the unfailed X-tuples less the passing ones.
    """

    def __init__(
        self, sys: ExpSystem, values: list[int], ceiling: int, pivots: tuple[_Pivot, ...]
    ) -> None:
        self.sys = sys
        self.tables = tables = _class_tables(tuple(values), ceiling)
        # per edge: its constraint by unreduced exponent (num, den)
        self._constraints: list[dict[tuple[int, int], _Constraint]] = [{} for _ in sys.edges]
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
        self._pivots = pivots

    @functools.cached_property
    def _factors(self) -> list[list[tuple[int, list[int]]]]:
        """Per edge: (coefficient, power table) per Y-variable; built only
        when some Y-tuple satisfies the rows."""
        power = self.tables.power
        return [[(c, power(abs(c))[0]) for c in e.coeffs] for e in self.sys.edges]

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

    def _tuples(self) -> Iterator[tuple[tuple[int, ...], tuple]]:
        """(ys, row) per Y-tuple that satisfies every cycle row."""
        if not self._pivots:
            ys_tuples = itertools.product(self.tables.values, repeat=self.sys.num_y)
            return zip(ys_tuples, self._rows())
        return self._solved()

    def _solved(self) -> Iterator[tuple[tuple[int, ...], tuple]]:
        """(ys, row) per Y-tuple that satisfies the pivots, in product order
        of the free variables."""
        values = self.tables.values
        pivot_cols = [col for col, _, _ in self._pivots]
        free = [k for k in range(self.sys.num_y) if k not in pivot_cols]
        # a digit of a cell or of a * key is below bitlen * (a + sum |b|)
        # in absolute value, so with this odd base no digit carries
        weight = max(a + sum(abs(b) for _, b in terms) for _, a, terms in self._pivots)
        keys, index = self.tables.keys(2 * values[-1].bit_length() * weight + 1)
        # per pivot: the key sum its row leaves for a * key(Y[col]), per
        # free tuple
        targets = []
        for _, _, terms in self._pivots:
            coeffs = dict(terms)
            cells: Iterable[int] = [0]
            for k in free:
                cells = _plus(cells, [-coeffs.get(k, 0) * key for key in keys])
            targets.append(cells)
        idx = [0] * self.sys.num_y
        choices = itertools.product(range(len(values)), repeat=len(free))
        for choice, *cells in zip(choices, *targets):
            for (col, a, _), cell in zip(self._pivots, cells):
                key, rest = divmod(cell, a)
                i = None if rest else index.get(key)
                if i is None:
                    break
                idx[col] = i
            else:
                for k, i in zip(free, choice):
                    idx[k] = i
                yield tuple(values[i] for i in idx), self._row(idx)

    def _row(self, idx: list[int]) -> tuple:
        """The row of the Y-tuple with values[i] for each i of idx."""
        row = []
        for k, factors in enumerate(self._factors):
            num = den = 1
            for (c, table), i in zip(factors, idx):
                if c > 0:
                    num *= table[i]
                elif c < 0:
                    den *= table[i]
            row.append(self._constraints[k].get((num, den)) or self._constraint(k, (num, den)))
        return tuple(row)

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

    def walk(self) -> tuple[tuple[int, ...] | None, int]:
        """One pass over the class: its lexicographically first passing
        assignment (None when there is none), and its ceiling skips, the
        assignments on which no edge fails and not every edge passes."""
        values = self.tables.values
        first = None
        total = 0
        # per distinct row: its ceiling skips and its first passing X-part
        seen: dict[tuple, tuple[int, tuple[int, ...] | None]] = {}
        for ys, row in self._tuples():
            known = seen.get(row)
            if known is None:
                skips, _ = self._vertices(row, passing=False).count()
                passing = self._vertices(row, passing=True)
                passed, xs = (0, None) if passing is None else passing.count()
                known = seen[row] = (skips - passed, xs)
            total += known[0]
            # the tuples do not come in product order once rows solve some
            # Y-variables, so a row's every tuple may give the first solution
            if known[1] is not None and (first is None or (known[1], ys) < first):
                first = (known[1], ys)
        if first is None:
            return None, total
        return tuple(values[k] for k in first[0]) + first[1], total


def _plus(cells: Iterable[int], table: list[int]) -> Iterator[int]:
    """Each cell plus each entry of the table, in product order; lazy."""
    return (cell + x for cell in cells for x in table)


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
    walk keeps an explicit stack, so its depth is not bounded by the
    recursion limit.
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

    def count(self) -> tuple[int, tuple[int, ...] | None]:
        """The number of assignments, and the smallest one as bit indices
        (None when there is none).

        Every pred of a vertex branches.  A vertex that no later vertex
        reads changes no other vertex's mask, so its smallest allowed value
        is the lexicographic choice; the walk tries the branching vertices
        in index order, lowest bit first, and backtracks on an empty mask,
        so its first leaf holds the smallest feasible choice at each."""
        # a vertex with no edge to an earlier one that no later one reads
        # has a constant mask, whose size is a factor of every completion
        factor = 1
        order = []
        for i in range(len(self.doms)):
            if self.preds[i] or self.branches[i]:
                order.append(i)
            else:
                factor *= self.doms[i].bit_count()
        if not factor:
            return 0, None
        m = len(order)
        xs, branches = self.xs, self.branches
        pending = [0] * (m + 1)
        weight = [factor] * (m + 1)
        total = 0
        first = None
        if m:
            pending[0] = self._mask(order[0])
        p = 0
        while p >= 0:
            if p == m:
                total += weight[m]
                if first is None:
                    first = tuple(
                        x if branches[i] else _low_bit(self._mask(i)) for i, x in enumerate(xs)
                    )
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
        return total, first


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


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
WITNESS_Z_BOUND = 12


def search_witnesses(lin: LinearSystem, spec: ColouringSpec) -> Witness | None:
    """First lifted witness that is monochromatic under the given colouring.

    Scans the first MAX_WITNESS_SOLUTIONS solutions in [1, WITNESS_Z_BOUND]
    of the linear side in lexicographic order and the WITNESS_BASES pairs in
    order; each value's colour is read in its exponent (`witness_colours`).
    Returns None when nothing within the bounds is monochromatic (which
    never refutes anything: existence is guaranteed, location is not).  A
    value where the colouring is undefined is a ValueError, not a skip.
    """
    solutions = iter_positive_solutions(lin.matrix, WITNESS_Z_BOUND)
    for z in itertools.islice(solutions, MAX_WITNESS_SOLUTIONS):
        for a, b in WITNESS_BASES:
            w = lift(lin, z, a, b)
            if len(witness_colours(spec, w)) == 1:
                return w
    return None
