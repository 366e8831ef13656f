"""Independent oracles and strategies for the test suite.

Everything here re-derives results through a different code path than the
package: the brute-force partition search enumerates label vectors, the
backtracking columns-property search is the one the greedy loop replaced,
the span test solves an augmented system, mod-p proofs are checked against
a p-saturated rational kernel over every ordered partition or every subset
of the columns left, simple cycles come from subset enumeration,
components from their own breadth-first search, forest paths from one
breadth-first search per path, cycle rows from dense sums along those paths
and from the prime-factor count's edge relations, linear solutions from a
walk over every tuple, colours from each kind's definition on the
materialized integer, and report text comes from the standard json
encoder.  Keeping these separate is the point.  The small oracles near the
end (single equations, progressions, path and pattern
helpers) have no caller in the package.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from hypothesis import strategies as st

from expreg.corpus import DEFAULT_SEED, random_system
from expreg.eqsys import Edge, ExpSystem
from expreg.graphs import build_linear_system, spanning_forest
from expreg.rado import IntMatrix, SelfCheckFailed
from expreg.search import (
    CEILING,
    FAIL,
    PASS,
    ColouringSpec,
    Constant,
    Mod,
    OmegaOf,
    RadoP,
    RadoPNu,
    SearchReport,
    Table,
    _colour_classes,
    _edge_status,
    eval_exp,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"
SCHEMA = REPO_ROOT / "schema" / "decision-report.schema.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# rational span / kernel, solved rather than reduced


def solves_in_span(vectors, target) -> bool:
    """target = sum x_i * vectors_i has a rational solution (augmented elimination)."""
    m = len(target)
    r = len(vectors)
    aug = [
        [Fraction(vectors[j][i]) for j in range(r)] + [Fraction(target[i])]
        for i in range(m)
    ]
    row = 0
    for col in range(r):
        pivot = next((i for i in range(row, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        row += 1
        if row == m:
            break
    return not any(
        all(v == 0 for v in aug[i][:r]) and aug[i][r] != 0 for i in range(m)
    )


def rational_kernel(rows, n: int) -> list[tuple[int, ...]]:
    """Integer basis of the kernel of the given row matrix (RREF + clearing)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        mat[row] = [v / pv for v in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        lcm = 1
        for v in vec:
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        basis.append(tuple(int(v * lcm) for v in vec))
    return basis


# ---------------------------------------------------------------------------
# brute-force columns property over label vectors


def brute_columns_property(matrix: IntMatrix):
    """First valid ordered partition under lexicographic label-vector order."""
    n = matrix.num_cols
    cols = matrix.columns()
    for labels in itertools.product(range(n), repeat=n):
        used = sorted(set(labels))
        if used != list(range(len(used))):
            continue
        blocks = [
            tuple(j + 1 for j in range(n) if labels[j] == c) for c in range(len(used))
        ]
        if _partition_valid(cols, blocks):
            return tuple(blocks)
    return None


def _partition_valid(cols, blocks) -> bool:
    if any(_block_sum(cols, blocks[0])):
        return False
    earlier = [cols[j - 1] for j in blocks[0]]
    for block in blocks[1:]:
        if not solves_in_span(earlier, _block_sum(cols, block)):
            return False
        earlier.extend(cols[j - 1] for j in block)
    return True


def _block_sum(cols, block):
    dim = len(cols[0])
    return tuple(sum(cols[j - 1][i] for j in block) for i in range(dim))


def _ordered_subsets(items: Sequence[int]) -> Iterator[list[int]]:
    # Nonempty subsets, ordered so that membership of earlier items dominates:
    # the full set comes first and dropping a later item is preferred over
    # dropping an earlier one.  This makes the block-by-block partition
    # search agree with lexicographic order on column-label vectors.
    r = len(items)
    for mask in range((1 << r) - 1, 0, -1):
        yield [items[i] for i in range(r) if mask & (1 << (r - 1 - i))]


def reference_columns_property(matrix: IntMatrix):
    """The backtracking search that columns_property replaced: each
    admissible block in `_ordered_subsets` order, undone when the remaining
    columns cannot be partitioned after it.  Returns the blocks or None.
    The span of the earlier columns is tested with solves_in_span."""
    cols = matrix.columns()

    def extend(remaining: list[int], blocks: list[tuple[int, ...]], earlier: list):
        if not remaining:
            return tuple(blocks)
        for block in _ordered_subsets(remaining):
            s = _block_sum(cols, block)
            if not blocks:
                if any(s):
                    continue
            elif not solves_in_span(earlier, s):
                continue
            wider = earlier + [cols[j - 1] for j in block]
            chosen = set(block)
            result = extend(
                [j for j in remaining if j not in chosen], blocks + [tuple(block)], wider
            )
            if result is not None:
                return result
        return None

    return extend(list(range(1, matrix.num_cols + 1)), [], [])


# ---------------------------------------------------------------------------
# mod-p proofs of not-PR, from a p-saturated rational kernel


def _dependency_mod_p(vectors, p: int):
    """Coefficients c with first nonzero entry 1 and sum c_i v_i = 0 (mod p),
    or None, by elimination over F_p with the combinations carried along."""
    k = len(vectors)
    dim = len(vectors[0]) if vectors else 0
    rows = [[x % p for x in v] + [int(i == j) for j in range(k)] for i, v in enumerate(vectors)]
    rank = 0
    for col in range(dim):
        pivot = next((i for i in range(rank, k) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(k):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    if rank == k:
        return None
    c = rows[rank][dim:]
    inv = pow(next(x for x in c if x), -1, p)
    return [x * inv % p for x in c]


def annihilator_mod_p(columns, dim: int, p: int) -> list[tuple[int, ...]]:
    """Integer vectors whose residues mod p span those of the whole lattice
    {phi in Z^dim : phi . a = 0 for every given column a}.

    rational_kernel gives an integer basis of the rational annihilator,
    which can be a sublattice of index divisible by p.  While some
    combination sum c_i b_i with c_i = 1 vanishes mod p, its p-th part is
    a lattice vector, and it replaces b_i: the index drops by p, until the
    residues of the basis are independent.
    """
    if not columns:
        return [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    basis = [list(v) for v in rational_kernel(columns, dim)]
    while True:
        c = _dependency_mod_p(basis, p)
        if c is None:
            return [tuple(b) for b in basis]
        i = c.index(1)
        basis[i] = [sum(ci * b[t] for ci, b in zip(c, basis)) // p for t in range(dim)]


def passes_mod_p(annihilator, vec, p: int) -> bool:
    return all(sum(f * x for f, x in zip(phi, vec)) % p == 0 for phi in annihilator)


def brute_mod_p_partition(matrix: IntMatrix, p: int):
    """An ordered partition whose every block sum passes the mod-p test
    against the annihilator of the earlier blocks' columns, over all label
    vectors, or None.  None means radop-nu:p forbids the system."""
    n, dim = matrix.num_cols, matrix.num_rows
    cols = matrix.columns()
    annihilators: dict[frozenset, list] = {}
    for labels in itertools.product(range(n), repeat=n):
        used = sorted(set(labels))
        if used != list(range(len(used))):
            continue
        blocks = [tuple(j + 1 for j in range(n) if labels[j] == c) for c in used]
        taken: frozenset = frozenset()
        for block in blocks:
            if taken not in annihilators:
                earlier = [cols[j - 1] for j in sorted(taken)]
                annihilators[taken] = annihilator_mod_p(earlier, dim, p)
            if not passes_mod_p(annihilators[taken], _block_sum(cols, block), p):
                break
            taken |= set(block)
        else:
            return tuple(blocks)
    return None


def mod_proof_problems(matrix: IntMatrix, proof: dict) -> list[str]:
    """Check a report's `proof` ({"prime", "level", "blocks"}); empty means sound.

    A monochromatic solution under radop-nu:p groups the columns by the
    p-adic valuation of Omega(y_j) into blocks that pass the mod-p test
    level by level.  Whatever disjoint blocks are taken first, the rest of
    that partition still passes against the columns taken, because those
    columns are annihilated from then on.  So the proof holds when no
    nonempty set of the columns left passes against the blocks' columns.
    """
    p, blocks = proof["prime"], proof["blocks"]
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        return [f"{p} is not prime"]
    taken = [j for block in blocks for j in block]
    if proof["level"] != len(blocks) or not all(blocks) or len(set(taken)) != len(taken):
        return ["blocks do not match the level, are empty or overlap"]
    rest = [j for j in range(1, matrix.num_cols + 1) if j not in taken]
    if not rest or len(rest) + len(taken) != matrix.num_cols:
        return ["blocks leave no columns or name columns out of range"]
    cols = matrix.columns()
    annihilator = annihilator_mod_p([cols[j - 1] for j in taken], matrix.num_rows, p)
    for size in range(1, len(rest) + 1):
        for subset in itertools.combinations(rest, size):
            if passes_mod_p(annihilator, _block_sum(cols, subset), p):
                return [f"columns {subset} pass the mod-{p} test at level {proof['level']}"]
    return []


# ---------------------------------------------------------------------------
# exhaustive simple-cycle enumeration by edge subsets


def simple_cycle_rows(sys: ExpSystem) -> list[tuple[int, ...]]:
    """Signed coefficient row of every simple cycle (loops and 2-cycles included)."""
    m = len(sys.edges)
    rows = []
    for mask in range(1, 1 << m):
        idxs = [i + 1 for i in range(m) if mask & (1 << i)]
        row = _subset_cycle_row(sys, idxs)
        if row is not None:
            rows.append(row)
    return rows


def _subset_cycle_row(sys: ExpSystem, idxs):
    deg: Counter = Counter()
    for i in idxs:
        e = sys.edges[i - 1]
        deg[e.tail] += 1
        deg[e.head] += 1
    if any(d != 2 for d in deg.values()):
        return None
    adj = defaultdict(list)
    for i in idxs:
        e = sys.edges[i - 1]
        adj[e.tail].append((i, e.head))
        if e.tail != e.head:
            adj[e.head].append((i, e.tail))
    start = min(deg)
    signs = {}
    current = start
    used = set()
    while True:
        step = next(((i, w) for i, w in adj[current] if i not in used), None)
        if step is None:
            break
        i, w = step
        used.add(i)
        signs[i] = 1 if sys.edges[i - 1].tail == current else -1
        current = w
    if used != set(idxs) or current != start:
        return None
    row = [0] * sys.num_y
    for i, sign in signs.items():
        for j, c in enumerate(sys.edges[i - 1].coeffs):
            row[j] += sign * c
    return tuple(row)


def simple_paths(sys: ExpSystem, start: int, end: int):
    """All vertex-simple signed paths between two vertices (loops excluded)."""
    adj = defaultdict(list)
    for i, e in enumerate(sys.edges, start=1):
        if e.tail != e.head:
            adj[e.tail].append((i, e.head, 1))
            adj[e.head].append((i, e.tail, -1))
    paths = []

    def dfs(v, steps, visited):
        if v == end:
            paths.append(tuple(steps))
            return
        for i, w, sign in adj[v]:
            if w not in visited:
                visited.add(w)
                steps.append((i, sign))
                dfs(w, steps, visited)
                steps.pop()
                visited.remove(w)

    if start == end:
        return [()]
    dfs(start, [], {start})
    return paths


# ---------------------------------------------------------------------------
# components and forest paths by breadth-first search, cycle rows by dense sums


def reference_weak_components(sys: ExpSystem) -> list[list[int]]:
    """Connected components of the underlying undirected multigraph, each
    found by its own breadth-first search over every non-loop edge.  Blocks
    are sorted by smallest member."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for e in sys.edges:
        if e.tail != e.head:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
    seen: set[int] = set()
    blocks = []
    for v in range(1, sys.num_vertices + 1):
        if v in seen:
            continue
        block = []
        queue = deque([v])
        seen.add(v)
        while queue:
            u = queue.popleft()
            block.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        blocks.append(sorted(block))
    return blocks


@dataclass(frozen=True)
class SignedPath:
    """A walk through the underlying undirected multigraph."""

    steps: tuple[tuple[int, int], ...]
    start: int
    end: int


def _adjacency(sys: ExpSystem, forest: tuple[int, ...]):
    """vertex -> [(neighbour, forest edge index, sign when leaving vertex)]."""
    adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1, sys.num_vertices + 1)}
    for idx in forest:
        e = sys.edges[idx - 1]
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    return adj


def reference_tree_path(sys: ExpSystem, forest: tuple[int, ...], start: int, end: int) -> SignedPath:
    """The unique forest path from start to end, by its own breadth-first
    search over a freshly built forest adjacency.

    Raises ValueError when the endpoints lie in different weak components.
    """
    adj = _adjacency(sys, forest)
    if start == end:
        return SignedPath((), start, end)
    back: dict[int, tuple[int, int, int]] = {}  # vertex -> (previous vertex, edge, sign)
    queue = deque([start])
    seen = {start}
    while queue:
        u = queue.popleft()
        if u == end:
            break
        for w, idx, sign in adj[u]:
            if w not in seen:
                seen.add(w)
                back[w] = (u, idx, sign)
                queue.append(w)
    if end not in back:
        raise ValueError(f"no path between {start} and {end}")
    steps = []
    v = end
    while v != start:
        u, idx, sign = back[v]
        steps.append((idx, sign))
        v = u
    steps.reverse()
    return SignedPath(tuple(steps), start, end)


def reference_cycles(sys: ExpSystem) -> list[tuple[tuple[int, int], ...]]:
    """The steps of each basis cycle of the package's spanning forest, in edge
    order: a loop alone, or a chord forward and then the breadth-first
    forest path from its head back to its tail."""
    forest = spanning_forest(sys)
    in_forest = set(forest)
    cycles = []
    for idx, e in enumerate(sys.edges, start=1):
        if idx in in_forest:
            continue
        back = () if e.tail == e.head else reference_tree_path(sys, forest, e.head, e.tail).steps
        cycles.append(((idx, +1),) + back)
    return cycles


def _row_flip(sys: ExpSystem, steps) -> int:
    # the package's row orientation: loops forward, chord cycles along the
    # forest path, which is against the stored steps
    first = sys.edges[steps[0][0] - 1]
    return 1 if first.tail == first.head else -1


def reference_linear_system(sys: ExpSystem) -> tuple[IntMatrix, list[tuple[tuple[int, int], ...]]]:
    """The cycle rows and cycle steps `build_linear_system` must return, each
    row a dense signed sum of every coefficient of every edge on its cycle."""
    cycles = reference_cycles(sys)
    rows = []
    for steps in cycles:
        flip = _row_flip(sys, steps)
        total = [0] * sys.num_y
        for idx, sign in steps:
            for i, c in enumerate(sys.edges[idx - 1].coeffs):
                total[i] += flip * sign * c
        rows.append(tuple(total))
    return IntMatrix(len(rows), sys.num_y, tuple(rows)), cycles


class NotNormalized(ValueError):
    pass


def nu_squared_reduce(sys: ExpSystem) -> IntMatrix:
    """Derive the linear system by formally applying the prime-factor count twice.

    Each edge contributes coeffs . omega(Y) = omega^2(X_head) - omega^2(X_tail)
    (both sides exceed 1 on a normalized system, so the double application is
    legal).  Summing signed edge relations around each basis cycle of
    `reference_cycles` must cancel every X-term exactly, leaving a Y-row; the
    result is checked entry-for-entry against the package's direct cycle
    construction before it is returned.
    """
    if any(e.is_identity() for e in sys.edges):
        raise NotNormalized("identity equations present; normalize first")

    ny, nx = sys.num_y, sys.num_vertices

    def edge_relation(e: Edge) -> list[int]:
        row = list(e.coeffs) + [0] * nx
        row[ny + e.tail - 1] += 1
        row[ny + e.head - 1] -= 1
        return row

    rows = []
    for steps in reference_cycles(sys):
        combined = [0] * (ny + nx)
        flip = _row_flip(sys, steps)
        for idx, sign in steps:
            rel = edge_relation(sys.edges[idx - 1])
            for i, v in enumerate(rel):
                combined[i] += flip * sign * v
        x_part = combined[ny:]
        if any(x_part):
            raise SelfCheckFailed(f"X-terms failed to cancel around cycle {steps}: {x_part}")
        rows.append(tuple(combined[:ny]))

    matrix = IntMatrix(len(rows), ny, tuple(rows))
    if matrix != build_linear_system(sys).matrix:
        raise SelfCheckFailed("reduction disagrees with the direct construction")
    return matrix


def path_weight(sys: ExpSystem, path: SignedPath, z: tuple[int, ...]) -> int:
    """Signed sum of coefficient-vector dot products along the path."""
    total = 0
    for idx, sign in path.steps:
        e = sys.edges[idx - 1]
        total += sign * sum(c * zz for c, zz in zip(e.coeffs, z))
    return total


def tree_path_sums(sys: ExpSystem, z) -> tuple[int, ...]:
    """Raw tower levels with one forest path per vertex, from its component's
    smallest vertex: the quadratic construction that path_sums replaces."""
    forest = spanning_forest(sys)
    reps = {v: block[0] for block in reference_weak_components(sys) for v in block}
    return tuple(
        path_weight(sys, reference_tree_path(sys, forest, reps[v], v), z)
        for v in range(1, sys.num_vertices + 1)
    )


# ---------------------------------------------------------------------------
# tuple-by-tuple exponential search


def holds_as_product(row, ys) -> bool:
    """prod ys[k]**row[k] == 1, on exact integers: the multiplicative form of
    a cycle row, which every solution's Y-values satisfy."""
    num = den = 1
    for c, y in zip(row, ys):
        if c > 0:
            num *= y**c
        elif c < 0:
            den *= y**-c
    return num == den


def reference_search_exp(sys: ExpSystem, colouring, var_bound: int, ceiling: int) -> SearchReport:
    """The enumerator that search_exp replaced: every tuple of every colour
    class in lexicographic order, each edge evaluated in turn.  A tuple
    whose Y-values fail a row of `reference_linear_system` (its own
    breadth-first cycles) is excluded; a solution satisfies every row.  It
    keeps the smallest passing tuple and counts every ceiling skip of the
    other tuples in the box.  Its SearchReport is the one search_exp must
    return."""
    classes = _colour_classes(colouring, 2, var_bound)
    rows = reference_linear_system(sys)[0].entries
    nx = sys.num_vertices
    nvars = nx + sys.num_y
    best: tuple[int, ...] | None = None
    skipped = 0
    for colour in sorted(classes):
        values = classes[colour]
        for assignment in itertools.product(values, repeat=nvars):
            xs, ys = assignment[:nx], assignment[nx:]
            failed = ceilinged = False
            for e in sys.edges:
                st = _edge_status(e, xs, ys, ceiling)
                if st == FAIL:
                    failed = True
                    break
                if st == CEILING:
                    ceilinged = True
            if failed:
                continue
            if not all(holds_as_product(row, ys) for row in rows):
                assert ceilinged, f"{assignment} passes every edge but fails a cycle row"
                continue
            if ceilinged:
                skipped += 1
            elif best is None or assignment < best:
                best = assignment
    if best is not None:
        statuses = eval_exp(sys, best[:nx], best[nx:], ceiling)
        assert all(s == PASS for s in statuses), "found assignment failed re-verification"
    return SearchReport(2, var_bound, ceiling, nvars, best, skipped)


# ---------------------------------------------------------------------------
# colourings, by definition on materialized integers


def factor_count(x: int) -> int:
    """Prime factors of x >= 1 counted with multiplicity, by trial division."""
    count, d = 0, 2
    while d * d <= x:
        while x % d == 0:
            x //= d
            count += 1
        d += 1
    return count + (x > 1)


def reference_colour(spec: ColouringSpec, x: int) -> int:
    """The colour of x straight from its kind's definition.  ValueError where
    the colouring is undefined: below 1, and at 1 under a factor count,
    whose value 0 has no colour."""
    if x < 1:
        raise ValueError(f"{x} is not a positive integer")
    if isinstance(spec, Constant):
        return spec.colour
    if isinstance(spec, Mod):
        return x % spec.modulus
    if isinstance(spec, RadoP):
        while x % spec.p == 0:
            x //= spec.p
        return x % spec.p
    if isinstance(spec, (RadoPNu, OmegaOf)):
        if x == 1:
            raise ValueError("the factor count of 1 has no colour")
        inner = RadoP(spec.p) if isinstance(spec, RadoPNu) else spec.base
        return reference_colour(inner, factor_count(x))
    if isinstance(spec, Table):
        return spec.colours[x - 1] if x <= len(spec.colours) else spec.default
    raise TypeError(f"not a colouring spec: {spec!r}")


# ---------------------------------------------------------------------------
# exhaustive linear search


def search_lin(matrix: IntMatrix, colouring: ColouringSpec, bound: int) -> SearchReport:
    """First monochromatic z in [1, bound]^n with A z = 0, by exhaustion."""
    classes = _colour_classes(colouring, 1, bound)
    rows = matrix.entries
    n = matrix.num_cols
    best: tuple[int, ...] | None = None
    for colour in sorted(classes):
        values = classes[colour]
        for z in itertools.product(values, repeat=n):
            if best is not None and z >= best:
                break
            if annihilates(rows, z):
                best = z
                break
    if best is not None and any(sum(map(operator.mul, row, best)) for row in rows):
        raise SelfCheckFailed(f"found vector {best} failed re-verification")
    return SearchReport(1, bound, None, n, best, 0)


def annihilates(rows, z) -> bool:
    return all(sum(c * v for c, v in zip(row, z)) == 0 for row in rows)


# ---------------------------------------------------------------------------
# random systems and hypothesis strategies


def iter_systems(seed: int = DEFAULT_SEED):
    """Endless seeded stream, for callers that filter down to a target count."""
    rng = random.Random(seed)
    while True:
        yield random_system(rng)


def edges_strategy(n: int, coeff: int, allow_zero=True):
    low = -coeff
    coeff_list = st.lists(st.integers(low, coeff), min_size=n, max_size=n)
    return st.tuples(st.integers(1, n), st.integers(1, n), coeff_list).map(
        lambda t: Edge(t[0], t[1], tuple(t[2]))
    )


def systems_strategy(max_n: int = 4, max_edges: int = 5, coeff: int = 2):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(edges_strategy(n, coeff), max_size=max_edges).map(
            lambda es: ExpSystem(n, n, tuple(es))
        )
    )


def forests_strategy(max_n: int = 10, coeff: int = 3, max_nonzero: int | None = None):
    """Acyclic systems with several components, edges either way round and
    negative coefficients, so raw path sums go below zero.

    Vertices join in a random order; each one after the first may attach to
    an earlier one or start a component of its own.  With `max_nonzero`,
    each edge has 1 to max_nonzero nonzero coefficients at random places,
    as the edges of the pr-deep benchmark systems do.
    """

    def build(n, order, links):
        edges = []
        for i, (attach, j, forward, coeffs) in enumerate(links[1:], start=1):
            if attach:
                u, v = order[j % i], order[i]
                edges.append(Edge(u, v, coeffs) if forward else Edge(v, u, coeffs))
        return ExpSystem(n, n, tuple(edges))

    def link(n):
        if max_nonzero is None:
            coeffs = st.lists(st.integers(-coeff, coeff), min_size=n, max_size=n).map(tuple)
        else:
            nonzero = st.dictionaries(
                st.integers(0, n - 1),
                st.integers(-coeff, coeff).filter(bool),
                min_size=1,
                max_size=max_nonzero,
            )
            coeffs = nonzero.map(lambda d: tuple(d.get(j, 0) for j in range(n)))
        return st.tuples(st.booleans(), st.integers(0, n), st.booleans(), coeffs)

    return st.integers(1, max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.permutations(range(1, n + 1)),
            st.lists(link(n), min_size=n, max_size=n),
        )
    )


# ---------------------------------------------------------------------------
# report rendering


def reference_dump_json(doc) -> str:
    """The canonical report text, from the standard library's encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sparse_int_lists():
    """Int lists that are mostly zeros, as report coefficient rows are: runs
    of zeros (none, long, leading, trailing or the whole list) around
    entries that may be huge negatives, zeros or bools."""
    entry = st.one_of(st.integers(), st.integers(max_value=-(2**64)), st.booleans())
    run = st.integers(0, 40)
    return st.tuples(st.lists(st.tuples(run, entry), max_size=4), run).map(
        lambda t: [x for zeros, v in t[0] for x in [0] * zeros + [v]] + [0] * t[1]
    )


def json_trees():
    """Trees of every type a report may hold: str-keyed dicts (digit keys
    included, which sort as strings), lists (int lists with bools mixed in
    among them, dense or mostly zeros), str with any non-surrogate
    character, int, bool and None."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(max_value=-(2**64)), st.text()
    )
    keys = st.one_of(st.text(max_size=6), st.sampled_from(["10", "2", "1", ""]))
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(st.one_of(st.integers(), st.booleans()), max_size=8),
            sparse_int_lists(),
            st.dictionaries(keys, children, max_size=5),
        ),
        max_leaves=40,
    )


# ---------------------------------------------------------------------------
# small oracles with no caller in the package


def single_equation_oracle(coeffs) -> bool:
    """Independent oracle for one equation c . x = 0 with nonzero coefficients:
    partition regular iff some nonempty subset of the coefficients sums to zero.
    """
    if any(c == 0 for c in coeffs):
        raise ValueError("oracle requires nonzero coefficients")
    for size in range(1, len(coeffs) + 1):
        for combo in itertools.combinations(coeffs, size):
            if sum(combo) == 0:
                return True
    return False


def scale_row(m: IntMatrix, i: int, factor: int) -> IntMatrix:
    """New matrix with row i (1-based) multiplied by factor."""
    rows = [
        tuple(factor * v for v in row) if r == i - 1 else row
        for r, row in enumerate(m.entries)
    ]
    return IntMatrix(m.num_rows, m.num_cols, tuple(rows))


def find_progression(table, length: int) -> tuple[int, int] | None:
    """First (a, d) whose arithmetic progression of the given length is
    monochromatic in the colour table over [1, len(table)].

    Length 1 degenerates to the single element (1, 0).
    """
    if length < 1:
        raise ValueError("length must be positive")
    n = len(table)
    if n == 0:
        return None
    if length == 1:
        return (1, 0)
    for a in range(1, n + 1):
        for d in range(1, (n - a) // (length - 1) + 1):
            first = table[a - 1]
            if all(table[a - 1 + i * d] == first for i in range(1, length)):
                return (a, d)
    return None


def weight(sys: ExpSystem, z: tuple[int, ...]) -> int:
    """Coefficient mass times exponent mass: the tower-level budget of z."""
    mass = sum(abs(c) for e in sys.edges for c in e.coeffs)
    return mass * sum(z)


def expand_pattern(xs: tuple[int, ...], budget: int, a: int, b: int) -> list[tuple[int, int]]:
    """The tuple a, b^(x_1), ..., b^(x_n), a^(b^1), ..., a^(b^budget), each
    value as its (base, exponent) pair."""
    values = [(a, 1)]
    values.extend((b, x) for x in xs)
    values.extend((a, b**level) for level in range(1, budget + 1))
    return values
