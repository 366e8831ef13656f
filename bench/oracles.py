"""Oracles that check every verdict and certificate the benchmark collects.

They never import expreg: the cycle rows come from this file's own
spanning forest, the columns property from label-vector brute force (up to
BRUTE_MAX_COLS columns) or the greedy search, and span membership from this
file's own exact elimination.  Each check returns a list of problems; an
empty list means the output is right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

BRUTE_MAX_COLS = 5
LIFT_Z_BOUND = 6  # positive solutions z in [1, LIFT_Z_BOUND]^n are lifted


# ---------------------------------------------------------------------------
# exact span membership


class Basis:
    """Row-reduced basis of a span of rational vectors."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        for pivot, row in self.rows:
            if v[pivot]:
                f = v[pivot] / row[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def add(self, vec) -> None:
        v = self.reduce(vec)
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, v))
                return


def _block_sum(cols, block) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*(cols[j] for j in block)))


def _columns(rows, n: int) -> list[tuple[int, ...]]:
    return [tuple(row[j] for row in rows) for j in range(n)]


# ---------------------------------------------------------------------------
# cycle rows of a system, from this file's own spanning forest


def forest_potentials(num_vertices: int, num_y: int, edges):
    """Spanning-forest potentials and the cycle rows of a system.

    Walking a forest edge tail -> head adds its coefficient vector, so
    pot[head] - pot[tail] = coeffs along the forest.  Every other edge
    (loops included) gives the row coeffs + pot[tail] - pot[head]; these
    rows span the row space of the system's linear side.  Returns
    (pot, comp, rows) with pot and comp indexed by vertex 1..num_vertices.
    """
    adj: dict[int, list[tuple[int, int, tuple[int, ...], int]]] = {
        v: [] for v in range(1, num_vertices + 1)
    }
    for idx, (tail, head, coeffs) in enumerate(edges):
        if tail != head:
            adj[tail].append((head, idx, coeffs, 1))
            adj[head].append((tail, idx, coeffs, -1))
    pot: dict[int, tuple[int, ...]] = {}
    comp: dict[int, int] = {}
    in_forest: set[int] = set()
    for root in range(1, num_vertices + 1):
        if root in pot:
            continue
        pot[root] = (0,) * num_y
        comp[root] = root
        stack = [root]
        while stack:
            u = stack.pop()
            for w, idx, coeffs, sign in adj[u]:
                if w not in pot:
                    pot[w] = tuple(p + sign * c for p, c in zip(pot[u], coeffs))
                    comp[w] = root
                    in_forest.add(idx)
                    stack.append(w)
    rows = []
    for idx, (tail, head, coeffs) in enumerate(edges):
        if idx in in_forest:
            continue
        row = tuple(c + a - b for c, a, b in zip(coeffs, pot[tail], pot[head]))
        if any(row):
            rows.append(row)
    return pot, comp, rows


# ---------------------------------------------------------------------------
# columns property


def partition_problems(rows, n: int, blocks) -> list[str]:
    """Check an ordered partition (1-based column blocks) against the
    definition of the columns property for the given rows."""
    flat = [j for block in blocks for j in block]
    if not blocks or any(not block for block in blocks):
        return ["empty partition or empty block"]
    if sorted(flat) != list(range(1, n + 1)):
        return [f"blocks {blocks} do not partition columns 1..{n}"]
    cols = _columns(rows, n)
    zero_based = [[j - 1 for j in block] for block in blocks]
    if any(_block_sum(cols, zero_based[0])):
        return ["first block does not sum to zero"]
    basis = Basis()
    problems = []
    for i, block in enumerate(zero_based):
        if i and not basis.contains(_block_sum(cols, block)):
            problems.append(f"block {i} sum is outside the span of earlier columns")
        for j in block:
            basis.add(cols[j])
    return problems


def columns_property_brute(rows, n: int):
    """First valid partition over all label vectors, or None."""
    for labels in product(range(n), repeat=n):
        used = max(labels) + 1
        if len(set(labels)) != used:
            continue
        blocks = [[j + 1 for j in range(n) if labels[j] == b] for b in range(used)]
        if not partition_problems(rows, n, blocks):
            return blocks
    return None


def columns_property_greedy(rows, n: int):
    """A valid partition, or None, without backtracking.

    Take any zero-sum first block, then at each level any block whose sum
    lies in the span of the columns taken so far.  If a valid partition
    T_0, ..., T_d exists, T_i minus the taken columns is admissible for the
    least such i, so the greedy choice never gets stuck.
    """
    cols = _columns(rows, n)
    remaining = list(range(n))
    basis = Basis()
    blocks: list[list[int]] = []
    while remaining:
        if blocks:
            # columns already in the span are one admissible block
            block = [j for j in remaining if basis.contains(cols[j])]
            if not block:
                block = _first_subset(
                    remaining, lambda s: basis.contains(_block_sum(cols, s)), start=2
                )
        else:
            block = _first_subset(remaining, lambda s: not any(_block_sum(cols, s)), start=1)
        if block is None:
            return None
        blocks.append([j + 1 for j in block])
        for j in block:
            basis.add(cols[j])
        remaining = [j for j in remaining if j not in block]
    return blocks


def _first_subset(items, admissible, start: int):
    for size in range(start, len(items) + 1):
        for subset in combinations(items, size):
            if admissible(subset):
                return list(subset)
    return None


def columns_property(rows, n: int):
    """The oracle's verdict as a partition or None: brute force for small n."""
    if not rows:
        return [list(range(1, n + 1))]
    if n <= BRUTE_MAX_COLS:
        return columns_property_brute(rows, n)
    return columns_property_greedy(rows, n)


# ---------------------------------------------------------------------------
# certificates of a decided system


def witness_problems(num_vertices: int, num_y: int, edges, relabel, witness) -> list[str]:
    """Check a tower witness against every raw equation, edge by edge.

    x_v = a^(b^k) and y_j = b^(z_j) solve X_t^(prod Y_j^c_j) = X_h exactly
    when k_h - k_t = c . z, with k taken through the vertex relabelling
    (relabel[v - 1] is the normalized vertex of raw vertex v).
    """
    a, b, z, k = witness["a"], witness["b"], witness["z"], witness["k"]
    if a < 2 or b < 2:
        return [f"bases a={a} b={b} must be at least 2"]
    if len(z) != num_y or any(v < 1 for v in z):
        return [f"z={z} is not a positive vector of length {num_y}"]
    if any(v < 0 for v in k):
        return [f"negative tower level in k={k}"]
    level = {v: k[relabel[v - 1] - 1] for v in range(1, num_vertices + 1)}
    problems = []
    for idx, (tail, head, coeffs) in enumerate(edges, start=1):
        step = sum(c * v for c, v in zip(coeffs, z))
        if level[head] - level[tail] != step:
            problems.append(f"edge {idx}: k_head - k_tail != c . z")
    xs = [{"kind": "tower", "base": a, "expbase": b, "level": v} for v in k]
    ys = [{"kind": "plain", "value": b**v} for v in z]
    if witness["xs"] != xs or witness["ys"] != ys:
        problems.append("tower values disagree with a, b, k and z")
    if witness["verified"] is not True:
        problems.append("witness not marked verified")
    return problems


def lowest_digit_of_power_of_two(p: int, k: int) -> int:
    """Lowest nonzero base-p digit of 2^k."""
    return 1 if p == 2 else pow(2, k, p)


def lowest_digit(p: int, x: int) -> int:
    while x % p == 0:
        x //= p
    return x % p


def monochromatic_lift(p: int, num_vertices: int, num_y: int, edges, z_bound=LIFT_Z_BOUND):
    """A solution that radop-nu:p colours with one colour, or None.

    Lifts each positive solution z of the cycle rows with a = b = 2:
    x_v = 2^(2^k_v), y_j = 2^(z_j), levels shifted so each component's
    minimum is 0.  Colours are taken in the exponents, Omega(x_v) = 2^k_v
    and Omega(y_j) = z_j, so no tower is ever materialized and no ceiling
    applies.  Returns (z, k) for the first monochromatic lift.
    """
    pot, comp, rows = forest_potentials(num_vertices, num_y, edges)
    for z in product(range(1, z_bound + 1), repeat=num_y):
        if any(sum(c * v for c, v in zip(row, z)) for row in rows):
            continue
        raw = {v: sum(c * x for c, x in zip(pot[v], z)) for v in pot}
        low: dict[int, int] = {}
        for v, level in raw.items():
            low[comp[v]] = min(low.get(comp[v], level), level)
        k = {v: raw[v] - low[comp[v]] for v in raw}
        if any(k[h] - k[t] != sum(c * x for c, x in zip(cs, z)) for t, h, cs in edges):
            raise RuntimeError(f"oracle lift of z={z} does not solve the system")
        colours = {lowest_digit_of_power_of_two(p, level) for level in k.values()}
        colours.update(lowest_digit(p, v) for v in z)
        if len(colours) == 1:
            return z, tuple(k[v] for v in sorted(k))
    return None


def colouring_problems(prime: int, num_vertices: int, num_y: int, edges) -> list[str]:
    """A forbidding colouring radop-nu:p is wrong when a lift is monochromatic."""
    hit = monochromatic_lift(prime, num_vertices, num_y, edges)
    if hit is None:
        return []
    z, k = hit
    return [f"radop-nu:{prime} colours the lift of z={z} (k={k}) with one colour"]


def check_system(system, outcome: dict) -> tuple[bool, list[str], list[str]]:
    """Check one decided system.

    `outcome` holds the verdict, certificate, witness and relabel map from
    the report.  Returns (verdict_right, claim_problems, colouring_problems):
    claim problems are broken partitions or witnesses, colouring problems
    are forbidding colourings that a monochromatic lift refutes.
    """
    n_y = system.n
    _, _, rows = forest_potentials(system.n, n_y, system.edges)
    expected_pr = columns_property(rows, n_y) is not None
    verdict_right = outcome["verdict"] == ("PR" if expected_pr else "not PR")
    cert = outcome["certificate"]
    claim: list[str] = []
    colouring: list[str] = []
    if outcome["verdict"] == "PR":
        if cert["type"] != "columns-partition":
            claim.append(f"PR verdict with a {cert['type']} certificate")
        else:
            claim.extend(partition_problems(rows, n_y, cert["blocks"]))
        if outcome["witness"] is not None:
            claim.extend(
                witness_problems(
                    system.n, n_y, system.edges, outcome["relabel"], outcome["witness"]
                )
            )
    else:
        if cert["type"] != "forbidding-colouring" or cert["colouring"] != f"radop-nu:{cert['prime']}":
            claim.append(f"not-PR verdict with certificate {cert}")
        else:
            colouring.extend(colouring_problems(cert["prime"], system.n, n_y, system.edges))
    return verdict_right, claim, colouring


def check_matrix(rows, outcome: dict) -> tuple[bool, list[str]]:
    """Check one decided matrix: (verdict_right, partition problems)."""
    n = len(rows[0])
    expected_pr = columns_property(rows, n) is not None
    verdict_right = outcome["regular"] == expected_pr
    claim = partition_problems(rows, n, outcome["blocks"]) if outcome["regular"] else []
    return verdict_right, claim
