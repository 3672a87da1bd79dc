"""Edge-removal strength of complete graphs: bounds and constructions.

How many edges must be deleted from K_n before some resulting graph admits
a gap labelling?  Three attacks on that number live here:

* exhaustive search for tiny n (4..6), deduplicating removal sets up to
  isomorphism before deciding each candidate;
* lower bounds by dynamic programming over decompositions: classify every
  vertex by adjacency to the extremal-labelled pair, charge the removals
  each class forces, and recurse;
* an upper bound by explicit construction: repeatedly split off a small
  independent set and a detached "low" vertex, removing at most 3*n*sqrt(n)
  edges in total, and label the result with powers of two.

All bound comparisons are exact integer arithmetic; floating point appears
only in the rendered table column.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from itertools import combinations
from math import isqrt

from .decide import decide
from .errors import UnsupportedInputError
from .graph import Edge, Graph, complete_graph, remove_edges
from .labelling import Labelling
from .symmetry import are_isomorphic, cheap_invariant


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Decomposition:
    """Vertex classes relative to an extreme pair, plus the removal ledger.

    X touches only v_max, Y only v_min, I both, Z neither.
    """

    v_max: int
    v_min: int
    X: frozenset[int]
    Y: frozenset[int]
    Z: frozenset[int]
    I: frozenset[int]
    removed: tuple[Edge, ...]


def decompose(g: Graph, v_max: int, v_min: int, removed: tuple[Edge, ...] = ()) -> Decomposition:
    """Classify every other vertex by adjacency to v_max / v_min in g."""
    if v_max == v_min:
        raise ValueError("extreme vertices must differ")
    xs, ys, zs, eyes = set(), set(), set(), set()
    for v in range(g.n):
        if v in (v_max, v_min):
            continue
        to_max = g.has_edge(v, v_max)
        to_min = g.has_edge(v, v_min)
        if to_max and to_min:
            eyes.add(v)
        elif to_max:
            xs.add(v)
        elif to_min:
            ys.add(v)
        else:
            zs.add(v)
    return Decomposition(
        v_max, v_min, frozenset(xs), frozenset(ys), frozenset(zs), frozenset(eyes), removed
    )


# ---------------------------------------------------------------------------
# lower bounds


def restricted_lb(n_max: int) -> tuple[int, ...]:
    """Table l'[0..n_max] of forced removals in restricted decompositions.

    l'(n) = 0 for n <= 3; otherwise the cheapest split of the n-2 non-extreme
    vertices into a tail of x (one removed edge each, then recurse on the
    complete graph they form with the top vertex) and an independent part of
    i = n-2-x (all binom(i,2) inner edges removed).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(
            x + (n - 2 - x) * (n - 3 - x) // 2 + table[x + 1] for x in range(n - 1)
        )
    return tuple(table)


def general_lb(n_max: int) -> tuple[int, ...]:
    """Table L[0..n_max] lower-bounding the strength of K_n.

    Minimises x + y + 2z + binom(i,2) + l'(x+1) + l'(y+1) + L(z) over all
    splits x+y+z+i = n-2: each X/Y vertex loses its edge to one extreme and
    the classes recurse, each Z vertex loses edges to both extremes, and the
    I class must become independent.  Precomputed prefix minima keep the
    whole table quadratic.
    """
    lp = restricted_lb(n_max)
    if n_max < 4:
        return tuple([0] * (n_max + 1))
    size = n_max - 1  # largest x+y+z+i we ever split
    cost_one = [x + lp[x + 1] for x in range(size)]
    best_xy = [min(cost_one[x] + cost_one[s - x] for x in range(s + 1)) for s in range(size)]
    best_xyi = [
        min(i * (i - 1) // 2 + best_xy[s - i] for i in range(s + 1)) for s in range(size)
    ]
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(2 * z + table[z] + best_xyi[n - 2 - z] for z in range(n - 1))
    return tuple(table)


@dataclass(frozen=True)
class DpTables:
    """Aligned-by-n bound tables plus the rendered power-law column."""

    lprime: tuple[int, ...]
    general: tuple[int, ...]
    omega: tuple[Decimal, ...]


def power_law_column(n_max: int) -> tuple[Decimal, ...]:
    """(3/100) * n**1.2 for n = 0..n_max, quantised to 4 decimal places.

    Computed at 60 digits in a local context; the caller's context is left as is.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        fifth = Decimal(1) / Decimal(5)
        out = []
        for n in range(n_max + 1):
            value = Decimal(3) * (Decimal(n) ** 6) ** fifth / Decimal(100)
            out.append(value.quantize(Decimal("0.0001")))
    return tuple(out)


def dp_tables(n_max: int) -> DpTables:
    return DpTables(restricted_lb(n_max), general_lb(n_max), power_law_column(n_max))


@dataclass(frozen=True)
class BoundCheck:
    n_max: int
    ok: bool
    first_violation: tuple[str, int] | None


def check_bounds(n_max: int) -> BoundCheck:
    """Verify both power-law floors with exact integer comparisons.

    l'(n) >= n^{3/2}/10 is checked as (10*l')^2 >= n^3 and
    L(n) >= (3/100) n^{6/5} as (100*L)^5 >= 3^5 * n^6, for 4 <= n <= n_max.
    """
    lp = restricted_lb(n_max)
    general = general_lb(n_max)
    for n in range(4, n_max + 1):
        if (10 * lp[n]) ** 2 < n**3:
            return BoundCheck(n_max, False, ("lprime", n))
        if (100 * general[n]) ** 5 < 3**5 * n**6:
            return BoundCheck(n_max, False, ("general", n))
    return BoundCheck(n_max, True, None)


# ---------------------------------------------------------------------------
# exact values for tiny orders


def exact_strength(n: int) -> int:
    """Least number of removals that leaves some labelable graph, for n in 4..6.

    Removal sets are enumerated by size; sets whose graphs are isomorphic to
    an already-decided candidate are skipped (fingerprint buckets first, an
    exact isomorphism check inside each bucket).
    """
    if not 4 <= n <= 6:
        raise UnsupportedInputError(f"exact strength supported for 4 <= n <= 6, got {n}")
    base = complete_graph(n)
    all_edges = sorted(base.edges)
    for size in range(1, len(all_edges) + 1):
        buckets: dict[tuple, list[Graph]] = {}
        for combo in combinations(all_edges, size):
            candidate = remove_edges(base, combo)
            bucket = buckets.setdefault(cheap_invariant(candidate), [])
            if any(are_isomorphic(candidate, seen) for seen in bucket):
                continue
            bucket.append(candidate)
            if decide(candidate).labelable:
                return size
    raise RuntimeError("unreachable: removing all edges but a star is labelable")


# ---------------------------------------------------------------------------
# upper-bound construction


@dataclass(frozen=True)
class RemovalStep:
    """One round of the recursive split: sizes, the low vertex, and the sets."""

    order: int  # n_j entering this round
    independent_size: int  # i_j
    tail_size: int  # x_j
    low_vertex: int
    independent_set: tuple[int, ...]
    tail: tuple[int, ...]


@dataclass(frozen=True)
class RemovalPlan:
    steps: tuple[RemovalStep, ...]
    total_removed: int

    def trace(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((s.order, s.independent_size, s.tail_size) for s in self.steps)


@dataclass(frozen=True)
class UpperBoundConstruction:
    removed: tuple[Edge, ...]
    labelling: Labelling
    plan: RemovalPlan

    @property
    def total_removed(self) -> int:
        return self.plan.total_removed


def _split_sizes(order: int) -> tuple[int, int]:
    """(i_j, x_j) for a round entering with n_j = order.

    i_j = floor(sqrt(n_j)) except when that would leave an empty tail
    (n_j = 4), where one vertex moves from the independent part to the tail;
    the removal count is unchanged and the final tail keeps 1 or 2 vertices.
    """
    i = isqrt(order)
    x = order - i - 2
    if x == 0:
        i -= 1
        x = order - i - 2
    return i, x


def removal_schedule(n: int) -> RemovalPlan:
    """Sizes-only version of the construction: trace and total, no edges."""
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    steps = []
    order = n
    total = 0
    while True:
        i, x = _split_sizes(order)
        steps.append(RemovalStep(order, i, x, -1, (), ()))
        total += x + i * (i - 1) // 2
        if x >= 3:
            order = x + 1
        else:
            break
    return RemovalPlan(tuple(steps), total)


def construct_upper(n: int) -> UpperBoundConstruction:
    """Run the recursive split on K_n and label the leftover graph.

    Vertex 0 plays v_max and keeps 2^(n-1).  Round j detaches the lowest
    remaining vertex (label 2^(j-1)) from the tail and empties an
    independent set (labels 2^(n-2)); the final tail of one or two vertices
    takes the next one or two powers of two.  The removed edges are exactly
    the tail edges of each low vertex plus the inner edges of each
    independent set.
    """
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    labels = [0] * n
    labels[0] = 1 << (n - 1)
    removed: list[Edge] = []
    steps: list[RemovalStep] = []
    current = list(range(1, n))  # V_j, ascending
    order = n
    j = 0
    while True:
        j += 1
        i, x = _split_sizes(order)
        low = current[0]
        independent = tuple(current[1 : 1 + i])
        tail = tuple(current[1 + i :])
        assert len(tail) == x
        labels[low] = 1 << (j - 1)
        for v in independent:
            labels[v] = 1 << (n - 2)
        removed.extend((low, v) if low < v else (v, low) for v in tail)
        removed.extend(
            (a, b) for a, b in combinations(independent, 2)
        )
        steps.append(RemovalStep(order, i, x, low, independent, tail))
        if x >= 3:
            current = list(tail)
            order = x + 1
        else:
            labels[tail[0]] = 1 << j
            if x == 2:
                labels[tail[1]] = 1 << (j + 1)
            break
    plan = RemovalPlan(tuple(steps), len(removed))
    return UpperBoundConstruction(tuple(sorted(removed)), tuple(labels), plan)


# ---------------------------------------------------------------------------
# table rendering


def emit_tables(n_max: int) -> str:
    """CSV with columns n, lprime, general, omega for 4 <= n <= n_max."""
    tables = dp_tables(n_max)
    lines = ["n,lprime,general,omega"]
    for n in range(4, n_max + 1):
        lines.append(f"{n},{tables.lprime[n]},{tables.general[n]},{tables.omega[n]}")
    return "\n".join(lines) + "\n"


def removed_edge_ledger(n: int, removed: tuple[Edge, ...]) -> str:
    """The removal set in edge-list form, flagged by a comment header."""
    lines = [f"# removed from K_{n}", f"{n} {len(removed)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(removed))
    return "\n".join(lines) + "\n"
