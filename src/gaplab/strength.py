"""Edge-removal strength of complete graphs: two bounds and where they meet.

How many edges must be deleted from K_n before some resulting graph admits
a gap labelling?  Two bounds on that number live here:

* a lower bound L(n) by dynamic programming over decompositions: classify
  every vertex by adjacency to the extremal-labelled pair, charge the
  removals each class forces, and recurse.  Every recurrence convolves
  convex sequences, so both tables are merges of slopes and take O(n) time;
* an upper bound by explicit construction: repeatedly split off a small
  independent set and a detached "low" vertex, removing at most 3*n*sqrt(n)
  edges in total, and label the result with powers of two.  One loop,
  ``removal_schedule``, decides the rounds; the vertices left after each
  round are a contiguous range, so a round is the triple of its sizes, and
  ``construct_upper`` derives the sets from it, labels them and lists the
  removed edges.

For n = 4, 5, 6 the construction removes exactly L(n) edges, so the two
bounds meet and ``exact_strength`` answers with their common value; from
n = 7 on the construction removes more.

All arithmetic is on integers, with no floating point anywhere: the bound
checks compare integer powers, and the rendered power-law column is rounded
with an integer fifth root and written as fixed-point text from that
integer, with no Decimal and so no decimal context.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, groupby, repeat
from math import isqrt
from operator import itemgetter

from .errors import UnsupportedInputError
from .graph import Edge, complete_graph, format_edge_rows, remove_edges
from .labelling import is_gap_labelling


# ---------------------------------------------------------------------------
# lower bounds


def _merge_slopes(table: list[int], count: int, left, right) -> None:
    """Extend ``table`` by ``count`` values.

    Each new value is the last one plus the smaller of the next unused slopes
    ``left(a)`` and ``right(b)``, ties going to ``left``; ``left`` may read
    values already in ``table``.  When both slope sequences are
    nondecreasing, this is the min-plus convolution of the two sequences they
    belong to, and ``a`` is the argmin's position in the left one.
    """
    a = b = 0
    for _ in range(count):
        da, db = left(a), right(b)
        if da <= db:
            table.append(table[-1] + da)
            a += 1
        else:
            table.append(table[-1] + db)
            b += 1


def restricted_lb(n_max: int) -> tuple[int, ...]:
    """Table l'[0..n_max] of forced removals in restricted decompositions.

    l'(n) = 0 for n <= 3; otherwise the cheapest split of the n-2 non-extreme
    vertices into a tail of x (one removed edge each, then recurse on the
    complete graph they form with the top vertex) and an independent part of
    n-2-x (all its inner edges removed).  With i = x+1 that reads

        l'(n) = min over 1 <= i <= n-1 of (i - 1 + l'(i)) + binom(n-1-i, 2).

    l' is convex.  The formula gives 0 at n = 2 and 3 too, so l' on 2..n is
    a prefix of the min-plus convolution of i - 1 + l'(i) on 1..n-1 with
    binom(d-1, 2) on d >= 1.  If l' is convex on 1..n-1, both are convex, so
    their convolution is too (its slopes are the merged slopes of the two);
    as l'(2) - l'(1) = 0 <= l'(3) - l'(2), l' is convex on 1..n.  So each
    l'(n) is l'(n-1) plus the next of the merged slopes 1 + l'(a+2) - l'(a+1)
    and binom's 0, 1, 2, ...  Exact, in O(n_max).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    lp = [0, 0, 0]
    _merge_slopes(lp, n_max - 2, lambda a: 1 + lp[a + 2] - lp[a + 1], lambda b: b)
    return tuple(lp[: n_max + 1])


def general_lb(n_max: int) -> tuple[int, ...]:
    """Table L[0..n_max] lower-bounding the strength of K_n.

    Minimises x + y + 2z + binom(i,2) + l'(x+1) + l'(y+1) + L(z) over all
    splits x+y+z+i = n-2: each X/Y vertex loses its edge to one extreme and
    the classes recurse, each Z vertex loses edges to both extremes, and the
    I class must become independent.  With cost_one[x] = x + l'(x+1):

    * best_xy[s], the least cost_one[x] + cost_one[s-x], is the min-plus
      self-convolution of cost_one.  cost_one is convex because l' is (see
      ``restricted_lb``; checked here in O(n), raising RuntimeError naming
      the first n where it fails), so the even split x = s // 2 attains it.
    * best_xyi[s], the least binom(i,2) + best_xy[s-i], convolves two convex
      sequences, so it is the merge of their slopes and is convex itself.
    * L(n) = min over z of 2z + L(z) + best_xyi[n-2-z] is convex by the
      induction used for l'.  The formula gives 0 at n = 2 and 3, so L on
      2..n is a prefix of the min-plus convolution of 2z + L(z) with
      best_xyi.  If L is convex on 0..n-2, both sequences are convex, so
      their convolution is too, and as L(0) = ... = L(3) = 0, L is convex on
      0..n.  So L is a merge of slopes as well: 2 + L(a+1) - L(a) and
      best_xyi's.

    Exact, in O(n_max).
    """
    lp = restricted_lb(n_max)
    if n_max < 4:
        return tuple([0] * (n_max + 1))
    size = n_max - 1  # largest x+y+z+i we ever split
    cost_one = [x + lp[x + 1] for x in range(size)]
    for x in range(1, size - 1):
        if cost_one[x - 1] + cost_one[x + 1] < 2 * cost_one[x]:
            raise RuntimeError(f"l' is not convex: l'(n-1) + l'(n+1) < 2 l'(n) at n = {x + 1}")
    # For convex cost_one, cost_one[x] + cost_one[s - x] is least at x = s // 2.
    best_xy = [cost_one[s // 2] + cost_one[s - s // 2] for s in range(size)]
    # Min-plus convolution with binom(i, 2): merge best_xy's slopes with
    # binom's 0, 1, 2, ...
    best_xyi = [best_xy[0]]
    _merge_slopes(best_xyi, size - 1, lambda a: best_xy[a + 1] - best_xy[a], lambda b: b)
    general = [0, 0, best_xyi[0]]
    _merge_slopes(
        general,
        n_max - 2,
        lambda a: 2 + general[a + 1] - general[a],
        lambda b: best_xyi[b + 1] - best_xyi[b],
    )
    return tuple(general)


def _iroot5(m: int) -> int:
    """floor(m ** (1/5)) for an integer m >= 0, by integer Newton steps from above."""
    if m == 0:
        return 0
    x = 1 << -(-m.bit_length() // 5)
    while True:
        y = (4 * x + m // x**4) // 5
        if y >= x:
            return x
        x = y


def power_law_column(n_max: int) -> tuple[str, ...]:
    """(3/100) * n**1.2 for n = 0..n_max, as texts rounded to 4 places.

    10**4 times the value is v = 300 * n**(6/5), the fifth root of
    m = 300**5 * n**6.  With r = floor(v), v rounds up iff v > r + 1/2, that
    is iff (2r + 1)**5 < 32 * m; v = r + 1/2 cannot happen, because the fifth
    power of a rational that is not an integer is not an integer.  The
    arithmetic is on integers, and each entry is the fixed-point text of the
    rounded r, "<r // 10**4>.<r % 10**4 in four digits>".
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = []
    for n in range(n_max + 1):
        m = 300**5 * n**6
        r = _iroot5(m)
        if (2 * r + 1) ** 5 < 32 * m:
            r += 1
        out.append(f"{r // 10000}.{r % 10000:04}")
    return tuple(out)


def check_bounds(n_max: int) -> tuple[str, int] | None:
    """Verify both power-law floors with exact integer comparisons.

    l'(n) >= n^{3/2}/10 is checked as (10*l')^2 >= n^3 and
    L(n) >= (3/100) n^{6/5} as (100*L)^5 >= 3^5 * n^6, for 4 <= n <= n_max.
    Returns None when both hold, else the first violation, ("lprime", n) or
    ("general", n).
    """
    lp = restricted_lb(n_max)
    general = general_lb(n_max)
    for n in range(4, n_max + 1):
        if (10 * lp[n]) ** 2 < n**3:
            return ("lprime", n)
        if (100 * general[n]) ** 5 < 3**5 * n**6:
            return ("general", n)
    return None


# ---------------------------------------------------------------------------
# upper-bound construction


# steps holds one (n_j, i_j, x_j) triple per round.
RemovalPlan = namedtuple("RemovalPlan", "steps total_removed")
UpperBoundConstruction = namedtuple("UpperBoundConstruction", "removed labelling plan")


def removal_schedule(n: int) -> RemovalPlan:
    """The rounds of the construction on K_n, the one place they are decided.

    Round j enters with n_j vertices: the hub 0 and V_j, a contiguous range
    start..n-1 (V_1 = 1..n-1), so start = n + 1 - n_j.  It detaches the low
    vertex ``start``, makes the next i_j = floor(sqrt(n_j)) vertices
    independent, and keeps the x_j = n_j - i_j - 2 after them as the tail,
    removing x_j + binom(i_j, 2) edges.  A tail of three or more is V_{j+1},
    so n_{j+1} = x_j + 1; otherwise the rounds stop.  Each step is the
    triple (n_j, i_j, x_j), from which the sets follow.
    """
    if n < 4:
        raise ValueError(f"construction needs n >= 4, got {n}")
    steps = []
    total = 0
    start = 1
    while True:
        order = n - start + 1
        # At n_j = 4, floor(sqrt) would leave an empty tail, so one vertex
        # moves from the independent part to the tail; the removal count is
        # unchanged and the final tail keeps 1 or 2 vertices.
        i = isqrt(order) if order > 4 else 1
        x = order - i - 2
        steps.append((order, i, x))
        total += x + i * (i - 1) // 2
        if x < 3:
            break
        start += 1 + i
    return RemovalPlan(tuple(steps), total)


def construct_upper(n: int) -> UpperBoundConstruction:
    """Label K_n minus the removals of ``removal_schedule(n)``.

    Vertex 0 plays v_max and keeps 2^(n-1).  Round j's low vertex, detached
    from the tail, takes 2^(j-1) and its independent set 2^(n-2), one int
    shared by every such label; the final tail of one or two vertices takes
    the next one or two powers of two.  The removed edges are exactly the
    tail edges of each low vertex plus the inner edges of each independent
    set.

    The rounds list them in lexicographic order, so they need no sort.
    Round j's edges have u in [low_j, low_j + i_j]: first its tail edges
    (low_j, v) with v rising, then ``combinations`` of the independent set
    low_j + 1 .. low_j + i_j, which are in lexicographic order and have
    u > low_j.  Round j + 1 starts at low_j + i_j + 1, above every u of
    round j.
    """
    plan = removal_schedule(n)
    labels = [0] * n
    labels[0] = 1 << (n - 1)
    shared = 1 << (n - 2)
    removed: list[Edge] = []
    for j, (order, i, _) in enumerate(plan.steps):
        low = n + 1 - order
        independent = range(low + 1, low + 1 + i)
        tail = range(low + 1 + i, n)
        labels[low] = 1 << j
        labels[low + 1 : low + 1 + i] = repeat(shared, i)
        removed.extend(zip(repeat(low), tail))
        removed.extend(combinations(independent, 2))
    for j, v in enumerate(tail, start=len(plan.steps)):  # the last round's tail
        labels[v] = 1 << j
    return UpperBoundConstruction(tuple(removed), tuple(labels), plan)


# ---------------------------------------------------------------------------
# where the bounds meet


def exact_strength(n: int) -> int:
    """Least number of removals that leaves some labelable graph, for n in 4..6.

    The strength of K_n is at least L(n) = ``general_lb(n)[n]`` and at most
    the number of edges ``construct_upper(n)`` removes.  For 4 <= n <= 6
    these are equal, so L(n) is returned once the construction is checked:
    it must remove exactly L(n) edges, and its labelling must be a gap
    labelling of K_n minus them.  A failed check is a fault in one of the
    bounds and raises RuntimeError.
    """
    if not 4 <= n <= 6:
        raise UnsupportedInputError(f"exact strength supported for 4 <= n <= 6, got {n}")
    lower = general_lb(n)[n]
    built = construct_upper(n)
    if len(built.removed) != lower:
        raise RuntimeError(
            f"bounds on K_{n} do not meet: L = {lower}, construction removes {len(built.removed)}"
        )
    if not is_gap_labelling(remove_edges(complete_graph(n), built.removed), built.labelling)[0]:
        raise RuntimeError(f"the construction's labelling of K_{n} is not a gap labelling")
    return lower


# ---------------------------------------------------------------------------
# table rendering


def emit_tables(n_max: int) -> str:
    """CSV with columns n, lprime, general, omega for 4 <= n <= n_max."""
    lprime = restricted_lb(n_max)
    general = general_lb(n_max)
    omega = power_law_column(n_max)
    lines = ["n,lprime,general,omega"]
    for n in range(4, n_max + 1):
        lines.append(f"{n},{lprime[n]},{general[n]},{omega[n]}")
    return "\n".join(lines) + "\n"


def removed_edge_ledger(n: int, removed: tuple[Edge, ...]) -> str:
    """The removal set in edge-list form, flagged by a comment header.

    The edges, pairs of vertices of K_n, are written sorted, one row of
    ``format_edge_rows`` per first vertex.
    """
    rows = groupby(sorted(removed), itemgetter(0))
    return format_edge_rows(
        f"# removed from K_{n}\n{n} {len(removed)}",
        n,
        ((u, map(itemgetter(1), edges)) for u, edges in rows),
    )
