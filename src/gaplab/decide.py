"""Complete decision procedure for gap-vertex-labelability.

A graph is labelable iff some bijection from a fixed set of n "marks" to the
vertices induces a proper colouring: any valid labelling can be made
injective and then replaced, rank for rank, by shifted Golomb-ruler marks
without breaking properness, so searching mark bijections is exhaustive.
The marks, ``transforms.decision_marks(n)``, are the first n Erdos-Turan
marks for p = next_prime(n), shifted by 2p**2 so that degree-one colours
(whole labels) can never collide with gap colours (mark differences).

Under the marks, whether two adjacent vertices clash follows one rule, the
clash rule.  A vertex of degree >= 2 is coloured by its extreme pair, its
highest- and lowest-ranked neighbours, and distinct pairs give distinct
colours because the marks are a Golomb ruler.  A leaf is coloured by its
neighbour's mark, which is at least 2p**2 while every gap is at most
2p**2 - p - 1, and the two ends of a K_2 hold distinct marks, so a leaf
never clashes and never causes a clash.

The search builds a vertex order from the outside in: the vertex at depth d
takes the (d // 2)-th largest mark if d is even, a "top", above every
unplaced vertex, and the (d // 2)-th smallest if d is odd, a "bottom",
below all of them.  By the clash rule validity depends on the order alone,
so the search keys its state by depth and puts the marks on the finished
order once.  A vertex's highest-ranked neighbour is then its first top
neighbour and its lowest its first bottom neighbour, so a vertex is
pinned, for good, once it has one of each (or once all its neighbours are
placed).  A leaf is pinned with its one neighbour and by the clash rule
never clashes.  Every vertex of degree >= 2 pinned when a vertex v is
placed has v in its extreme pair, and no vertex pinned earlier has, so a
node clashes exactly when two adjacent vertices of degree >= 2 it would pin
share the other end of their pair.  The search tests that before placing
v and skips the node if it fails, so a placed vertex never clashes, no
colour is stored, and entering or undoing a node costs O(degree).  The
search is one walk with an explicit stack, so its depth is not bounded by
the interpreter's recursion limit; the stack's root frame tries one vertex
per twin class (vertices with equal open or equal closed neighbourhoods,
which an automorphism swaps) as the top, and the frame below it only
bottoms numbered above the top.  That second cut is exact because, by the
clash rule, reversing a valid vertex order keeps it valid: the reversal
only swaps the two ends of every extreme pair.

``shared_gap_certificate`` returns the paper's refutation of complete graphs
and path and cycle powers, which is the search's node test at depth 1, as
checkable data for any graph it refutes.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable

from .errors import SearchBudgetExceeded, UnsupportedInputError
from .graph import Graph, is_connected
from .labelling import Labelling, is_gap_labelling
from .symmetry import orbit_representatives
from .transforms import decision_marks


DecisionResult = namedtuple("DecisionResult", "labelable witness assignments_tried")


def _search(
    g: Graph, firsts: Iterable[int], budget: int | None
) -> tuple[Labelling | None, int]:
    """Depth-first vertex ordering that refutes each node before placing it.

    Returns the witness (or None) and the number of search nodes entered.

    The order goes down outside-in: even depths place tops (the middle rank
    of an odd n included), ranked above every unplaced vertex, and odd
    depths bottoms, ranked below all of them.  Tops are placed in falling
    rank and bottoms in rising rank, so a vertex's first top neighbour is
    its highest-ranked neighbour and its first bottom neighbour its lowest,
    whatever is placed later.  So a vertex has its colour fixed, or pinned,
    for good as soon as it has both a top and a bottom neighbour, or all its
    neighbours are placed: its extreme pair, or a leaf's one neighbour, is
    then known.  Each placed vertex is known to its neighbours by its key,
    depth + 1 (0 is "none"), which names it as one mark would, since depths
    and marks correspond one to one; ``mine`` is the side of the depth being
    placed and ``other`` the opposite one, and the two swap on every place
    and every undo, as the depth's parity does.  Only the finished order
    gets marks: depth d takes the (d // 2)-th largest mark if d is even and
    the (d // 2)-th smallest if d is odd, so the vertices in rank order are
    the bottoms in the order placed, then the tops in reverse.

    The node lemma.  Placing v pins two kinds of neighbour u of v: those
    that get their second side now, and those whose last unplaced neighbour
    is v.  If u has degree >= 2, its extreme pair is v and one placed vertex
    w, and u is keyed by w's key: w is u's first neighbour on the other side
    in the first case, its first on v's side in the second.  A vertex of
    degree >= 2 pinned earlier has an extreme pair of placed vertices,
    without v, distinct pairs give distinct colours (the marks are a Golomb
    ruler), and by the clash rule a leaf never clashes, so a clash at this
    node is two adjacent vertices of degree >= 2 pinned here with one key.
    The node is tested for that before v is placed; if it clashes it is
    counted and skipped, and if not it is placed and no vertex it pins ever
    clashes.  "Pinned already" needs no colour either: v is unplaced, so a
    neighbour u of v is pinned exactly when ``first_top[u]`` and
    ``first_bottom[u]`` are both set, and v is u's last unplaced neighbour
    exactly when ``left[u]``, its count of unplaced neighbours, is 1.
    Leaves need no case of their own.  A leaf u of v has no placed
    neighbour, so it is pinned only through ``left[u] == 1`` with both sides
    unset, and its key is 0.  Only leaves get key 0, since a vertex of
    degree >= 2 with one unplaced neighbour has a placed one.  So key 0
    groups only leaves whose one neighbour is v, and no two of them are
    adjacent: in K_2 the other end is v itself.  A key-0 group never
    clashes.  (At depth 0 only the top t's leaves are pinned, and the bottom
    v below t pins its own leaves and N(t) & N(v), the latter all keyed by
    t: the shared-gap argument of ``shared_gap_certificate``.)
    The test groups the vertices it would pin by key without a dict:
    ``near_of[key]`` is the union of the neighbour sets of the group so
    far, and ``stamp[key]`` the number (``tried``) of the node that last
    wrote it, so a slot from an earlier node reads as empty and nothing is
    reset.  The first pin of a key stores its own neighbour set, shared with
    the graph's and so never updated in place; a second pin forms a new
    union.  A vertex clashes with its group exactly when it lies in that
    union.
    Placing touches only the neighbours' state (unplaced-neighbour count,
    first top key, first bottom key), so a node costs O(deg) to enter and
    to undo, and its test one set lookup per vertex it would pin; it
    allocates only when a key gets a second pin.

    The unplaced vertices form a doubly linked list in ascending order, with
    head n (Knuth's dancing links): a placed vertex is unlinked and keeps
    its own links, and undo, which runs in the reverse order of placement,
    relinks it in O(1).  So a frame needs no state but ``v``, its current
    candidate: the root frame tries ``firsts``, the frame below a top t
    starts at ``nxt[t]``, the unplaced vertex after t (the bottoms b > t),
    and every other frame at ``nxt[n]``, the least unplaced vertex.  Once
    the node at v is skipped or undone, the frame's next candidate is
    ``nxt[v]``, and the head n ends it.  No frame rescans the placed
    vertices, so a walk that never backtracks costs O(n + m).  Every node
    entered counts once in ``tried``, so a budget spans every first vertex.

    Precondition: ``firsts`` contains the least member of each automorphism
    orbit; more roots only add nodes.  Trying each (top, bottom) pair once
    is then exact.  Reversing a vertex order keeps its verdict (see the
    module docstring), so take a valid one with top t and bottom b, and an
    automorphism taking t to r, the least member of t's orbit.  If it takes
    b above r, the search tries that pair.  Otherwise reverse the order and
    map the new top to the least member r2 of its orbit, so r2 < r.  The
    new bottom lies in t's orbit, whose least member is r, so it is at
    least r, above r2, and the search tries that pair.

    ``decide`` roots the search at ``orbit_representatives``, the least
    member of each twin class, and those contain every orbit minimum: a
    twin swap is an automorphism, so the twin class T holding the least
    member m of an automorphism orbit O lies inside O, and m = min O <=
    min T <= m.
    """
    n, adj = g.n, g.adjacency
    nbrs = list(map(set, adj))
    left = list(map(len, adj))  # u's unplaced neighbours
    # No search enters sys.maxsize nodes, so no budget means no limit.
    limit = sys.maxsize if budget is None else budget
    first_top = [0] * n  # depth + 1 of the first top neighbour; 0: none
    first_bottom = [0] * n  # depth + 1 of the first bottom neighbour; 0: none
    # The sides of the depth being placed and the opposite one: tops at even
    # depths, bottoms at odd ones.
    mine, other = first_top, first_bottom
    # The key groups of the node being tested: near_of[key] is valid only
    # while stamp[key] holds the node's number.
    near_of: list[set[int] | None] = [None] * (n + 1)
    stamp = [0] * (n + 1)
    # The unplaced vertices, ascending: a circular doubly linked list, head n.
    nxt = list(range(1, n + 1)) + [0]
    prv = [n] + list(range(n))
    path: list[int] = []  # vertex placed at each depth
    depth = 0  # len(path)
    roots = iter(firsts)
    v = next(roots, n)  # the next candidate at the current depth; n: none left
    tried = 0

    while True:
        if v == n:
            if not depth:
                return None, tried
            done = path.pop()
            mine, other = other, mine
            # done's key in its neighbours' state is depth, before the decrement.
            nxt[prv[done]] = done
            prv[nxt[done]] = done
            for u in adj[done]:
                left[u] += 1
                if mine[u] == depth:
                    mine[u] = 0
            depth -= 1
            v = nxt[done] if depth else next(roots, n)
            continue

        tried += 1
        if tried > limit:
            raise SearchBudgetExceeded(tried, budget)
        for u in adj[v]:
            key = other[u]
            if key:
                if mine[u]:
                    continue  # pinned already
            elif left[u] == 1:
                key = mine[u]
            else:
                continue
            if stamp[key] != tried:
                stamp[key] = tried
                near_of[key] = nbrs[u]  # shared, so never updated in place
            elif u in near_of[key]:
                v = nxt[v]  # a clash: skipped, not placed
                break
            else:
                near_of[key] = near_of[key] | nbrs[u]
        else:
            path.append(v)
            depth += 1  # v's key in its neighbours' state
            if depth == n:
                # Rank order: the bottoms rising, then the tops rising.
                label = [0] * n
                for m, u in zip(decision_marks(n), path[1::2] + path[::2][::-1]):
                    label[u] = m
                return tuple(label), tried
            nxt[prv[v]] = nxt[v]
            prv[nxt[v]] = prv[v]
            for u in adj[v]:
                left[u] -= 1
                if not mine[u]:
                    mine[u] = depth
            mine, other = other, mine
            # Reversal break: below the top v, only bottoms above it.
            v = nxt[v] if depth == 1 else nxt[n]


def _require_searchable(g: Graph) -> None:
    if g.n < 2:
        raise UnsupportedInputError("decision needs at least two vertices")
    if not is_connected(g):
        raise UnsupportedInputError("decision is defined for connected graphs only")


def shared_gap_certificate(g: Graph) -> dict[tuple[int, int], tuple[int, int]] | None:
    """For every pair t < b, an edge (u, w) inside N(t) & N(b); else None.

    Such a dict proves that g has no gap-vertex-labelling, by the shared-gap
    argument.  In any labelling, some vertex x holds a largest label and
    some other vertex y a smallest one.  A common neighbour of x and y has
    degree >= 2 and sees both extremes, so its colour is l(x) - l(y), and
    the two ends of an edge inside N(x) & N(y) clash.  The dict has an entry
    for the pair {x, y}, whichever of the two is numbered lower, so no
    labelling is valid.  Each entry holds the least such edge, u < w, and
    is a clash that refutes ``_search``'s node with top t and bottom b
    before b is placed.  None means only that this proof does not apply:
    the graph may still have no labelling.
    """
    _require_searchable(g)
    adj = g.adjacency
    nbrs = list(map(set, adj))
    certificate = {}
    for t in range(g.n):
        for b in range(t + 1, g.n):
            common = nbrs[t] & nbrs[b]
            edges = ((u, w) for u in sorted(common) for w in adj[u] if w > u and w in common)
            certificate[t, b] = edge = next(edges, None)
            if edge is None:
                return None
    return certificate


def decide(g: Graph, *, budget: int | None = None) -> DecisionResult:
    """Decide gap-vertex-labelability; returns a witness if one exists.

    The witness is the marks put on the vertex order the search completed.
    The pinning rule is exact (see ``_search``), so the witness is a
    gap-vertex-labelling by construction; ``is_gap_labelling`` is the
    independent check.
    """
    _require_searchable(g)
    witness, tried = _search(g, orbit_representatives(g), budget)
    return DecisionResult(witness is not None, witness, tried)


def vertex_gap_number(g: Graph, k_max: int, *, budget: int | None = None) -> int | None:
    """Least k <= k_max admitting a valid labelling with labels from 1..k.

    Repeated labels are allowed (the least k often needs them).  Returns None
    when every k up to k_max fails; raises SearchBudgetExceeded when the cap
    is hit first, which is a different outcome from "no such k".

    Labels go on vertices 0, 1, ... in order, each trying 1..k, and every
    label tried counts once against the budget.  A vertex's colour is pinned,
    for good, as soon as the labels already placed decide it: when its last
    unlabelled neighbour is labelled, or when its labelled neighbours hold
    both 1 and k.  Every label lies in 1..k, so in the second case its
    largest neighbour label is k and its smallest 1 whatever the others
    get.  Either way the colour is hi - lo, the spread of its labelled
    neighbours' labels, and k - 1 in the second case.  A leaf needs no rule
    of its own: its one neighbour is its last, and its ``lo`` is held at 0,
    so hi - lo is that neighbour's label, the leaf's colour.
    A vertex pinned at an attempt is tested against its pinned neighbours,
    those pinned earlier at the same attempt included.  A pinned colour
    never changes, so a clash found on a partial labelling stays in every
    completion, and every edge is tested when its second end is pinned, so
    a labelling of all n vertices with no clash is valid.  The second rule
    only pins earlier than the first, so it removes attempts, never answers.

    Each vertex keeps ``hi`` and ``lo``, the largest and smallest labels
    among its labelled neighbours; pinned vertices keep a colour (-1: not
    pinned) and stop being updated.  Labels go on in index order, so v is
    the last unlabelled neighbour of w exactly when v is ``last[w]``, the
    highest-numbered neighbour of w.  Trying label x at v reads only v's
    neighbours, so it costs O(deg v) plus one test per vertex it pins.
    Only when the attempt passes and the walk advances past v are the
    unpinned neighbours' extremes updated, and their old values go into v's
    undo record with the vertices v pinned; backtracking to v restores that
    record before v tries its next label.  The explicit stack is ``label``
    with the undo records, so depth is not bounded by the recursion limit.

    When every vertex has degree >= 2, vertex 0 tries only k // 2 + 1..k,
    one label of each pair {x, k + 1 - x}.  This is exact: every colour is
    then a gap, max - min of the neighbour labels, and mapping each label x
    to k + 1 - x keeps every gap, so a labelling and its reflection are
    valid together.  Vertex 0 starts its count at k // 2 instead of 0, so
    the break costs no work per attempt.  A graph with a leaf keeps the full
    walk, because a degree-one colour is a whole label, which the reflection
    changes: P_3 at k = 2 is valid as (2, 2, 1) but not as (1, 1, 2).
    """
    _require_searchable(g)
    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    n = g.n
    adj = g.adjacency
    last = list(map(max, adj))  # highest-numbered neighbour
    # Reflection break: with no leaf, vertex 0 starts at k // 2.
    reflect = min(map(len, adj)) > 1
    # No search tries sys.maxsize labels, so no budget means no limit.
    limit = sys.maxsize if budget is None else budget
    tried = 0
    for k in range(1, k_max + 1):
        hi = [0] * n  # largest label among labelled neighbours; 0: none
        # The smallest; k + 1: none.  A leaf's stays at 0, so its colour,
        # hi - lo, is its one neighbour's label.
        lo = [0 if len(a) == 1 else k + 1 for a in adj]
        colour = [-1] * n  # -1: not pinned
        colour_of = colour.__getitem__
        # undo[v], written when the walk advances past v: the vertices v
        # pinned, and (w, hi, lo) from before v's label for each neighbour
        # it updated.
        undo: list = [None] * n
        label = [0] * n
        if reflect:
            label[0] = k // 2
        v = 0
        while v >= 0:
            x = label[v]
            if x == k:
                label[v] = 0
                v -= 1
                if v >= 0:
                    pins, saved = undo[v]
                    for w in pins:
                        colour[w] = -1
                    for w, high, low in saved:
                        hi[w] = high
                        lo[w] = low
                continue
            x += 1
            label[v] = x
            tried += 1
            if tried > limit:
                raise SearchBudgetExceeded(tried, budget)
            pins = []
            for w in adj[v]:
                # Pinned now: v is w's last neighbour, or w's labelled
                # neighbours hold 1 and k.
                if colour[w] < 0 and (
                    last[w] == v or (x == k or hi[w] == k) and (x == 1 or lo[w] == 1)
                ):
                    high = hi[w]
                    low = lo[w]
                    c = (high if high > x else x) - (low if low < x else x)
                    if c in map(colour_of, adj[w]):
                        for u in pins:
                            colour[u] = -1
                        break
                    colour[w] = c
                    pins.append(w)
            else:
                if v + 1 == n:
                    return k
                saved = []
                for w in adj[v]:
                    if colour[w] < 0:
                        high = hi[w]
                        low = lo[w]
                        saved.append((w, high, low))
                        if x > high:
                            hi[w] = x
                        if x < low:
                            lo[w] = x
                undo[v] = pins, saved
                v += 1
    return None


def naive_decide(g: Graph) -> DecisionResult:
    """Reference decision by plain enumeration of all mark bijections.

    No pruning and no symmetry reduction; exists as an independent oracle
    for the optimised search and is only practical for very small graphs.
    """
    from itertools import permutations

    _require_searchable(g)
    marks = decision_marks(g.n)
    tried = 0
    for perm in permutations(marks):
        tried += 1
        ok, _ = is_gap_labelling(g, perm)
        if ok:
            return DecisionResult(True, tuple(perm), tried)
    return DecisionResult(False, None, tried)
