"""Twin classes, for choosing the first vertices of ``decide``.

Two vertices are twins when their open neighbourhoods are equal (then they
are not adjacent) or their closed ones are (then they are).  Swapping two
twins and fixing every other vertex is an automorphism, so every orbit of
the group the swaps generate lies inside an automorphism orbit, and every
automorphism orbit is a union of them.  The least member of an automorphism
orbit is then the least member of the twin orbit that holds it, which is
all ``decide`` needs (see ``decide._search``).

In a simple graph an open neighbourhood never equals a closed one (N[v]
holds v, and v in N(u) would put u in N(v), so in N(u)), and no vertex has
both an open twin u and a closed twin w (w in N(v) = N(u) puts u in N[w] =
N[v], but open twins are not adjacent).  So the twin orbits are the classes
of equal open and of equal closed neighbourhoods, and one dict keyed by
both finds them.  Nothing here computes the automorphism group.
"""

from __future__ import annotations

from bisect import bisect_left

from .graph import Graph


def orbit_representatives(g: Graph) -> tuple[int, ...]:
    """The least vertex of each twin class, in ascending order, in O(n + m).

    The result contains the least member of every automorphism orbit.
    """
    first: dict[tuple[int, ...], int] = {}  # neighbourhood -> least vertex
    reps = []
    for v, nbrs in enumerate(g.adjacency):
        # A vertex with an open twin has no closed twin, so its closed
        # neighbourhood need not be stored.
        if first.setdefault(nbrs, v) == v:
            i = bisect_left(nbrs, v)
            if first.setdefault(nbrs[:i] + (v,) + nbrs[i:], v) == v:
                reps.append(v)
    return tuple(reps)
