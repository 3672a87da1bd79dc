"""Cheap symmetry machinery for search pruning and duplicate filtering.

Nothing here is a full canonical-form computation.  Degree refinement
(iterated neighbour-degree colouring) partitions vertices into classes that
every automorphism respects; explicit backtracking over those classes then
recovers true automorphism orbits and isomorphisms for the small graphs the
searches handle.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph


def degree_refinement(g: Graph) -> tuple[int, ...]:
    """Stable colouring refined from degrees; automorphisms preserve it."""
    colour = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = [
            (colour[v], tuple(sorted(colour[u] for u in g.adjacency[v])))
            for v in range(g.n)
        ]
        sig_to_id = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [sig_to_id[s] for s in sigs]
        if len(set(new)) == len(set(colour)):
            return tuple(new)
        colour = new


def _extend_map(
    g: Graph, h: Graph, gc: tuple[int, ...], hc: tuple[int, ...], seed: dict[int, int]
) -> list[int] | None:
    """Backtracking search for an edge-preserving bijection g -> h.

    Candidate images must carry the same refinement colour; ``seed`` pins
    chosen vertices in advance.  Returns the full mapping or None.
    """
    n = g.n
    mapping = [-1] * n
    inverse = [-1] * n
    for v, w in seed.items():
        if gc[v] != hc[w]:
            return None
        mapping[v] = w
        inverse[w] = v
    order = [v for v in range(n) if mapping[v] == -1]

    def candidate_ok(v: int, w: int) -> bool:
        for u in g.adjacency[v]:
            mu = mapping[u]
            if mu != -1 and not h.has_edge(w, mu):
                return False
        for x in h.adjacency[w]:
            pre = inverse[x]
            if pre != -1 and not g.has_edge(v, pre):
                return False
        return True

    # Explicit stack: next_w[i] is the next image to try for order[i], so the
    # depth is not bounded by the interpreter's recursion limit.
    next_w = [0] * len(order)
    i = 0
    while i < len(order):
        v = order[i]
        if mapping[v] != -1:  # back from a failed deeper level
            inverse[mapping[v]] = -1
            mapping[v] = -1
        w = next_w[i]
        while w < n and (inverse[w] != -1 or hc[w] != gc[v] or not candidate_ok(v, w)):
            w += 1
        if w == n:
            next_w[i] = 0
            i -= 1
            if i < 0:
                return None
            continue
        mapping[v] = w
        inverse[w] = v
        next_w[i] = w + 1
        i += 1
    return mapping


def automorphism_orbits(g: Graph) -> list[tuple[int, ...]]:
    """True orbits of the automorphism group, as sorted vertex tuples."""
    colours = degree_refinement(g)
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    classes: dict[int, list[int]] = {}
    for v in range(g.n):
        classes.setdefault(colours[v], []).append(v)
    for members in classes.values():
        reps = [members[0]]
        for v in members[1:]:
            placed = False
            for r in reps:
                if find(v) == find(r):
                    placed = True
                    break
                auto = _extend_map(g, g, colours, colours, {r: v})
                if auto is not None:
                    for u, image in enumerate(auto):
                        union(u, image)
                    placed = True
                    break
            if not placed:
                reps.append(v)
    orbits: dict[int, list[int]] = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in orbits.values())


def orbit_representatives(g: Graph) -> tuple[int, ...]:
    """The least vertex of each automorphism orbit."""
    return tuple(orbit[0] for orbit in automorphism_orbits(g))


def triangle_counts(g: Graph) -> tuple[int, ...]:
    """Number of triangles through each vertex."""
    return tuple(
        sum(1 for a, b in combinations(g.adjacency[v], 2) if g.has_edge(a, b))
        for v in range(g.n)
    )


def cheap_invariant(g: Graph) -> tuple:
    """Isomorphism-invariant fingerprint: sorted degrees and triangle counts."""
    return (
        tuple(sorted(g.degree(v) for v in range(g.n))),
        tuple(sorted(triangle_counts(g))),
    )


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test; intended for the small graphs search produces."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if cheap_invariant(g) != cheap_invariant(h):
        return False
    gc, hc = degree_refinement(g), degree_refinement(h)
    if sorted(gc) != sorted(hc):
        return False
    return _extend_map(g, h, gc, hc, {}) is not None
