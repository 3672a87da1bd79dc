import random
from itertools import combinations, permutations

from gaplab import (
    complete_graph,
    cycle_power,
    graph_from_edges,
    orbit_representatives,
    path_power,
)


def disjoint_union(g, h):
    return graph_from_edges(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def apex(g):
    """g plus one new vertex joined to every vertex of g."""
    return graph_from_edges(g.n + 1, list(g.edges) + [(v, g.n) for v in range(g.n)])


def test_orbits_complete_and_cycle():
    # K_4: every closed neighbourhood is {0, 1, 2, 3}, one closed-twin class
    assert orbit_representatives(complete_graph(4)) == (0,)
    # C_6^2: v is adjacent to all but v + 3, so N(v) = N(v + 3); open-twin
    # classes {0, 3}, {1, 4} and {2, 5}
    assert orbit_representatives(cycle_power(6, 2)) == (0, 1, 2)


def test_orbits_path_mirror_pairs():
    # P_5: N(0) = {1} and N(4) = {3}, and no two closed neighbourhoods are
    # equal, so all five vertices are roots.  The mirror pairs {0, 4} and
    # {1, 3} are automorphism orbits, but not twin classes.
    g = path_power(5, 1)
    assert orbit_representatives(g) == (0, 1, 2, 3, 4)
    assert set(least_members(brute_orbits(g))) == {0, 1, 2}


def test_orbits_of_a_lopsided_tree():
    # leaves 0 and 2 hang off vertex 1 (N(0) = N(2) = {1}); leaf 4 hangs
    # off vertex 3
    g = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    # classes {0, 2}, {1}, {3} and {4}
    assert orbit_representatives(g) == (0, 1, 3, 4)


def test_orbits_of_hexagon_with_one_chord():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    # the automorphism orbits are {0, 3} and {1, 2, 4, 5}, but N(0) = {1, 3, 5}
    # and N(3) = {0, 2, 4}, and the degree-2 vertices have distinct
    # neighbourhoods, so there are no twins
    assert orbit_representatives(g) == tuple(range(6))


def test_isomorphism_rejects_same_degree_sequence():
    # 2-regular throughout: the hexagon has no twins, while each triangle is
    # one closed-twin class; no class mixes the two components
    hexagon = cycle_power(6, 1)
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    g = disjoint_union(hexagon, two_triangles)
    assert orbit_representatives(g) == (0, 1, 2, 3, 4, 5, 6, 9)


def brute_orbits(g):
    """Orbits as sorted vertex tuples, from every automorphism."""
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for perm in permutations(range(g.n)):
        # a bijection sending every edge to an edge is an automorphism
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges):
            for v in range(g.n):
                ra, rb = find(v), find(perm[v])
                if ra != rb:
                    parent[rb] = ra
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(o)) for o in orbits.values())


def brute_twin_orbits(g):
    """Orbits of the group generated by twin swaps, pair by pair.

    The orbits of a group generated by transpositions are the components of
    the graph of those transpositions.  Each swap is checked to be an
    automorphism on the way.
    """
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    edges = set(g.edges)
    for u, v in combinations(range(g.n), 2):
        open_u, open_v = set(g.adjacency[u]), set(g.adjacency[v])
        if open_u == open_v or open_u | {u} == open_v | {v}:
            swap = list(range(g.n))
            swap[u], swap[v] = v, u
            assert {tuple(sorted((swap[a], swap[b]))) for a, b in edges} == edges
            parent[find(v)] = find(u)
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(o)) for o in orbits.values())


def least_members(orbits):
    return tuple(sorted(map(min, orbits)))


def assert_roots(g):
    """The roots are the twin-orbit minima and contain every orbit minimum."""
    reps = orbit_representatives(g)
    assert reps == least_members(brute_twin_orbits(g)), sorted(g.edges)
    # decide's search needs only this: the least member of every
    # automorphism orbit is among the roots
    assert set(least_members(brute_orbits(g))) <= set(reps), sorted(g.edges)
    return reps


def test_orbits_match_brute_force_on_random_graphs():
    rng = random.Random(99)
    shrunk = 0
    for _ in range(80):
        n = rng.randint(2, 7)
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        shrunk += len(assert_roots(graph_from_edges(n, edges))) < n
    assert shrunk >= 20  # the sample has twins, not only twin-free graphs


def test_orbit_search_depth_is_not_bounded_by_recursion_limit():
    # P_1200^2: N[v] is the interval [v - 2, v + 2] cut to 0..1199, a
    # different interval for every v, and no two open neighbourhoods match
    assert orbit_representatives(path_power(1200, 2)) == tuple(range(1200))


# --- graphs whose automorphisms are not twin swaps ---------------------------


def rook_graph_4x4():
    # K_4 x K_4: (i, j) ~ (k, l) when they share a row or a column
    cells = [(i, j) for i in range(4) for j in range(4)]
    return graph_from_edges(16, [
        (a, b) for a, b in combinations(range(16), 2)
        if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]
    ])


def shrikhande_graph():
    # Cayley graph of Z_4 x Z_4 with connection set {+-(0,1), +-(1,0), +-(1,1)}
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return graph_from_edges(16, [
        (a, b) for a, b in combinations(range(16), 2)
        if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps
    ])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)


def test_strongly_regular_pair_with_equal_parameters():
    rook, shrikhande = rook_graph_4x4(), shrikhande_graph()
    for g in (rook, shrikhande):
        # strongly regular (16, 6, 2, 2): 6-regular, any two vertices share
        # 2 neighbours, so twins (6 shared) do not occur and every vertex
        # is a root, though both graphs are vertex-transitive
        assert {g.degree(v) for v in range(16)} == {6}
        assert all(
            len(set(g.adjacency[a]) & set(g.adjacency[b])) == 2
            for a, b in combinations(range(16), 2)
        )
        assert orbit_representatives(g) == tuple(range(16))


def test_apexed_strongly_regular_unions_are_answered():
    # apex(rook ∪ Shrikhande) ∪ apex(rook ∪ rook), 66 vertices: the two
    # apexes are adjacent to 32 vertices each and the rest keep the
    # strongly regular graphs' 2 common neighbours plus the apex, so there
    # are no twins.
    rook, shrikhande = rook_graph_4x4(), shrikhande_graph()
    g = disjoint_union(apex(disjoint_union(rook, shrikhande)), apex(disjoint_union(rook, rook)))
    assert g.n == 66
    assert orbit_representatives(g) == tuple(range(66))


def test_petersen_graph_is_vertex_transitive():
    # vertex-transitive, but girth 5: two vertices share at most one
    # neighbour, so no two of degree 3 are twins and every vertex is a root
    g = petersen_graph()
    assert orbit_representatives(g) == tuple(range(10))
    prism = graph_from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )
    assert orbit_representatives(disjoint_union(g, prism)) == tuple(range(20))


def test_eight_cycle_is_not_two_four_cycles():
    # C_8 has no twins; in each C_4 the opposite corners share both
    # neighbours, giving open-twin classes {8, 10}, {9, 11}, {12, 14}, {13, 15}
    two_squares = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    g = disjoint_union(cycle_power(8, 1), two_squares)
    assert orbit_representatives(g) == tuple(range(8)) + (8, 9, 12, 13)


# --- oracles -----------------------------------------------------------------


def test_orbits_match_brute_force_on_every_graph_up_to_five_vertices():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            assert_roots(graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1]))


def old_degree_refinement(g):
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


def old_extend_map(g, h, gc, hc, seed):
    """Backtracking over same-colour images with no refinement after a choice."""
    n = g.n
    mapping = [-1] * n
    inverse = [-1] * n
    for v, w in seed.items():
        if gc[v] != hc[w]:
            return None
        mapping[v] = w
        inverse[w] = v
    order = [v for v in range(n) if mapping[v] == -1]

    def candidate_ok(v, w):
        for u in g.adjacency[v]:
            mu = mapping[u]
            if mu != -1 and not h.has_edge(w, mu):
                return False
        for x in h.adjacency[w]:
            pre = inverse[x]
            if pre != -1 and not g.has_edge(v, pre):
                return False
        return True

    next_w = [0] * len(order)
    i = 0
    while i < len(order):
        v = order[i]
        if mapping[v] != -1:
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


def old_automorphism_orbits(g):
    """Automorphism orbits by colour refinement and backtracking, no pruning."""
    colours = old_degree_refinement(g)
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    classes = {}
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
                auto = old_extend_map(g, g, colours, colours, {r: v})
                if auto is not None:
                    for u, image in enumerate(auto):
                        ra, rb = find(u), find(image)
                        if ra != rb:
                            parent[rb] = ra
                    placed = True
                    break
            if not placed:
                reps.append(v)
    orbits = {}
    for v in range(g.n):
        orbits.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(vs)) for vs in orbits.values())


def colour_classes(colours):
    classes = {}
    for v, c in enumerate(colours):
        classes.setdefault(c, []).append(v)
    return sorted(classes.values())


def test_refinement_and_orbits_match_previous_code_oracle():
    # Beyond brute-force sizes, the automorphism orbits come from the
    # backtracking oracle above; the roots must hold each orbit's least
    # member, and so each stable colour class's least member (orbits refine
    # the stable colouring)
    rng = random.Random(2025)
    nontrivial = 0
    for _ in range(300):
        n = rng.randint(7, 12)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        reps = orbit_representatives(g)
        assert reps == least_members(brute_twin_orbits(g)), sorted(g.edges)
        orbits = old_automorphism_orbits(g)
        assert set(least_members(orbits)) <= set(reps), sorted(g.edges)
        assert {min(c) for c in colour_classes(old_degree_refinement(g))} <= set(reps)
        nontrivial += len(orbits) < n
    assert nontrivial >= 30  # the sample has non-trivial automorphism orbits


# --- the benchmark's family graphs -------------------------------------------


def test_orbits_of_vertex_transitive_family_graphs():
    # For n > 2k + 2, N[v] in C_n^k is the arc v - k..v + k, a different arc
    # for every v, and no two open neighbourhoods match: every vertex is a
    # root.  K_30 is one closed-twin class.
    for g in (cycle_power(120, 5), cycle_power(20, 6), cycle_power(24, 7)):
        assert orbit_representatives(g) == tuple(range(g.n)), g
    assert orbit_representatives(complete_graph(30)) == (0,)


def test_orbits_of_path_power_are_mirror_pairs():
    # The automorphism orbits of P_400^3 are the mirror pairs {i, 399 - i},
    # whose least members 0..199 are roots; no two vertices are twins, so
    # 200..399 are roots too.
    assert orbit_representatives(path_power(400, 3)) == tuple(range(400))
    # P_6^3: N[2] = N[3] = {0, ..., 5}, one closed-twin class
    assert orbit_representatives(path_power(6, 3)) == (0, 1, 2, 4, 5)
