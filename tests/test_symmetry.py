import random

from gaplab import (
    are_isomorphic,
    automorphism_orbits,
    cheap_invariant,
    complete_graph,
    cycle_power,
    degree_refinement,
    graph_from_edges,
    orbit_representatives,
    path_power,
    remove_edges,
)


def permuted_copy(g, perm):
    return graph_from_edges(
        g.n, [(perm[u], perm[v]) for u, v in g.edges]
    )


def test_refinement_separates_path_layers():
    colours = degree_refinement(path_power(5, 1))
    assert colours[0] == colours[4]
    assert colours[1] == colours[3]
    assert len({colours[0], colours[1], colours[2]}) == 3


def test_refinement_is_flat_on_vertex_transitive_graphs():
    assert len(set(degree_refinement(complete_graph(6)))) == 1
    assert len(set(degree_refinement(cycle_power(8, 2)))) == 1


def test_orbits_complete_and_cycle():
    assert automorphism_orbits(complete_graph(4)) == [(0, 1, 2, 3)]
    assert automorphism_orbits(cycle_power(6, 2)) == [(0, 1, 2, 3, 4, 5)]


def test_orbits_path_mirror_pairs():
    assert automorphism_orbits(path_power(5, 1)) == [(0, 4), (1, 3), (2,)]
    assert orbit_representatives(path_power(5, 1)) == (0, 1, 2)


def test_orbits_of_a_lopsided_tree():
    # leaves 0 and 2 hang off vertex 1; leaf 4 hangs off vertex 3
    g = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert automorphism_orbits(g) == [(0, 2), (1,), (3,), (4,)]


def test_orbits_of_hexagon_with_one_chord():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    assert automorphism_orbits(g) == [(0, 3), (1, 2, 4, 5)]


def test_isomorphism_detects_matching_removal():
    g = remove_edges(complete_graph(6), [(0, 3), (1, 4), (2, 5)])
    assert are_isomorphic(g, cycle_power(6, 2))


def test_isomorphism_rejects_same_degree_sequence():
    hexagon = cycle_power(6, 1)
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(hexagon, two_triangles)


def test_isomorphism_invariant_under_relabelling():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if not edges:
            continue
        g = graph_from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = permuted_copy(g, perm)
        assert cheap_invariant(g) == cheap_invariant(h)
        assert are_isomorphic(g, h)


def test_isomorphism_rejects_different_sizes():
    assert not are_isomorphic(complete_graph(4), complete_graph(5))
    assert not are_isomorphic(path_power(4, 1), path_power(4, 2))


def brute_orbits(g):
    from itertools import permutations

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


def test_orbits_match_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 6)
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        g = graph_from_edges(n, edges)
        assert automorphism_orbits(g) == brute_orbits(g), sorted(g.edges)


def test_orbit_search_depth_is_not_bounded_by_recursion_limit():
    orbits = automorphism_orbits(path_power(1200, 2))
    assert orbits == [(i, 1199 - i) for i in range(600)]
