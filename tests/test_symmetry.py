import random
from itertools import combinations

from gaplab import (
    complete_graph,
    cycle_power,
    graph_from_edges,
    orbit_representatives,
    path_power,
)
from gaplab.symmetry import _individualise, _refine


def disjoint_union(g, h):
    return graph_from_edges(g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges])


def test_orbits_complete_and_cycle():
    assert orbit_representatives(complete_graph(4)) == (0,)
    assert orbit_representatives(cycle_power(6, 2)) == (0,)


def test_orbits_path_mirror_pairs():
    # orbits {0, 4}, {1, 3} and {2}
    assert orbit_representatives(path_power(5, 1)) == (0, 1, 2)


def test_orbits_of_a_lopsided_tree():
    # leaves 0 and 2 hang off vertex 1; leaf 4 hangs off vertex 3
    g = graph_from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    # orbits {0, 2}, {1}, {3} and {4}
    assert orbit_representatives(g) == (0, 1, 3, 4)


def test_orbits_of_hexagon_with_one_chord():
    g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    # orbits {0, 3} and {1, 2, 4, 5}
    assert orbit_representatives(g) == (0, 1)


def test_isomorphism_rejects_same_degree_sequence():
    # 2-regular, so refinement leaves one cell; the search must find that no
    # automorphism maps the hexagon onto the triangles
    hexagon = cycle_power(6, 1)
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    g = disjoint_union(hexagon, two_triangles)
    assert orbit_representatives(g) == (0, 6)


def brute_orbits(g):
    """Orbits as sorted vertex tuples, from every automorphism."""
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


def least_members(orbits):
    return tuple(sorted(map(min, orbits)))


def test_orbits_match_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 6)
        density = rng.choice((0.2, 0.5, 0.8))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        g = graph_from_edges(n, edges)
        # decide's reversal break needs each representative to be its
        # orbit's least member; they come in ascending order
        assert orbit_representatives(g) == least_members(brute_orbits(g)), sorted(g.edges)


def test_orbit_search_depth_is_not_bounded_by_recursion_limit():
    # orbits {i, 1199 - i}
    assert orbit_representatives(path_power(1200, 2)) == tuple(range(600))


# --- inputs where refinement alone does nothing ------------------------------


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
        # strongly regular (16, 6, 2, 2): 6-regular, any two vertices share 2 neighbours
        assert {g.degree(v) for v in range(16)} == {6}
        assert all(
            len(set(g.adjacency[a]) & set(g.adjacency[b])) == 2
            for a, b in combinations(range(16), 2)
        )
        assert orbit_representatives(g) == (0,)


def test_search_backtracks_across_equal_traces():
    # Individualising a vertex refines both components the same way, so a
    # wrong first choice survives the trace check and must be backtracked.
    rook, shrikhande = rook_graph_4x4(), shrikhande_graph()
    g = disjoint_union(rook, shrikhande)
    assert orbit_representatives(g) == (0, 16)


def test_petersen_graph_is_vertex_transitive():
    g = petersen_graph()
    assert orbit_representatives(g) == (0,)
    # the pentagonal prism is 3-regular, triangle-free and vertex-transitive
    # too, but has 4-cycles, so no automorphism of the union mixes the two
    prism = graph_from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    )
    assert orbit_representatives(disjoint_union(g, prism)) == (0, 10)


def test_eight_cycle_is_not_two_four_cycles():
    two_squares = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    g = disjoint_union(cycle_power(8, 1), two_squares)
    assert orbit_representatives(g) == (0, 8)


# --- oracles -----------------------------------------------------------------


def test_orbits_match_brute_force_on_every_graph_up_to_five_vertices():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert orbit_representatives(g) == least_members(brute_orbits(g)), sorted(g.edges)


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
    """The orbit computation this module used before the refinement search."""
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
    rng = random.Random(2025)
    nontrivial = 0
    for _ in range(300):
        n = rng.randint(7, 12)
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        g = graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
        reps = orbit_representatives(g)
        assert reps == least_members(old_automorphism_orbits(g)), sorted(g.edges)
        # orbits refine the stable colouring, so each colour class's least
        # member is the least member of its orbit too
        assert {min(c) for c in colour_classes(old_degree_refinement(g))} <= set(reps)
        nontrivial += len(reps) < n
    assert nontrivial >= 30  # the sample exercises the search, not only discrete refinements


def whole_cell_refine(adjacency, part, queue):
    """``_refine`` as it was before the touched-only split: every split cell
    is sorted whole by count, and every member's cell entry is rewritten."""
    order, cell, size = part
    n = len(order)
    count = [0] * n
    hits = [0] * n
    queued = [False] * n
    for s in queue:
        queued[s] = True
    trace = []
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        queued[s] = False
        touched = []
        for w in order[s : s + size[s]]:
            for u in adjacency[w]:
                if not count[u]:
                    touched.append(u)
                count[u] += 1
        starts = []
        for u in touched:
            c = cell[u]
            if not hits[c]:
                starts.append(c)
            hits[c] += 1
        starts.sort()
        for c in starts:
            sz = size[c]
            k = hits[c]
            hits[c] = 0
            if sz == 1:
                continue
            members = order[c : c + sz]
            if k == sz:
                first = count[members[0]]
                if all(count[u] == first for u in members):
                    continue
            members.sort(key=count.__getitem__)
            order[c : c + sz] = members
            trace.append(c)
            frags = []
            begin = 0
            for i in range(1, sz + 1):
                if i == sz or count[members[i]] != count[members[begin]]:
                    frags.append((begin, i - begin))
                    trace += (count[members[begin]], i - begin)
                    begin = i
            for begin, length in frags:
                size[c + begin] = length
                if begin:
                    for u in members[begin : begin + length]:
                        cell[u] = c + begin
            skip = 0 if queued[c] else max(frags, key=lambda f: f[1])[0]
            for begin, _ in frags:
                if begin != skip:
                    queued[c + begin] = True
                    queue.append(c + begin)
        for u in touched:
            count[u] = 0
    return trace


def cell_list(order, cell, size):
    """(start, size, members) per cell, checking every ``cell`` entry."""
    cells = []
    c = 0
    while c < len(order):
        members = order[c : c + size[c]]
        assert all(cell[u] == c for u in members)
        cells.append((c, size[c], frozenset(members)))
        c += size[c]
    return cells


def assert_refinements_agree(g, order, cell, size):
    old = (order[:], cell[:], size[:])
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    new = (order[:], cell[:], size[:], pos)
    queue = [c for c in range(g.n) if cell[order[c]] == c]
    assert _refine(g.adjacency, new, queue[:]) == whole_cell_refine(g.adjacency, old, queue[:])
    assert cell_list(*new[:3]) == cell_list(*old)
    assert all(new[0][new[3][v]] == v for v in range(g.n))
    return new, old


def random_regular(rng, n, d):
    """A simple d-regular graph from the pairing model, redrawn on a clash."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(edges) * 2 == n * d and all(u != v for u, v in edges):
            return graph_from_edges(n, sorted(edges))


def test_touched_only_split_matches_whole_cell_sort():
    rng = random.Random(1919)
    graphs = []
    for _ in range(150):
        n = rng.randint(1, 40)
        p = rng.choice((0.05, 0.1, 0.2, 0.4, 0.7))
        graphs.append(graph_from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    graphs += [path_power(n, k) for n, k in ((40, 1), (60, 2), (200, 2), (100, 3), (37, 5))]
    graphs += [cycle_power(n, k) for n, k in ((40, 1), (30, 3), (120, 5), (24, 7))]
    graphs += [random_regular(rng, n, d) for n, d in ((10, 3), (16, 3), (20, 4), (30, 5), (40, 3))]
    graphs += [rook_graph_4x4(), shrikhande_graph(), petersen_graph()]
    for g in graphs:
        # the degree-bucket start: one cell, which the first split cuts by degree
        new, old = assert_refinements_agree(g, list(range(g.n)), [0] * g.n, [g.n] + [0] * (g.n - 1))
        # individualise a few vertices of non-singleton cells of the
        # equitable partition, each side in its own order, and refine from
        # the singleton
        movable = [v for v in range(g.n) if old[2][old[1][v]] > 1]
        for v in rng.sample(movable, min(len(movable), 4)):
            old_order, old_cell, old_size = (x[:] for x in old)
            c = old_cell[v]
            sz = old_size[c]
            i = old_order.index(v, c, c + sz)
            old_order[i], old_order[c] = old_order[c], v
            old_size[c], old_size[c + 1] = 1, sz - 1
            for u in old_order[c + 1 : c + sz]:
                old_cell[u] = c + 1
            old_trace = whole_cell_refine(g.adjacency, (old_order, old_cell, old_size), [c])
            child, trace = _individualise(g.adjacency, new, v)
            assert trace == old_trace, (sorted(g.edges), v)
            assert cell_list(*child[:3]) == cell_list(old_order, old_cell, old_size)
            assert all(child[0][child[3][u]] == u for u in range(g.n))
        # a random ordered partition, every cell a splitter
        perm = list(range(g.n))
        rng.shuffle(perm)
        cuts = sorted(rng.sample(range(1, g.n), rng.randint(0, g.n - 1))) if g.n > 1 else []
        cell, size = [0] * g.n, [0] * g.n
        for a, b in zip([0] + cuts, cuts + [g.n]):
            size[a] = b - a
            for u in perm[a:b]:
                cell[u] = a
        assert_refinements_agree(g, perm, cell, size)


# --- the benchmark's family graphs -------------------------------------------


def test_orbits_of_vertex_transitive_family_graphs():
    for g in (cycle_power(120, 5), cycle_power(20, 6), cycle_power(24, 7), complete_graph(30)):
        assert orbit_representatives(g) == (0,), g


def test_orbits_of_path_power_are_mirror_pairs():
    # orbits {i, 399 - i}
    assert orbit_representatives(path_power(400, 3)) == tuple(range(200))
