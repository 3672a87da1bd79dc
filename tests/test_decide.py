import random
from itertools import combinations, permutations, product

import pytest

from gaplab import (
    SearchBudgetExceeded,
    UnsupportedInputError,
    complete_graph,
    cycle_power,
    decide,
    decision_marks,
    distinctify,
    golomb_relabel,
    graph_from_edges,
    induced_colouring,
    is_connected,
    is_gap_labelling,
    labelable_cycle_power,
    labelable_path_power,
    naive_decide,
    next_prime,
    orbit_representatives,
    path_power,
    shared_gap_certificate,
    vertex_gap_number,
)
from gaplab.decide import _search


def star(leaves):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected(rng, n, p=0.45):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = graph_from_edges(n, edges)
        if is_connected(g):
            return g


def random_tree(rng, n):
    return graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def with_pendants(g, hosts):
    """g with one new leaf hung on each vertex in ``hosts``."""
    return graph_from_edges(
        g.n + len(hosts), list(g.edges) + [(h, g.n + i) for i, h in enumerate(hosts)]
    )


def leafy_graphs(rng, sizes):
    """Graphs with leaves: K_2, stars, paths, random trees, G(n, p) plus pendants.

    The search pins a leaf with its one neighbour, under key 0, which only
    leaves of that neighbour share; both walk oracles below colour leaves
    as they colour every vertex, so these inputs check that key 0 never
    clashes and changes no node.
    """
    yield path_power(2, 1)  # K_2: both ends are leaves
    # Every edge of K_4, and the edge 0-1 of the diamond K_4 - {2, 3}, lies
    # in a diamond, so it can clash; the leaf hangs on one of its ends.
    yield with_pendants(complete_graph(4), [0])
    yield with_pendants(graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), [0])
    for n in sizes:
        yield star(n - 1)
        yield path_power(n, 1)
        yield random_tree(rng, n)
        g = random_connected(rng, n - 2, rng.choice((0.3, 0.45, 0.7)))
        yield with_pendants(g, [rng.randrange(g.n) for _ in range(2)])


class FullRecomputeSearcher:
    """Reference search: recomputes every colour and scans every edge per node.

    Same tree as the library search (outside-in marks, candidates in vertex
    order, bottoms numbered above the top, one count per node entered), but
    derives each pin directly from the placed labels, so it shares no
    pinning logic with it.
    """

    def __init__(self, g, marks):
        self.g, self.n, self.marks = g, g.n, marks
        self.tried = 0
        order, lo, hi = [], 0, g.n - 1
        while lo <= hi:
            order.append(hi)
            if lo < hi:
                order.append(lo)
            lo, hi = lo + 1, hi - 1
        self.mark_order = order

    def run(self, first_vertex):
        return self._place(0, first_vertex, [None] * self.n)

    def _place(self, depth, vertex, label):
        self.tried += 1
        label[vertex] = self.marks[self.mark_order[depth]]
        try:
            if not self._conflict(label, depth + 1):
                if depth + 1 == self.n:
                    return tuple(label)
                # the bottom, placed at depth 1, is numbered above the top
                low = vertex + 1 if depth == 0 else 0
                for cand in range(low, self.n):
                    if label[cand] is None:
                        found = self._place(depth + 1, cand, label)
                        if found is not None:
                            return found
            return None
        finally:
            label[vertex] = None

    def _conflict(self, label, placed):
        hi_placed, lo_placed = (placed + 1) // 2, placed // 2
        if lo_placed < self.n - hi_placed:
            min_rem = self.marks[lo_placed]
            max_rem = self.marks[self.n - hi_placed - 1]
        else:
            min_rem = max_rem = None
        colour = [None] * self.n
        for v in range(self.n):
            nbrs = self.g.adjacency[v]
            vals = [label[u] for u in nbrs if label[u] is not None]
            if len(vals) == len(nbrs):
                colour[v] = vals[0] if len(nbrs) == 1 else max(vals) - min(vals)
            elif vals and len(nbrs) > 1 and max_rem is not None:
                hi, lo = max(vals), min(vals)
                if hi > max_rem and lo < min_rem:
                    colour[v] = hi - lo
        return any(
            colour[u] is not None and colour[u] == colour[v] for u, v in self.g.edges
        )


# Every decide call here gets a budget a few times the node count it is known
# to need, so a pruning regression fails a test instead of hanging the suite.
# No graph here with n <= 10 needs more than 500 nodes.
SMALL_BUDGET = 2_000


def full_recompute_decide(g):
    searcher = FullRecomputeSearcher(g, decision_marks(g.n))
    for rep in orbit_representatives(g):
        witness = searcher.run(rep)
        if witness is not None:
            return witness, searcher.tried
    return None, searcher.tried


def outside_in_marks(n):
    """The mark placed at each depth, outside-in: largest, smallest, ..."""
    marks = decision_marks(n)
    depth_marks = []
    lo, hi = 0, n - 1
    while lo <= hi:
        depth_marks.append(marks[hi])
        if lo < hi:
            depth_marks.append(marks[lo])
        lo += 1
        hi -= 1
    return depth_marks


def reference_search(g, firsts, budget):
    """Oracle for ``_search``: the same walk, written without its shortcuts.

    It keeps the unsigned marks themselves, placing each depth's mark and
    computing each pinned colour as top minus bottom, while the library
    keys its state by depth and puts marks only on a finished order; that
    difference is what keeps this oracle independent of the library's
    depth-to-mark map.  It tests per neighbour whether the node places a
    top or a bottom mark, looks degrees up through the adjacency and finds
    clashes with a nested ``any``, and builds each frame as a list of every
    vertex, filtered at depth 1 to the vertices numbered above the top, from
    which it skips the placed ones.  It must still visit the same nodes, in the same order,
    with the same count as the library search.
    """
    n, adj = g.n, g.adjacency
    depth_marks = outside_in_marks(n)
    label = [0] * n  # 0: unplaced; marks are positive
    placed_nbrs = [0] * n
    first_top = [0] * n
    first_bottom = [0] * n
    colour = [0] * n  # 0: not pinned; colours are positive
    path: list[int] = []  # vertex placed at each depth
    pins: list[list[int]] = []  # vertices pinned on entering each depth
    stack = [iter(firsts)]  # candidates for the vertex at each depth
    tried = 0

    while stack:
        for v in stack[-1]:
            if not label[v]:
                break
        else:
            stack.pop()
            if path:
                for u in pins.pop():
                    colour[u] = 0
                done = path.pop()
                m = label[done]
                label[done] = 0
                top = len(path) % 2 == 0
                for u in adj[done]:
                    placed_nbrs[u] -= 1
                    if top:
                        if first_top[u] == m:
                            first_top[u] = 0
                    elif first_bottom[u] == m:
                        first_bottom[u] = 0
            continue

        tried += 1
        if budget is not None and tried > budget:
            raise SearchBudgetExceeded(tried, budget)
        depth = len(path)
        m = depth_marks[depth]
        top = depth % 2 == 0
        label[v] = m
        pinned = []
        for u in adj[v]:
            placed_nbrs[u] += 1
            if top:
                if not first_top[u]:
                    first_top[u] = m
            elif not first_bottom[u]:
                first_bottom[u] = m
            if colour[u]:
                continue
            deg = len(adj[u])
            if deg == 1:
                colour[u] = m
            elif first_top[u] and first_bottom[u]:
                colour[u] = first_top[u] - first_bottom[u]
            elif placed_nbrs[u] == deg:
                colour[u] = first_top[u] - m if top else m - first_bottom[u]
            else:
                continue
            pinned.append(u)
        path.append(v)
        pins.append(pinned)
        clash = any(colour[w] == colour[u] for u in pinned for w in adj[u])
        if not clash and depth + 1 == n:
            return tuple(label), tried
        candidates = [] if clash else [u for u in range(n) if depth or u > v]
        stack.append(iter(candidates))
    return None, tried


def outlier_graph():
    """G(18, 0.2) from random.Random(2*7919+18), redrawn until connected."""
    rng = random.Random(2 * 7919 + 18)
    while True:
        g = graph_from_edges(
            18, [(u, v) for u in range(18) for v in range(u + 1, 18) if rng.random() < 0.2]
        )
        if is_connected(g):
            return g


def test_small_complete_graphs():
    for n in (2, 3):
        result = decide(complete_graph(n), budget=SMALL_BUDGET)
        assert result.labelable
        assert is_gap_labelling(complete_graph(n), result.witness)[0]
    for n in (4, 5):
        result = decide(complete_graph(n), budget=SMALL_BUDGET)
        assert not result.labelable and result.witness is None


def test_squared_path_on_five_vertices_is_labelable():
    assert decide(path_power(5, 2), budget=SMALL_BUDGET).labelable


def test_marks_are_shifted_ruler_prefix():
    marks = decision_marks(3)
    assert marks == (18, 25, 31)
    p = next_prime(10)
    assert min(decision_marks(10)) == 2 * p * p


def test_agreement_with_naive_enumeration_on_all_order_four_graphs():
    pool = list(combinations(range(4), 2))
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        g = graph_from_edges(4, edges)
        if not is_connected(g):
            continue
        assert decide(g, budget=SMALL_BUDGET).labelable == naive_decide(g).labelable


def test_agreement_with_naive_enumeration_on_all_order_five_graphs():
    pool = list(combinations(range(5), 2))
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        g = graph_from_edges(5, edges)
        if not is_connected(g):
            continue
        assert decide(g, budget=SMALL_BUDGET).labelable == naive_decide(g).labelable


def test_agreement_with_naive_enumeration_on_sampled_larger_graphs():
    rng = random.Random(13)
    for n, repeats in ((6, 12), (7, 8)):
        for _ in range(repeats):
            g = random_connected(rng, n)
            assert decide(g, budget=SMALL_BUDGET).labelable == naive_decide(g).labelable


def test_agreement_with_full_vector_enumeration_on_triangle_and_path():
    # independent oracle: every labelling with labels up to 4p^2 is tried
    for g in (complete_graph(3), path_power(3, 1)):
        p = next_prime(g.n)
        bound = 4 * p * p
        found = any(
            is_gap_labelling(g, labs)[0]
            for labs in product(range(1, bound + 1), repeat=g.n)
        )
        assert decide(g, budget=SMALL_BUDGET).labelable == found


def test_decision_is_isomorphism_invariant():
    rng = random.Random(5)
    for g in (cycle_power(6, 2), complete_graph(5), path_power(6, 2)):
        want = decide(g, budget=SMALL_BUDGET).labelable
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert decide(h, budget=SMALL_BUDGET).labelable == want


def test_witness_feeds_the_relabelling_pipeline():
    for g in (complete_graph(3), cycle_power(6, 2), path_power(7, 3)):
        witness = decide(g, budget=SMALL_BUDGET).witness
        relabelled = golomb_relabel(g, distinctify(g, witness))
        assert is_gap_labelling(g, relabelled)[0]


def test_pruning_beats_plain_enumeration():
    g = complete_graph(5)
    assert decide(g, budget=SMALL_BUDGET).assignments_tried < naive_decide(g).assignments_tried


def test_budget_is_enforced_and_reported():
    with pytest.raises(SearchBudgetExceeded) as exc:
        decide(complete_graph(6), budget=3)
    assert exc.value.tried == 4
    assert exc.value.budget == 3
    assert str(exc.value) == "search budget exhausted after 4 assignments (cap 3)"


def test_budget_spans_every_first_vertex():
    # The least budget that does not run out is the node count of the whole
    # decision, across every twin-class root the search tries.
    rng = random.Random(31)
    graphs = [(outlier_graph(), 100_000)]  # 27,418 nodes
    graphs += [
        (random_connected(rng, rng.randint(6, 10), rng.choice((0.3, 0.45, 0.7))), SMALL_BUDGET)
        for _ in range(24)
    ]
    saw_no = saw_late_yes = False
    for g, budget in graphs:
        reps = orbit_representatives(g)
        if len(reps) < 2:
            continue
        result = decide(g, budget=budget)
        t = result.assignments_tried
        assert decide(g, budget=t) == result
        with pytest.raises(SearchBudgetExceeded) as exc:
            decide(g, budget=t - 1)
        assert exc.value.tried == t
        if result.labelable:
            # the first vertex placed holds the largest mark
            saw_late_yes |= result.witness.index(max(result.witness)) != reps[0]
        else:
            saw_no = True
    assert saw_no and saw_late_yes


def test_rejects_disconnected_and_trivial_inputs():
    with pytest.raises(UnsupportedInputError):
        decide(graph_from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(UnsupportedInputError):
        decide(complete_graph(1))
    with pytest.raises(UnsupportedInputError):
        vertex_gap_number(graph_from_edges(4, [(0, 1), (2, 3)]), 3)
    for g in (complete_graph(1), graph_from_edges(4, [(0, 1), (2, 3)])):
        with pytest.raises(UnsupportedInputError):
            shared_gap_certificate(g)
        with pytest.raises(UnsupportedInputError):
            naive_decide(g)


def test_least_label_counts_for_tiny_graphs():
    assert vertex_gap_number(complete_graph(2), 3) == 2
    assert vertex_gap_number(complete_graph(3), 5) == 4
    assert vertex_gap_number(path_power(4, 1), 3) == 2
    # one interior vertex only: the all-ones labelling is already proper
    # (leaves take the centre's label 1, the centre takes gap 0)
    assert vertex_gap_number(path_power(3, 1), 3) == 1
    assert vertex_gap_number(star(3), 3) == 1


def test_least_label_count_none_when_no_labelling_exists():
    assert vertex_gap_number(complete_graph(4), 6) is None


def test_least_label_count_is_stable_under_larger_caps():
    assert vertex_gap_number(complete_graph(3), 4) == 4
    assert vertex_gap_number(complete_graph(3), 9) == 4


def least_label_count_by_enumeration(g, k_max):
    """Oracle for ``vertex_gap_number``: every label vector, k by k."""
    for k in range(1, k_max + 1):
        for labs in product(range(1, k + 1), repeat=g.n):
            if is_gap_labelling(g, labs)[0]:
                return k
    return None


def completes_walk(g, k_max):
    """Oracle for ``vertex_gap_number``: its walk without early pins.

    Labels go on vertices in index order with the same reflection break and
    the same count of labels tried, but each vertex w is coloured only once
    its highest-numbered neighbour is labelled, from all its neighbours'
    labels, and tested then against the neighbours coloured by that time.
    The library pins every vertex at that point or earlier, so it tries a
    subset of these labels, in the same order.  Returns (least k or None,
    labels tried).
    """
    n, adj = g.n, g.adjacency
    # completes[v]: each w whose highest-numbered neighbour is v, with the
    # neighbours of w that are coloured by the time v is labelled.
    completes = [[] for _ in range(n)]
    for w in range(n):
        top = max(adj[w])
        known = [u for u in adj[w] if max(adj[u]) <= top]
        completes[top].append((w, known))
    reflect = min(map(len, adj)) >= 2
    colour = [0] * n
    tried = 0
    for k in range(1, k_max + 1):
        label = [0] * n
        if reflect:
            label[0] = k // 2
        v = 0
        while v >= 0:
            if label[v] == k:
                label[v] = 0
                v -= 1
                continue
            label[v] += 1
            tried += 1
            for w, _ in completes[v]:
                vals = [label[u] for u in adj[w]]
                colour[w] = vals[0] if len(vals) == 1 else max(vals) - min(vals)
            if all(colour[w] != colour[u] for w, known in completes[v] for u in known):
                if v + 1 == n:
                    return k, tried
                v += 1
    return None, tried


def test_least_label_count_agrees_with_product_enumeration():
    rng = random.Random(3)
    cases = [complete_graph(3), path_power(5, 1), star(2), cycle_power(5, 1)]
    # no leaf, so vertex 0 tries only k // 2 + 1..k: at k = 2 that is label
    # 2 alone, which C_4 needs, and the bowtie needs the middle label 2 at k = 3
    bowtie = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)])
    cases += [cycle_power(4, 1), bowtie]
    cases += [random_connected(rng, 4) for _ in range(6)]
    for g in cases:
        assert vertex_gap_number(g, 4) == least_label_count_by_enumeration(g, 4)


def test_least_label_count_agrees_with_product_enumeration_on_all_graphs_up_to_order_five():
    graphs = 0
    seen = set()
    for n in range(2, 6):
        pool = list(combinations(range(n), 2))
        for bits in range(1 << len(pool)):
            g = graph_from_edges(n, [pool[i] for i in range(len(pool)) if bits >> i & 1])
            if not is_connected(g):
                continue
            graphs += 1
            least = vertex_gap_number(g, 5)
            assert least == least_label_count_by_enumeration(g, 5), sorted(g.edges)
            seen.add(least)
    assert graphs == 771 and seen == {1, 2, 3, 4, 5, None}


def test_least_label_count_matches_the_completes_walk():
    # Early pins only remove attempts: the library answers the same k within
    # the reference's count of labels tried.  G(n, p) runs to k_max = 3,
    # where the reference tries at most 60,081 labels; the pendant-tree
    # graphs and C_n^2 are cheap at larger caps.
    rng = random.Random(30)
    cases = [
        (random_connected(rng, n, p), 3)
        for n, p, _ in product(range(6, 11), (0.3, 0.5, 0.7), range(2))
    ]
    cases += [(g, 4) for g in leafy_graphs(rng, range(6, 11))]
    cases += [(cycle_power(n, 2), 6) for n in range(6, 13)]
    answers = set()
    fewer = 0
    for g, k_max in cases:
        least, tried = completes_walk(g, k_max)
        assert vertex_gap_number(g, k_max, budget=tried) == least, sorted(g.edges)
        try:
            vertex_gap_number(g, k_max, budget=tried - 1)
        except SearchBudgetExceeded:
            pass
        else:
            fewer += 1
        answers.add(least)
    # 54 of the 60 graphs take strictly fewer attempts
    assert answers == {1, 2, 3, 4, 5, None}
    assert len(cases) == 60 and fewer >= 50, fewer


def test_a_vertex_seeing_labels_1_and_k_has_colour_k_minus_1():
    # The early-pin lemma, on induced_colouring alone: every label lies in
    # 1..k, so once a vertex of degree >= 2 sees 1 and k its gap is k - 1,
    # whatever its other neighbours hold.
    rng = random.Random(1980)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        g = random_connected(rng, n, rng.choice((0.3, 0.5, 0.7)))
        k = rng.randint(1, 5)
        labels = [rng.randint(1, k) for _ in range(n)]
        for w in range(n):
            if len(g.adjacency[w]) < 2:
                continue
            one, top, *others = rng.sample(g.adjacency[w], len(g.adjacency[w]))
            labels[one], labels[top] = 1, k
            for relabel in product(range(1, k + 1), repeat=len(others)):
                for u, x in zip(others, relabel):
                    labels[u] = x
                assert induced_colouring(g, labels)[w] == k - 1, (sorted(g.edges), labels)
                checked += 1
    assert checked > 5_000


def test_least_label_count_budget():
    with pytest.raises(SearchBudgetExceeded):
        vertex_gap_number(complete_graph(3), 5, budget=10)


def test_least_label_count_rejects_bad_cap():
    with pytest.raises(ValueError):
        vertex_gap_number(complete_graph(3), 0)


def test_incremental_search_matches_full_recompute_oracle():
    rng = random.Random(2024)
    graphs = [
        random_connected(rng, rng.randint(5, 9), rng.choice((0.2, 0.3, 0.45, 0.7)))
        for _ in range(300)
    ]
    graphs += leafy_graphs(rng, [n for n in range(5, 10) for _ in range(6)])
    assert sum(min(map(len, g.adjacency)) == 1 for g in graphs) >= 100
    for g in graphs:
        witness, tried = full_recompute_decide(g)
        result = decide(g, budget=SMALL_BUDGET)
        assert result.labelable == (witness is not None), sorted(g.edges)
        assert result.assignments_tried == tried, sorted(g.edges)
        assert result.witness == witness, sorted(g.edges)


def test_search_matches_the_reference_walk_at_corpus_sizes():
    # The budget of 3,000 stops six of the G(n, p)-plus-pendants graphs
    # (their cores are refuted in at most 171 nodes, the pendants multiply
    # that up to 168,870), and 40 stops 30 of the first 255 searches, so both
    # outcomes are compared.  The 36 G(n, 0.8) graphs come last, so the
    # others are drawn as before; each is refuted in at most 210 nodes, 40
    # stops all of them, and 4,328 of their 4,881 nodes are depth-1 nodes
    # that clash (refuted, like every node that clashes, before placement).
    rng = random.Random(1515)
    graphs = [
        random_connected(rng, n, p)
        for n, p, _ in product(range(12, 21), (0.2, 0.3, 0.4, 0.6), range(4))
    ]
    graphs += leafy_graphs(rng, [n for n in range(12, 21) for _ in range(3)])
    assert sum(min(map(len, g.adjacency)) == 1 for g in graphs) >= 100
    graphs += [random_connected(rng, n, 0.8) for n, _ in product(range(12, 21), range(4))]
    runs = [(g, (3000, 40)) for g in graphs]
    # Clash-heavy frames: at depth >= 5 most candidates are refuted and key
    # groups get second members.  The outlier (27,418 nodes) runs to the end
    # and is cut halfway; the G(n, p) graphs at n = 22..26 run to 5,000 nodes.
    runs.append((outlier_graph(), (30_000, 27_418 // 2)))
    runs += [
        (random_connected(rng, n, p), (5000, 40))
        for n, p, _ in product(range(22, 27), (0.4, 0.5), range(2))
    ]
    for g, budgets in runs:
        firsts = orbit_representatives(g)
        for budget in budgets:
            try:
                expected = reference_search(g, firsts, budget)
            except SearchBudgetExceeded as exc:
                with pytest.raises(SearchBudgetExceeded) as got:
                    _search(g, firsts, budget)
                assert got.value.tried == exc.tried, sorted(g.edges)
            else:
                assert _search(g, firsts, budget) == expected, sorted(g.edges)


def test_a_bottom_whose_common_neighbourhood_spans_an_edge_clashes():
    # _search refutes the bottom b below the top t, without placing it, when
    # N(t) & N(b) spans an edge.  Checked here by is_gap_labelling alone, on
    # whole mark orders with t holding the largest mark and b the smallest.
    rng = random.Random(2424)
    pairs = 0
    for _ in range(200):
        n = rng.randint(6, 14)
        g = random_connected(rng, n, rng.choice((0.3, 0.5, 0.7)))
        nbrs = [set(a) for a in g.adjacency]
        marks = decision_marks(n)
        for t, b in permutations(range(n), 2):
            common = nbrs[t] & nbrs[b]
            if not any(nbrs[u] & common for u in common):
                continue
            pairs += 1
            middle = [v for v in range(n) if v not in (t, b)]
            for _ in range(10):
                rng.shuffle(middle)
                labels = [0] * n
                for v, m in zip([b, *middle, t], marks):
                    labels[v] = m
                assert not is_gap_labelling(g, labels)[0], (sorted(g.edges), t, b)
    assert pairs == 9646


def test_a_node_clashes_iff_two_adjacent_vertices_it_pins_share_a_partner():
    # The lemma behind _search's node test, checked without a search: along
    # random outside-in orders every colour that a prefix fixes is recomputed
    # from scratch, leaves included.  A vertex of degree >= 2 first pinned at
    # depth d has the mark placed at d in its extreme pair; its partner is
    # the other, already placed, end.  A clash first appears at depth d
    # exactly when two adjacent vertices pinned at d share their partner.
    # The depth-1 case is checked on whole orders by
    # test_a_bottom_whose_common_neighbourhood_spans_an_edge_clashes.
    rng = random.Random(2828)
    first_clash = []
    for _ in range(400):
        n = rng.randint(6, 14)
        g = random_connected(rng, n, rng.choice((0.15, 0.25, 0.35, 0.5)))
        adj = g.adjacency
        depth_marks = outside_in_marks(n)
        for _ in range(8):
            order = rng.sample(range(n), n)
            label = [None] * n
            colour = [None] * n
            for depth, v in enumerate(order):
                label[v] = depth_marks[depth]
                rest = depth_marks[depth + 1:]
                partner = {}
                for u in range(n):
                    vals = [label[w] for w in adj[u] if label[w] is not None]
                    if len(vals) == len(adj[u]) == 1:
                        now = vals[0]
                    elif len(vals) == len(adj[u]) or (
                        vals and max(vals) > max(rest) and min(vals) < min(rest)
                    ):
                        now = max(vals) - min(vals)
                    else:
                        assert colour[u] is None, (sorted(g.edges), order, u)
                        continue
                    if colour[u] is not None:
                        assert now == colour[u], (sorted(g.edges), order, u)
                        continue
                    colour[u] = now
                    if len(adj[u]) > 1:
                        ends = {max(vals), min(vals)}
                        assert label[v] in ends, (sorted(g.edges), order, u)
                        (partner[u],) = ends - {label[v]}
                clash = any(
                    colour[u] is not None and colour[u] == colour[w] for u, w in g.edges
                )
                shared = any(
                    u in partner and w in partner and partner[u] == partner[w]
                    for u, w in g.edges
                )
                assert clash == shared, (sorted(g.edges), order, depth)
                if clash:
                    first_clash.append(depth)
                    break
            else:
                assert is_gap_labelling(g, label)[0], (sorted(g.edges), order)
    # 776 of the 3,200 orders clash, first at every depth from 1 to 11
    assert len(first_clash) == 776 and set(first_clash) == set(range(1, 12))


def test_search_matches_the_reference_walk_on_all_graphs_up_to_order_five():
    graphs = 0
    for n in range(2, 6):
        pool = list(combinations(range(n), 2))
        for bits in range(1 << len(pool)):
            g = graph_from_edges(n, [pool[i] for i in range(len(pool)) if bits >> i & 1])
            if not is_connected(g):
                continue
            graphs += 1
            for firsts in (orbit_representatives(g), range(n)):
                witness, tried = reference_search(g, firsts, None)
                assert _search(g, firsts, None) == (witness, tried), sorted(g.edges)
                with pytest.raises(SearchBudgetExceeded) as expected:
                    reference_search(g, firsts, tried // 2)
                with pytest.raises(SearchBudgetExceeded) as got:
                    _search(g, firsts, tried // 2)
                assert got.value.tried == expected.value.tried, sorted(g.edges)
    assert graphs == 771


def shared_gap_edges(n, edges):
    """Per pair t < b, every edge whose ends both see t and b; None if one has none.

    A brute-force oracle for ``shared_gap_certificate``, on a plain edge list.
    """
    nbrs = [set() for _ in range(n)]
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    found = {}
    for t, b in combinations(range(n), 2):
        found[t, b] = {(u, w) for u, w in edges if {t, b} <= nbrs[u] & nbrs[w]}
        if not found[t, b]:
            return None
    return found


def test_shared_gap_certificate_matches_brute_force_on_all_graphs_up_to_order_six():
    graphs = certified = small = 0
    for n in range(2, 7):
        pool = list(combinations(range(n), 2))
        for bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            g = graph_from_edges(n, edges)
            if not is_connected(g):
                continue
            graphs += 1
            certificate = shared_gap_certificate(g)
            expected = shared_gap_edges(n, edges)
            assert (certificate is None) == (expected is None), edges
            if certificate is None:
                continue
            certified += 1
            assert certificate.keys() == expected.keys(), edges
            assert all(certificate[p] in expected[p] for p in expected), edges
            if n <= 5:
                small += 1
                assert not naive_decide(g).labelable, edges
    assert (graphs, certified, small) == (27_475, 378, 12)


def test_family_members_are_certified_exactly_when_their_predicate_fails():
    members = certified = 0
    for k in range(2, 9):
        for n in range(k + 1, 4 * k + 3):
            cases = [(path_power(n, k), labelable_path_power(n, k))]
            if 2 * k < n:
                cases.append((cycle_power(n, k), labelable_cycle_power(n, k)))
            for g, labelable in cases:
                members += 1
                certificate = shared_gap_certificate(g)
                assert (certificate is None) == labelable, (g, k)
                certified += certificate is not None
    assert (members, certified) == (203, 94)


def test_twin_roots_keep_every_verdict_on_all_order_six_graphs():
    # Rooting at every vertex needs no symmetry argument, so it checks the
    # twin roots on every connected labelled graph with six vertices.
    pool = list(combinations(range(6), 2))
    graphs = labelable = 0
    for bits in range(1 << len(pool)):
        g = graph_from_edges(6, [pool[i] for i in range(len(pool)) if bits >> i & 1])
        if not is_connected(g):
            continue
        graphs += 1
        firsts = orbit_representatives(g)
        witness, tried = _search(g, firsts, None)
        every, every_tried = _search(g, range(6), None)
        assert reference_search(g, firsts, None) == (witness, tried), sorted(g.edges)
        assert reference_search(g, range(6), None) == (every, every_tried), sorted(g.edges)
        assert (witness is None) == (every is None), sorted(g.edges)
        for w in (witness, every):
            assert w is None or is_gap_labelling(g, w)[0], sorted(g.edges)
        labelable += witness is not None
    assert graphs == 26_704 and 0 < labelable < graphs


def test_linked_frames_match_the_scanning_walk_on_family_graphs():
    # _search keeps the unplaced vertices in a linked list; the reference
    # scans every vertex at every node.  The structured benchmark graphs and
    # a few more path and cycle powers, walked to the end and cut off
    # half-way by a budget.
    graphs = [path_power(n, 2) for n in (300, 500, 800, 1200)]
    graphs += [path_power(400, 3), cycle_power(120, 5), cycle_power(20, 6)]
    graphs += [cycle_power(24, 7), complete_graph(30)]
    graphs += [path_power(n, 2) for n in (7, 25, 101)]
    graphs += [path_power(n, 3) for n in (6, 9, 40, 150)]
    graphs += [cycle_power(n, 5) for n in (13, 25, 43, 65, 400)]
    backtracked = 0
    for g in graphs:
        firsts = orbit_representatives(g)
        # none needs more than 2,030 nodes
        witness, tried = reference_search(g, firsts, 10_000)
        assert _search(g, firsts, 10_000) == (witness, tried), g
        backtracked += tried > g.n
        budget = tried // 2
        with pytest.raises(SearchBudgetExceeded) as expected:
            reference_search(g, firsts, budget)
        with pytest.raises(SearchBudgetExceeded) as got:
            _search(g, firsts, budget)
        assert got.value.tried == expected.value.tried, g
    assert backtracked >= 5


def test_search_node_counts_are_pinned():
    cases = [
        (path_power(500, 2), True, 500),
        (path_power(400, 3), True, 1123),
        (cycle_power(120, 5), True, 460),
        # twin-free, so all 24 vertices are roots; root r enters 1 node plus
        # 1 per bottom b > r, each refuted at once: 24 + 23 + ... + 1 = 300
        (cycle_power(24, 7), False, 300),
        (complete_graph(30), False, 30),
        (outlier_graph(), True, 27418),
        # roots 0, 1, 2, 4 and 5 (2 and 3 are closed twins); root r enters
        # 1 + (5 - r) nodes: 6 + 5 + 4 + 2 + 1 = 18
        (path_power(6, 3), False, 18),
    ]
    for g, labelable, nodes in cases:
        result = decide(g, budget=4 * nodes)
        assert (result.labelable, result.assignments_tried) == (labelable, nodes), g
        if labelable:
            assert is_gap_labelling(g, result.witness)[0]


def test_reversing_the_mark_order_keeps_every_verdict():
    # The lemma behind decide's reversal break, checked without a search:
    # under the decision marks only extreme pairs can clash, and reversing
    # the order swaps each pair's ends.
    rng = random.Random(41)
    verdicts = set()
    saw_leaf = False
    for _ in range(300):
        n = rng.randint(2, 14)
        g = random_connected(rng, n, rng.choice((0.15, 0.3, 0.5, 0.8)))
        saw_leaf |= min(map(len, g.adjacency)) == 1
        marks = decision_marks(n)
        order = list(range(n))
        rng.shuffle(order)
        forward = [marks[order[v]] for v in range(n)]
        backward = [marks[n - 1 - order[v]] for v in range(n)]
        verdict = is_gap_labelling(g, forward)[0]
        assert is_gap_labelling(g, backward)[0] == verdict, sorted(g.edges)
        verdicts.add(verdict)
    assert verdicts == {True, False} and saw_leaf


def test_reflecting_labels_keeps_every_verdict_without_leaves():
    # The lemma behind chi's reflection break: x -> k + 1 - x keeps every
    # gap, and with minimum degree 2 every colour is a gap.
    rng = random.Random(17)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(4, 8)
        g = random_connected(rng, n, rng.choice((0.3, 0.5, 0.7)))
        if min(map(len, g.adjacency)) < 2:
            continue
        k = rng.randint(2, 6)
        for _ in range(5):
            labels = [rng.randint(1, k) for _ in range(n)]
            verdict = is_gap_labelling(g, labels)[0]
            reflected = [k + 1 - x for x in labels]
            assert is_gap_labelling(g, reflected)[0] == verdict, (sorted(g.edges), labels)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def unreflectable_leaf_graph():
    """8 vertices, vertex 5 a leaf on vertex 1; no valid labelling up to 4 reflects."""
    return graph_from_edges(8, [
        (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (1, 7),
        (2, 3), (2, 4), (2, 7), (3, 6), (4, 7),
    ])


def test_reflection_fails_on_graphs_with_a_leaf():
    # P_3 at k = 2: the leaves' colours are the centre's label, so (2, 2, 1)
    # gives colours (2, 1, 2) and its reflection (1, 1, 2) gives (1, 1, 1).
    p3 = path_power(3, 1)
    assert is_gap_labelling(p3, (2, 2, 1))[0]
    assert not is_gap_labelling(p3, (1, 1, 2))[0]
    # Vertex 5 is a leaf on vertex 1.  With labels up to 4 only this
    # labelling and one other are valid, both with vertex 0 at 2 and neither
    # with a valid reflection, so chi would answer 5 if it reflected here.
    g = unreflectable_leaf_graph()
    valid = (2, 2, 2, 4, 2, 4, 1, 3)
    assert is_gap_labelling(g, valid)[0]
    assert not is_gap_labelling(g, [5 - x for x in valid])[0]
    assert vertex_gap_number(g, 5) == 4


def test_search_depth_is_not_bounded_by_recursion_limit():
    g = path_power(1200, 2)
    result = decide(g, budget=4 * g.n)
    assert result.labelable and is_gap_labelling(g, result.witness)[0]


def test_least_label_count_attempts_are_pinned():
    # the least budget that does not run out is the number of labels tried;
    # K_3, K_4 and C_8^2 have no leaf, so vertex 0 tries only k // 2 + 1..k.
    # The last four rows have leaves, each pinned with its one neighbour:
    # P_1200, the graph of the reflection test, the star K_{1,4} and a
    # caterpillar (a tree whose non-leaves form a path).  P_1200's walk is
    # 1,200 deep, so its row also shows that chi's depth is not bounded by
    # the recursion limit.
    # Without early pins (``completes_walk``) the counts are 42, 28, 1,514,
    # 12,991, 6,894, 29,664, 5 and 44.
    caterpillar = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6)])
    for g, k_max, attempts, least in (
        (complete_graph(3), 5, 40, 4),
        (path_power(6, 1), 3, 26, 2),
        (complete_graph(4), 6, 1273, None),
        (cycle_power(8, 2), 8, 5890, 5),
        (path_power(1200, 1), 3, 6892, 2),
        (unreflectable_leaf_graph(), 5, 9608, 4),
        (star(4), 3, 5, 1),
        (caterpillar, 4, 24, 2),
    ):
        assert vertex_gap_number(g, k_max, budget=attempts) == least
        with pytest.raises(SearchBudgetExceeded):
            vertex_gap_number(g, k_max, budget=attempts - 1)
