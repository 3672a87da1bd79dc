import random
from itertools import combinations, product

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
    is_connected,
    is_gap_labelling,
    naive_decide,
    next_prime,
    orbit_representatives,
    path_power,
    vertex_gap_number,
)


def star(leaves):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_connected(rng, n, p=0.45):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = graph_from_edges(n, edges)
        if is_connected(g):
            return g


class FullRecomputeSearcher:
    """Reference search: recomputes every colour and scans every edge per node.

    Same tree as the library search (outside-in marks, candidates in vertex
    order, one count per node entered), but derives each pin directly from
    the placed labels, so it shares no pinning logic with it.
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
                for cand in range(self.n):
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


def full_recompute_decide(g):
    searcher = FullRecomputeSearcher(g, decision_marks(g.n))
    for rep in orbit_representatives(g):
        witness = searcher.run(rep)
        if witness is not None:
            return witness, searcher.tried
    return None, searcher.tried


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
        result = decide(complete_graph(n))
        assert result.labelable
        assert is_gap_labelling(complete_graph(n), result.witness)[0]
    for n in (4, 5):
        result = decide(complete_graph(n))
        assert not result.labelable and result.witness is None


def test_squared_path_on_five_vertices_is_labelable():
    assert decide(path_power(5, 2)).labelable


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
        assert decide(g).labelable == naive_decide(g).labelable


def test_agreement_with_naive_enumeration_on_all_order_five_graphs():
    pool = list(combinations(range(5), 2))
    for bits in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        g = graph_from_edges(5, edges)
        if not is_connected(g):
            continue
        assert decide(g).labelable == naive_decide(g).labelable


def test_agreement_with_naive_enumeration_on_sampled_larger_graphs():
    rng = random.Random(13)
    for n, repeats in ((6, 12), (7, 8)):
        for _ in range(repeats):
            g = random_connected(rng, n)
            assert decide(g).labelable == naive_decide(g).labelable


def test_agreement_with_full_vector_enumeration_on_triangle_and_path():
    # independent oracle: every labelling with labels up to 4p^2 is tried
    for g in (complete_graph(3), path_power(3, 1)):
        p = next_prime(g.n)
        bound = 4 * p * p
        found = any(
            is_gap_labelling(g, labs)[0]
            for labs in product(range(1, bound + 1), repeat=g.n)
        )
        assert decide(g).labelable == found


def test_decision_is_isomorphism_invariant():
    rng = random.Random(5)
    for g in (cycle_power(6, 2), complete_graph(5), path_power(6, 2)):
        want = decide(g).labelable
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert decide(h).labelable == want


def test_witness_feeds_the_relabelling_pipeline():
    for g in (complete_graph(3), cycle_power(6, 2), path_power(7, 3)):
        witness = decide(g).witness
        relabelled = golomb_relabel(g, distinctify(g, witness))
        assert is_gap_labelling(g, relabelled)[0]


def test_pruning_beats_plain_enumeration():
    g = complete_graph(5)
    assert decide(g).assignments_tried < naive_decide(g).assignments_tried


def test_budget_is_enforced_and_reported():
    with pytest.raises(SearchBudgetExceeded) as exc:
        decide(complete_graph(6), budget=3)
    assert exc.value.tried == 4


def test_budget_spans_every_first_vertex():
    # The least budget that does not run out is the node count of the whole
    # decision, across every orbit representative the root tries.
    rng = random.Random(31)
    graphs = [outlier_graph()]
    graphs += [
        random_connected(rng, rng.randint(6, 10), rng.choice((0.3, 0.45, 0.7)))
        for _ in range(24)
    ]
    saw_no = saw_late_yes = False
    for g in graphs:
        reps = orbit_representatives(g)
        if len(reps) < 2:
            continue
        result = decide(g)
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


def test_least_label_count_agrees_with_product_enumeration():
    def oracle(g, k_max):
        for k in range(1, k_max + 1):
            for labs in product(range(1, k + 1), repeat=g.n):
                if is_gap_labelling(g, labs)[0]:
                    return k
        return None

    rng = random.Random(3)
    cases = [complete_graph(3), path_power(5, 1), star(2), cycle_power(5, 1)]
    cases += [random_connected(rng, 4) for _ in range(6)]
    for g in cases:
        assert vertex_gap_number(g, 4) == oracle(g, 4)


def test_least_label_count_budget():
    with pytest.raises(SearchBudgetExceeded):
        vertex_gap_number(complete_graph(3), 5, budget=10)


def test_least_label_count_rejects_bad_cap():
    with pytest.raises(ValueError):
        vertex_gap_number(complete_graph(3), 0)


def test_incremental_search_matches_full_recompute_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_connected(rng, rng.randint(5, 9), rng.choice((0.2, 0.3, 0.45, 0.7)))
        witness, tried = full_recompute_decide(g)
        result = decide(g)
        assert result.labelable == (witness is not None), sorted(g.edges)
        assert result.assignments_tried == tried, sorted(g.edges)
        assert result.witness == witness, sorted(g.edges)


def test_search_node_counts_are_pinned():
    cases = [
        (path_power(500, 2), True, 500),
        (path_power(400, 3), True, 1123),
        (cycle_power(120, 5), True, 460),
        (cycle_power(24, 7), False, 24),
        (complete_graph(30), False, 30),
        (outlier_graph(), True, 27418),
    ]
    for g, labelable, nodes in cases:
        result = decide(g)
        assert (result.labelable, result.assignments_tried) == (labelable, nodes), g
        if labelable:
            assert is_gap_labelling(g, result.witness)[0]


def test_search_depth_is_not_bounded_by_recursion_limit():
    g = path_power(1200, 2)
    result = decide(g)
    assert result.labelable and is_gap_labelling(g, result.witness)[0]
    assert vertex_gap_number(path_power(1200, 1), 3) == 2


def test_least_label_count_attempts_are_pinned():
    # the least budget that does not run out is the number of labels tried
    for g, k_max, attempts, least in (
        (complete_graph(3), 5, 67, 4),
        (path_power(6, 1), 3, 28, 2),
        (complete_graph(4), 6, 2828, None),
    ):
        assert vertex_gap_number(g, k_max, budget=attempts) == least
        with pytest.raises(SearchBudgetExceeded):
            vertex_gap_number(g, k_max, budget=attempts - 1)
