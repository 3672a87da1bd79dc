import hashlib
from decimal import Decimal, getcontext, localcontext
from functools import lru_cache
from itertools import combinations
from math import isqrt

import pytest

from gaplab import (
    UnsupportedInputError,
    check_bounds,
    complete_graph,
    construct_upper,
    decide,
    decompose,
    emit_tables,
    exact_strength,
    general_lb,
    graph_from_edges,
    induced_colouring,
    is_gap_labelling,
    remove_edges,
    removal_schedule,
    removed_edge_ledger,
    parse_graph,
    restricted_lb,
)
from gaplab.strength import _general_lb, _merge_slopes, power_law_column


# --- reference recurrences, written independently of the table builders ----


@lru_cache(maxsize=None)
def lp_reference(n):
    if n <= 3:
        return 0
    return min(
        x + i * (i - 1) // 2 + lp_reference(x + 1)
        for x in range(n - 1)
        for i in [n - 2 - x]
    )


def general_reference(n_max):
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(
            x + y + 2 * z + i * (i - 1) // 2
            + lp_reference(x + 1) + lp_reference(y + 1) + table[z]
            for x in range(n - 1)
            for y in range(n - 1 - x)
            for z in range(n - 1 - x - y)
            for i in [n - 2 - x - y - z]
        )
    return table


# --- quadratic table builders, the oracle for the slope merges ---------------


def restricted_lb_quadratic(n_max):
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(
            x + (n - 2 - x) * (n - 3 - x) // 2 + table[x + 1] for x in range(n - 1)
        )
    return tuple(table)


def general_lb_quadratic(n_max):
    lp = restricted_lb_quadratic(n_max)
    if n_max < 4:
        return tuple([0] * (n_max + 1))
    size = n_max - 1
    cost_one = [x + lp[x + 1] for x in range(size)]
    best_xy = [min(cost_one[x] + cost_one[s - x] for x in range(s + 1)) for s in range(size)]
    best_xyi = [
        min(i * (i - 1) // 2 + best_xy[s - i] for i in range(s + 1)) for s in range(size)
    ]
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(2 * z + table[z] + best_xyi[n - 2 - z] for z in range(n - 1))
    return tuple(table)


def test_tables_match_quadratic_builders_for_every_small_n_max():
    lp = restricted_lb_quadratic(120)
    general = general_lb_quadratic(120)
    for n_max in range(121):
        assert restricted_lb(n_max) == lp[: n_max + 1], n_max
        assert general_lb(n_max) == general[: n_max + 1], n_max


def test_tables_match_quadratic_builders_at_1000():
    assert restricted_lb(1000) == restricted_lb_quadratic(1000)
    assert general_lb(1000) == general_lb_quadratic(1000)


def test_merge_slopes_is_the_min_plus_convolution_of_convex_sequences():
    import random

    rng = random.Random(1)

    def convex(length):
        # Few distinct slopes, so negative and equal slopes are common.
        values = [rng.randint(-50, 50)]
        for slope in sorted(rng.randint(-6, 6) for _ in range(length - 1)):
            values.append(values[-1] + slope)
        return values

    for _ in range(400):
        f = convex(rng.randint(1, 30))
        g = convex(rng.randint(1, 30))
        count = rng.randint(0, min(len(f), len(g)) - 1)
        expected = [min(f[i] + g[m - i] for i in range(m + 1)) for m in range(count + 1)]
        table = [f[0] + g[0]]
        _merge_slopes(table, count, lambda a: f[a + 1] - f[a], lambda b: g[b + 1] - g[b])
        assert table == expected, (f, g, count)


def test_general_table_rejects_a_nonconvex_lprime():
    lp = list(restricted_lb(30))
    lp[20] += 5  # l'(19) + l'(21) < 2 l'(20), and convex everywhere before
    with pytest.raises(RuntimeError, match=r"at n = 20$"):
        _general_lb(tuple(lp))


def test_restricted_table_anchors():
    table = restricted_lb(10)
    assert table[:4] == (0, 0, 0, 0)
    assert table[4] == 1
    assert table[5] == 2
    assert table[6] == 3
    assert table[7] == 5


def test_restricted_table_matches_reference_recurrence():
    table = restricted_lb(60)
    assert list(table) == [lp_reference(n) for n in range(61)]


def test_restricted_table_is_monotone():
    table = restricted_lb(218)
    assert all(table[n] >= table[n - 1] for n in range(4, 219))


def test_general_table_anchors():
    table = general_lb(8)
    assert table[:4] == (0, 0, 0, 0)
    assert table[4] == 1 and table[5] == 2 and table[6] == 3


def test_general_table_matches_reference_enumeration():
    assert list(general_lb(40)) == general_reference(40)


def test_general_never_exceeds_restricted():
    lp = restricted_lb(120)
    general = general_lb(120)
    assert all(general[n] <= lp[n] for n in range(121))


def test_bound_check_passes_through_218():
    report = check_bounds(218)
    assert report.ok and report.first_violation is None


def test_bound_check_passes_through_10000():
    report = check_bounds(10_000)
    assert report.ok and report.first_violation is None


def test_bound_check_exact_arithmetic_sample():
    lp = restricted_lb(5)
    assert (10 * lp[5]) ** 2 == 400
    assert 400 >= 5**3


def test_exact_strength_of_k4():
    assert exact_strength(4) == 1


def brute_force_strength(n):
    """Every removal set by size, decided by the full search; no dedup."""
    base = complete_graph(n)
    edges = sorted(base.edges)
    for size in range(1, len(edges) + 1):
        for combo in combinations(edges, size):
            if decide(remove_edges(base, combo)).labelable:
                return size


def test_exact_strength_matches_brute_force_search():
    for n in (4, 5, 6):
        assert exact_strength(n) == brute_force_strength(n)


def test_exact_strength_rejects_out_of_range():
    with pytest.raises(UnsupportedInputError):
        exact_strength(3)
    with pytest.raises(UnsupportedInputError):
        exact_strength(7)


def test_one_removal_suffices_for_k4():
    # the classic certificate: drop one edge, label its ends equally
    g = remove_edges(complete_graph(4), [(1, 2)])
    assert is_gap_labelling(g, (1, 2, 2, 4))[0]
    assert induced_colouring(g, (1, 2, 2, 4)) == (2, 3, 3, 1)


def test_two_removals_suffice_for_k5_both_shapes():
    # a matching of two edges ...
    matching = remove_edges(complete_graph(5), [(1, 2), (3, 4)])
    assert is_gap_labelling(matching, (1, 2, 2, 4, 4))[0]
    assert induced_colouring(matching, (1, 2, 2, 4, 4)) == (2, 3, 3, 1, 1)
    # ... or two edges sharing a vertex
    cherry = remove_edges(complete_graph(5), [(0, 1), (0, 4)])
    assert is_gap_labelling(cherry, (1, 4, 4, 9, 2))[0]
    assert induced_colouring(cherry, (1, 4, 4, 9, 2)) == (5, 7, 8, 3, 5)


def test_single_removal_never_suffices_for_k5():
    g = remove_edges(complete_graph(5), [(0, 1)])
    assert not decide(g).labelable


def test_decompose_classifies_by_extreme_adjacency():
    g = remove_edges(complete_graph(6), [(1, 3), (0, 4), (1, 4), (2, 3)])
    d = decompose(g, 0, 1)
    assert d.X == frozenset({3})       # adjacent to 0 only
    assert d.Y == frozenset({})
    assert d.Z == frozenset({4})       # adjacent to neither extreme
    assert d.I == frozenset({2, 5})    # adjacent to both
    with pytest.raises(ValueError):
        decompose(g, 2, 2)
    k4 = complete_graph(4)
    with pytest.raises(ValueError):
        decompose(k4, 7, 0)
    with pytest.raises(ValueError):
        decompose(k4, -1, 0)


def test_construct_upper_smallest_case():
    built = construct_upper(4)
    assert built.total_removed == 1
    assert built.removed == ((1, 3),)
    assert built.labelling == (8, 1, 4, 2)
    g = remove_edges(complete_graph(4), built.removed)
    assert is_gap_labelling(g, built.labelling)[0]


def test_construct_upper_trace_for_fifteen():
    built = construct_upper(15)
    assert built.plan.trace() == ((15, 3, 10), (11, 3, 6), (7, 2, 3), (4, 1, 1))
    assert built.total_removed == 27
    assert built.labelling[0] == 1 << 14
    assert built.labelling.count(1 << 13) == 3 + 3 + 2 + 1  # one per independent slot
    g = remove_edges(complete_graph(15), built.removed)
    assert is_gap_labelling(g, built.labelling)[0]


def test_construct_upper_structural_invariants():
    for n in range(4, 61):
        built = construct_upper(n)
        g = remove_edges(complete_graph(n), built.removed)
        assert is_gap_labelling(g, built.labelling)[0], n
        for step in built.plan.steps:
            for a in step.independent_set:
                for b in step.independent_set:
                    if a < b:
                        assert not g.has_edge(a, b)
            assert all(not g.has_edge(step.low_vertex, u) for u in step.tail)
        # the hub vertex keeps the top label and every vertex some power of two
        assert built.labelling[0] == 1 << (n - 1)
        assert all(lab & (lab - 1) == 0 for lab in built.labelling)


def test_construct_upper_colour_identities_for_fifteen():
    built = construct_upper(15)
    g = remove_edges(complete_graph(15), built.removed)
    colours = induced_colouring(g, built.labelling)
    # the hub sees everything from 2^0 up to the independent vertices' 2^13
    assert colours[0] == (1 << 13) - 1
    for j, step in enumerate(built.plan.steps, start=1):
        # low vertices keep only the hub and independent vertices as
        # neighbours, so they all take the gap 2^14 - 2^13
        assert colours[step.low_vertex] == 1 << 13
        for v in step.independent_set:
            assert colours[v] == (1 << 14) - (1 << (j - 1))
    final_tail = built.plan.steps[-1].tail
    assert colours[final_tail[0]] == 1 << 13


def test_removing_three_edges_at_one_vertex_of_k6_is_not_enough():
    g = remove_edges(complete_graph(6), [(0, 1), (0, 2), (0, 3)])
    assert not decide(g).labelable


def test_schedule_matches_full_construction():
    for n in (4, 9, 15, 40, 137):
        assert removal_schedule(n).trace() == construct_upper(n).plan.trace()
        assert removal_schedule(n).total_removed == construct_upper(n).total_removed


# --- the two-loop construction the schedule-driven one replaced --------------


def _split_sizes_two_loop(order):
    i = isqrt(order)
    x = order - i - 2
    if x == 0:
        i -= 1
        x = order - i - 2
    return i, x


def construct_upper_two_loop(n):
    """(removed, labelling, trace, total) from its own round loop and slicing."""
    labels = [0] * n
    labels[0] = 1 << (n - 1)
    removed = []
    trace = []
    current = list(range(1, n))
    order = n
    j = 0
    while True:
        j += 1
        i, x = _split_sizes_two_loop(order)
        low = current[0]
        independent = tuple(current[1 : 1 + i])
        tail = tuple(current[1 + i :])
        assert len(tail) == x
        labels[low] = 1 << (j - 1)
        for v in independent:
            labels[v] = 1 << (n - 2)
        removed.extend((low, v) if low < v else (v, low) for v in tail)
        removed.extend(combinations(independent, 2))
        trace.append((order, i, x))
        if x >= 3:
            current = list(tail)
            order = x + 1
        else:
            labels[tail[0]] = 1 << j
            if x == 2:
                labels[tail[1]] = 1 << (j + 1)
            break
    return tuple(sorted(removed)), tuple(labels), tuple(trace), len(removed)


def test_construction_matches_two_loop_oracle():
    for n in range(4, 301):
        built = construct_upper(n)
        removed, labelling, trace, total = construct_upper_two_loop(n)
        assert built.removed == removed, n
        assert built.labelling == labelling, n
        assert built.plan.trace() == trace, n
        assert built.total_removed == total, n


def test_schedule_sets_partition_the_non_hub_vertices():
    for n in range(4, 201):
        steps = removal_schedule(n).steps
        order = []
        for step in steps:
            order.append(step.low_vertex)
            order.extend(step.independent_set)
            assert len(step.independent_set) == step.independent_size, n
            assert len(step.tail) == step.tail_size, n
        order.extend(steps[-1].tail)
        assert order == list(range(1, n)), n
        for this, following in zip(steps, steps[1:]):
            rest = [following.low_vertex, *following.independent_set, *following.tail]
            assert list(this.tail) == rest, n


def test_schedule_respects_cubic_root_bound():
    for n in range(4, 10001):
        total = removal_schedule(n).total_removed
        assert total * total <= 9 * n**3, n


def test_schedule_rejects_small_orders():
    with pytest.raises(ValueError):
        removal_schedule(3)
    with pytest.raises(ValueError):
        construct_upper(3)


def test_emit_tables_format():
    text = emit_tables(6)
    lines = text.strip().split("\n")
    assert lines[0] == "n,lprime,general,omega"
    assert lines[1] == "4,1,1,0.1583"
    assert len(lines) == 1 + (6 - 3)


def test_emit_tables_row_count_and_values():
    text = emit_tables(30)
    lines = text.strip().split("\n")[1:]
    assert len(lines) == 27
    lprime, general, omega = restricted_lb(30), general_lb(30), power_law_column(30)
    for line in lines:
        n_s, lp_s, general_s, omega_s = line.split(",")
        n = int(n_s)
        assert int(lp_s) == lprime[n]
        assert int(general_s) == general[n]
        assert Decimal(omega_s) == omega[n]


def test_emit_tables_2000_is_pinned():
    # sha256 and length of the output of the quadratic builders and the
    # 60-digit Decimal column that the current code replaced
    text = emit_tables(2000).encode()
    assert len(text) == 48063
    assert hashlib.sha256(text).hexdigest() == (
        "d1632378e696bef16816bbd7f203aabfa2bacc5f7597804e7ea2144d9afd51fa"
    )


def test_omega_column_has_four_decimals():
    omega = power_law_column(10)
    assert str(omega[4]) == "0.1583"
    assert all(str(x).split(".")[1].__len__() == 4 for x in omega[4:])


def test_power_law_column_rejects_a_negative_n_max():
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        power_law_column(-1)


def test_power_law_column_leaves_caller_precision_alone():
    with localcontext() as ctx:
        ctx.prec = 17
        column = power_law_column(2000)
        assert getcontext().prec == 17
    with localcontext() as ctx:
        ctx.prec = 60
        fifth = Decimal(1) / Decimal(5)
        expected = [
            (Decimal(3) * (Decimal(n) ** 6) ** fifth / Decimal(100)).quantize(Decimal("0.0001"))
            for n in range(2001)
        ]
    assert [str(x) for x in column] == [str(x) for x in expected]


def test_removed_edge_ledger_is_loadable():
    built = construct_upper(15)
    text = removed_edge_ledger(15, built.removed)
    assert text.startswith("# removed from K_15\n15 27\n")
    ledger_graph = parse_graph(text)
    assert ledger_graph.n == 15
    assert ledger_graph.edges == frozenset(built.removed)
