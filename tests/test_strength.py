import hashlib
import random
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
from gaplab import strength
from gaplab.strength import _merge_slopes, power_law_column


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


def test_restricted_lb_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        restricted_lb(-1)


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


def test_general_table_rejects_a_nonconvex_lprime(monkeypatch):
    lp = list(restricted_lb(30))
    lp[20] += 5  # l'(19) + l'(21) < 2 l'(20), and convex everywhere before
    monkeypatch.setattr(strength, "restricted_lb", lambda n_max: tuple(lp[: n_max + 1]))
    with pytest.raises(RuntimeError, match=r"at n = 20$"):
        general_lb(30)


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
    assert check_bounds(218) is None


def test_bound_check_passes_through_10000():
    assert check_bounds(10_000) is None


def _patch_tables(monkeypatch, lp, general):
    monkeypatch.setattr(strength, "restricted_lb", lambda n_max: tuple(lp[: n_max + 1]))
    monkeypatch.setattr(strength, "general_lb", lambda n_max: tuple(general[: n_max + 1]))


def test_bound_check_names_the_first_lprime_violation(monkeypatch):
    lp, general = list(restricted_lb(100)), list(general_lb(100))
    lp[40] = lp[70] = 0  # (10 l')^2 < n^3 at n = 40 and 70
    general[40] = 0  # both floors fail at 40; l' is checked first
    _patch_tables(monkeypatch, lp, general)
    assert check_bounds(100) == ("lprime", 40)
    assert check_bounds(39) is None


def test_bound_check_names_the_first_general_violation(monkeypatch):
    lp, general = list(restricted_lb(100)), list(general_lb(100))
    general[57] = general[60] = 0  # (100 L)^5 < 3^5 n^6 at n = 57 and 60
    _patch_tables(monkeypatch, lp, general)
    assert check_bounds(100) == ("general", 57)
    assert check_bounds(56) is None


def test_bound_check_exact_arithmetic_sample():
    lp = restricted_lb(5)
    assert (10 * lp[5]) ** 2 == 400
    assert 400 >= 5**3


def test_exact_strength_of_k4():
    assert exact_strength(4) == 1


def brute_force_strength(n):
    """Every removal set by size, decided by the full search; no dedup.

    For n <= 6 no search takes more than 22 nodes, so the budget is 100.
    """
    base = complete_graph(n)
    edges = sorted(base.edges)
    for size in range(1, len(edges) + 1):
        for combo in combinations(edges, size):
            if decide(remove_edges(base, combo), budget=100).labelable:
                return size


def test_exact_strength_matches_brute_force_search():
    for n in (4, 5, 6):
        assert exact_strength(n) == brute_force_strength(n)


def test_exact_strength_is_where_the_bounds_meet():
    # The construction removes exactly L(n) edges for n = 4..6 and more for
    # every larger n checked, which is why exact_strength stops at 6.
    lower = general_lb(3000)
    for n in range(4, 7):
        assert removal_schedule(n).total_removed == lower[n], n
    for n in range(7, 3001):
        assert removal_schedule(n).total_removed > lower[n], n


def test_exact_strength_faults_when_the_bounds_part(monkeypatch):
    real = strength.general_lb
    monkeypatch.setattr(strength, "general_lb", lambda n_max: tuple(v + 1 for v in real(n_max)))
    with pytest.raises(RuntimeError, match="do not meet"):
        exact_strength(6)


def test_exact_strength_faults_on_an_invalid_construction(monkeypatch):
    real = strength.construct_upper
    # All ones colours every vertex of degree >= 2 with 0, so adjacent ones clash.
    monkeypatch.setattr(
        strength, "construct_upper", lambda n: real(n)._replace(labelling=(1,) * n)
    )
    with pytest.raises(RuntimeError, match="not a gap labelling"):
        exact_strength(6)


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
    # refuted in 8 nodes
    assert not decide(g, budget=32).labelable


def round_sets(n, step):
    """(low vertex, independent set, tail) of a round (n_j, i_j, x_j) on K_n:
    the round's non-hub vertices are the contiguous range low..n-1."""
    order, i, x = step
    low = n + 1 - order
    independent = list(range(low + 1, low + 1 + i))
    tail = list(range(low + 1 + i, n))
    assert len(tail) == x
    return low, independent, tail


def test_construct_upper_smallest_case():
    built = construct_upper(4)
    assert len(built.removed) == 1
    assert built.removed == ((1, 3),)
    assert built.labelling == (8, 1, 4, 2)
    g = remove_edges(complete_graph(4), built.removed)
    assert is_gap_labelling(g, built.labelling)[0]


def test_construct_upper_trace_for_fifteen():
    built = construct_upper(15)
    assert built.plan.steps == ((15, 3, 10), (11, 3, 6), (7, 2, 3), (4, 1, 1))
    assert len(built.removed) == 27
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
            low, independent, tail = round_sets(n, step)
            for a in independent:
                for b in independent:
                    if a < b:
                        assert not g.has_edge(a, b)
            assert all(not g.has_edge(low, u) for u in tail)
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
        low, independent, _ = round_sets(15, step)
        # low vertices keep only the hub and independent vertices as
        # neighbours, so they all take the gap 2^14 - 2^13
        assert colours[low] == 1 << 13
        for v in independent:
            assert colours[v] == (1 << 14) - (1 << (j - 1))
    final_tail = round_sets(15, built.plan.steps[-1])[2]
    assert colours[final_tail[0]] == 1 << 13


def test_removing_three_edges_at_one_vertex_of_k6_is_not_enough():
    g = remove_edges(complete_graph(6), [(0, 1), (0, 2), (0, 3)])
    # refuted in 21 nodes
    assert not decide(g, budget=84).labelable


def test_schedule_matches_full_construction():
    for n in (4, 9, 15, 40, 137):
        assert removal_schedule(n).steps == construct_upper(n).plan.steps
        assert removal_schedule(n).total_removed == len(construct_upper(n).removed)


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
        assert built.plan.steps == trace, n
        assert len(built.removed) == total, n
        # the sets round_sets derives remove exactly the oracle's edges
        from_rounds = []
        for low, independent, tail in (round_sets(n, step) for step in trace):
            from_rounds.extend((low, v) for v in tail)
            from_rounds.extend(combinations(independent, 2))
        assert tuple(sorted(from_rounds)) == removed, n


def test_construction_lists_its_removals_in_increasing_order_past_the_oracle():
    # construct_upper does not sort: the rounds emit the edges in order.
    for n in (2000, 3000):
        removed = construct_upper(n).removed
        assert len(removed) == removal_schedule(n).total_removed, n
        assert all(a < b for a, b in zip(removed, removed[1:])), n


def test_schedule_sets_partition_the_non_hub_vertices():
    for n in range(4, 201):
        rounds = [round_sets(n, step) for step in removal_schedule(n).steps]
        order = []
        for step, (low, independent, tail) in zip(removal_schedule(n).steps, rounds):
            order.append(low)
            order.extend(independent)
            assert len(independent) == step[1], n
            assert len(tail) == step[2], n
        order.extend(rounds[-1][2])
        assert order == list(range(1, n)), n
        for this, following in zip(rounds, rounds[1:]):
            low, independent, tail = following
            assert this[2] == [low, *independent, *tail], n


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


def _per_edge_ledger(n, removed):
    """The ledger written one formatted line per edge: the oracle."""
    lines = "".join(f"{u} {v}\n" for u, v in sorted(removed))
    return f"# removed from K_{n}\n{n} {len(removed)}\n" + lines


def test_removed_edge_ledger_equals_the_per_edge_oracle_in_any_input_order():
    rng = random.Random(31)
    cases = [(n, construct_upper(n).removed) for n in (4, 15, 60, 300)]
    cases += [(n, []) for n in (1, 4, 12)]
    cases += [(12, [(0, 11)]), (12, [(10, 11)]), (12, list(combinations(range(12), 2)))]
    for n, removed in cases:
        shuffled = list(removed)
        rng.shuffle(shuffled)
        expected = _per_edge_ledger(n, removed)
        for order in (removed, sorted(removed), shuffled, tuple(shuffled)):
            assert removed_edge_ledger(n, order) == expected, (n, len(removed))
