"""Acceptance checks: one test per criterion, one printed PASS/FAIL line each.

Every expected value here is asserted exactly as recorded in the source
material this package reproduces, except for the corrections below.  The
recorded values contradicted the colouring rule documented in
``gaplab.labelling`` (a vertex's colour is the largest difference between its
neighbours' labels; a degree-one vertex takes its neighbour's label), so they
were corrected and the arithmetic is kept next to each one:

* criterion 1, colour of vertex 0 in the two-sided cycle labellings: C_8^2
  was recorded as 60 and is 62, C_9^2 was recorded as 124 and is 126.  Both
  recorded values equal the largest neighbour label minus the second-smallest
  one, a slip that skips the smallest neighbour label (2).  The labellings
  and the other 50 recorded entries are unchanged.
* criterion 4, least label count of the three-vertex path and of the stars
  with 2-4 leaves: recorded as 2, and is 1.  With one label every vertex gets
  label 1; the centre's colour is 1 - 1 = 0 and each leaf's colour is 1, so
  the all-ones labelling is already proper.  The check confirms every anchor
  against the all-ones labelling through ``is_gap_labelling``, which shares
  no code with the search.
"""

import random
from contextlib import contextmanager
from itertools import combinations

from gaplab import (
    complete_graph,
    construct_complete_labelling,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    construct_upper,
    check_bounds,
    cycle_power,
    decide,
    distinctify,
    erdos_turan_ruler,
    exact_strength,
    general_lb,
    golomb_relabel,
    graph_from_edges,
    induced_colouring,
    is_connected,
    is_gap_labelling,
    is_golomb_ruler,
    is_prime,
    labelable_cycle_power,
    labelable_path_power,
    next_prime,
    path_power,
    remove_edges,
    restricted_lb,
    vertex_gap_number,
)


# Every search here gets a budget a few times the most it is known to need,
# so a pruning regression fails a criterion instead of hanging the suite.
# K_n (n <= 7) takes at most n nodes, a family sweep graph 26, a random
# graph of criterion 10 350, and a least-label anchor 42 attempts.
SWEEP_BUDGET = 100
RANDOM_BUDGET = 1_500
ANCHOR_BUDGET = 200


@contextmanager
def report(criterion: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {criterion}: PASS", flush=True)


def star(leaves):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# criterion 1 -----------------------------------------------------------------

REFERENCE_FIXTURES = [
    ("K_2", complete_graph(2), construct_complete_labelling(2), (1, 2)),
    ("K_3", complete_graph(3), construct_complete_labelling(3), (3, 2, 1)),
    ("P_4^2", path_power(4, 2), construct_path_power_labelling(4, 2), (3, 2, 1, 3)),
    (
        "P_8^3",
        path_power(8, 3),
        construct_path_power_labelling(8, 3),
        (6, 15, 31, 63, 126, 124, 120, 48),
    ),
    (
        "P_9^4",
        path_power(9, 4),
        construct_path_power_labelling(9, 4),
        (14, 31, 63, 127, 255, 254, 252, 248, 112),
    ),
    ("C_6^2", cycle_power(6, 2), construct_cycle_power_labelling(6, 2), (2, 3, 1, 2, 3, 1)),
    ("C_7^2", cycle_power(7, 2), construct_cycle_power_labelling(7, 2), (6, 3, 7, 4, 2, 3, 7)),
    (
        "C_8^2",
        cycle_power(8, 2),
        construct_cycle_power_labelling(8, 2),
        # vertex 0 was recorded as 60.  Labels (1, 2, 4, 8, 256, 128, 64, 32);
        # vertex 0's neighbours 1, 2, 6, 7 carry {2, 4, 64, 32}: 64 - 2 = 62.
        (62, 31, 255, 254, 124, 248, 255, 127),
    ),
    (
        "C_9^2",
        cycle_power(9, 2),
        construct_cycle_power_labelling(9, 2),
        # vertex 0 was recorded as 124.  Labels (1, 2, 4, 8, 16, 512, 256,
        # 128, 64); vertex 0's neighbours 1, 2, 7, 8 carry {2, 4, 128, 64}:
        # 128 - 2 = 126.
        (126, 63, 15, 510, 508, 248, 496, 511, 255),
    ),
]


def test_01_reference_labellings_and_colour_vectors():
    with report("01 reference labellings and colour vectors"):
        problems = []
        for name, g, labels, recorded_colours in REFERENCE_FIXTURES:
            ok, conflicts = is_gap_labelling(g, labels)
            if not ok:
                problems.append(f"{name}: labelling invalid ({conflicts})")
                continue
            computed = induced_colouring(g, labels)
            if computed != recorded_colours:
                diffs = ", ".join(
                    f"vertex {v} recorded {r} computed {c}"
                    for v, (r, c) in enumerate(zip(recorded_colours, computed))
                    if r != c
                )
                problems.append(f"{name}: {diffs}")
        assert not problems, (
            "recorded colour vectors differ from the induced colouring: "
            + "; ".join(problems)
        )


# criterion 2 -----------------------------------------------------------------


def test_02_complete_graph_decisions_small_orders():
    with report("02 complete-graph decisions for n=2..7"):
        for n in (2, 3):
            result = decide(complete_graph(n), budget=4 * n)
            assert result.labelable, f"K_{n} should be labelable"
            assert is_gap_labelling(complete_graph(n), result.witness)[0]
        for n in (4, 5, 6, 7):
            assert not decide(complete_graph(n), budget=4 * n).labelable, f"K_{n} should not be labelable"


# criterion 3 -----------------------------------------------------------------


def family_sweep_cases():
    for n in range(3, 9):
        for k in range(2, n):
            yield "path", n, k, path_power(n, k), labelable_path_power(n, k)
    for n in range(4, 10):
        for k in range(2, n):
            if 2 * k >= n:
                continue
            yield "cycle", n, k, cycle_power(n, k), labelable_cycle_power(n, k)


def test_03_family_predicates_agree_with_search():
    with report("03 family predicates vs exhaustive search"):
        for family, n, k, g, predicted in family_sweep_cases():
            searched = decide(g, budget=SWEEP_BUDGET).labelable
            assert searched == predicted, (
                f"{family} power (n={n}, k={k}): predicate says {predicted}, "
                f"search says {searched}"
            )


# criterion 4 -----------------------------------------------------------------


def least_label_anchors():
    yield "K_3", complete_graph(3), 4
    # P_3 and the stars were recorded as 2.  With k = 1 the only labelling is
    # all ones: the centre's colour is 1 - 1 = 0 and every leaf's colour is its
    # neighbour's label 1, so the colouring is proper and the least count is 1.
    yield "P_3", path_power(3, 1), 1
    for n in range(4, 7):
        yield f"P_{n}", path_power(n, 1), 2
    for leaves in range(2, 5):
        yield f"star with {leaves} leaves", star(leaves), 1


def test_04_least_label_count_anchors():
    with report("04 least-label-count anchors"):
        problems = []
        for name, g, expected in least_label_anchors():
            got = vertex_gap_number(g, 5, budget=ANCHOR_BUDGET)
            if got != expected:
                problems.append(f"{name} expected {expected}, computed {got}")
            # k = 1 admits exactly one labelling, so the anchor is 1 iff the
            # all-ones labelling is proper; this check does not use the search.
            all_ones_proper = is_gap_labelling(g, [1] * g.n)[0]
            if all_ones_proper != (expected == 1):
                problems.append(
                    f"{name}: all-ones labelling proper is {all_ones_proper}, "
                    f"anchor is {expected}"
                )
        assert not problems, "least-label anchors differ: " + "; ".join(problems)


# criterion 5 -----------------------------------------------------------------


def test_05_ruler_pipeline_on_search_witnesses():
    with report("05 ruler relabelling pipeline on witnesses"):
        witnesses = []
        for n in (2, 3):
            g = complete_graph(n)
            witnesses.append((g, decide(g, budget=4 * n).witness))
        for _, _, _, g, predicted in family_sweep_cases():
            if predicted:
                witnesses.append((g, decide(g, budget=SWEEP_BUDGET).witness))
        assert len(witnesses) >= 10
        for g, witness in witnesses:
            assert witness is not None
            relabelled = golomb_relabel(g, distinctify(g, witness))
            assert is_gap_labelling(g, relabelled)[0]
            p = next_prime(g.n)
            assert max(relabelled) <= 4 * p * p


# criterion 6 -----------------------------------------------------------------


def test_06_exact_strength_of_tiny_complete_graphs():
    with report("06 exact strength for K_4, K_5, K_6"):
        assert exact_strength(4) == 1
        assert exact_strength(5) == 2
        assert exact_strength(6) == 3


# criterion 7 -----------------------------------------------------------------


def test_07_lower_bound_tables_dominate_power_laws():
    with report("07 table bounds vs power laws, n <= 218"):
        lp = restricted_lb(218)
        general = general_lb(218)
        for n in range(4, 219):
            assert (10 * lp[n]) ** 2 >= n**3, f"restricted bound fails at n={n}"
            assert (100 * general[n]) ** 5 >= 3**5 * n**6, f"general bound fails at n={n}"
        assert check_bounds(218) is None


# criterion 8 -----------------------------------------------------------------


def test_08_bound_sandwich_at_tiny_orders():
    with report("08 lower bound <= exact <= construction"):
        general = general_lb(6)
        for n in (4, 5, 6):
            exact = exact_strength(n)
            upper = len(construct_upper(n).removed)
            assert general[n] <= exact <= upper, (n, general[n], exact, upper)


# criterion 9 -----------------------------------------------------------------


def test_09_removal_construction_sweep_to_200():
    with report("09 removal construction sweep, n <= 200"):
        for n in range(4, 201):
            built = construct_upper(n)
            g = remove_edges(complete_graph(n), built.removed)
            assert is_gap_labelling(g, built.labelling)[0], f"invalid labelling at n={n}"
            total = len(built.removed)
            assert total * total <= 9 * n**3, f"size bound fails at n={n}"
        fifteen = construct_upper(15)
        assert len(fifteen.removed) == 27
        assert fifteen.plan.steps == ((15, 3, 10), (11, 3, 6), (7, 2, 3), (4, 1, 1))


# criterion 10 ----------------------------------------------------------------


def test_10_distinctify_sweep_and_ruler_checks():
    with report("10 distinctify on 500 witnesses; rulers to p=97"):
        rng = random.Random(20260808)
        collected = 0
        while collected < 500:
            n = rng.randint(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < rng.choice((0.3, 0.5, 0.8))
            ]
            g = graph_from_edges(n, edges)
            if not is_connected(g):
                continue
            result = decide(g, budget=RANDOM_BUDGET)
            if not result.labelable:
                continue
            made_distinct = distinctify(g, result.witness)
            assert len(set(made_distinct)) == g.n
            assert is_gap_labelling(g, made_distinct)[0]
            collected += 1
        for p in range(2, 98):
            if not is_prime(p):
                continue
            marks = erdos_turan_ruler(p)
            assert marks[-1] <= 2 * p * p - p - 1
            assert is_golomb_ruler(marks)
            diffs = [b - a for a, b in combinations(marks, 2)]
            assert len(diffs) == len(set(diffs))
