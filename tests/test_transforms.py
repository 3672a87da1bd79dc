from itertools import combinations

import pytest

from gaplab import (
    InvalidLabellingError,
    complete_graph,
    cycle_power,
    distinctify,
    erdos_turan_ruler,
    golomb_relabel,
    induced_colouring,
    is_gap_labelling,
    is_golomb_ruler,
    is_prime,
    next_prime,
    path_power,
    power_two_relabel,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_next_prime_values():
    assert next_prime(4) == 5
    assert next_prime(7) == 7
    assert next_prime(14) == 17
    assert next_prime(1) == 2
    assert next_prime(2) == 2


def test_next_prime_stays_in_doubling_window():
    for n in range(1, 400):
        p = next_prime(n)
        assert is_prime(p)
        assert n <= p <= 2 * n or (n == 1 and p == 2)


def test_next_prime_rejects_nonpositive():
    with pytest.raises(ValueError):
        next_prime(0)


def test_ruler_marks_for_five():
    marks = erdos_turan_ruler(5)
    assert marks == (0, 11, 24, 34, 41)
    assert len(marks) == 5
    assert marks[-1] <= 2 * 25 - 5 - 1


def test_ruler_marks_for_two_and_seven():
    assert erdos_turan_ruler(2) == (0, 5)
    marks = erdos_turan_ruler(7)
    assert len(marks) == 7
    assert marks[-1] <= 2 * 49 - 7 - 1
    assert is_golomb_ruler(marks)


def test_ruler_rejects_composites():
    with pytest.raises(ValueError):
        erdos_turan_ruler(6)


def test_ruler_difference_property_small_primes():
    for p in SMALL_PRIMES:
        marks = erdos_turan_ruler(p)
        assert is_golomb_ruler(marks)
        assert marks[-1] <= 2 * p * p - p - 1
        assert marks[-1] == 2 * p * (p - 1) + (p - 1) ** 2 % p
        # prefixes are rulers too; the search uses the first n marks
        assert is_golomb_ruler(marks[: p // 2 + 1])


def test_is_golomb_ruler_rejects_repeated_difference():
    assert not is_golomb_ruler((0, 1, 2))
    assert not is_golomb_ruler((0, 2, 1))
    assert is_golomb_ruler((0, 1, 3))


def test_distinctify_triangle_fixture():
    g = complete_graph(3)
    out = distinctify(g, (2, 1, 4))
    assert out == (13, 6, 26)
    ok, _ = is_gap_labelling(g, out)
    assert ok


def test_distinctify_squared_path_fixture():
    g = path_power(4, 2)
    out = distinctify(g, (2, 1, 4, 2))
    assert out == (17, 8, 35, 18)
    assert len(set(out)) == 4
    ok, _ = is_gap_labelling(g, out)
    assert ok


def test_distinctify_preserves_order_with_index_tie_break():
    g = cycle_power(6, 2)
    labels = (1, 2, 4, 1, 2, 4)
    out = distinctify(g, labels)
    assert out == (12, 26, 52, 13, 27, 53)  # label * 12 + rank; tied vertices rank by index
    ranks_in = sorted(range(6), key=lambda v: (labels[v], v))
    ranks_out = sorted(range(6), key=lambda v: out[v])
    assert ranks_in == ranks_out


def test_distinctify_keeps_injective_input_injective():
    g = path_power(5, 2)
    labels = tuple(1 << i for i in range(5))
    out = distinctify(g, labels)
    assert len(set(out)) == 5
    assert is_gap_labelling(g, out)[0]


def test_distinctify_rejects_invalid_input_with_report():
    with pytest.raises(InvalidLabellingError) as exc:
        distinctify(complete_graph(3), (1, 2, 3))
    assert exc.value.report is not None
    assert exc.value.report.conflicts == ((0, 2),)


def test_power_two_relabel_fixture():
    g = complete_graph(3)
    assert power_two_relabel(g, (2, 1, 4)) == (2, 1, 4)
    assert power_two_relabel(complete_graph(2), (7, 3)) == (2, 1)


def test_power_two_relabel_max_label():
    g = path_power(9, 4)
    out = power_two_relabel(g, tuple(3 * x for x in (1, 2, 4, 8, 16, 32, 64, 128, 256)))
    assert max(out) == 1 << 8
    assert is_gap_labelling(g, out)[0]


def test_power_two_relabel_needs_distinct_labels():
    with pytest.raises(InvalidLabellingError):
        power_two_relabel(cycle_power(6, 2), (1, 2, 4, 1, 2, 4))


def test_golomb_relabel_triangle():
    g = complete_graph(3)
    out = golomb_relabel(g, (2, 1, 4))
    assert out == (25, 18, 31)
    assert is_gap_labelling(g, out)[0]


def test_golomb_relabel_single_edge():
    g = complete_graph(2)
    out = golomb_relabel(g, (7, 3))
    assert out == (13, 8)
    assert induced_colouring(g, out) == (8, 13)


def test_golomb_relabel_is_a_rank_function():
    g = path_power(6, 2)
    powers_of_two = (1, 2, 4, 8, 16, 32)
    powers_of_three = (3, 9, 27, 81, 243, 729)
    assert golomb_relabel(g, powers_of_two) == golomb_relabel(g, powers_of_three)


def test_relabel_pipeline_bounds_and_validity():
    cases = [
        (complete_graph(3), (2, 1, 4)),
        (path_power(4, 2), (2, 1, 4, 2)),
        (cycle_power(6, 2), (1, 2, 4, 1, 2, 4)),
        (cycle_power(7, 2), (1, 8, 4, 4, 4, 4, 2)),
        (path_power(8, 3), tuple(1 << i for i in range(8))),
    ]
    for g, labels in cases:
        out = golomb_relabel(g, distinctify(g, labels))
        assert is_gap_labelling(g, out)[0]
        p = next_prime(g.n)
        assert max(out) <= 4 * p * p
        # degree-one colours sit above every gap colour by construction
        colours = induced_colouring(g, out)
        for v in range(g.n):
            if g.degree(v) == 1:
                assert colours[v] >= 2 * p * p


def test_combination_helper_consistency():
    # every pairwise difference in a shifted ruler is a difference of marks
    marks = erdos_turan_ruler(7)
    shifted = [m + 98 for m in marks]
    diffs = {b - a for a, b in combinations(shifted, 2)}
    assert diffs == {b - a for a, b in combinations(marks, 2)}
