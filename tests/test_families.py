import pytest

from gaplab import (
    CYCLE_POWER,
    PATH_POWER,
    COMPLETE,
    DomainError,
    FamilySpec,
    build_family,
    complete_graph,
    construct_complete_labelling,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    cycle_power,
    family_labelling,
    decide,
    induced_colouring,
    is_gap_labelling,
    labelable_complete,
    labelable_cycle_power,
    labelable_path_power,
    path_power,
    refute_witness,
)


def test_complete_predicate():
    assert labelable_complete(1)
    assert labelable_complete(2)
    assert labelable_complete(3)
    assert not labelable_complete(4)
    assert not labelable_complete(7)
    with pytest.raises(ValueError):
        labelable_complete(0)


def test_path_power_predicate():
    assert labelable_path_power(3, 2)
    assert labelable_path_power(4, 2)
    assert not labelable_path_power(4, 3)
    assert labelable_path_power(8, 3)
    assert not labelable_path_power(8, 4)
    assert not labelable_path_power(6, 3)
    assert labelable_path_power(5, 2)
    for n, k in [(2, 1), (5, 1), (5, 5), (3, 1)]:
        with pytest.raises(ValueError):
            labelable_path_power(n, k)


def test_cycle_power_predicate():
    assert labelable_cycle_power(6, 2)
    assert not labelable_cycle_power(5, 2)
    assert labelable_cycle_power(7, 2)
    assert labelable_cycle_power(8, 2)
    assert not labelable_cycle_power(8, 3)
    assert labelable_cycle_power(9, 2)
    assert not labelable_cycle_power(9, 3)
    assert labelable_cycle_power(12, 3)
    for n, k in [(4, 2), (6, 3), (3, 1), (9, 1)]:
        with pytest.raises(ValueError):
            labelable_cycle_power(n, k)


def test_complete_constructions():
    assert construct_complete_labelling(2) == (2, 1)
    assert construct_complete_labelling(3) == (2, 1, 4)
    assert induced_colouring(complete_graph(2), (2, 1)) == (1, 2)
    assert induced_colouring(complete_graph(3), (2, 1, 4)) == (3, 2, 1)
    with pytest.raises(DomainError):
        construct_complete_labelling(4)


def test_path_power_constructions_small():
    assert construct_path_power_labelling(3, 2) == (2, 1, 4)
    labels = construct_path_power_labelling(4, 2)
    assert labels == (2, 1, 4, 2)
    assert induced_colouring(path_power(4, 2), labels) == (3, 2, 1, 3)


def test_path_power_construction_colour_vectors():
    g, labels = path_power(8, 3), construct_path_power_labelling(8, 3)
    assert labels == tuple(1 << i for i in range(8))
    assert induced_colouring(g, labels) == (6, 15, 31, 63, 126, 124, 120, 48)
    g, labels = path_power(9, 4), construct_path_power_labelling(9, 4)
    assert induced_colouring(g, labels) == (14, 31, 63, 127, 255, 254, 252, 248, 112)


def test_cycle_power_constructions_small():
    labels = construct_cycle_power_labelling(6, 2)
    assert labels == (1, 2, 4, 1, 2, 4)
    assert induced_colouring(cycle_power(6, 2), labels) == (2, 3, 1, 2, 3, 1)
    labels = construct_cycle_power_labelling(7, 2)
    assert labels == (1, 8, 4, 4, 4, 4, 2)
    assert induced_colouring(cycle_power(7, 2), labels) == (6, 3, 7, 4, 2, 3, 7)


def test_cycle_power_two_sided_construction():
    labels = construct_cycle_power_labelling(8, 2)
    assert labels == (1, 2, 4, 8, 256, 128, 64, 32)
    assert induced_colouring(cycle_power(8, 2), labels) == (
        62, 31, 255, 254, 124, 248, 255, 127,
    )
    labels = construct_cycle_power_labelling(9, 2)
    assert labels == (1, 2, 4, 8, 16, 512, 256, 128, 64)
    assert induced_colouring(cycle_power(9, 2), labels) == (
        126, 63, 15, 510, 508, 248, 496, 511, 255,
    )


def test_construction_domain_errors():
    with pytest.raises(DomainError):
        construct_path_power_labelling(6, 3)
    with pytest.raises(DomainError):
        construct_cycle_power_labelling(8, 3)
    with pytest.raises(ValueError):
        construct_path_power_labelling(5, 1)


def test_construction_validity_sweep():
    for n in range(3, 101):
        for k in range(2, n):
            if labelable_path_power(n, k):
                labels = construct_path_power_labelling(n, k)
                assert is_gap_labelling(path_power(n, k), labels)[0], (n, k)
    for n in range(6, 101):
        for k in range(2, (n - 1) // 2 + 1):
            if 2 * k >= n:
                continue
            if labelable_cycle_power(n, k):
                labels = construct_cycle_power_labelling(n, k)
                assert is_gap_labelling(cycle_power(n, k), labels)[0], (n, k)


def test_construction_validity_large_orders():
    for n, k in [(200, 2), (200, 50), (199, 49), (150, 37)]:
        assert is_gap_labelling(
            path_power(n, k), construct_path_power_labelling(n, k)
        )[0]
        assert is_gap_labelling(
            cycle_power(n, k), construct_cycle_power_labelling(n, k)
        )[0]


def test_path_power_construction_colours_all_distinct():
    for n, k in [(5, 2), (8, 3), (9, 4), (20, 7), (41, 20)]:
        colours = induced_colouring(
            path_power(n, k), construct_path_power_labelling(n, k)
        )
        assert len(set(colours)) == n, (n, k)


def evidence_is_sound(spec, evidence):
    g = build_family(spec)
    nbrs = [set(g.adjacency[v]) for v in range(g.n)]
    assert evidence.covers_all_placements()
    for (a, b), (u, w) in evidence.pairs.items():
        assert a != b and u != w
        assert u not in (a, b) and w not in (a, b)
        assert w in nbrs[u]
        assert {a, b} <= nbrs[u] and {a, b} <= nbrs[w]


def test_refutation_evidence_complete_graph():
    spec = FamilySpec(COMPLETE, 4)
    evidence = refute_witness(spec)
    assert len(evidence.pairs) == 12
    evidence_is_sound(spec, evidence)
    evidence_is_sound(FamilySpec(COMPLETE, 7), refute_witness(FamilySpec(COMPLETE, 7)))


def test_refutation_evidence_path_and_cycle_powers():
    for spec in (
        FamilySpec(PATH_POWER, 5, 3),
        FamilySpec(PATH_POWER, 6, 3),
        FamilySpec(PATH_POWER, 8, 5),
        FamilySpec(CYCLE_POWER, 8, 3),
        FamilySpec(CYCLE_POWER, 9, 3),
        FamilySpec(CYCLE_POWER, 13, 4),
    ):
        evidence_is_sound(spec, refute_witness(spec))


def test_refutation_refuses_labelable_specs():
    with pytest.raises(DomainError):
        refute_witness(FamilySpec(COMPLETE, 3))
    with pytest.raises(DomainError):
        refute_witness(FamilySpec(CYCLE_POWER, 8, 2))


def test_predicates_agree_with_search_small():
    for n in range(3, 10):
        for k in range(2, n):
            assert labelable_path_power(n, k) == decide(path_power(n, k)).labelable
    for n in range(5, 10):
        for k in range(2, (n + 1) // 2):
            if 2 * k >= n:
                continue
            assert labelable_cycle_power(n, k) == decide(cycle_power(n, k)).labelable


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("grid", 4)
    with pytest.raises(ValueError):
        FamilySpec(PATH_POWER, 4)
    assert build_family(FamilySpec(COMPLETE, 4)) == complete_graph(4)


def test_table_dispatches_each_family_to_its_own_functions():
    assert build_family(FamilySpec(PATH_POWER, 8, 3)) == path_power(8, 3)
    assert build_family(FamilySpec(CYCLE_POWER, 9, 2)) == cycle_power(9, 2)
    assert family_labelling(FamilySpec(COMPLETE, 3)) == construct_complete_labelling(3)
    assert family_labelling(FamilySpec(PATH_POWER, 8, 3)) == construct_path_power_labelling(8, 3)
    assert family_labelling(FamilySpec(CYCLE_POWER, 9, 2)) == construct_cycle_power_labelling(9, 2)
    with pytest.raises(DomainError):
        family_labelling(FamilySpec(CYCLE_POWER, 8, 3))
    # The constants are the CLI's --family spellings.
    assert (COMPLETE, PATH_POWER, CYCLE_POWER) == ("complete", "path-power", "cycle-power")
