from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gaplab import (
    MissingEdgeError,
    ParseError,
    are_isomorphic,
    complete_graph,
    cycle_power,
    graph_from_edges,
    is_connected,
    parse_graph,
    path_power,
    remove_edges,
    serialize_graph,
)


def test_complete_graph_edge_counts():
    assert complete_graph(1).edge_count == 0
    k3 = complete_graph(3)
    assert k3.edge_count == 3
    assert all(k3.has_edge(u, v) for u, v in combinations(range(3), 2))
    assert complete_graph(5).edge_count == 10


def test_complete_graph_rejects_zero():
    with pytest.raises(ValueError):
        complete_graph(0)


def test_path_power_edges():
    assert path_power(6, 3).edge_count == 12
    assert path_power(7, 1).edge_count == 6
    assert are_isomorphic(path_power(4, 3), complete_graph(4))


def test_path_power_edge_rule():
    g = path_power(7, 2)
    for u in range(7):
        for v in range(u + 1, 7):
            assert g.has_edge(u, v) == (v - u <= 2)


def test_path_power_degree_formula():
    for n in range(2, 12):
        for k in range(1, n):
            g = path_power(n, k)
            for v in range(n):
                assert g.degree(v) == min(v, k) + min(n - 1 - v, k)


def test_path_power_argument_errors():
    with pytest.raises(ValueError):
        path_power(5, 0)
    with pytest.raises(ValueError):
        path_power(5, 5)
    with pytest.raises(ValueError):
        path_power(1, 1)


def test_cycle_power_edges():
    assert are_isomorphic(cycle_power(5, 2), complete_graph(5))
    assert cycle_power(6, 1).edge_count == 6
    assert cycle_power(8, 2).edge_count == 16


def test_cycle_power_regularity():
    for n in range(5, 14):
        for k in range(1, (n - 1) // 2 + 1):
            g = cycle_power(n, k)
            assert g.edge_count == n * k
            assert all(g.degree(v) == 2 * k for v in range(n))


def test_cycle_power_argument_errors():
    with pytest.raises(ValueError):
        cycle_power(2, 1)
    with pytest.raises(ValueError):
        cycle_power(5, 0)


def test_remove_edges_basic():
    k4 = complete_graph(4)
    g = remove_edges(k4, [(1, 2)])
    assert g.edge_count == 5
    assert not g.has_edge(1, 2)
    assert k4.edge_count == 6  # input untouched
    assert g.n == k4.n


def test_remove_edges_identity_and_errors():
    k4 = complete_graph(4)
    assert remove_edges(k4, []) == k4
    with pytest.raises(MissingEdgeError) as exc:
        remove_edges(remove_edges(k4, [(0, 1)]), [(1, 0)])
    assert exc.value.pair == (0, 1)
    with pytest.raises(ValueError):
        remove_edges(k4, [(0, 1), (1, 0)])


def test_k6_minus_perfect_matching_is_squared_hexagon():
    g = remove_edges(complete_graph(6), [(0, 3), (1, 4), (2, 5)])
    assert are_isomorphic(g, cycle_power(6, 2))


def test_parse_graph_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
    assert g == complete_graph(3)
    assert parse_graph("2 1\n0 1\n") == complete_graph(2)


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# a note\n\n3 1\n\n0 2\n")
    assert g.n == 3 and g.edges == frozenset({(0, 2)})


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("3\n0 1\n", 1),
        ("x y\n", 1),
        ("3 1\n0\n", 2),
        ("3 1\n0 one\n", 2),
        ("3 1\n1 1\n", 2),
        ("3 1\n2 1\n", 2),
        ("3 1\n0 3\n", 2),
        ("3 2\n0 1\n0 1\n", 3),
        ("3 2\n0 1\n", 1),
    ],
)
def test_parse_graph_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.line_no == bad_line


# One case or more per raise site of parse_graph, with the exact message.
@pytest.mark.parametrize(
    "text, message, line_no",
    [
        ("3\n0 1\n", "line 1: expected header 'n m'", 1),
        ("x y\n", "line 1: header values must be integers", 1),
        ("0 0\n", "line 1: bad header n=0 m=0", 1),
        ("3 -1\n", "line 1: bad header n=3 m=-1", 1),
        ("3 1\n0\n", "line 2: expected edge line 'u v'", 2),
        ("3 1\n0 1 2\n", "line 2: expected edge line 'u v'", 2),
        ("3 1\n0 one\n", "line 2: edge endpoints must be integers", 2),
        ("3 1\n1 1\n", "line 2: self-loop at vertex 1", 2),
        ("3 1\n2 1\n", "line 2: edge must be written 'u v' with u < v, got 2 1", 2),
        ("3 1\n0 3\n", "line 2: vertex 3 out of range for n=3", 2),
        ("3 1\n-1 2\n", "line 2: vertex -1 out of range", 2),
        ("3 2\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)", 3),
        ("", "line 1: empty graph text", 1),
        ("# only a note\n\n", "line 1: empty graph text", 1),
        ("3 2\n0 1\n", "line 1: header announced 2 edges but 1 were given", 1),
        ("# note\n\n3 2\n0 1\n", "line 3: header announced 2 edges but 1 were given", 3),
    ],
)
def test_parse_graph_error_messages(text, message, line_no):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message
    assert exc.value.line_no == line_no


def test_serialize_graph_is_sorted_and_round_trips():
    g = graph_from_edges(4, [(2, 3), (0, 1), (0, 3)])
    text = serialize_graph(g)
    assert text == "4 3\n0 1\n0 3\n2 3\n"
    assert parse_graph(text) == g


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return graph_from_edges(n, edges)


@given(graphs())
def test_parse_serialize_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


def test_graph_from_edges_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])


def test_is_connected():
    assert is_connected(complete_graph(4))
    assert is_connected(complete_graph(1))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(graph_from_edges(3, [(0, 1)]))
