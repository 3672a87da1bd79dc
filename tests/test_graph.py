import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gaplab import graph as graph_module
from gaplab import (
    Graph,
    MissingEdgeError,
    ParseError,
    complete_graph,
    construct_upper,
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
    assert path_power(4, 3) == complete_graph(4)


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
    with pytest.raises(ValueError, match="n >= 2"):
        path_power(1, 1)


def test_sliced_builders_equal_their_defining_pair_filters():
    # The rows are slices of one tuple(range(n)); the oracle builds each
    # graph from its definition through the validating constructor.
    for n in range(1, 41):
        pairs = list(combinations(range(n), 2))
        assert complete_graph(n) == graph_from_edges(n, pairs), n
        for k in range(1, n):
            expected = graph_from_edges(n, [(u, v) for u, v in pairs if v - u <= k])
            assert path_power(n, k) == expected, (n, k)


def test_cycle_power_edges():
    assert cycle_power(5, 2) == complete_graph(5)
    assert cycle_power(6, 1).edge_count == 6
    assert cycle_power(8, 2).edge_count == 16


def test_cycle_power_regularity():
    for n in range(5, 14):
        for k in range(1, (n - 1) // 2 + 1):
            g = cycle_power(n, k)
            assert g.edge_count == n * k
            assert all(g.degree(v) == 2 * k for v in range(n))


def test_cycle_power_matches_its_definition():
    # k >= n/2 reaches every vertex, so those powers are K_n.
    for n in range(3, 41):
        for k in range(1, n + 3):
            expected = [
                (u, v) for u, v in combinations(range(n), 2) if min(v - u, n - (v - u)) <= k
            ]
            assert cycle_power(n, k) == graph_from_edges(n, expected), (n, k)
            if 2 * k >= n:
                assert cycle_power(n, k) == complete_graph(n)


def _pair_set_cycle_power(n, k):
    """The earlier builder: C_n^k from its set of normalised pairs, each
    appended to the rows of both its ends, and each row then sorted."""
    nbrs = [[] for _ in range(n)]
    for u, v in {
        (u, u + d) if u + d < n else (u + d - n, u)
        for d in range(1, min(k, n // 2) + 1)
        for u in range(n)
    }:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in nbrs))


def test_cycle_power_rows_equal_the_pair_set_builder():
    for n in range(3, 41):
        for k in range(1, n + 2):
            assert cycle_power(n, k) == _pair_set_cycle_power(n, k), (n, k)
    g = cycle_power(6000, 5)
    assert g == _pair_set_cycle_power(6000, 5)
    # The digest of `gen --family cycle-power --n 6000 --k 5`, taken from the
    # pair-set builder; CI pins the same file.
    assert hashlib.sha256(serialize_graph(g).encode()).hexdigest() == (
        "fc78e9ddc4e4f72b82c6a137025d63491f588bcc02b3b02c9e29ea1cfe05526b"
    )


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
    assert str(exc.value) == "edge (0, 1) is not present in the graph"
    with pytest.raises(ValueError):
        remove_edges(k4, [(0, 1), (1, 0)])


def test_k6_minus_perfect_matching_is_squared_hexagon():
    g = remove_edges(complete_graph(6), [(0, 3), (1, 4), (2, 5)])
    assert g == cycle_power(6, 2)


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
        # Every field and separator of the written layout, but a space in the wrong place.
        ("3 \n1 0\n1", "line 1: expected header 'n m'", 1),
        ("4 2\n0 \n1 2\n3", "line 2: expected edge line 'u v'", 2),
    ],
)
def test_parse_graph_error_messages(text, message, line_no):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message
    assert exc.value.line_no == line_no


def test_non_ascii_text_goes_to_the_line_loop():
    # A lone surrogate cannot be encoded, so the whole-text path must not try.
    assert parse_graph("# \ud800\n2 1\n0 1\n") == complete_graph(2)
    with pytest.raises(ParseError) as exc:
        parse_graph("2 1\n0 1\n\ud800")
    assert exc.value.line_no == 3


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


def test_graph_from_edges_rejects_no_vertices_and_a_first_endpoint_out_of_range():
    for n in (0, -1):
        with pytest.raises(ValueError, match="vertex count must be positive"):
            graph_from_edges(n, [])
    # Without the check on u, (-1, 1) would be read as (2, 1) by row index.
    for edge in ((-1, 1), (3, 1)):
        with pytest.raises(ValueError, match="out of range for n=3"):
            graph_from_edges(3, [edge])


def test_is_connected():
    assert is_connected(complete_graph(4))
    assert is_connected(complete_graph(1))
    assert not is_connected(graph_from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(graph_from_edges(3, [(0, 1)]))


def test_has_edge_is_false_outside_the_vertex_range():
    g = path_power(5, 2)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    # adjacency[-1] is vertex 4's row, which holds 3: a bare index would say yes.
    assert g.has_edge(4, 3) and not g.has_edge(-1, 3) and not g.has_edge(3, -1)
    for u, v in [(0, 5), (5, 0), (5, 6), (-1, -2), (-5, 0), (0, -5), (2, 2), (10**30, 1)]:
        assert not g.has_edge(u, v), (u, v)


def _seeded_edge_lists(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        yield n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def _set_graph_from_edges(n, edges):
    """The earlier constructor, which kept every edge as a normalised pair in
    a set and raised at the first defect in input order: the oracle."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    nbrs = [[] for _ in range(n)]
    for u, v in seen:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in nbrs))


def _set_remove_edges(g, removals):
    """The earlier edge remover, which filtered every touched row against a
    set of normalised pairs: the oracle."""
    to_drop = set()
    for u, v in removals:
        e = (u, v) if u < v else (v, u)
        if not g.has_edge(*e):
            raise MissingEdgeError(e)
        if e in to_drop:
            raise ValueError(f"edge {e} listed twice for removal")
        to_drop.add(e)
    touched = {w for e in to_drop for w in e}
    return Graph(
        g.n,
        tuple(
            tuple(w for w in nbrs if ((u, w) if u < w else (w, u)) not in to_drop)
            if u in touched
            else nbrs
            for u, nbrs in enumerate(g.adjacency)
        ),
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _edge_defects(rng, n, edges):
    """One defective copy of ``edges`` per kind: a self-loop, an endpoint out
    of range, and a duplicate in each orientation."""
    bad_end = rng.choice([-1, n, n + 5])
    inside = rng.randrange(n)
    kinds = [[(inside, inside)], [rng.choice([(inside, bad_end), (bad_end, inside)])]]
    if edges:
        u, v = rng.choice(edges)
        kinds += [[(u, v)], [(v, u)]]
    return kinds


def _with(rng, items, extra):
    """``items`` with each of ``extra`` put in at a random place."""
    items = list(items)
    for item in extra:
        items.insert(rng.randint(0, len(items)), item)
    return items


def test_row_constructors_match_the_edge_set_constructors():
    # Each list is read as given and with every edge turned round.  A list
    # with one defect gets the same exception and message from both; a list
    # with several defects the same exception type, since the rows find a
    # duplicate only after every self-loop and range check.
    rng = random.Random(39)
    for n, given_edges in _seeded_edge_lists(300, 39):
        for edges in (given_edges, [(v, u) for u, v in given_edges]):
            g = graph_from_edges(n, edges)
            assert g == _set_graph_from_edges(n, edges)
            kinds = _edge_defects(rng, n, edges)
            for kind in kinds:
                bad = _with(rng, edges, kind)
                assert _outcome(graph_from_edges, n, bad) == _outcome(_set_graph_from_edges, n, bad)
            several = _with(rng, edges, [e for kind in rng.sample(kinds, 2) for e in kind])
            assert _outcome(graph_from_edges, n, several)[0] is ValueError
            assert _outcome(_set_graph_from_edges, n, several)[0] is ValueError
            removals = rng.sample(edges, rng.randint(0, len(edges)))
            assert remove_edges(g, removals) == _set_remove_edges(g, removals)
            ends = range(-1, n + 1)
            absent = [(u, v) for u in ends for v in ends if not g.has_edge(u, v)]
            kinds = [[rng.choice(absent)]]
            if removals:
                u, v = rng.choice(removals)
                kinds.append([rng.choice([(u, v), (v, u)])])
            for kind in kinds + [[e for kind in kinds for e in kind]]:
                bad = _with(rng, removals, kind)
                assert _outcome(remove_edges, g, bad) == _outcome(_set_remove_edges, g, bad)


def test_graph_from_edges_peak_memory_stays_within_three_graphs():
    # The edge set and its normalised pairs peaked at about 7.6 times the
    # graph; the rows alone peak at about twice it, lists and tuples.
    edges = list(remove_edges(complete_graph(600), construct_upper(600).removed).edges)
    tracemalloc.start()
    try:
        g = graph_from_edges(600, edges)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == len(edges)
    assert peak < 3 * retained, peak / retained


def test_derived_edges_count_equality_and_hash_match_the_stored_fields():
    for n, edges in _seeded_edge_lists(300, 17):
        g = graph_from_edges(n, edges)
        normalised = frozenset((min(e), max(e)) for e in edges)
        assert g.edges == normalised
        assert g.edge_count == len(normalised)
        # The sorted neighbour tuples the old constructor stored next to the edge set.
        nbrs = [[] for _ in range(n)]
        for u, v in normalised:
            nbrs[u].append(v)
            nbrs[v].append(u)
        assert g.adjacency == tuple(tuple(sorted(a)) for a in nbrs)
        again = graph_from_edges(n, list(reversed(edges)))
        assert again == g and hash(again) == hash(g)
        if normalised:
            fewer = remove_edges(g, [min(normalised)])
            assert fewer != g and fewer.edges == normalised - {min(normalised)}
        assert graph_from_edges(n + 1, edges) != g


def _old_serialize(g):
    return f"{g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges))


def test_serialize_graph_equals_sorted_edge_formatting_for_every_family():
    graphs = [complete_graph(n) for n in range(1, 12)]
    graphs += [path_power(n, k) for n in range(2, 14) for k in range(1, n)]
    graphs += [cycle_power(n, k) for n in range(3, 14) for k in range(1, n)]
    graphs += [remove_edges(complete_graph(7), [(0, 6), (2, 3), (1, 5)])]
    graphs += [graph_from_edges(n, edges) for n, edges in _seeded_edge_lists(100, 5)]
    # High-numbered rows without upper neighbours, down to a lone edge at
    # the top, and rows of every length in one graph.
    graphs += [graph_from_edges(n, [(v, n - 1) for v in range(n - 1)]) for n in range(2, 12)]
    graphs += [graph_from_edges(9, [(7, 8)]), graph_from_edges(9, [])]
    graphs += [remove_edges(complete_graph(300), construct_upper(300).removed)]
    for g in graphs:
        assert serialize_graph(g) == _old_serialize(g), g


def _old_parse_graph(text):
    """The line-by-line parser as it was before the whole-text path: the oracle."""
    lines = text.splitlines()
    header = None
    header_line = 0
    edges = []
    seen = set()
    n = 0
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", idx)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header values must be integers", idx) from None
            if n < 1 or m < 0:
                raise ParseError(f"bad header n={n} m={m}", idx)
            header = (n, m)
            header_line = idx
            continue
        if len(parts) != 2:
            raise ParseError("expected edge line 'u v'", idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", idx) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", idx)
        if not u < v:
            raise ParseError(f"edge must be written 'u v' with u < v, got {u} {v}", idx)
        if v >= n:
            raise ParseError(f"vertex {v} out of range for n={n}", idx)
        if u < 0:
            raise ParseError(f"vertex {u} out of range", idx)
        if (u, v) in seen:
            raise ParseError(f"duplicate edge ({u}, {v})", idx)
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise ParseError("empty graph text", 1)
    if len(edges) != header[1]:
        raise ParseError(
            f"header announced {header[1]} edges but {len(edges)} were given", header_line
        )
    edge_set = frozenset(edges)
    nbrs = [[] for _ in range(n)]
    for u, v in edge_set:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return n, edge_set, tuple(tuple(sorted(a)) for a in nbrs)


_ENDINGS = ["\n"] * 4 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
_SPACES = [" "] * 4 + ["  ", "\t", " \t", "\x1f", "\xa0"]
_TOKENS = ["+{}", "0{}", "-{}", "{}_0", "{}x", "{}.0", "\u0661", "1" + "0" * 4400]


def _random_edge_text(rng):
    n = rng.randint(1, 9)
    pool = list(combinations(range(n), 2))
    edges = rng.sample(pool, rng.randint(0, len(pool)))
    if rng.random() < 0.6:
        edges.sort()
    m = len(edges) + (rng.choice([-1, 1]) if rng.random() < 0.1 else 0)  # maybe a wrong count
    rows = [[str(n), str(m)]] + [[str(u), str(v)] for u, v in edges]
    unended = rng.random() < 0.15  # no newline after the last line
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2, 3])):
        if not rows:
            break
        roll = rng.random()
        row = rng.randrange(len(rows))
        if not rows[row]:  # a field moved away emptied this line
            continue
        if roll < 0.15 and len(rows) > 1:  # duplicate an edge line
            rows.insert(rng.randrange(1, len(rows) + 1), rows[rng.randrange(1, len(rows))])
        elif roll < 0.25 and len(rows) > 2:  # swap two edge lines out of order
            i, j = rng.sample(range(1, len(rows)), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif roll < 0.45:  # endpoint out of range, or the header or an edge swapped
            rows[row] = rows[row][:1] + [str(n + rng.randint(0, 2))] if row else rows[row][::-1]
        elif roll < 0.55:  # a line with the wrong number of fields
            if row and rng.random() < 0.5:  # a field moved to the line before
                rows[row - 1], rows[row] = rows[row - 1] + rows[row][:1], rows[row][1:]
            else:  # one field, maybe keeping its space ("u " or " v"), or three
                rows[row] = rng.choice(
                    [rows[row][:1], rows[row][:1] + [""], [""] + rows[row][1:], rows[row] + ["0"]]
                )
        elif roll < 0.62:  # fields re-paired from this line on, one left alone with its space
            rest = [field for r in rows[row:] for field in r]
            alone = [rest[0], ""] if rng.random() < 0.5 else ["", rest[0]]
            rows[row:] = [alone] + [rest[i : i + 2] for i in range(1, len(rest), 2)]
            unended = True  # so that the text has as many separators as the written layout
        elif roll < 0.7:  # an odd but maybe acceptable spelling of a number
            col = rng.randrange(len(rows[row]))
            rows[row][col] = rng.choice(_TOKENS).format(rows[row][col])
        elif roll < 0.78:  # drop the body or the whole text
            rows = rows[:1] if rng.random() < 0.5 else []
        else:  # self-loop
            rows.insert(rng.randrange(1, len(rows) + 1), ["1", "1"])
    plain = rng.random() < 0.5  # one space and "\n" throughout, as serialize_graph writes
    lines = [(" " if plain else rng.choice(_SPACES)).join(row) for row in rows]
    for _ in range(rng.choice([0, 0, 1, 2])):  # comments and blank lines anywhere
        filler = rng.choice(["# note", "#", "", "   ", "\t# indented note", "# a\rb"])
        lines.insert(rng.randrange(len(lines) + 1), filler)
    if rng.random() < 0.1:
        lines = [" " + line + " " for line in lines]
    text = "".join(line + ("\n" if plain else rng.choice(_ENDINGS)) for line in lines)
    return text[:-1] if lines and unended else text


def _fields(g):
    return g.n, g.edges, g.adjacency


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line_no


def _in_written_layout(expected, text):
    """Whether the oracle accepted text and it is byte for byte what
    serialize_graph writes for that graph.  A block reader must read such a
    text itself: the line loop behind it would give the same graph, so only
    this check sees a reader that refuses a valid block."""
    if expected[0] == "error":
        return False
    n, edges, _ = expected
    return text == serialize_graph(graph_from_edges(n, edges))


def test_parse_graph_agrees_with_the_line_by_line_oracle():
    rng = random.Random(2024)
    whole = written = 0
    for case in range(6000):
        text = _random_edge_text(rng)
        expected = _parsed(_old_parse_graph, text)
        assert _parsed(lambda t: _fields(parse_graph(t)), text) == expected, (case, text)
        g = graph_module._parse_whole(text)
        if _in_written_layout(expected, text):
            written += 1
            assert g is not None, (case, text)
        if g is not None:
            whole += 1
            assert _fields(g) == expected, (case, text)
    assert whole > 300  # the whole-text path itself was exercised
    assert written > 300  # 382 of the 6,000 texts are in the written layout


def _assert_only_the_written_text_is_read_whole(g, text, variants):
    """_parse_whole reads text, the serialize_graph text of g, and leaves
    each variant (comments, CRLF, empty lines, no final newline) to the line
    loop, which reads the same graph."""
    assert graph_module._parse_whole(text) == g
    for variant in variants:
        assert graph_module._parse_whole(variant) is None, variant
        assert parse_graph(variant) == g, variant


def test_whole_text_path_reads_what_serialize_graph_writes():
    for n, edges in _seeded_edge_lists(50, 9):
        g = graph_from_edges(n, edges)
        text = serialize_graph(g)
        header, _, body = text.partition("\n")
        variants = [
            "# note\n#\n" + text.rstrip("\n"),
            text.replace("\n", "\r\n"),
            "# note\r\n" + text.replace("\n", "\r\n", 1),
            header + "\n\n" + body,
            "# note\n\n" + text.replace("\n", "\r\n\n\n"),
        ]
        _assert_only_the_written_text_is_read_whole(g, text, variants)


def _defective_layout_text(rng):
    """A serialize_graph text of 2 to 40 lines, with at most one defect of
    _random_edge_text's kinds on a random line.  CRLF line ends, empty lines
    and a missing final newline are refused before the first block, so they
    are left to _random_edge_text."""
    n = rng.randint(2, 14)
    pool = list(combinations(range(n), 2))
    edges = sorted(rng.sample(pool, rng.randint(0, min(len(pool), 39))))
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    i = rng.randrange(len(lines))
    u, _, v = lines[i].partition(" ")
    defect = rng.randrange(11)
    if defect == 0 and i:  # a duplicate line
        lines.insert(i, lines[i])
    elif defect == 1 and 1 <= i < len(lines) - 1:  # two lines out of order
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif defect == 2:  # out of range
        lines[i] = f"{u} {n + rng.randint(0, 1)}"
    elif defect == 3:  # a missing field
        lines[i] = rng.choice([u, f"{u} ", f" {v}"])
    elif defect == 4:  # an extra field
        lines[i] += " 0"
    elif defect == 5:  # a leading zero
        lines[i] = rng.choice([f"0{u} {v}", f"{u} 0{v}"])
    elif defect == 6:  # empty digit runs that keep the layout and m
        j = rng.randrange(len(lines))
        lines[i], lines[j] = f"{u} ", " " + lines[j].partition(" ")[2]
    elif defect == 7 and i:  # a self-loop, or the ends swapped
        lines[i] = rng.choice([f"{u} {u}", f"{v} {u}"])
    elif defect == 8 and not i:  # a wrong edge count
        lines[i] = f"{n} {len(edges) + rng.choice([-1, 1])}"
    return "\n".join(lines) + "\n"


def _wrong_reader(*args):
    raise AssertionError("this block reader should not run")


def test_block_reader_agrees_with_the_oracle_at_every_cut(monkeypatch):
    # A 1-byte block ends after every line, and blocks of 3 to 23 bytes hold
    # a few lines each, so each defect lands at a cut, next to one and away
    # from one, and rows are split across cuts.
    # _LONG_ROW 0 reads every block row by row, 10**9 edge by edge; the
    # other reader is replaced by one that fails the test if it runs.
    rng = random.Random(2020)
    read = written = 0
    for case in range(700):
        text = _defective_layout_text(rng)
        expected = _parsed(_old_parse_graph, text)
        in_layout = _in_written_layout(expected, text)
        written += in_layout
        for block in range(1, 24, 2):
            monkeypatch.setattr(graph_module, "_BLOCK", block)
            for long_row, unused in ((0, "_read_edges"), (10**9, "_read_rows")):
                with monkeypatch.context() as patch:
                    patch.setattr(graph_module, "_LONG_ROW", long_row)
                    patch.setattr(graph_module, unused, _wrong_reader)
                    got = _parsed(lambda t: _fields(parse_graph(t)), text)
                    assert got == expected, (case, block, long_row, text)
                    whole = graph_module._parse_whole(text)
                    assert whole is not None or not in_layout, (case, block, long_row, text)
                    read += whole is not None
    assert read > 4000  # the block readers themselves were exercised
    assert written > 150  # 213 of the 700 texts are in the written layout


@pytest.mark.parametrize(
    "text, block",
    [
        ("2 1\n 1\n", 1 << 16),
        # Two empty runs in one block keep its token count even; cut after
        # each line, the second one starts a block.
        ("4 2\n0 \n 3\n", 1 << 16),
        ("4 3\n0 1\n1 \n 3\n", 1),
    ],
)
def test_empty_digit_runs_go_to_the_line_loop(monkeypatch, text, block):
    monkeypatch.setattr(graph_module, "_BLOCK", block)
    assert graph_module._parse_whole(text) is None
    assert _parsed(parse_graph, text) == _parsed(_old_parse_graph, text)
    assert _parsed(parse_graph, text)[0] == "error"


def test_block_reader_reads_rows_and_texts_of_many_blocks():
    k300 = remove_edges(complete_graph(300), construct_upper(300).removed)
    # Row 0 of the star, about 96 KB, is cut between two blocks of long
    # rows; K_400 without the edges (200, v), v > 200, has an empty row 200
    # inside a block of long rows; K_600 without the edge (300, 450) has one
    # row with a gap among rows that are runs.
    star = graph_from_edges(12001, [(0, v) for v in range(1, 12001)] + [(1, 12000)])
    gap = remove_edges(complete_graph(400), [(200, v) for v in range(201, 400)])
    for g in [
        k300,
        path_power(3000, 4),
        complete_graph(1),
        star,
        gap,
        remove_edges(complete_graph(600), [(300, 450)]),
    ]:
        text = serialize_graph(g)
        variants = [text.replace("\n", "\r\n"), text.replace("\n", "\n\n")[:-2]]
        _assert_only_the_written_text_is_read_whole(g, text, variants)
    # Row 0 of K_300 minus the removals is the run 1..299, in a block of long
    # rows.  A leading zero inside it fails the run comparison and leaves the
    # text to the line loop, which reads the same graph.  149 in place of 150
    # keeps the row's line count and last line, so only the comparison tells
    # it from a run; the split path then refuses the repeated 149.
    text = serialize_graph(k300)
    assert "\n0 149\n0 150\n0 151\n" in text
    _assert_only_the_written_text_is_read_whole(
        k300, text, [text.replace("\n0 150\n", "\n0 0150\n")]
    )
    repeated = text.replace("\n0 150\n", "\n0 149\n")
    assert graph_module._parse_whole(repeated) is None
    with pytest.raises(ParseError, match=r"duplicate edge \(0, 149\)"):
        parse_graph(repeated)


def test_parse_graph_peak_memory_stays_within_four_graphs():
    # Reading a whole text at once held every token, endpoint and sort key
    # together: 7.2 and 4.3 times the graph on these two.  The CRLF copies
    # go through the line loop, which held its lines, an edge list and a set
    # of the same edges together: 6.1 and 4.2 times the graph.
    dense = remove_edges(complete_graph(600), construct_upper(600).removed)
    for g in (dense, path_power(20000, 4)):
        written = serialize_graph(g)
        for text in (written, written.replace("\n", "\r\n")):
            tracemalloc.start()
            try:
                parsed = parse_graph(text)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert parsed == g
            assert peak <= 4 * retained, (g, text is written, peak / retained)
            if text is written:
                # The block reader shares one int object per vertex among
                # every list that holds it; the line loop's graph holds one
                # per endpoint.
                assert len({id(x) for row in parsed.adjacency for x in row}) == g.n
