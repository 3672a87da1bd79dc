import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from gaplab import labelling as labelling_module
from gaplab import (
    ParseError,
    UnsupportedInputError,
    complete_graph,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    construct_upper,
    graph_from_edges,
    induced_colouring,
    is_gap_labelling,
    parse_labelling,
    path_power,
    serialize_labelling,
    validate_labelling,
)


def star(leaves: int):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_triangle_colours():
    assert induced_colouring(complete_graph(3), (2, 1, 4)) == (3, 2, 1)


def test_single_edge_colours_are_partner_labels():
    assert induced_colouring(complete_graph(2), (2, 1)) == (1, 2)


def test_star_centre_gets_zero_when_leaves_agree():
    g = star(3)
    assert induced_colouring(g, (5, 1, 1, 1)) == (0, 5, 5, 5)
    ok, _ = is_gap_labelling(g, (5, 1, 1, 1))
    assert ok


def test_triangle_consecutive_labels_conflict():
    ok, conflicts = is_gap_labelling(complete_graph(3), (1, 2, 3))
    assert not ok
    assert conflicts == ((0, 2),)


def test_squared_path_fixture():
    g = path_power(4, 2)
    assert induced_colouring(g, (2, 1, 4, 2)) == (3, 2, 1, 3)
    assert is_gap_labelling(g, (2, 1, 4, 2)) == (True, ())


def test_report_lists_every_conflict():
    assert is_gap_labelling(complete_graph(4), (1, 2, 3, 4)) == (False, ((0, 3), (1, 2)))


def test_report_lists_many_conflicts_in_edge_order():
    import random

    rng = random.Random(2020)
    n = 60
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    edges |= {(i, i + 1) for i in range(n - 1)}
    g = graph_from_edges(n, edges)
    labels = [rng.randint(1, 3) for _ in range(n)]  # gaps 0..2, so colours clash often
    colours = induced_colouring(g, labels)
    expected = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) in edges and colours[u] == colours[v]
    )
    assert len(expected) > 100
    ok, conflicts = is_gap_labelling(g, labels)
    assert not ok
    assert conflicts == expected


def test_length_and_positivity_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        induced_colouring(g, (1, 2))
    with pytest.raises(ValueError):
        induced_colouring(g, (1, 0, 2))


def test_isolated_vertices_unsupported():
    with pytest.raises(UnsupportedInputError):
        induced_colouring(graph_from_edges(3, [(0, 1)]), (1, 2, 3))
    with pytest.raises(UnsupportedInputError, match="colouring needs at least two vertices"):
        induced_colouring(complete_graph(1), (1,))


def test_validate_labelling_returns_a_tuple():
    labels = validate_labelling(complete_graph(3), [2, 1, 4])
    assert type(labels) is tuple and labels == (2, 1, 4)


def test_colours_huge_labels():
    g = path_power(70, 2)
    labels = tuple(1 << i for i in range(70))
    colours = induced_colouring(g, labels)
    assert colours[2] == (1 << 4) - 1  # 2^4 - 2^0


@st.composite
def graph_and_labels(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = list(combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    # a path backbone keeps every vertex non-isolated
    backbone = [(i, i + 1) for i in range(n - 1)]
    edges = set(backbone) | set(extra)
    labels = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    return graph_from_edges(n, edges), tuple(labels)


@given(graph_and_labels(), st.integers(2, 9))
def test_scaling_multiplies_gap_colours(case, factor):
    g, labels = case
    base = induced_colouring(g, labels)
    scaled = induced_colouring(g, tuple(factor * x for x in labels))
    for v in range(g.n):
        if g.degree(v) >= 2:
            assert scaled[v] == factor * base[v]


@given(graph_and_labels(), st.integers(1, 40))
def test_shifting_preserves_gap_colours(case, shift):
    g, labels = case
    base = induced_colouring(g, labels)
    shifted = induced_colouring(g, tuple(x + shift for x in labels))
    for v in range(g.n):
        if g.degree(v) >= 2:
            assert shifted[v] == base[v]


def test_colour_depends_only_on_neighbour_labels():
    g = path_power(5, 1)
    a = induced_colouring(g, (3, 1, 4, 1, 5))
    b = induced_colouring(g, (3, 1, 4, 1, 9))  # vertex 4 is not near vertex 1
    assert a[1] == b[1]


def test_both_extremes_in_two_neighbourhoods_forces_equal_colours():
    import random

    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(4, 8)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
        edges |= {(i, i + 1) for i in range(n - 1)}
        g = graph_from_edges(n, edges)
        labels = rng.sample(range(1, 200), n)
        colours = induced_colouring(g, labels)
        top = labels.index(max(labels))
        bottom = labels.index(min(labels))
        spread = max(labels) - min(labels)
        for v in range(n):
            if v in (top, bottom):
                continue
            nbrs = set(g.adjacency[v])
            if top in nbrs and bottom in nbrs:
                assert colours[v] == spread


def test_parse_labelling_line_form():
    assert parse_labelling("0 2\n1 1\n2 4\n") == (2, 1, 4)
    assert parse_labelling("2 4\n0 2\n1 1\n") == (2, 1, 4)


def test_parse_labelling_comma_form():
    assert parse_labelling("2, 1, 4\n") == (2, 1, 4)
    with pytest.raises(ParseError, match="line 2: comma form must contain integers only"):
        parse_labelling("# one line\n2, x, 4\n")


def test_parse_labelling_skips_blank_and_comment_lines_between_labels():
    assert parse_labelling("0 2\n\n  \n# note\n1 1\n  # indented\n2 4\n") == (2, 1, 4)


def test_parse_labelling_reads_a_comma_on_the_first_of_many_lines_as_the_line_format():
    with pytest.raises(ParseError, match="line 1: expected 'vertex label'"):
        parse_labelling("2,1\n1 1\n")


@pytest.mark.parametrize(
    "text",
    ["", "0 1\n0 2\n", "0 1\n2 4\n", "0 one\n", "0 1 2\n"],
)
def test_parse_labelling_errors(text):
    with pytest.raises(ParseError):
        parse_labelling(text)


def test_parse_labelling_converts_a_run_of_equal_labels_once(monkeypatch):
    big = 1 << 90
    labels = parse_labelling(f"0 {big}\n1 {big}\n2 {big}\n3 7\n4 {big}\n")
    assert labels == (big, big, big, 7, big)
    assert labels[0] is labels[1] is labels[2]
    assert labelling_module._CHAIN_FLOOR == _FLOOR
    oracle = labelling_module._int
    calls = []

    def counted(token):
        calls.append(token)
        return oracle(token)

    for values in (
        construct_upper(300).labelling,
        construct_path_power_labelling(1100, 2),  # 2^1025..2^1099 continue a chain
        construct_cycle_power_labelling(2400, 5),  # rises to 2^1199, then falls from 2^2400
        (1 << 1100, 1 << 1100, 1 << 1101, 5, 1 << 1101, 1 << 1102, 1 << 1100),
        (3 << 1100, 3 << 1101, 3 << 1100),  # doubling, but no power of two
    ):
        text = serialize_labelling(values)
        monkeypatch.setattr(labelling_module, "_int", counted)
        calls.clear()
        assert parse_labelling(text) == values
        monkeypatch.undo()
        # One conversion per vertex number and one per run of equal labels
        # that does not continue a chain.
        assert len(calls) == len(values) + _conversions(values), values[:3]


def test_serialize_round_trip():
    labels = (2, 1, 4, 1 << 80)
    assert parse_labelling(serialize_labelling(labels)) == labels


_FLOOR = 1 << 1024  # where labelling._power_steps says chains of powers start


def _conversions(values):
    """The runs of equal values that do not continue a chain.

    A run continues a chain when the run before it is a power of two of at
    least _FLOOR and the run's value is twice or half of that power.
    """
    count = 0
    for i, x in enumerate(values):
        before = values[i - 1] if i else None
        if i and x == before:
            continue
        power = i > 0 and before >= _FLOOR and bin(before).count("1") == 1
        count += not (power and x in (2 * before, before // 2))
    return count


def test_serialize_labelling_converts_once_per_run_and_equals_the_per_value_oracle(monkeypatch):
    big = 2**14299  # 4,305 digits, past the default int <-> str digit limit
    f = 1024  # the exponent of _FLOOR
    cases = [
        (),
        (5,),
        (7, 7, 7, 7),
        (1, 1, 2, 2, 2, 1, 1, 1 << 90, 1 << 90, 3),
        (4, 4, 9, 4, 4, 9, 9, 4),  # equal and unequal neighbours alternating
        (0, 0, 3, 0, 3, 3, 0),  # a colouring, with colour 0
        (1, big, big, big, 2, big, big),
        construct_upper(300).labelling,
        # Chains across the floor, both ways: 2^1024 starts one, and its
        # half is the last step of a falling one.
        tuple(1 << e for e in range(f - 3, f + 40)),
        tuple(1 << e for e in range(f + 40, f - 4, -1)),
        # Runs of equal values inside a chain, and chains broken by a jump,
        # by a value that is not a power of two and by a negative power.
        tuple(1 << e for e in (f + 300, f + 300, f + 301, f + 300, f + 300, f + 302, f + 303)),
        (1 << 2000, 1 << 2001, 3 << 2001, 1 << 2003, 1 << 2004, -(1 << 2005), 1 << 2004),
        (big, big << 1, big << 1, big << 2, big, big >> 1, big >> 2),
        (3 << 2000, 3 << 2001, 3 << 2000),  # doubling and halving, but no power of two
    ]
    oracle = labelling_module._str
    calls = []

    def counted(value):
        calls.append(value)
        return oracle(value)

    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        if limit is not None:
            with pytest.raises(ValueError):
                str(big)  # so the reused string comes from Decimal
        for values in cases:
            expected = "".join(f"{v} {oracle(x)}\n" for v, x in enumerate(values))
            monkeypatch.setattr(labelling_module, "_str", counted)
            calls.clear()
            text = serialize_labelling(values)
            monkeypatch.undo()
            assert text == expected, values[:10]
            assert len(calls) == _conversions(values), values[:10]
            if values:
                assert parse_labelling(text) == values
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert [_conversions(values) for values in cases[-6:]] == [4, 3, 2, 5, 2, 3]


def _power_walk(rng, length):
    """Mostly powers of two whose exponent steps by -1, 0 or +1 around the
    chain floor, with jumps, near powers and small values mixed in."""
    e = rng.randint(1000, 1100)
    values = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.75:
            e = max(0, e + rng.choice((-1, 0, 1, 1)))
            values.append(1 << e)
        elif roll < 0.85:
            e = rng.randint(0, 3000)
            values.append(1 << e)
        else:
            values.append((1 << e) + rng.choice((-1, 1, 1 << rng.randrange(e + 1))))
    return tuple(values)


def _first_difference(got, expected):
    """None if got == expected, else the first index where they differ.

    A cheap failure message for texts of megabytes and tuples of thousands
    of huge ints, which pytest's own diff takes minutes to show.
    """
    if got == expected:
        return None
    pairs = enumerate(zip(got, expected))
    return next((i for i, (a, b) in pairs if a != b), min(len(got), len(expected)))


def test_chains_of_powers_equal_the_per_value_oracle_and_round_trip():
    oracle = labelling_module._str
    rng = random.Random(36)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)  # 2^15000 has 4,516 digits
    try:
        # Every power of two up to 2^15000, rising and falling: one oracle
        # text per value, taken once for both.
        texts = [oracle(1 << e) for e in range(15001)]
        powers = [1 << e for e in range(15001)]
        for values, value_texts in ((powers, texts), (powers[::-1], texts[::-1])):
            text = "".join(f"{v} {t}\n" for v, t in enumerate(value_texts))
            assert _first_difference(serialize_labelling(values), text) is None
            assert _first_difference(parse_labelling(text), tuple(values)) is None
        cases = [
            construct_path_power_labelling(5000, 4),
            construct_cycle_power_labelling(6000, 5),
            construct_upper(300).labelling,
            tuple(rng.getrandbits(rng.randint(1, 20000)) + 1 for _ in range(300)),
        ] + [_power_walk(rng, 150) for _ in range(40)]
        for values in cases:
            text = serialize_labelling(values)
            expected = "".join(f"{v} {oracle(x)}\n" for v, x in enumerate(values))
            assert _first_difference(text, expected) is None, len(values)
            assert _first_difference(parse_labelling(text), values) is None, len(values)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _read_by_int(text):
    """The outcome of the line form read with _int on every token."""
    labels = []
    for idx, line in enumerate(text.splitlines(), start=1):
        try:
            labels.append(labelling_module._int(line.split()[1]))
        except ValueError:
            return "error", f"line {idx}: vertex and label must be integers", idx
    return tuple(labels)


def _parse_outcome(text):
    try:
        return parse_labelling(text)
    except ParseError as exc:
        return "error", str(exc), exc.line_no


def test_tokens_near_the_next_power_read_as_int_reads_them():
    e = 1200
    for before, power in ((1 << (e - 1), 1 << e), (1 << (e + 1), 1 << e)):  # doubling, halving
        p = str(power)
        near = [
            p,
            "0" + p,
            "+" + p,
            "-" + p,
            p[:3] + "_" + p[3:],
            str(power + 1),
            str(power - 1),
            str(power * 10),
            p[:-1],
            p + "x",
            p[:3] + "__" + p[3:],
            "_" + p,
            p + "_",
            "++" + p,
            "\u0661" + p,  # an Arabic-Indic digit one, which int() reads
        ]
        for i in (0, 1, len(p) // 2, len(p) - 1):  # one digit changed
            near.append(p[:i] + str((int(p[i]) + 1) % 10) + p[i + 1 :])
        for token in near:
            # The line after the near miss continues the chain from the
            # value the near miss reads as, when it reads as a power.
            text = f"0 {before}\n1 {token}\n2 {power << 1}\n"
            assert _parse_outcome(text) == _read_by_int(text), token[:12]


def test_verify_by_colour_class_equals_a_scan_of_every_edge():
    rng = random.Random(8)
    for case in range(300):
        n = rng.randint(2, 14)
        pool = list(combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(1, len(pool)))
        g = graph_from_edges(n, edges + [(v - 1, v) for v in range(1, n) if (v - 1, v) not in edges])
        for labels in ([1] * n, [rng.randint(1, 3) for _ in range(n)], [rng.randint(1, 4 * n) for _ in range(n)]):
            colours = induced_colouring(g, labels)
            scan = tuple(sorted((u, v) for u, v in g.edges if colours[u] == colours[v]))
            ok, conflicts = is_gap_labelling(g, labels)
            assert conflicts == scan and ok == (not scan), (case, labels)


def _colouring_by_neighbour_scan(g, labels):
    """The induced colouring read from every neighbour label of every vertex."""
    labels = validate_labelling(g, labels)
    if g.n < 2:
        raise UnsupportedInputError("colouring needs at least two vertices")
    colours = []
    for v, nbrs in enumerate(g.adjacency):
        if not nbrs:
            raise UnsupportedInputError(f"vertex {v} is isolated")
        values = [labels[w] for w in nbrs]
        colours.append(values[0] if len(nbrs) == 1 else max(values) - min(values))
    return tuple(colours)


def _conflicts_by_intersecting_every_member(g, labels):
    """(ok, conflicts) from intersecting each class member's neighbours."""
    colours = _colouring_by_neighbour_scan(g, labels)
    classes = {}
    for v, c in enumerate(colours):
        classes.setdefault(c, []).append(v)
    conflicts = []
    for members in classes.values():
        same = set(members)
        for u in members:
            conflicts.extend((u, w) for w in same.intersection(g.adjacency[u]) if u < w)
    return not conflicts, tuple(sorted(conflicts))


def _outcome(fn, g, labels):
    try:
        return fn(g, labels)
    except (ValueError, UnsupportedInputError) as exc:
        return type(exc), str(exc)


def test_label_order_walks_and_class_probes_equal_the_neighbour_scan():
    rng = random.Random(11)
    isolated = probed = intersected = 0
    for n in range(2, 61):
        for p in (0.05, 0.2, 0.5, 0.8, 0.98):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            graphs = [graph_from_edges(n, edges)]
            # Give each isolated vertex one random partner, so that both ends
            # of such an edge may have degree one.
            ends = {v for e in edges for v in e}
            lonely = [v for v in range(n) if v not in ends]
            if lonely:
                isolated += 1
                extra = {tuple(sorted((v, rng.choice([w for w in range(n) if w != v])))) for v in lonely}
                graphs.append(graph_from_edges(n, set(edges) | extra))
            for g in graphs:
                for labels in (
                    [1] * n,
                    [rng.randint(1, 3) for _ in range(n)],
                    rng.sample(range(1, 4 * n + 1), n),
                    [1 << (3000 + rng.randrange(n)) for _ in range(n)],
                ):
                    colours = _outcome(induced_colouring, g, labels)
                    assert colours == _outcome(_colouring_by_neighbour_scan, g, labels), (n, p, labels)
                    verdict = _outcome(is_gap_labelling, g, labels)
                    assert verdict == _outcome(_conflicts_by_intersecting_every_member, g, labels)
                    if isinstance(verdict[0], bool):
                        sizes = Counter(colours)
                        for v in range(n):
                            if sizes[colours[v]] > 1:
                                if sizes[colours[v]] < g.degree(v):
                                    probed += 1
                                else:
                                    intersected += 1
    assert isolated > 50 and probed > 5000 and intersected > 10000


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str digit limit here"
)
def test_labels_past_the_digit_limit_round_trip_and_leave_the_limit_alone(monkeypatch):
    limit = sys.get_int_max_str_digits()
    set_limit = sys.set_int_max_str_digits
    set_limit(640)

    def global_to_the_interpreter(_):
        raise AssertionError("the digit limit is shared by every thread")

    monkeypatch.setattr(sys, "set_int_max_str_digits", global_to_the_interpreter)
    try:
        labels = (1, 2**14299, 3)
        text = serialize_labelling(labels)
        assert parse_labelling(text) == labels
        big = text.splitlines()[1].split()[1]
        assert len(big) == 4305
        assert parse_labelling(f"1, {big}, 3") == labels
        assert parse_labelling(f"0 +{big}\n1 {big[:9]}_{big[9:]}\n") == labels[1:2] * 2
        assert parse_labelling(f"-{big}, 2") == (-labels[1], 2)
        # Past the limit, tokens int() would refuse are still refused.
        for bad in ("1.0", "e3", "__1", "_", "+-1", "x"):
            texts = [f"0 {big}{bad}\n", f"{big}{bad}, 1", f"0 {big[:9]}{bad * 2}{big[9:]}\n"]
            for text in texts:
                with pytest.raises(ParseError):
                    parse_labelling(text)
        with pytest.raises(ValueError, match=f"got -{big}$"):
            induced_colouring(path_power(3, 1), (1, -labels[1], 2))
        assert sys.get_int_max_str_digits() == 640
    finally:
        monkeypatch.undo()
        set_limit(limit)
