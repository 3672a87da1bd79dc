"""The gap-induced colouring and verification of gap vertex labellings.

A labelling assigns a positive integer to every vertex.  The induced colour
of a vertex with two or more neighbours is the largest difference ("gap")
between the labels of its neighbours; a vertex with exactly one neighbour is
coloured with that neighbour's label.  The labelling is a gap labelling when
the induced colouring is proper, i.e. no edge joins two equally coloured
vertices.

The colouring never reads a whole neighbourhood: it sorts the vertices by
label once and walks that order from the top and from the bottom, and the
first walked neighbour of a vertex holds its largest (smallest) neighbour
label.  A walk reads every adjacency entry at most once and on dense graphs
stops after a few vertices.  The check then compares only vertices of one
colour, probing each colour class from its smaller side.

Labels and colours are plain Python integers, so constructions that assign
labels up to 2**(n-1) work unchanged for any n; the text I/O below reads and
writes them past the interpreter's int <-> str digit limit without changing
that limit.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import ParseError, UnsupportedInputError
from .graph import Edge, Graph

Labelling = tuple[int, ...]
Colouring = tuple[int, ...]


def validate_labelling(g: Graph, labels) -> Labelling:
    labels = tuple(labels)
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for a graph on {g.n} vertices")
    for v, lab in enumerate(labels):
        if lab < 1:
            raise ValueError(f"label of vertex {v} must be a positive integer, got {_str(lab)}")
    return labels


def induced_colouring(g: Graph, labels) -> Colouring:
    """Colour every vertex by the gap rule.

    The colours come from two walks over the vertices in label order.  The
    walk from the top finds each vertex's first neighbour in that order,
    which holds its largest neighbour label: one set intersection per walked
    vertex w marks every still-unmarked neighbour of w, and the walk stops
    once every vertex is marked.  The walk from the bottom finds the
    smallest neighbour label the same way.  The cost is one sort, then at
    most one read of every adjacency entry per walk; on dense graphs a few
    walked vertices mark everyone.

    Raises UnsupportedInputError when the graph has an isolated vertex (the
    gap of an empty neighbourhood is undefined; single vertices and graphs
    with isolated vertices are out of scope).
    """
    labels = validate_labelling(g, labels)
    if g.n < 2:
        raise UnsupportedInputError("colouring needs at least two vertices")
    adjacency = g.adjacency
    if not all(adjacency):
        isolated = next(v for v, nbrs in enumerate(adjacency) if not nbrs)
        raise UnsupportedInputError(f"vertex {isolated} is isolated")
    order = sorted(range(g.n), key=labels.__getitem__)
    top = _first_neighbour_labels(adjacency, labels, reversed(order))
    bottom = _first_neighbour_labels(adjacency, labels, order)
    return tuple(
        hi - lo if len(nbrs) > 1 else hi for hi, lo, nbrs in zip(top, bottom, adjacency)
    )


def _first_neighbour_labels(adjacency, labels: Labelling, order) -> list[int]:
    """For every vertex v, the label of v's first neighbour in ``order``.

    Exact because adjacency is symmetric: v is among w's neighbours exactly
    when w is among v's, so the first walked w whose neighbours include v is
    v's first neighbour in the walk order.  Every vertex needs a neighbour.
    """
    found = [0] * len(adjacency)
    unmarked = set(range(len(adjacency)))
    for w in order:
        hit = unmarked.intersection(adjacency[w])
        if hit:
            unmarked -= hit
            label = labels[w]
            for v in hit:
                found[v] = label
            if not unmarked:
                break
    return found


def is_gap_labelling(g: Graph, labels) -> tuple[bool, tuple[Edge, ...]]:
    """(ok, conflicts): ok is True, and conflicts empty, iff the induced
    colouring is proper.

    Only vertices of one colour can conflict, so each member u of a colour
    class of two or more vertices is checked against the rest of its class
    from the smaller side: a class smaller than u's degree looks each later
    member up in u's sorted neighbour tuple, and a larger one is intersected
    with u's neighbours.  ``conflicts`` lists every conflicting edge in
    lexicographic order, not just the first, so test failures show the
    whole picture.
    """
    colours = induced_colouring(g, labels)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        classes.setdefault(c, []).append(v)
    adjacency = g.adjacency
    conflicts = []
    for members in classes.values():
        if len(members) > 1:
            same = set(members)
            for k, u in enumerate(members):
                nbrs = adjacency[u]
                if len(members) < len(nbrs):
                    for w in members[k + 1 :]:
                        i = bisect_left(nbrs, w)
                        if i < len(nbrs) and nbrs[i] == w:
                            conflicts.append((u, w))
                else:
                    conflicts.extend((u, w) for w in same.intersection(nbrs) if u < w)
    conflicts.sort()
    return not conflicts, tuple(conflicts)


def _int(token: str) -> int:
    """int(token) for any number of digits.

    Past the int <-> str digit limit (Python 3.10.7 on), a token that int()
    would take, an optional sign and digit groups joined by single
    underscores, is read through Decimal, whose conversions have no limit.
    """
    try:
        return int(token)
    except ValueError:
        digits = token.strip()
        sign = digits[:1] if digits[:1] in ("+", "-") else ""
        groups = digits[len(sign) :].split("_")
        if not all(map(str.isdecimal, groups)):
            raise
        from decimal import Decimal

        return int(Decimal(sign + "".join(groups)))


def _str(value: int) -> str:
    """str(value) for any number of digits, through Decimal past the limit."""
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(value))


def parse_labelling(text: str) -> Labelling:
    """Read either the "vertex label" line format or a single comma list."""
    data_lines = [
        (idx, line)
        for idx, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    ]
    if not data_lines:
        raise ParseError("empty labelling text", 1)
    if len(data_lines) == 1 and "," in data_lines[0][1]:
        idx, line = data_lines[0]
        try:
            return tuple(_int(part.strip()) for part in line.split(","))
        except ValueError:
            raise ParseError("comma form must contain integers only", idx) from None
    by_vertex: dict[int, int] = {}
    for idx, line in data_lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex label'", idx)
        try:
            v, lab = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise ParseError("vertex and label must be integers", idx) from None
        if v in by_vertex:
            raise ParseError(f"vertex {v} listed twice", idx)
        by_vertex[v] = lab
    n = len(by_vertex)
    if set(by_vertex) != set(range(n)):
        raise ParseError(f"vertices must be exactly 0..{n - 1}", data_lines[-1][0])
    return tuple(by_vertex[v] for v in range(n))


def serialize_labelling(values) -> str:
    """Write one "vertex value" line per vertex; works for colourings too.

    A value is converted to decimal only when it differs from the value
    before it, so a run of equal values, such as the shared powers of two
    of ``strength.construct_upper``, costs one conversion.
    """
    lines = []
    last = text = None
    for v, value in enumerate(values):
        if value != last:
            last, text = value, _str(value)
        lines.append(f"{v} {text}\n")
    return "".join(lines)
