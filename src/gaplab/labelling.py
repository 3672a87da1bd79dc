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
that limit.  It converts one label per run of equal labels, and a chain of
runs that double or halve a power of two from 2**1024 on, as the path and
cycle power labellings are, converts only its first power: each later text
is stepped from the one before in time linear in its digits, where
int <-> str takes quadratic time.
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


_CHAIN_FLOOR = 1 << 1024  # where a chain of powers of two may start


def _power_steps():
    """A function step(text, up): the decimal text of twice (up) or half
    the power of two 2**e >= 2 whose decimal text is ``text``.

    CPython converts between int and decimal text in time quadratic in the
    digits: str(1 << 5000) takes 32 us.  A Decimal in a context of unbounded
    precision and exponent doubles (``add``) or halves (``divide_int``)
    exactly in one linear step, and its str() is linear too: 3 to 4 us for
    both at 2**5000.  The step holds the Decimal of the text it returned
    last, so a chain that feeds each returned text back in reads no text
    but its first.  ``decimal`` is imported here, when a call first meets
    a run that may continue a chain.

    Chains start at ``_CHAIN_FLOOR``, 2**1024 (309 digits).  There one step
    and its str() take 0.8 us, against 1.3 us for str() of the int and 0.9
    us for int() of the text; at 2**512 (155 digits) the step takes 0.6 us
    and loses to both (0.5 and 0.4 us).  Measured with timeit, min of 5, on
    2 vCPUs with Python 3.11.7.  No label below the floor, such as any of
    ``decide``'s or ``chi``'s, reaches ``decimal``.
    """
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX)
    held_text = held = None

    def step(text: str, up: bool) -> str:
        nonlocal held_text, held
        dec = held if text == held_text else Decimal(text)
        held = ctx.add(dec, dec) if up else ctx.divide_int(dec, 2)
        held_text = str(held)
        return held_text

    return step


def parse_labelling(text: str) -> Labelling:
    """Read either the "vertex label" line format or a single comma list.

    In the line format a label is converted only when its text differs from
    the line before's, as ``serialize_labelling`` writes one conversion per
    run, so a run of equal labels costs one conversion and shares one int.
    When the label before is a power of two of at least ``_CHAIN_FLOOR``,
    a text within one digit of its length is first compared with the text
    of twice that power, if it reads larger, or of half of it, stepped by
    ``_power_steps``.  A match is canonical decimal text, so the label is
    that power with no conversion; any other text goes through ``_int``, so
    every text reads, or fails, exactly as before.
    """
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
    last, lab, step = "", 0, None
    floor = _CHAIN_FLOOR
    below = floor - 1  # a power of two of at least floor has none of these bits
    for idx, line in data_lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex label'", idx)
        token = parts[1]
        try:
            v = _int(parts[0])
            if token != last:
                chained = False
                if (
                    lab >= floor
                    and -2 < len(token) - len(last) < 2
                    and not lab & below
                    and lab.bit_count() == 1
                ):
                    up = (len(token), token) > (len(last), last)
                    step = step or _power_steps()
                    chained = step(last, up) == token
                lab = (lab << 1 if up else lab >> 1) if chained else _int(token)
                last = token
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
    of ``strength.construct_upper``, costs one conversion.  A run whose
    value is twice or half the run before's, a power of two of at least
    ``_CHAIN_FLOOR``, takes its text from the run before's by one step of
    ``_power_steps``, so the rising powers of P_n^k and the rising then
    falling ones of C_n^k cost one conversion per chain, in linear time.
    """
    lines = []
    last = text = step = None
    floor = _CHAIN_FLOOR
    for v, value in enumerate(values):
        if value != last:
            if (
                last is not None
                and last >= floor
                and abs(value.bit_length() - last.bit_length()) == 1
                and last.bit_count() == 1
                and value in (last << 1, last >> 1)
            ):
                step = step or _power_steps()
                text = step(text, value > last)
            else:
                text = _str(value)
            last = value
        lines.append(f"{v} {text}\n")
    return "".join(lines)
