"""The gap-induced colouring and verification of gap vertex labellings.

A labelling assigns a positive integer to every vertex.  The induced colour
of a vertex with two or more neighbours is the largest difference ("gap")
between the labels of its neighbours; a vertex with exactly one neighbour is
coloured with that neighbour's label.  The labelling is a gap labelling when
the induced colouring is proper, i.e. no edge joins two equally coloured
vertices.

Labels and colours are plain Python integers, so constructions that assign
labels up to 2**(n-1) work unchanged for any n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnsupportedInputError
from .graph import Edge, Graph

Labelling = tuple[int, ...]
Colouring = tuple[int, ...]


@dataclass(frozen=True)
class ConflictReport:
    """All edges whose endpoints received the same induced colour."""

    conflicts: tuple[Edge, ...]

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def __str__(self) -> str:
        if self.ok:
            return "no conflicts"
        return "conflicts: " + ", ".join(f"({u}, {v})" for u, v in self.conflicts)


def validate_labelling(g: Graph, labels) -> Labelling:
    labels = tuple(labels)
    if len(labels) != g.n:
        raise ValueError(f"labelling has {len(labels)} entries for a graph on {g.n} vertices")
    for v, lab in enumerate(labels):
        if lab < 1:
            raise ValueError(f"label of vertex {v} must be a positive integer, got {lab}")
    return labels


def induced_colouring(g: Graph, labels) -> Colouring:
    """Colour every vertex by the gap rule.

    Raises UnsupportedInputError when the graph has an isolated vertex (the
    gap of an empty neighbourhood is undefined; single vertices and graphs
    with isolated vertices are out of scope).
    """
    labels = validate_labelling(g, labels)
    if g.n < 2:
        raise UnsupportedInputError("colouring needs at least two vertices")
    colours = []
    for v in range(g.n):
        nbrs = g.adjacency[v]
        if not nbrs:
            raise UnsupportedInputError(f"vertex {v} is isolated")
        if len(nbrs) == 1:
            colours.append(labels[nbrs[0]])
        else:
            values = [labels[u] for u in nbrs]
            colours.append(max(values) - min(values))
    return tuple(colours)


def is_gap_labelling(g: Graph, labels) -> tuple[bool, ConflictReport]:
    """True plus an empty report iff the induced colouring is proper.

    The report lists every conflicting edge in lexicographic order, not just
    the first, so test failures show the whole picture.
    """
    colours = induced_colouring(g, labels)
    conflicts = tuple(sorted((u, v) for u, v in g.edges if colours[u] == colours[v]))
    return not conflicts, ConflictReport(conflicts)


def parse_labelling(text: str) -> Labelling:
    """Read either the "vertex label" line format or a single comma list."""
    data_lines = [
        (idx, line.strip())
        for idx, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    ]
    if not data_lines:
        raise ParseError("empty labelling text", 1)
    if len(data_lines) == 1 and "," in data_lines[0][1]:
        idx, line = data_lines[0]
        try:
            return tuple(int(part.strip()) for part in line.split(","))
        except ValueError:
            raise ParseError("comma form must contain integers only", idx) from None
    by_vertex: dict[int, int] = {}
    for idx, line in data_lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'vertex label'", idx)
        try:
            v, lab = int(parts[0]), int(parts[1])
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
    """Write one "vertex value" line per vertex; works for colourings too."""
    return "".join(f"{v} {val}\n" for v, val in enumerate(values))
