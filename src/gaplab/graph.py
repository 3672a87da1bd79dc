"""Immutable simple undirected graphs, family generators, and edge-list I/O.

Vertices are dense 0-based integers.  A ``Graph`` stores only the sorted
neighbour tuple of every vertex; its edge set, edge count and adjacency test
are derived from those tuples.  The text format is:

    n m
    u v        (one line per edge, 0 <= u < v < n)

Serialisation emits edges in lexicographic order.  Lines starting with ``#``
are ignored on input so that annotated edge lists (such as removed-edge
ledgers) stay loadable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from operator import add, lt, mul
from typing import Iterable

from .errors import MissingEdgeError, ParseError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph.

    ``adjacency[v]`` is the ascending tuple of v's neighbours; it is the only
    stored form, so equality and hashing compare ``n`` and ``adjacency``.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> frozenset[Edge]:
        """Every edge as a (u, v) pair with u < v, built on each access."""
        return frozenset(
            (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v
        )

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _build(n: int, edges: Iterable[Edge]) -> Graph:
    """Assemble a Graph from distinct, already-normalised (u < v) edges."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in nbrs))


def graph_from_edges(n: int, edges: Iterable[Edge]) -> Graph:
    """Validating constructor: rejects self-loops, range errors and duplicates."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return _build(n, seen)


def complete_graph(n: int) -> Graph:
    """K_n: every pair of distinct vertices adjacent."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return _build(n, combinations(range(n), 2))


def path_power(n: int, k: int) -> Graph:
    """k-th power of the path P_n: u ~ v iff |u - v| <= k."""
    if n < 2:
        raise ValueError(f"path power needs n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"path power needs 1 <= k <= n-1, got k={k} for n={n}")
    return _build(n, ((u, v) for u in range(n) for v in range(u + 1, min(u + k, n - 1) + 1)))


def cycle_power(n: int, k: int) -> Graph:
    """k-th power of the cycle C_n: u ~ v iff circular distance <= k."""
    if n < 3:
        raise ValueError(f"cycle power needs n >= 3, got {n}")
    if k < 1:
        raise ValueError(f"cycle power needs k >= 1, got {k}")
    # Each vertex u meets u + d (mod n) for d = 1..min(k, n // 2); the set
    # drops the pairs met from both ends, at d = n / 2 for even n.
    return _build(
        n,
        {
            (u, u + d) if u + d < n else (u + d - n, u)
            for d in range(1, min(k, n // 2) + 1)
            for u in range(n)
        },
    )


def remove_edges(g: Graph, removals: Iterable[Edge]) -> Graph:
    """A new graph with the listed edges absent; the input is untouched."""
    to_drop: set[Edge] = set()
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


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


_DIGITS = b"0123456789"
# The ASCII characters other than "\n" at which str.splitlines ends a line.
_OTHER_LINE_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Text laid out as ``serialize_graph`` writes it is read whole; any other
    text, and every error, goes through the line loop, the one place that
    raises ParseError.  Both give the same Graph for the same text.
    """
    g = _parse_whole(text)
    return g if g is not None else _parse_lines(text)


def _parse_whole(text: str) -> Graph | None:
    """The graph of a text in the written layout, or None.

    The layout: leading ``#`` comment lines, then "n m" and one "u v" line
    per edge, each two runs of decimal digits joined by one space and ended
    by "\\n" or "\\r\\n" (the last may lack it), with the edges in
    lexicographic order.  On such text the line loop's checks are made on
    all edges at once: range, by looking every endpoint up among the names
    of the vertices 0..n-1; u < v; and strictly increasing keys u * n + v,
    which rule out duplicates and leave the neighbour lists sorted.  None
    means "not proved valid": the caller then runs the line loop, which
    accepts or reports.
    """
    if not text.isascii():
        return None
    data = text.encode()
    if b"\r" in data:
        # str.splitlines ends a line once at "\r\n"; a lone "\r" left here
        # fails the checks below.
        data = data.replace(b"\r\n", b"\n")
    start = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if start == 0:
            return None
    if len(data[:start].translate(None, _OTHER_LINE_BREAKS)) != start:
        return None  # the line loop would end a comment early and read on
    body = data[start:]
    tokens = body.split()
    pairs, odd = divmod(len(tokens), 2)
    # Each of the 2p digit runs needs a gap of its own between separators:
    # 2p separators if the body ends in a newline (the gap after it stays
    # empty), else 2p - 1.
    layout = b" \n" * pairs
    if not body.endswith(b"\n"):
        layout = layout[:-1]
    if odd or not pairs or body.translate(None, _DIGITS) != layout:
        return None
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:  # past the interpreter's digit limit
        return None
    if n < 1 or m != pairs - 1:
        return None
    names = {b"%d" % v: v for v in range(n)}
    try:
        ends = list(map(names.__getitem__, islice(tokens, 2, None)))
    except KeyError:  # out of range, or written with leading zeros
        return None
    del tokens, names
    us, vs = ends[0::2], ends[1::2]
    if not all(map(lt, us, vs)):
        return None
    keys = list(map(add, map(mul, us, repeat(n)), vs))
    if not all(map(lt, keys, islice(keys, 1, None))):
        return None
    nbrs: list[list[int]] = [[] for _ in range(n)]
    # any() only drains each map, as append returns None.  Lower neighbours
    # go in first because they come first in lexicographic edge order.
    any(map(list.append, map(nbrs.__getitem__, vs), us))
    any(map(list.append, map(nbrs.__getitem__, us), vs))
    return Graph(n, tuple(map(tuple, nbrs)))


def _parse_lines(text: str) -> Graph:
    """Parse line by line, raising ParseError at the first bad line."""
    lines = text.splitlines()
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[Edge] = []
    seen: set[Edge] = set()
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
    return _build(n, edges)


def serialize_graph(g: Graph) -> str:
    """Header, then every edge once in lexicographic order, which is the
    order of the sorted neighbour tuples read from each lower end."""
    out = [f"{g.n} {g.edge_count}"]
    for u, nbrs in enumerate(g.adjacency):
        head = f"{u} "
        out.extend(map(head.__add__, map(str, islice(nbrs, bisect_right(nbrs, u), None))))
    return "\n".join(out) + "\n"
