"""Immutable simple undirected graphs, family generators, and edge-list I/O.

Vertices are dense 0-based integers.  The text format is:

    n m
    u v        (one line per edge, 0 <= u < v < n)

Serialisation emits edges in lexicographic order.  Lines starting with ``#``
are ignored on input so that annotated edge lists (such as removed-edge
ledgers) stay loadable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import MissingEdgeError, ParseError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph."""

    n: int
    edges: frozenset[Edge]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _build(n: int, edges: Iterable[Edge]) -> Graph:
    """Assemble a Graph from already-normalised (u < v) edges."""
    edge_set = frozenset(edges)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return Graph(n, edge_set, tuple(tuple(sorted(a)) for a in nbrs))


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
    return _build(
        n,
        (
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if min(v - u, n - (v - u)) <= k
        ),
    )


def remove_edges(g: Graph, removals: Iterable[Edge]) -> Graph:
    """A new graph with the listed edges absent; the input is untouched."""
    to_drop: set[Edge] = set()
    for u, v in removals:
        e = (u, v) if u < v else (v, u)
        if e not in g.edges:
            raise MissingEdgeError(e)
        if e in to_drop:
            raise ValueError(f"edge {e} listed twice for removal")
        to_drop.add(e)
    return _build(g.n, g.edges - to_drop)


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


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring."""
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
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"
