"""Immutable simple undirected graphs, family generators, and edge-list I/O.

Vertices are dense 0-based integers.  A ``Graph`` stores only the sorted
neighbour tuple of every vertex; its edge set, edge count and adjacency test
are derived from those tuples.  The text format is:

    n m
    u v        (one line per edge, 0 <= u < v < n)

Serialisation emits edges in lexicographic order.  Lines starting with ``#``
are ignored on input so that annotated edge lists (such as removed-edge
ledgers) stay loadable.

Edge lines are written by one row writer, ``format_edge_rows``, which both
``serialize_graph`` and the removed-edge ledger call once per text.  It
names the vertices once per call and writes the edges of each lower end u
as one join, "u v1\\nu v2\\n...", so its cost is per row, not per edge.

Text that is exactly what ``serialize_graph`` writes (no comments, no empty
lines, one space and a newline ending every line) is read in blocks of
whole lines, about 64 KB each, so a multi-megabyte edge list needs about one
block of transient memory beside the graph and a bytes copy of the text.
Each block is checked for two digit runs per line, endpoints in range and
lexicographic edge order; the order makes every neighbour list come out
sorted, lower neighbours first, without a sort.  A block of long rows, such
as K_n's, is read row by row.  A row that is one run of consecutive
vertices, as every row of K_n and of the paper's upper-bound construction
is, is matched whole against the joined names of that run, so it makes no
tokens at all; any other row u is split once on its "u " prefix, so only
its v's become tokens.  A block of short rows, such as a path power's, is
read edge by edge, since a row costs more than it saves there.
Any other text, such as comments, empty lines or CRLF line ends, goes
through a line-by-line reader that accepts the same graphs and names the
first bad line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque, namedtuple
from collections.abc import Iterable
from itertools import repeat
from operator import lt

from .errors import MissingEdgeError, ParseError

Edge = tuple[int, int]


class Graph(namedtuple("Graph", "n adjacency")):
    """A simple undirected graph, as the named tuple ``(n, adjacency)``.

    ``adjacency[v]`` is the ascending tuple of v's neighbours; it is the only
    stored form, so equality and hashing compare ``n`` and ``adjacency``.
    """

    __slots__ = ()

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
    """K_n: every pair of distinct vertices adjacent.

    Row u is the vertices before u and after it, two slices of one
    ``tuple(range(n))``, so the rows come out sorted without a sort.
    """
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    vs = tuple(range(n))
    return Graph(n, tuple(vs[:u] + vs[u + 1 :] for u in vs))


def path_power(n: int, k: int) -> Graph:
    """k-th power of the path P_n: u ~ v iff |u - v| <= k.

    Row u is the up to k vertices on each side of u, sliced as in
    ``complete_graph``.
    """
    if n < 2:
        raise ValueError(f"path power needs n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"path power needs 1 <= k <= n-1, got k={k} for n={n}")
    vs = tuple(range(n))
    return Graph(n, tuple(vs[max(u - k, 0) : u] + vs[u + 1 : u + k + 1] for u in vs))


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
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


_DIGITS = b"0123456789"
# About how many bytes of edge lines _parse_whole reads at a time.
_BLOCK = 1 << 16
# The edges per row at which reading a block row by row (_read_rows) beats
# reading it edge by edge (_read_edges): near 16 on path powers P_n^k and near
# 20 on random graphs G(n, p) of 60 to 1,000 vertices (CPython 3.11).
_LONG_ROW = 20


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format described in the module docstring.

    Text that is exactly what ``serialize_graph`` writes is read in blocks of
    whole lines; any other text, and every error, goes through the line
    loop, the one place that raises ParseError.  Both give the same Graph
    for the same text.
    """
    g = _parse_whole(text)
    return g if g is not None else _parse_lines(text)


def _parse_whole(text: str) -> Graph | None:
    """The graph of a text that is exactly what ``serialize_graph`` writes,
    or None.

    The layout: "n m", then one "u v" line per edge in lexicographic order,
    each two runs of decimal digits joined by one space and ended by "\\n",
    with no comments and no empty lines.  The layout and the header are
    checked on the whole text.  The edge lines are then read in blocks of
    whole lines, about ``_BLOCK`` bytes each, so transient memory is about
    one block beside the graph and a bytes copy of the text.  A block is
    sliced with the "\\n" before its first line and without its last, so
    every line, the first one too, starts with "\\n".

    Each block is read by one of two readers, chosen from its line count and
    the u's of its first and last lines: ``_read_rows`` when it holds at
    least ``_LONG_ROW`` lines per row, ``_read_edges`` otherwise.  A long
    row has at most n - 1 edges, so when n <= ``_LONG_ROW`` every block is
    read edge by edge without that choice.  Both readers check:

    - range, by matching every endpoint against the names of the vertices
      0..n-1, which also refuses leading zeros and empty digit runs, and
      shares one int per vertex: a dict lookup per endpoint, or one
      comparison for a row that is a run;
    - lexicographic order, which rules out u >= v and duplicates: the
      block's first edge follows the previous block's last, and within the
      block the u's never fall and each row's v's rise from above its u.

    Every v then gets its lower neighbours u appended, and every u its upper
    neighbours v.  In lexicographic order a vertex's lower neighbours all
    come in rows before its own, so its list gets them, rising, before its
    rising upper neighbours, and needs no sort.  None means "not proved
    valid": the caller then runs the line loop, which accepts or reports.
    """
    if not text.isascii():
        return None
    body = text.encode()
    lines = body.count(b" ")
    # Digits after the last "\n" would vanish from the translation below.
    if not lines or not body.endswith(b"\n"):
        return None
    if body.translate(None, _DIGITS) != b" \n" * lines:
        return None
    end = body.find(b"\n") + 1
    n, _, m = body[:end].partition(b" ")
    try:
        n, m = int(n), int(m)
    except ValueError:  # an empty digit run, or past Python's digit limit
        return None
    if n < 1 or m != lines - 1:
        return None
    names = {b"%d" % v: v for v in range(n)}
    # The same names and ints as lists, for the runs of _read_rows: built
    # once, for the first block of long rows, so text read edge by edge
    # never pays for them.
    lists = None
    nbrs: list[list[int]] = [[] for _ in range(n)]
    last = (-1, -1)
    while end < len(body):
        start, end = end, body.find(b"\n", end + _BLOCK) + 1 or len(body)
        block = body[start - 1 : end - 1]
        lines = block.count(b"\n")
        long_rows = False
        if n > _LONG_ROW:
            tail = block.rfind(b"\n")
            try:
                first = names[block[1 : block.find(b" ")]]
                top = names[block[tail + 1 : block.find(b" ", tail)]]
            except KeyError:  # out of range, or written with leading zeros
                return None
            long_rows = lines >= _LONG_ROW * (top - first + 1)
        if long_rows:
            lists = lists or (list(names), list(names.values()))
            last = _read_rows(block, names, *lists, nbrs, last)
        else:
            last = _read_edges(block, lines, names, nbrs, last)
        if last is None:
            return None
    return Graph(n, tuple(map(tuple, nbrs)))


def _read_edges(
    block: bytes, lines: int, names: dict[bytes, int], nbrs: list[list[int]], last: Edge
) -> Edge | None:
    """Add a block's edges to ``nbrs`` one append per endpoint, and return
    its last edge, or None if the block breaks the checks of
    ``_parse_whole``.  ``last`` is the edge before the block.

    Every line becomes two tokens, and each must be a vertex name: the
    layout alone passes an empty digit run, as in "2 1\\n 1\\n".
    """
    tokens = block.split()
    if len(tokens) != 2 * lines:
        return None
    try:
        ends = list(map(names.__getitem__, tokens))
    except KeyError:  # out of range, or written with leading zeros
        return None
    del tokens
    us, vs = ends[0::2], ends[1::2]
    if (us[0], vs[0]) <= last:
        return None
    # Each edge against the next; zip reuses its tuple.
    if not all(map(lt, us, vs)) or not all(map(lt, zip(us, vs), zip(us[1:], vs[1:]))):
        return None
    # any() only drains each map, as append returns None.
    any(map(list.append, map(nbrs.__getitem__, vs), us))
    any(map(list.append, map(nbrs.__getitem__, us), vs))
    return us[-1], vs[-1]


def _read_rows(
    block: bytes,
    names: dict[bytes, int],
    vnames: list[bytes],
    verts: list[int],
    nbrs: list[list[int]],
    last: Edge,
) -> Edge | None:
    """``_read_edges`` for a block of long rows, one row u at a time.

    A row ends at its last line that starts with u's "\\nu " prefix.  Probes
    at doubling distances past the row's start, the first one as many bytes
    away as the row before took (64 for the block's first row), find a line
    of another row; the row's last line is then the last prefix before that
    probe.  So finding a row's end costs about its own length plus the row
    before's, and the block is read in linear time however its rows are
    mixed.

    A row of c lines whose first v is a is a run when its text after the
    first prefix equals ``vnames[a : a + c]`` joined by the prefix: one
    comparison, with no token and no lookup per v.  A test that the row ends
    with the name of a + c - 1 comes first, so a row with gaps rarely pays
    for the join, and the join has one name per line of the row, so the
    block is still read in linear time.  The comparison keeps every check
    the tokens make: each line is the name the writer would use, so no v is
    out of range or written with leading zeros, and the v's rise by one from
    a.  Only a > u and (u, a) > ``last`` are left to test.  A run then
    extends u's list with the shared ints ``verts[a : a + c]`` and appends u
    to each list of ``nbrs[a : a + c]``, one slice in place of a lookup per
    v.

    Any other row is split once on its prefix, so only its v's become tokens
    and lookups.  Every part must be a vertex name, so no part holds a "\\n"
    and every line of the row starts with the prefix; and its v's must rise
    from above u and from ``last``.  A row is tested for a run only when
    the row before it was one, or starts the block: rows with gaps, as in
    G(n, p), seldom follow a run, so they skip the test, while a gap among
    runs costs one split row.
    """
    size, start, step, runs = len(block), 0, 64, True
    while start < size:
        space = block.find(b" ", start)
        prefix = block[start : space + 1]
        probe = start + step
        while probe < size and block.startswith(prefix, block.rfind(b"\n", start, probe + 1)):
            probe += probe - start
        end = block.find(b"\n", block.rfind(prefix, start, probe) + 1)
        if end < 0:
            end = size
        u = names.get(block[start + 1 : space])
        if u is None:  # out of range, or written with leading zeros
            return None
        if runs:
            first_end = block.find(b"\n", space, end)
            a = names.get(block[space + 1 : end if first_end < 0 else first_end])
            lines = block.count(b"\n", start, end)
            runs = (
                a is not None
                and a + lines <= len(verts)
                and block.endswith(vnames[a + lines - 1], 0, end)
                and block[space + 1 : end] == prefix.join(vnames[a : a + lines])
            )
        if runs:
            if a <= u or (u, a) <= last:
                return None
            vs = verts[a : a + lines]
            lower = nbrs[a : a + lines]
        else:
            try:
                vs = list(map(names.__getitem__, block[space + 1 : end].split(prefix)))
            except KeyError:  # out of range, leading zeros, or another row's line
                return None
            if (u, vs[0]) <= last or not all(map(lt, [u, *vs], vs)):
                return None
            lower = map(nbrs.__getitem__, vs)
            runs = vs[-1] - vs[0] < len(vs)
        nbrs[u].extend(vs)
        any(map(list.append, lower, repeat(u)))
        last, step, start = (u, vs[-1]), end - start, end
    return last


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


def format_edge_rows(header: str, n: int, rows: Iterable[tuple[int, Iterable[int]]]) -> str:
    """``header``, then one "u v" line for every v of every row (u, vs), in
    the order given, each line ended by "\\n".

    Every u and v must be a vertex 0..n-1.  The vertex names are written
    once per call, and a row becomes one string: u's name and a space,
    joined by a newline to the same prefix, between the names of its v's.
    So the cost is one join per row, not one format per edge.  A row
    without v's writes nothing.
    """
    names = list(map(str, range(n)))
    blocks = [header]
    for u, vs in rows:
        head = names[u] + " "
        block = ("\n" + head).join(map(names.__getitem__, vs))
        if block:
            blocks.append(head + block)
    blocks.append("")
    return "\n".join(blocks)


def serialize_graph(g: Graph) -> str:
    """Header, then every edge once in lexicographic order, which is the
    order of the sorted neighbour tuples read from each lower end: row u is
    the part of u's tuple above u."""
    rows = ((u, nbrs[bisect_right(nbrs, u) :]) for u, nbrs in enumerate(g.adjacency))
    return format_edge_rows(f"{g.n} {g.edge_count}", g.n, rows)
