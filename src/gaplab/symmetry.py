"""Automorphism orbits, for pruning the first vertices of ``decide``.

Equitable refinement of an ordered partition plus an individualise-and-refine
search for automorphisms (McKay & Piperno, "Practical graph isomorphism II",
J. Symb. Comput. 60, 2014).

* **Refinement.**  A partition is a vertex order cut into cells, each cell
  named by its start index in that order.  It is seeded with degree buckets
  and refined with a splitter queue: the cell popped splits every cell it
  touches by neighbour count into it.  Fragments go in ascending count
  order; all of them are queued if the split cell was queued, otherwise all
  but the largest (Hopcroft's rule, as in nauty's ``refine``).  The result
  is the coarsest equitable partition refining the seed, and the refinement
  returns a trace of its splits (start, counts, sizes) that does not depend
  on how the vertices are numbered.
* **Touched-only split.**  A position array goes with the order, and a
  vertex hit for the first time by a splitter is swapped to the tail of its
  cell, so the k touched members of a cell end up in its last k places.
  Only they are sorted by count and get new ``cell`` entries; the untouched
  members keep the cell's start as the count-0 fragment.  Popping a
  splitter then costs O(d + k log k), for d the adjacency entries it reads
  and k the vertices they hit, not the sizes of the cells it splits, so
  splitting one big degree bucket a few members at a time (a path power)
  is no longer quadratic.  Starts, sizes, cell sets and the trace are those
  of sorting each split cell whole; only the order inside a fragment
  differs.
* **Search.**  To find an automorphism with r -> v, the partitions with r
  and with v individualised are refined in lock step: one vertex of a cell
  is individualised on the source side, and each vertex of the same cell in
  turn on the target side.  A branch whose two traces differ is pruned.  At
  every node the position-wise map (cell-order position i on one side to
  position i on the other) is tried as a candidate leaf before descending,
  and each candidate is checked edge by edge.  The walk is an explicit
  stack.

Nothing here tests isomorphism between two graphs or computes a canonical
form.
"""

from __future__ import annotations

from .graph import Graph

# A partition is (order, cell, size, pos): ``order`` lists the vertices cell
# by cell, ``cell[v]`` is the start index of v's cell, ``size[start]`` that
# cell's length (meaningful at cell starts only) and ``pos[v]`` v's index in
# ``order``.
Partition = tuple[list[int], list[int], list[int], list[int]]


def _refine(
    adjacency: tuple[tuple[int, ...], ...], part: Partition, queue: list[int]
) -> list[int]:
    """Split cells until ``part`` is equitable; returns the trace of splits.

    ``queue`` holds the starts of the splitter cells; the partition must
    already be equitable with respect to every cell not derivable from them.
    """
    order, cell, size, pos = part
    n = len(order)
    count = [0] * n
    hits = [0] * n
    queued = [False] * n
    for s in queue:
        queued[s] = True
    trace: list[int] = []
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        queued[s] = False
        touched = []
        starts = []
        for w in order[s : s + size[s]]:
            for u in adjacency[w]:
                if not count[u]:
                    # first hit: swap u into the touched tail of its cell
                    touched.append(u)
                    c = cell[u]
                    k = hits[c]
                    if not k:
                        starts.append(c)
                    hits[c] = k + 1
                    i, t = pos[u], c + size[c] - 1 - k
                    x = order[t]
                    order[i] = x
                    pos[x] = i
                    order[t] = u
                    pos[u] = t
                count[u] += 1
        starts.sort()
        for c in starts:
            sz = size[c]
            k = hits[c]
            hits[c] = 0
            if sz == 1:
                continue
            # the k touched members fill the cell's tail; the rest, count 0,
            # keep its start
            tail = c + sz - k
            members = order[tail : c + sz]
            if k == sz:
                first = count[members[0]]
                if all(count[u] == first for u in members):
                    continue
            members.sort(key=count.__getitem__)
            order[tail : c + sz] = members
            # cut the sorted tail into fragments of equal count
            trace.append(c)
            frags = []  # (start, length)
            if k < sz:
                frags.append((c, sz - k))
                trace += (0, sz - k)
            begin = 0
            for i in range(1, k + 1):
                if i == k or count[members[i]] != count[members[begin]]:
                    frags.append((tail + begin, i - begin))
                    trace += (count[members[begin]], i - begin)
                    for j in range(begin, i):
                        u = members[j]
                        pos[u] = tail + j
                        cell[u] = tail + begin
                    begin = i
            for start, length in frags:
                size[start] = length
            skip = c if queued[c] else max(frags, key=lambda f: f[1])[0]
            for start, _ in frags:
                if start != skip:
                    queued[start] = True
                    queue.append(start)
        for u in touched:
            count[u] = 0
    return trace


def _individualise(
    adjacency: tuple[tuple[int, ...], ...], part: Partition, v: int
) -> tuple[Partition, list[int]]:
    """A copy of ``part`` with v split off at the front of its cell, refined."""
    order, cell, size, pos = (x[:] for x in part)
    c = cell[v]
    sz = size[c]
    i = pos[v]
    u = order[c]
    order[i] = u
    pos[u] = i
    order[c] = v
    pos[v] = c
    size[c] = 1
    size[c + 1] = sz - 1
    for u in order[c + 1 : c + sz]:
        cell[u] = c + 1
    child = (order, cell, size, pos)
    return child, _refine(adjacency, child, [c])


def _target_cell(size: list[int]) -> int:
    """Start of the first smallest non-singleton cell, or -1 if discrete."""
    best, best_size = -1, len(size) + 1
    i = 0
    while i < len(size):
        s = size[i]
        if 1 < s < best_size:
            best, best_size = i, s
            if s == 2:
                break
        i += s
    return best


def _find_map(
    g: Graph, g_sets: list[set[int]], source: Partition, target: Partition
) -> list[int] | None:
    """Individualise-and-refine search for an automorphism of g, source -> target.

    ``source`` and ``target`` are equitable partitions of g reached by equal
    traces, and ``g_sets`` holds g's neighbour sets; the map found sends
    each cell of ``source`` onto the cell of ``target`` at the same start.
    Returns the map as a list, or None if none exists.
    """
    adj = g.adjacency
    # Explicit stack of branch points: [target partition, source child, its
    # trace, target candidates, index of the next candidate].
    stack: list[list] = []
    node: tuple[Partition, Partition] | None = (source, target)
    while node is not None:
        source, target = node
        mapping = [0] * g.n
        for a, b in zip(source[0], target[0]):
            mapping[a] = b
        image = mapping.__getitem__
        if all(g_sets[mapping[u]].issuperset(map(image, nbrs)) for u, nbrs in enumerate(adj)):
            return mapping
        c = _target_cell(source[2])
        if c >= 0:
            child, trace = _individualise(adj, source, source[0][c])
            stack.append([target, child, trace, target[0][c : c + source[2][c]], 0])
        node = None
        while stack and node is None:
            frame = stack[-1]
            target, child, trace, candidates, i = frame
            if i == len(candidates):
                stack.pop()
                continue
            frame[4] = i + 1
            target_child, target_trace = _individualise(adj, target, candidates[i])
            if target_trace == trace:
                node = (child, target_child)
    return None


def orbit_representatives(g: Graph) -> tuple[int, ...]:
    """The least vertex of each automorphism orbit, in ascending order.

    ``decide``'s reversal break relies on the first: every vertex of an
    orbit is at least that orbit's representative.  Automorphisms found are
    merged by union-find, each class rooted at its least member, so the
    roots are the answer.
    """
    n = g.n
    # The coarsest equitable partition refining the degree buckets: the
    # first splitter is the whole vertex set, so the first split cuts the
    # single cell into degree buckets.
    base = (list(range(n)), [0] * n, [n] + [0] * (n - 1), list(range(n)))
    _refine(g.adjacency, base, [0])
    order, cell, size, _ = base
    g_sets = [set(a) for a in g.adjacency]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in range(n):
        if cell[order[c]] != c or size[c] == 1:
            continue
        members = sorted(order[c : c + size[c]])
        reps = [members[0]]
        pinned: dict[int, tuple[Partition, list[int]]] = {}  # individualised, on demand
        for v in members[1:]:
            if any(find(v) == find(r) for r in reps):
                continue
            pv, tv = _individualise(g.adjacency, base, v)
            for r in reps:
                if r not in pinned:
                    pinned[r] = _individualise(g.adjacency, base, r)
                pr, tr = pinned[r]
                auto = _find_map(g, g_sets, pr, pv) if tv == tr else None
                if auto is not None:
                    for u, image in enumerate(auto):
                        ru, ri = find(u), find(image)
                        if ru != ri:
                            parent[max(ru, ri)] = min(ru, ri)
                    break
            else:
                reps.append(v)
                pinned[v] = (pv, tv)
    return tuple(v for v in range(n) if parent[v] == v)
