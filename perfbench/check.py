"""Answer checks for the benchmark that share no code with gaplab's search.

Everything here is written from the definitions: the gap colouring, the
shared-gap refutation argument, brute-force least label counts and the
lower-bound recurrences.  The only library call is ``is_gap_labelling``,
which re-checks "yes" witnesses of ``decide`` as the verifier a user would
run on them.

A check returns ``OK``, ``UNCERTIFIED`` (a "no" that this module cannot
prove, counted rather than passed silently) or a string starting with
``"wrong: "``.
"""

from __future__ import annotations

import itertools
from decimal import Decimal

from gaplab.labelling import is_gap_labelling

OK = "ok"
UNCERTIFIED = "uncertified"


def wrong(reason: str) -> str:
    return "wrong: " + reason


# ---------------------------------------------------------------------------
# text formats, written independently of gaplab's own readers and writers


def graph_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def labels_text(labels) -> str:
    return "".join(f"{v} {lab}\n" for v, lab in enumerate(labels))


def read_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, text has {len(edges)}")
    return n, edges


def read_labels(lines) -> tuple[int, ...]:
    """Labels from "vertex label" lines, which must list 0..n-1 in order."""
    labels = []
    for i, line in enumerate(lines):
        v, lab = line.split()
        if int(v) != i:
            raise ValueError(f"line {i} names vertex {v}")
        labels.append(int(lab))
    return tuple(labels)


# ---------------------------------------------------------------------------
# the gap colouring from its definition


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def colouring_conflicts(n: int, edges, labels, adj=None) -> int:
    """Number of edges whose ends get equal gap colours; 0 means valid.

    Returns -1 when the labelling or graph is outside the definition: wrong
    length, a label below 1, or an isolated vertex.
    """
    if len(labels) != n or min(labels) < 1:
        return -1
    colour = []
    for nbrs in adj or adjacency(n, edges):
        if not nbrs:
            return -1
        vals = [labels[u] for u in nbrs]
        colour.append(vals[0] if len(vals) == 1 else max(vals) - min(vals))
    return sum(1 for u, v in edges if colour[u] == colour[v])


def shared_gap_refutes(n: int, edges) -> bool:
    """True when every extreme pair has two adjacent common neighbours.

    Any valid labelling can be made injective.  If a holds the largest and b
    the smallest label, two adjacent vertices that both see a and b both get
    the colour label(a) - label(b), a clash.  Covering every pair {a, b}
    therefore proves that no valid labelling exists.
    """
    nbr = [set(a) for a in adjacency(n, edges)]
    for a, b in itertools.combinations(range(n), 2):
        common = sorted(nbr[a] & nbr[b])
        if not any(w in nbr[u] for u, w in itertools.combinations(common, 2)):
            return False
    return True


def least_label_count(n: int, edges, kmax: int) -> int | None:
    """Least k <= kmax with a valid labelling from 1..k, by enumeration."""
    adj = adjacency(n, edges)
    for k in range(1, kmax + 1):
        for labels in itertools.product(range(1, k + 1), repeat=n):
            if colouring_conflicts(n, edges, labels, adj) == 0:
                return k
    return None


# ---------------------------------------------------------------------------
# checks on CLI output


def check_decide(stdout: str, graph, expect: bool | None) -> str:
    """Check ``decide`` output; ``expect`` is the known verdict, if any.

    A "yes" needs a witness that ``is_gap_labelling`` accepts.  A "no" needs
    the expected verdict or, without one, the shared-gap refutation.
    """
    lines = stdout.splitlines()
    if len(lines) < 2 or not lines[1].startswith("assignments: "):
        return wrong("malformed decide output")
    if lines[0] == "labelable: yes":
        if expect is False:
            return wrong("yes for a graph known to be unlabelable")
        try:
            witness = read_labels(lines[2:])
        except ValueError as exc:
            return wrong(f"unreadable witness ({exc})")
        if len(witness) != graph.n or not is_gap_labelling(graph, witness)[0]:
            return wrong("invalid witness")
        return OK
    if lines[0] != "labelable: no" or len(lines) != 2:
        return wrong("malformed decide output")
    if expect is True:
        return wrong("no for a graph known to be labelable")
    if expect is False or shared_gap_refutes(graph.n, sorted(graph.edges)):
        return OK
    return UNCERTIFIED


def search_nodes(stdout: str) -> int:
    """The ``assignments:`` count that ``decide`` prints; 0 for other output."""
    for line in stdout.splitlines()[:2]:
        if line.startswith("assignments: "):
            return int(line.split()[1])
    return 0


# ---------------------------------------------------------------------------
# the lower-bound recurrences, evaluated by brute force


def restricted_rows(n_max: int) -> list[int]:
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        table[n] = min(
            x + (n - 2 - x) * (n - 3 - x) // 2 + table[x + 1] for x in range(n - 1)
        )
    return table


def general_rows(n_max: int) -> list[int]:
    """L(n) = min over x+y+z+i = n-2 of x+y+2z+C(i,2)+l'(x+1)+l'(y+1)+L(z)."""
    lp = restricted_rows(n_max)
    table = [0] * (n_max + 1)
    for n in range(4, n_max + 1):
        best = None
        for x in range(n - 1):
            for y in range(n - 1 - x):
                for z in range(n - 1 - x - y):
                    i = n - 2 - x - y - z
                    cost = x + y + 2 * z + i * (i - 1) // 2 + lp[x + 1] + lp[y + 1] + table[z]
                    if best is None or cost < best:
                        best = cost
        table[n] = best
    return table


def check_lb_table(stdout: str, n_max: int, rows_checked: int) -> str:
    lines = stdout.splitlines()
    if lines[:1] != ["n,lprime,general,omega"] or len(lines) != n_max - 2:
        return wrong("strength-lb table has the wrong shape")
    lp, gen = restricted_rows(rows_checked), general_rows(rows_checked)
    for line in lines[1 : rows_checked - 2]:
        n, lprime, general, omega = line.split(",")
        n = int(n)
        if (int(lprime), int(general)) != (lp[n], gen[n]):
            return wrong(f"strength-lb row {n} is {line}, recurrence gives {lp[n]},{gen[n]}")
        if abs(Decimal(omega) - Decimal(0.03 * n**1.2)) > Decimal("0.00011"):
            return wrong(f"strength-lb row {n} has omega {omega}")
    return OK
