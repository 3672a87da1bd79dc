"""Label transforms that preserve gap-labelling validity.

Three rank-based relabellings are provided:

* ``distinctify`` makes all labels pairwise distinct while preserving their
  relative order (ties broken by vertex index), via label*2n + rank.
* ``power_two_relabel`` maps the vertex with the i-th smallest label to 2**i,
  capping the largest label at 2**(n-1).
* ``golomb_relabel`` maps the vertex of rank i to the i-th mark of a Golomb
  ruler shifted by 2p**2, capping the largest label at O(n**2).  The shift
  keeps every degree-one colour (a full label, at least 2p**2) above every
  gap colour (a mark difference, at most 2p**2 - p - 1).  These n marks are
  ``decision_marks(n)``, which the decision search and the exact strength
  check assign too.

All three require a valid input labelling; the ruler and power-of-two maps
additionally require distinct labels (apply ``distinctify`` first).
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidLabellingError
from .graph import Graph
from .labelling import Labelling, is_gap_labelling


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime p >= max(n, 2); Bertrand's postulate gives p <= 2n for n >= 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


def erdos_turan_ruler(p: int) -> tuple[int, ...]:
    """The p marks 2pk + (k^2 mod p), a Golomb ruler; largest mark <= 2p^2 - p - 1."""
    if not is_prime(p):
        raise ValueError(f"ruler construction needs a prime, got {p}")
    return tuple(2 * p * k + (k * k) % p for k in range(p))


def is_golomb_ruler(marks) -> bool:
    """Brute-force check that all pairwise differences are distinct."""
    marks = tuple(marks)
    if any(b <= a for a, b in zip(marks, marks[1:])):
        return False
    diffs = [b - a for a, b in combinations(marks, 2)]
    return len(diffs) == len(set(diffs))


def _require_valid(g: Graph, labels) -> Labelling:
    labels = tuple(labels)
    ok, conflicts = is_gap_labelling(g, labels)
    if not ok:
        listed = ", ".join(f"({u}, {v})" for u, v in conflicts)
        raise InvalidLabellingError(
            f"input is not a valid gap labelling (conflicts: {listed})", conflicts=conflicts
        )
    return labels


def _ranks(labels: Labelling) -> list[int]:
    """Vertices ordered by (label, vertex index); position = rank.

    The sort is stable over ascending vertex indices, so ties keep index order.
    """
    return sorted(range(len(labels)), key=labels.__getitem__)


def distinctify(g: Graph, labels) -> Labelling:
    """Make all labels distinct while keeping the labelling valid.

    The vertex of rank i (stable sort by label, then index) is relabelled
    label*2n + i, which preserves the label order and therefore every gap
    comparison that decides properness.
    """
    labels = _require_valid(g, labels)
    scale = 2 * g.n
    out = [0] * g.n
    for rank, v in enumerate(_ranks(labels)):
        out[v] = labels[v] * scale + rank
    return tuple(out)


def _relabel_by_rank(g: Graph, labels, values) -> Labelling:
    """Send the vertex of rank i to ``values[i]``; the labels must be valid
    and pairwise distinct."""
    labels = _require_valid(g, labels)
    if len(set(labels)) != len(labels):
        raise InvalidLabellingError(
            "labels must be pairwise distinct; apply distinctify first"
        )
    out = [0] * g.n
    for rank, v in enumerate(_ranks(labels)):
        out[v] = values[rank]
    return tuple(out)


def power_two_relabel(g: Graph, labels) -> Labelling:
    """Send the vertex with the i-th smallest label to 2**i."""
    return _relabel_by_rank(g, labels, [1 << i for i in range(g.n)])


def decision_marks(n: int) -> tuple[int, ...]:
    """The first n Erdos-Turan marks for p = next_prime(n), shifted by 2p^2."""
    p = next_prime(n)
    shift = 2 * p * p
    return tuple(m + shift for m in erdos_turan_ruler(p)[:n])


def golomb_relabel(g: Graph, labels) -> Labelling:
    """Send the vertex of rank i to ``decision_marks(n)[i]``."""
    return _relabel_by_rank(g, labels, decision_marks(g.n))
