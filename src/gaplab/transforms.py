"""Label transforms that preserve gap-labelling validity.

Three rank-based relabellings are provided.  A vertex's rank is its
position in (label, vertex index) order, so tied labels rank by index.

* ``distinctify`` makes all labels pairwise distinct while preserving their
  relative order, via label*2n + rank.
* ``power_two_relabel`` maps the vertex of rank i to 2**i, capping the
  largest label at 2**(n-1).
* ``golomb_relabel`` maps the vertex of rank i to the i-th mark of a Golomb
  ruler shifted by 2p**2, capping the largest label at O(n**2).  The shift
  keeps every degree-one colour (a full label, at least 2p**2) above every
  gap colour (a mark difference, at most 2p**2 - p - 1).  These n marks are
  ``decision_marks(n)``, which ``decide`` and ``naive_decide`` assign too.

All three take any valid labelling, ties included, and share one core,
``_relabel_by_rank``, whose docstring proves the rank lemma: a valid
labelling relabels exactly as its ``distinctify`` does.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidLabellingError
from .graph import Graph
from .labelling import Labelling, is_gap_labelling


def is_prime(p: int) -> bool:
    """Trial division by every d with d*d <= p.  For p < 2 the loop does not
    run, and ``p >= 2`` answers False."""
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return p >= 2


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


def _relabel_by_rank(g: Graph, labels, value) -> Labelling:
    """Send the vertex of rank r to ``value(r, label)``; the labels must be
    valid, and may repeat.

    The rank lemma: the power-of-two and mark maps need no ``distinctify``
    first.  Call an edge a *clash edge* when both its ends have degree >= 2
    and the same highest- and lowest-ranked neighbours.

    * In the (label, index) order of a valid labelling no edge clashes: the
      two ends of a clash edge would share their largest and smallest
      neighbour labels, so their colour, and the labelling would not be
      valid.
    * Under the marks, distinct extreme pairs give distinct gaps (a Golomb
      ruler), and a leaf's colour, a mark of at least 2p**2, lies above
      every gap.
    * Under powers of two, distinct pairs give distinct gaps 2**a - 2**b
      (binary).  A leaf whose neighbour w has rank c has colour 2**c, which
      equals w's gap only if w's lowest neighbour has rank c, that is, is w.

    So both maps send every valid labelling to a valid one, and to the same
    one as its ``distinctify``, which keeps the order.  The sort is stable
    over ascending vertex indices, so ties keep index order.
    """
    labels = tuple(labels)
    ok, conflicts = is_gap_labelling(g, labels)
    if not ok:
        listed = ", ".join(f"({u}, {v})" for u, v in conflicts)
        raise InvalidLabellingError(
            f"input is not a valid gap labelling (conflicts: {listed})", conflicts=conflicts
        )
    out = [0] * g.n
    for rank, v in enumerate(sorted(range(g.n), key=labels.__getitem__)):
        out[v] = value(rank, labels[v])
    return tuple(out)


def distinctify(g: Graph, labels) -> Labelling:
    """Make all labels distinct while keeping the labelling valid.

    The vertex of rank r is relabelled label*2n + r, which preserves the
    label order and therefore every gap comparison that decides properness.
    """
    scale = 2 * g.n
    return _relabel_by_rank(g, labels, lambda rank, label: label * scale + rank)


def power_two_relabel(g: Graph, labels) -> Labelling:
    """Send the vertex of rank r to 2**r."""
    return _relabel_by_rank(g, labels, lambda rank, _: 1 << rank)


def decision_marks(n: int) -> tuple[int, ...]:
    """The first n Erdos-Turan marks for p = next_prime(n), shifted by 2p^2."""
    p = next_prime(n)
    shift = 2 * p * p
    return tuple(m + shift for m in erdos_turan_ruler(p)[:n])


def golomb_relabel(g: Graph, labels) -> Labelling:
    """Send the vertex of rank r to ``decision_marks(n)[r]``."""
    marks = decision_marks(g.n)
    return _relabel_by_rank(g, labels, lambda rank, _: marks[rank])
