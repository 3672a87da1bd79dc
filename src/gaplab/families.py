"""Labelability predicates and explicit labellings for three graph families.

Complete graphs are labelable only up to three vertices.  Path powers P_n^k
are labelable exactly for P_3^2, P_4^2 and the regime n >= 5, k < n/2, where
assigning 2^i to vertex i works because every induced colour is a distinct
difference of two powers of two.  Cycle powers C_n^k are labelable exactly
for C_6^2, C_7^2 and the regime n >= 8, k <= floor(n/4), labelled by powers
of two increasing along one half of the cycle and decreasing along the
other.

For the non-labelable members, ``refute_witness`` turns the impossibility
argument into checkable data: wherever the largest and smallest labels sit,
two adjacent vertices see both of them and are forced to share a colour.

One table at the bottom of the module maps each family name to its
generator, predicate and labelling; ``build_family``, ``family_labelling``
and ``refute_witness`` all dispatch through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .graph import Graph, complete_graph, cycle_power, path_power
from .labelling import Labelling

COMPLETE = "complete"
PATH_POWER = "path-power"
CYCLE_POWER = "cycle-power"


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int
    k: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != COMPLETE and self.k is None:
            raise ValueError(f"{self.family} needs a power k")


_GENERATOR, _PREDICATE, _LABELLING = range(3)  # the columns of ``_FAMILIES``


def _call(spec: FamilySpec, column: int):
    """Call the function in ``column`` of the spec's row on (n,) or (n, k).

    The function is looked up by name in this module's globals, so a wrapper
    installed on the module attribute (as perfbench's tracer does) is the one
    called.
    """
    fn = globals()[_FAMILIES[spec.family][column].__name__]
    return fn(spec.n) if spec.family == COMPLETE else fn(spec.n, spec.k)


def build_family(spec: FamilySpec) -> Graph:
    return _call(spec, _GENERATOR)


def family_labelling(spec: FamilySpec) -> Labelling:
    """The family's explicit labelling; DomainError if the member has none."""
    return _call(spec, _LABELLING)


def labelable_complete(n: int) -> bool:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n <= 3


def labelable_path_power(n: int, k: int) -> bool:
    if n < 3 or not 2 <= k < n:
        raise ValueError(f"path-power predicate needs n >= 3 and 2 <= k < n, got ({n}, {k})")
    return (n, k) in ((3, 2), (4, 2)) or (n >= 5 and 2 * k < n)


def labelable_cycle_power(n: int, k: int) -> bool:
    if n < 4 or k < 2 or 2 * k >= n:
        raise ValueError(f"cycle-power predicate needs n >= 4 and 2 <= k < n/2, got ({n}, {k})")
    return (n, k) in ((6, 2), (7, 2)) or (n >= 8 and k <= n // 4)


def construct_complete_labelling(n: int) -> Labelling:
    """The small complete graphs' reference labellings."""
    if not labelable_complete(n):
        raise DomainError(f"K_{n} admits no gap labelling")
    return ((1,), (2, 1), (2, 1, 4))[n - 1]


def construct_path_power_labelling(n: int, k: int) -> Labelling:
    if not labelable_path_power(n, k):
        raise DomainError(f"P_{n}^{k} admits no gap labelling")
    if (n, k) == (3, 2):
        return (2, 1, 4)
    if (n, k) == (4, 2):
        return (2, 1, 4, 2)
    return tuple(1 << i for i in range(n))


def construct_cycle_power_labelling(n: int, k: int) -> Labelling:
    if not labelable_cycle_power(n, k):
        raise DomainError(f"C_{n}^{k} admits no gap labelling")
    if (n, k) == (6, 2):
        return (1, 2, 4, 1, 2, 4)
    if (n, k) == (7, 2):
        return (1, 8, 4, 4, 4, 4, 2)
    half = (n + 1) // 2  # ceil(n/2): first index of the decreasing side
    return tuple(1 << i if i < half else 1 << (half + n - i) for i in range(n))


@dataclass(frozen=True)
class ConflictEvidence:
    """Per extremal placement, an adjacent pair forced to share a colour.

    ``pairs[(a, b)] = (u, w)`` certifies: if vertex a holds the unique
    largest label and b the unique smallest, then u and w are adjacent and
    both have a and b among their neighbours, so both are coloured by the
    same gap.  Covering every ordered placement (a, b) refutes labelability,
    since any valid labelling could be made injective first.
    """

    spec: FamilySpec
    pairs: dict[tuple[int, int], tuple[int, int]]

    def covers_all_placements(self) -> bool:
        n = self.spec.n
        return len(self.pairs) == n * (n - 1)


def refute_witness(spec: FamilySpec) -> ConflictEvidence:
    """Exhaustive conflict evidence for a non-labelable family member.

    Raises DomainError for labelable parameters, and RuntimeError if some
    placement admits no conflict pair (which would mean this certificate
    style cannot refute the graph; the covered families never hit it).
    """
    if _call(spec, _PREDICATE):
        raise DomainError(f"{spec} is labelable; nothing to refute")
    g = build_family(spec)
    nbr_sets = [set(g.adjacency[v]) for v in range(g.n)]
    pairs: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(g.n):
        for b in range(g.n):
            if a == b:
                continue
            shared = (nbr_sets[a] & nbr_sets[b]) - {a, b}
            found = None
            for u in sorted(shared):
                for w in sorted(shared):
                    if u < w and w in nbr_sets[u]:
                        found = (u, w)
                        break
                if found:
                    break
            if found is None:
                raise RuntimeError(
                    f"no conflict pair for extremes ({a}, {b}) in {spec}; "
                    "refutation by shared-gap evidence is inconclusive"
                )
            pairs[(a, b)] = found
    return ConflictEvidence(spec=spec, pairs=pairs)


# family -> (generator, predicate, labelling), each taking (n,) for the
# complete family and (n, k) otherwise.
_FAMILIES = {
    COMPLETE: (complete_graph, labelable_complete, construct_complete_labelling),
    PATH_POWER: (path_power, labelable_path_power, construct_path_power_labelling),
    CYCLE_POWER: (cycle_power, labelable_cycle_power, construct_cycle_power_labelling),
}
