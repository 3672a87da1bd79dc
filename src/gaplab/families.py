"""Labelability predicates and explicit labellings for three graph families.

Complete graphs are labelable only up to three vertices.  Path powers P_n^k
are labelable exactly for P_3^2, P_4^2 and the regime n >= 5, k < n/2, where
assigning 2^i to vertex i works because every induced colour is a distinct
difference of two powers of two.  Cycle powers C_n^k are labelable exactly
for C_6^2, C_7^2 and the regime n >= 8, k <= floor(n/4), labelled by powers
of two increasing along one half of the cycle and decreasing along the
other.

The non-labelable members are refuted by the shared-gap argument, which
``decide.shared_gap_certificate`` turns into checkable data for any graph.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError
from .graph import Graph, complete_graph, cycle_power, path_power
from .labelling import Labelling

COMPLETE = "complete"
PATH_POWER = "path-power"
CYCLE_POWER = "cycle-power"


class FamilySpec(namedtuple("FamilySpec", "family n k")):
    __slots__ = ()

    def __new__(cls, family: str, n: int, k: int | None = None):
        if family not in (COMPLETE, PATH_POWER, CYCLE_POWER):
            raise ValueError(f"unknown family {family!r}")
        if family != COMPLETE and k is None:
            raise ValueError(f"{family} needs a power k")
        return super().__new__(cls, family, n, k)


def build_family(spec: FamilySpec) -> Graph:
    if spec.family == COMPLETE:
        return complete_graph(spec.n)
    if spec.family == PATH_POWER:
        return path_power(spec.n, spec.k)
    return cycle_power(spec.n, spec.k)


def family_labelling(spec: FamilySpec) -> Labelling:
    """The family's explicit labelling; DomainError if the member has none."""
    if spec.family == COMPLETE:
        return construct_complete_labelling(spec.n)
    if spec.family == PATH_POWER:
        return construct_path_power_labelling(spec.n, spec.k)
    return construct_cycle_power_labelling(spec.n, spec.k)


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
