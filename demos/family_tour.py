#!/usr/bin/env python3
"""Which complete graphs, path powers and cycle powers can be labelled at all?

Complete graphs stop at three vertices.  Path powers need the power to stay
below half the order (plus two small exceptions); cycle powers need a
quarter of the order (plus two exceptions).  For members outside those
ranges no labelling exists for any number of labels, and the evidence is
finite: for every pair of vertices that could hold the extreme labels, two
adjacent vertices see both of them and clash.  The same evidence refutes
graphs outside the families too.

Exits with status 1 if a closed form disagrees with the search or a
certificate fails its check.
"""

import sys

from gaplab import (
    complete_graph,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    cycle_power,
    decide,
    is_gap_labelling,
    labelable_path_power,
    path_power,
    remove_edges,
    shared_gap_certificate,
)

failures = 0

print("path powers P_n^k, closed form vs search:")
for n in range(5, 9):
    for k in range(2, n):
        predicted = labelable_path_power(n, k)
        searched = decide(path_power(n, k)).labelable
        marker = "ok" if predicted == searched else "DISAGREE"
        failures += marker != "ok"
        print(f"  n={n} k={k}: predicate={predicted} search={searched} [{marker}]")

print()
print("a constructed labelling for P_8^3 (powers of two):")
labels = construct_path_power_labelling(8, 3)
print("  labels:", labels)
print("  valid: ", is_gap_labelling(path_power(8, 3), labels)[0])

print()
print("cycle powers use both directions around the ring:")
labels = construct_cycle_power_labelling(9, 2)
print("  C_9^2 labels:", labels)
print("  valid:", is_gap_labelling(cycle_power(9, 2), labels)[0])


def certify(name, g):
    """Print g's shared-gap certificate and check it edge by edge."""
    certificate = shared_gap_certificate(g)
    pairs = [(t, b) for t in range(g.n) for b in range(t + 1, g.n)]
    sound = (
        certificate is not None
        and sorted(certificate) == pairs
        and all(
            g.has_edge(u, w) and all(g.has_edge(x, y) for x in (t, b) for y in (u, w))
            for (t, b), (u, w) in certificate.items()
        )
    )
    print()
    print(f"refutation certificate for {name} (not labelable):")
    if certificate:
        print("  vertex pairs covered:", len(certificate))
        (t, b), (u, w) = min(certificate.items())
        print(f"  e.g. extremes on {t} and {b} force equal colours on adjacent pair ({u}, {w})")
    print("  sound:", sound)
    return sound


failures += not certify("C_8^3", cycle_power(8, 3))
failures += not certify("K_5 minus the edge 0-1", remove_edges(complete_graph(5), [(0, 1)]))
sys.exit(failures > 0)
