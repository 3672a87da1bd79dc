#!/usr/bin/env python3
"""Which complete graphs, path powers and cycle powers can be labelled at all?

Complete graphs stop at three vertices.  Path powers need the power to stay
below half the order (plus two small exceptions); cycle powers need a
quarter of the order (plus two exceptions).  For members outside those
ranges no labelling exists for any number of labels, and the evidence is
finite: wherever the extreme labels sit, two adjacent vertices see both of
them and clash.
"""

from gaplab import (
    CYCLE_POWER,
    FamilySpec,
    construct_cycle_power_labelling,
    construct_path_power_labelling,
    cycle_power,
    decide,
    is_gap_labelling,
    labelable_cycle_power,
    labelable_path_power,
    path_power,
    refute_witness,
)

print("path powers P_n^k, closed form vs search:")
for n in range(5, 9):
    for k in range(2, n):
        predicted = labelable_path_power(n, k)
        searched = decide(path_power(n, k)).labelable
        marker = "ok" if predicted == searched else "DISAGREE"
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

print()
print("refutation evidence for C_8^3 (not labelable):")
evidence = refute_witness(FamilySpec(CYCLE_POWER, 8, 3))
print("  placements covered:", len(evidence))
(a, b), (u, w) = next(iter(sorted(evidence.items())))
print(f"  e.g. extremes at ({a}, {b}) force equal colours on adjacent pair ({u}, {w})")
