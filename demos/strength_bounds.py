#!/usr/bin/env python3
"""How many edges must leave K_n before a gap labelling exists?

Exhaustive search answers exactly for n = 4, 5, 6.  For larger n, a
dynamic program over vertex decompositions gives a lower bound growing like
n^1.2, and a recursive peeling construction removes at most 3*n*sqrt(n)
edges while producing a concrete valid labelling.
"""

from gaplab import (
    complete_graph,
    construct_upper,
    check_bounds,
    emit_tables,
    exact_strength,
    general_lb,
    is_gap_labelling,
    remove_edges,
    removal_schedule,
)

print("exact values by exhaustive search:")
for n in (4, 5, 6):
    print(f"  K_{n}: remove {exact_strength(n)} edge(s)")

print()
print("lower-bound table (first rows):")
print("\n".join(emit_tables(12).splitlines()[:10]))

print()
violation = check_bounds(218)
print(f"power-law floors hold up to n=218: {violation is None}")

print()
print("the peeling construction on K_15:")
built = construct_upper(15)
for order, i, x in built.plan.steps:
    print(f"  round: order={order} independent={i} tail={x}")
print(f"  removed {len(built.removed)} edges")
g = remove_edges(complete_graph(15), built.removed)
print("  labelling valid:", is_gap_labelling(g, built.labelling)[0])

print()
print("sandwich at tiny orders (lower <= exact <= construction):")
lower = general_lb(6)
for n in (4, 5, 6):
    print(f"  n={n}: {lower[n]} <= {exact_strength(n)} <= {len(construct_upper(n).removed)}")

print()
big = removal_schedule(4000)
print(f"schedule for K_4000 removes {big.total_removed} edges over {len(big.steps)} rounds")
print(f"cap 3*n*sqrt(n) ~= {int(3 * 4000 * 4000 ** 0.5)}")
