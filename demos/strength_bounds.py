#!/usr/bin/env python3
"""How many edges must leave K_n before a gap labelling exists?

A dynamic program over vertex decompositions gives a lower bound L(n)
growing like n^1.2, and a recursive peeling construction removes at most
3*n*sqrt(n) edges while producing a concrete valid labelling.  For n = 4,
5, 6 the two bounds meet, so they give the exact value; from n = 7 on the
construction removes more.

Exits 1 if the bounds do not meet at n = 4..6 or the construction's
labelling of K_15 is invalid.
"""

import sys

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

lower = general_lb(7)
print("lower bound L(n) against the construction's removals:")
meet = True
for n in (4, 5, 6, 7):
    upper = removal_schedule(n).total_removed
    if n <= 6:
        meet = meet and upper == lower[n]
    print(f"  K_{n}: L={lower[n]}, construction removes {upper}"
          f" ({'meet' if upper == lower[n] else 'part'})")
if meet:
    print("exact strengths of K_4, K_5, K_6:", *(exact_strength(n) for n in (4, 5, 6)))

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
valid = is_gap_labelling(g, built.labelling)[0]
print("  labelling valid:", valid)

print()
big = removal_schedule(4000)
print(f"schedule for K_4000 removes {big.total_removed} edges over {len(big.steps)} rounds")
print(f"cap 3*n*sqrt(n) ~= {int(3 * 4000 * 4000 ** 0.5)}")

if not (meet and valid):
    sys.exit(1)
