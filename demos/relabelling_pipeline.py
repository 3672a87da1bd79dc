#!/usr/bin/env python3
"""Shrinking and normalising labels without breaking validity.

Any valid labelling can be rewritten so that all labels are distinct, then
replaced rank-for-rank by a fixed label set.  Powers of two cap the largest
label at 2^(n-1); shifted Golomb-ruler marks cap it at about 4p^2 for a
prime p between n and 2n, i.e. quadratically in n.
"""

from gaplab import (
    cycle_power,
    distinctify,
    erdos_turan_ruler,
    golomb_relabel,
    induced_colouring,
    is_gap_labelling,
    next_prime,
    power_two_relabel,
)

g = cycle_power(6, 2)
labels = (1, 2, 4, 1, 2, 4)  # valid, but labels repeat
print("start:           ", labels, "valid:", is_gap_labelling(g, labels)[0])

made_distinct = distinctify(g, labels)
print("distinctified:   ", made_distinct, "valid:", is_gap_labelling(g, made_distinct)[0])

powers = power_two_relabel(g, made_distinct)
print("powers of two:   ", powers, "max:", max(powers))

ruler_labels = golomb_relabel(g, made_distinct)
p = next_prime(g.n)
print("ruler relabelled:", ruler_labels, "max:", max(ruler_labels), "cap:", 4 * p * p)
print("colours:", induced_colouring(g, ruler_labels))
print()

# The ruler behind the last step: marks whose pairwise differences are all
# distinct, which is exactly why adjacent gap colours cannot collide.
marks = erdos_turan_ruler(p)
print(f"ruler for p={p}:", marks)
diffs = sorted(b - a for i, a in enumerate(marks) for b in marks[i + 1:])
print("all differences distinct:", len(diffs) == len(set(diffs)))
