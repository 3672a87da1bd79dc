#!/usr/bin/env python3
"""Shrinking and normalising labels without breaking validity.

Any valid labelling, repeated labels and all, can be replaced rank for rank
(ties broken by vertex index) by a fixed label set.  Powers of two cap the
largest label at 2^(n-1); shifted Golomb-ruler marks cap it at about 4p^2
for a prime p between n and 2n, i.e. quadratically in n.  Making the labels
distinct first is a step of its own: it keeps the rank order, so it changes
neither replacement.
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


def valid(labels) -> bool:
    ok = is_gap_labelling(g, labels)[0]
    assert ok, labels
    return ok


g = cycle_power(6, 2)
labels = (1, 2, 4, 1, 2, 4)  # valid, but labels repeat
print("start:           ", labels, "valid:", valid(labels))

made_distinct = distinctify(g, labels)
print("distinctified:   ", made_distinct, "valid:", valid(made_distinct))

powers = power_two_relabel(g, labels)
print("powers of two:   ", powers, "max:", max(powers), "valid:", valid(powers))

ruler_labels = golomb_relabel(g, labels)
p = next_prime(g.n)
print("ruler relabelled:", ruler_labels, "max:", max(ruler_labels), "cap:", 4 * p * p,
      "valid:", valid(ruler_labels))
print("colours:", induced_colouring(g, ruler_labels))

# Relabelling the tied labelling directly gives what relabelling its
# distinct version gives, since distinctify keeps the (label, index) order.
same = (
    power_two_relabel(g, made_distinct) == powers
    and golomb_relabel(g, made_distinct) == ruler_labels
)
assert same
print("same from the distinctified labels:", same)
print()

# The ruler behind the last step: marks whose pairwise differences are all
# distinct, which is exactly why adjacent gap colours cannot collide.
marks = erdos_turan_ruler(p)
print(f"ruler for p={p}:", marks)
diffs = sorted(b - a for i, a in enumerate(marks) for b in marks[i + 1:])
all_distinct = len(diffs) == len(set(diffs))
assert all_distinct
print("all differences distinct:", all_distinct)
