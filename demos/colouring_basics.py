#!/usr/bin/env python3
"""A walk through gap-induced colourings on small graphs.

Each vertex with two or more neighbours is coloured by the spread of its
neighbours' labels (largest minus smallest); a vertex with one neighbour just
copies that neighbour's label.  A labelling is "good" when the colouring is
proper: no edge joins equal colours.
"""

from gaplab import (
    complete_graph,
    graph_from_edges,
    induced_colouring,
    is_gap_labelling,
    path_power,
    serialize_graph,
)

# The triangle with labels 2, 1, 4: every vertex sees the other two, so the
# colours are the three pairwise label gaps.
triangle = complete_graph(3)
labels = (2, 1, 4)
print("triangle edge list:")
print(serialize_graph(triangle))
print("labels:  ", labels)
print("colours: ", induced_colouring(triangle, labels))
ok, _ = is_gap_labelling(triangle, labels)
print("proper?  ", ok)
print()

# Colour zero is legitimate: when all neighbours of a vertex agree, the gap
# vanishes.  A star with identically labelled leaves shows it.
star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
print("star labels (5, 1, 1, 1) ->", induced_colouring(star, (5, 1, 1, 1)))
print()

# Not every labelling works.  Consecutive labels on a triangle collide:
ok, conflicts = is_gap_labelling(triangle, (1, 2, 3))
print("triangle with labels (1, 2, 3):", "proper" if ok else f"improper, conflicts: {', '.join(map(str, conflicts))}")
print()

# The second power of the four-vertex path admits the labelling (2, 1, 4, 2).
p42 = path_power(4, 2)
labels = (2, 1, 4, 2)
print("P_4^2 labels:", labels)
print("P_4^2 colours:", induced_colouring(p42, labels))
print("valid:", is_gap_labelling(p42, labels)[0])
