#!/usr/bin/env python3
"""Relatedness, geodesics, components, and boundary sets.

Two points of a good set are related when some full subset contains both;
the smallest such subset is unique and is called the geodesic.  Relatedness
classes partition the set into full components, and chains of components
sharing axis values drive the construction of a *boundary*: a set of
coordinate values whose prescription pins down the additive split of every
function uniquely.
"""

from fractions import Fraction

import goodsets as gs

space = gs.Space.of(("x", (0, 1)), ("y", (0, 1)), ("z", (0, 1)))
t4 = gs.PointSet.of(space, [(1, 0, 1), (1, 1, 0), (0, 1, 1), (0, 0, 0)])

# In two dimensions geodesics are zig-zag chains and distances vary; in T4
# every pair of distinct points is at geodesic distance four.
print("T4 pairwise geodesic lengths:")
for i, x in enumerate(t4.points):
    for y in t4.points[i + 1:]:
        print(f"  {x} -- {y}: length {gs.geodesic(t4, x, y).length}")

chain = gs.PointSet.from_points([("a", "b"), ("c", "b"), ("c", "d")])
g = gs.geodesic(chain, ("a", "b"), ("c", "d"))
print("\nn=2 chain geodesic:", list(g.points), "length", g.length)

# The diagonal's endpoints admit no common full subset: unrelated, so the
# set splits into two one-point components.
diagonal = gs.PointSet.of(space, [(0, 0, 0), (1, 1, 1)])
print("\ndiagonal related?", gs.related(diagonal, (0, 0, 0), (1, 1, 1)))
partition = gs.related_components(diagonal)
print("components:", [list(c) for c in partition.components])

# Per axis, components sharing a value merge projection values into classes;
# each class is one variable, each component one relation, and a basis among
# the variables yields the boundary (least value per basis class).
construction = gs.boundary(diagonal)
print("\nclass variables:", construction.generators)
print("relations (incident variables of each component):", construction.relations)
print("dependent (pivot) variables:", construction.pivot_generators)
print("boundary coordinates:", construction.boundary)

# Prescribing arbitrary values on the boundary makes every solve unique.
values = {coord: Fraction(k, 3) for k, coord in enumerate(construction.boundary)}
report = gs.solve_with_boundary(
    diagonal, gs.FunctionTable.zero(diagonal), gs.PinSet.of(values)
)
print("\nzero function with prescribed boundary values:")
for axis, table in enumerate(report.decomposition.tables):
    print(f"  axis {axis}:", dict(sorted(table.items())))

# Dropping any boundary point loses uniqueness.
first = construction.boundary[0]
reduced = gs.PinSet.of({c: v for c, v in values.items() if c != first})
weaker = gs.solve_pinned(
    gs.IncidenceSystem(diagonal), gs.FunctionTable.zero(diagonal), reduced
)
print("\nafter dropping", first, "the verdict is:", weaker.verdict)
