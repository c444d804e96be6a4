#!/usr/bin/env python3
"""Solving the additive equation, four ways, plus the doubling chain.

The split of f into per-axis tables is linear algebra over the point /
coordinate incidence pattern, and all four solver routes must agree:
direct pinned elimination, one solve pinned at a base whose geodesics
reach every point, the same per component, and prescribed boundary
values.  The famous three-axis chain shows why boundedness can fail for
n > 2: solution values double along the chain even though f is an
indicator.
"""

from fractions import Fraction

import goodsets as gs
from goodsets.instances import example_instance, parse_instance

space = gs.Space.of(("x", (0, 1)), ("y", (0, 1)), ("z", (0, 1)))
t4 = gs.PointSet.of(space, [(1, 0, 1), (1, 1, 0), (0, 1, 1), (0, 0, 0)])
f = gs.FunctionTable.indicator(t4, (0, 0, 0))

# Direct: stack the pins as unit equations and eliminate exactly.
pins = gs.PinSet.zeros([(0, 1), (1, 1)])
direct = gs.solve_direct(t4, f, pins)
print("direct   :", [dict(t) for t in direct.decomposition.tables])

# Geodesic: pin the base (1,1,0)'s first two coordinates, the pins above, check
# that every point has a geodesic from the base, and solve once.
via_geodesics = gs.solve_via_geodesics(t4, f, (1, 1, 0))
print("geodesic :", [dict(t) for t in via_geodesics.decomposition.tables])
print("agree?", direct.decomposition.tables == via_geodesics.decomposition.tables)

# Componentwise handles sets whose components share no coordinate.
diagonal = gs.PointSet.of(space, [(0, 0, 0), (1, 1, 1)])
g = gs.FunctionTable(diagonal, {(0, 0, 0): Fraction(3), (1, 1, 1): Fraction(-2)})
componentwise = gs.solve_componentwise(diagonal, g)
print("\ntwo disjoint components:", [dict(t) for t in componentwise.decomposition.tables])

# The doubling chain: the indicator of the base point forces values that
# grow like 2^n along the chain, although |f| <= 1 everywhere.
inst = parse_instance(example_instance("ex10_depth5"))
report = gs.solve_direct(inst.point_set, inst.f, inst.pins)
d = report.decomposition
print("\ndoubling chain, depth 5, f = indicator of (x0,y0,z0):")
for n in range(6):
    u, v, w = (str(d.value(axis, f"{c}{n}")) for axis, c in enumerate("xyz"))
    print(f"  U(x{n}) = {u:>4}   V(y{n}) = {v:>4}   W(z{n}) = {w:>4}")

diag = gs.bound_diagnostics(inst.point_set, ("x0", "y0", "z0"))
print("max geodesic length:", diag.max_geodesic_length)
print("worst |value| over singleton indicators:", diag.max_abs_indicator_value)
