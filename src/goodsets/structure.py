"""Relatedness, geodesics, component partitions, and boundary construction.

Two points of a good set are *related* when some full subset contains both;
a minimal such subset is a *geodesic*, and it is unique.  Both are decided
in polynomial time, by exact eliminations and no search over subsets.

Notation.  C(G) is the coordinate set of G, def(G) = |C(G)| - |G| its
deficiency, and K(G) the column kernel of G's incidence rows: the functions
g on C(G) with sum_i g(i, p_i) = 0 for every p in G.  In a good G the rows
are independent, so dim K(G) = def(G) >= n - 1, with equality exactly when
G is full.  The *signature* of p in G is (g(i, p_i)) for g over a basis of
K(G) and i over the axes.

Theorem.  Split G by signature and split each part again by its own
signature until every part is full; the final parts are the relatedness
classes.
  (a) All points of a full F inside G share one signature.  Restricted to
      C(F), each g in K(G) lies in K(F).  The per-axis constants summing to
      zero lie in K(F) and have dimension n - 1 = dim K(F), so they are all
      of it: g(i, p_i) is the same for every p in F.
  (b) If all points of a good G share one signature, every basis g is
      constant on each axis, as each coordinate of G is some p_i.  Then
      K(G) lies in the per-axis constants, def(G) <= n - 1, and G is full.
By (a) every full subset of G stays inside one part at every step, and a
part that is full is a full subset itself; by (b) a part that is not full
splits.  So at most |G| - 1 splits, one kernel each, leave parts that are
full and that hold every full subset through any of their points.  Two full
subsets F1, F2 sharing a point have a full union:
def(F1 | F2) = 2(n - 1) - |C(F1) & C(F2)| + |F1 & F2|, and the nonempty good
set F1 & F2 has |C(F1) & C(F2)| >= |C(F1 & F2)| >= |F1 & F2| + n - 1, so
def(F1 | F2) <= n - 1, which the good set F1 | F2 can only meet with
equality.  Hence x's class, the union of the full subsets through x, is the
final part holding x.  A full group is taken as final before any kernel is
built, so full and maximal sets cost no kernel here.

Signatures in integers.  Eliminate G's rows and back-substitute.  Each
pivot row r_p is primitive with a positive lead r_p[p] and, besides p, is
nonzero only at free columns.  The basis of K(G) has one vector per free
column f: 1 at f, 0 at the other free columns, and -r_p[f] / r_p[p] at
each pivot p.  So the basis's column at a pivot p, the values of the basis
vectors there, is v = -w / r_p[p], w the row's entries off p; at a free f
it is the unit vector e_f.  For a rational vector v exactly one a > 0 makes
(a, -a v) integer and primitive, and at a pivot that pair is (r_p[p], w),
the row itself: the primitive back-substituted row is the one
representative of its column's ray.  So the key (r_p[p], w) and the column
determine each other.  For e_f the pair is (1, {f: -1}), the key of a free
column f.  Two points share a signature exactly when their n coordinate
keys agree, and no `Fraction` is built to compare them.

Goodness.  Each public entry names itself to the refinement, whose first
elimination of S is the good-set check: one rank of S's rows when
def(S) = n - 1, otherwise the first split's elimination, as dim K(S) =
|C(S)| - rank exceeds def(S) exactly when the rows are dependent.  Every
later group is a subset of S and good with it.  The walks from one point
x, in `geodesic` here and in `solve`'s `bound_diagnostics` and
`solve_via_geodesics`, share one prologue, `_pinned_class`: x's class and
`_inverse`, the sparse inverse of its system pinned at x's first n - 1
coordinates, whose rows list the points they weight.  A set with
def(S) = n - 1 does not refine: it is one class exactly when it is good,
and its pinned system is square and singular exactly when S is not good,
so that inversion is its check.  A singular inversion of a proper class,
one the refinement has checked, is an internal error.

Geodesics.  The same equality gives |C(F1) & C(F2)| = |F1 & F2| + n - 1,
which squeezes |C(F1 & F2)| to that value: two full subsets sharing a point
meet in a full set.  This meet property makes the minimal full subset
through x and y, the geodesic g, unique, and it lies inside every full set
through both.  Let F be x's class and A its system pinned at x's first
n - 1 coordinates, square and invertible.  Call a set closed when every row
of A^-1 at one of its coordinates is zero on the points outside it.  The
intersection of two closed sets is closed, as C(U1 & U2) lies in C(U1) and
in C(U2), so a least closed set through x and y exists.

Theorem.  The least closed set U through x and y is g.
  (a) U is inside g.  For a full G in F through x, the pinned solve on G
      agrees with the one on F on C(G), so u_c for c in C(G) depends only
      on f on G.  Hence g is closed, and U, the least closed set through x
      and y, lies inside it.
  (b) U is full.  Closedness means that f = 0 on U forces u = 0 on C(U).
      So A^-1 maps {f on g : f = 0 on U}, of dimension |g| - |U|, into
      {u pinned on C(g) : u = 0 on C(U)}, of dimension |C(g)| - |C(U)|,
      and A maps back; hence |C(U)| = |U| + n - 1.  A full U inside the
      minimal g through x and y is g.
So a geodesic is one breadth-first walk from y's coordinates: a coordinate
c leads to the points with a nonzero entry in row c of A^-1, and a point to
its coordinates.  Every set it reaches lies inside the closed set g, and a
walk with nothing left to visit has reached U; so it meets a full set, and
the first one is g.  The first layer, the rows at y's coordinates, is the
*core*: the points every full subset through x and y holds.  One geodesic
eliminates for those n rows alone and for the full inverse only when the
core is not full, and a sweep over every y from one base walks all its
geodesics over one full inverse.

The classes drive the boundary construction: per axis, chains of components
sharing a value merge projection values into equivalence classes; each class
becomes a formal variable; each component contributes the relation "its n
incident class variables sum to zero"; a basis chosen among the variables
(the free columns of an exact elimination) yields the boundary once the
least value of each basis class is picked.  Prescribing arbitrary values on
the boundary then makes the decomposition of every right-hand side unique,
which is certified by exact rank: `linalg._is_boundary`, the one boundary
test, which `goodness.associated_full_set` shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    IncidenceSystem,
    _echelon,
    _incidence_row,
    _is_boundary,
    _pinned_inverse,
    rank,
)
from .model import (
    Coordinate,
    PinSet,
    Point,
    PointSet,
    PreconditionError,
    VerificationError,
    _axis,
    _coordinate,
)

__all__ = [
    "BoundaryConstruction",
    "ComponentPartition",
    "EiClasses",
    "Geodesic",
    "boundary",
    "ei_classes",
    "full_component",
    "geodesic",
    "related",
    "related_components",
    "verify_boundary",
]


def _signature_groups(G: PointSet, what: str | None = None) -> list[list[Point]]:
    """G's points grouped by their signature over a basis of K(G), in G's order.

    The signature is read off G's back-substituted rows as one integer key
    per coordinate (see the module docstring), with no kernel built.  With
    `what`, a kernel larger than def(G) means G is not good.
    """
    system = IncidenceSystem(G)
    ncols = len(system.columns)
    basis = _echelon(system.sparse_rows, ncols)
    if what is not None and ncols - basis.rank != G.deficiency():
        raise PreconditionError(f"{what} requires a good set")
    basis.back_substitute()
    rows = basis.pivot_rows
    keys = [
        (row[j], frozenset((k, x) for k, x in row.items() if k != j))
        if (row := rows.get(j)) is not None
        else (1, frozenset({(j, -1)}))
        for j in range(ncols)
    ]
    groups: dict[tuple, list[Point]] = {}
    for p, prow in zip(G, system.sparse_rows):
        groups.setdefault(tuple(keys[j] for j in prow), []).append(p)
    return list(groups.values())


def _classes(S: PointSet, what: str, x: Point | None = None) -> list[PointSet]:
    """The relatedness classes of S; with x, only the one holding x.

    A full group is final; any other group splits by signature, and one that
    does not split means the theorem failed.  S's first elimination is also
    its good-set check, failing with `what` named.
    """
    groups, classes = [S], []
    while groups:
        G = groups.pop()
        if G.deficiency() == S.space.n - 1:
            if G is S and rank(IncidenceSystem(G)) != len(G):
                raise PreconditionError(f"{what} requires a good set")
            classes.append(G)
            continue
        parts = _signature_groups(G, what if G is S else None)
        if len(parts) == 1:
            raise VerificationError("a group that is not full has one kernel signature")
        groups.extend(PointSet(S.space, part) for part in parts if x is None or x in part)
    return classes


@dataclass(frozen=True)
class Geodesic:
    """The unique smallest full subset of S containing both endpoints."""

    endpoints: tuple[Point, Point]
    points: PointSet

    @property
    def length(self) -> int:
        return len(self.points)


def related(S: PointSet, x, y) -> bool:
    """True iff some full subset of S contains both points."""
    x, y = S.require_member(x), S.require_member(y)
    return y in _classes(S, "related", x)[0]


def geodesic(S: PointSet, x, y) -> Geodesic | None:
    """The unique minimal full subset containing x and y, or None if unrelated.

    A walk that ends without a full set is a fatal internal error.
    """
    x, y = S.require_member(x), S.require_member(y)
    F, inverse = _pinned_class(S, x, "geodesic", y)
    if inverse is None:
        return None
    return Geodesic((x, y), PointSet(F.space, tuple(_walk(F, x, y, inverse))))


def _pinned_class(S: PointSet, x: Point, what: str, y: Point | None = None):
    """x's class F and F's `_inverse` pinned at x, or None for it.

    The prologue of every walk from x, `what` naming the caller.  With y,
    the inverse has the rows at y's coordinates alone and is built only
    when F holds y; without, it has every row and is built only when F is
    S.  A set with def(S) = n - 1 is one class exactly when it is good,
    and then its pinned system is square and singular exactly when S is
    not good, so that inversion is its good-set check.  Any other S is
    checked by the refinement, and a singular inversion of a proper class
    is an internal error.
    """
    F = S if S.deficiency() == S.space.n - 1 else _classes(S, what, x)[0]
    if F is not S and (y is None or y not in F):
        return F, None
    try:
        return F, _inverse(F, x, None if y is None else enumerate(y))
    except VerificationError:
        if F is not S:
            raise
        raise PreconditionError(f"{what} requires a good set") from None


def _inverse(F: PointSet, x: Point, targets=None) -> dict:
    """The sparse rows of F's system pinned at x's first n - 1 coordinates, inverted.

    `linalg._pinned_inverse` with the base pins of every walk from x: the
    rows at the `targets` alone when they are given, else every row.  A
    row's keys index the points of F that it weights.
    """
    pins = [(i, x[i]) for i in range(F.space.n - 1)]
    return _pinned_inverse(IncidenceSystem(F), pins, targets)


def _walk(F: PointSet, x: Point, y: Point, inverse: dict) -> set[Point]:
    """The points of the geodesic of x and y, walked over F's inverse pinned at x.

    F is full and holds x and y.  Layer by layer from y's coordinates, the
    walk adds the points with a nonzero entry in the rows at the new
    coordinates, counting the coordinates it has reached, and stops at the
    first full set.  It keeps the indices of its points in F, so a row's
    keys enter whole.  When the `inverse` lacks a row the walk needs, as one
    over the rows at y's coordinates alone does past its first layer, it is
    replaced by F's full inverse, once.
    """
    n, points = F.space.n, F.points
    reached = {points.index(x), points.index(y)}
    layer = list(enumerate(y))
    seen = set(layer)
    while layer:
        if any(c not in inverse for c in layer):
            inverse = _inverse(F, x)
        reached.update(*(inverse[c] for c in layer))
        coords = {c for k in reached for c in enumerate(points[k])}
        if len(coords) - len(reached) == n - 1:
            return {points[k] for k in reached}
        layer = coords - seen
        seen |= layer
    raise VerificationError("the geodesic is not full or misses its core")


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of a good set into its (full) relatedness components."""

    components: tuple[PointSet, ...]

    def __len__(self) -> int:
        return len(self.components)


def related_components(S: PointSet) -> ComponentPartition:
    """Relatedness classes in order of their least points, plus the structural assertions.

    Distinct classes may share at most n - 2 kinds of coordinates.
    """
    return _partition(S, "related_components")


def _partition(S: PointSet, what: str) -> ComponentPartition:
    """`related_components`, with `what` named when S is empty or not good."""
    S.require_nonempty(what)
    components = sorted(_classes(S, what), key=lambda c: S.space.point_key(c.points[0]))
    # Distinct components may share at most n - 2 kinds of coordinates.
    kinds = [[{p[i] for p in comp} for i in range(S.space.n)] for comp in components]
    for a in range(len(kinds)):
        for b in range(a + 1, len(kinds)):
            shared = sum(1 for va, vb in zip(kinds[a], kinds[b]) if not va.isdisjoint(vb))
            if shared > S.space.n - 2:
                raise VerificationError(
                    "distinct components share too many coordinate kinds"
                )
    return ComponentPartition(tuple(components))


def full_component(S: PointSet, x) -> PointSet:
    """The largest full subset of S containing x (its relatedness class)."""
    return _classes(S, "full_component", S.require_member(x))[0]


@dataclass(frozen=True)
class EiClasses:
    """Per axis, the partition of the projection values into chain classes.

    Two axis-i values fall in one class when a chain of components, adjacent
    ones overlapping on axis i, joins them.
    """

    classes_by_axis: tuple[tuple[tuple, ...], ...]

    def class_of(self, axis: int, label) -> tuple:
        for cls in self.classes_by_axis[_axis(axis, len(self.classes_by_axis))]:
            if label in cls:
                return cls
        raise PreconditionError(f"label {label!r} not classified on axis {axis}")


def ei_classes(S: PointSet, partition: ComponentPartition | None = None) -> EiClasses:
    """Per axis, merge the value sets that the components' projections touch.

    Each class is one set object, shared by all its values.  Reading S's
    projection in declaration order lists every class's values in that order,
    and the classes in the order of their least values.  A given partition
    must hold exactly S's points, checked in one pass.
    """
    if partition is None:
        partition = related_components(S)
    held = [p for comp in partition.components for p in comp]
    if len(held) != len(S) or set(held) != set(S):
        raise PreconditionError("the partition does not hold exactly the set's points")
    per_axis = []
    for i in range(S.space.n):
        merged: dict = {}
        for comp in partition.components:
            values = comp.projection(i)
            cls = set(values).union(*(merged.get(v, ()) for v in values))
            for v in cls:
                merged[v] = cls
        groups: dict = {}
        for v in S.projection(i):
            groups.setdefault(id(merged[v]), []).append(v)
        per_axis.append(tuple(map(tuple, groups.values())))
    return EiClasses(tuple(per_axis))


@dataclass(frozen=True)
class BoundaryConstruction:
    """The generator/relation system behind a boundary, plus the boundary itself.

    generators: all (axis, class) pairs in canonical order -- the formal
    variables.  relations: one per component, the sorted indices of its n
    incident class variables, which sum to zero.  Pivot generators of the
    exact elimination are dependent; the free ones form the basis, and the
    boundary takes the least value of each basis class.
    """

    partition: ComponentPartition
    cross_section: tuple[Point, ...]
    ei: EiClasses
    generators: tuple[tuple[int, tuple], ...]
    relations: tuple[tuple[int, ...], ...]
    pivot_generators: tuple[int, ...]
    basis_generators: tuple[int, ...]
    boundary: tuple[Coordinate, ...]

    def boundary_pins(self, values=None) -> PinSet:
        """Pin the boundary coordinates (at zero unless values are given)."""
        if values is None:
            return PinSet.zeros(self.boundary)
        try:
            return PinSet(tuple((c, values[c]) for c in self.boundary))
        except KeyError as exc:
            raise PreconditionError(f"no value given at boundary coordinate {exc}") from None


def boundary(S: PointSet) -> BoundaryConstruction:
    """Build a boundary of the good set S from the class/relation system.

    The construction is certified by `verify_boundary`: pinning the boundary
    must make the stacked system square of full rank, so any prescribed
    boundary values and any right-hand side admit exactly one solution.
    """
    partition = _partition(S, "boundary")
    ei = ei_classes(S, partition)

    generators = tuple((i, cls) for i in range(S.space.n) for cls in ei.classes_by_axis[i])
    generator_of = {(i, v): j for j, (i, cls) in enumerate(generators) for v in cls}

    cross_section = tuple(comp.points[0] for comp in partition.components)
    rows = [_incidence_row(rep, generator_of) for rep in cross_section]
    relations = tuple(tuple(sorted(row)) for row in rows)

    pivots = sorted(_echelon(rows, len(generators)).pivot_rows)
    basis = tuple(j for j in range(len(generators)) if j not in pivots)
    bound = tuple((generators[j][0], generators[j][1][0]) for j in basis)

    construction = BoundaryConstruction(
        partition=partition,
        cross_section=cross_section,
        ei=ei,
        generators=generators,
        relations=relations,
        pivot_generators=tuple(pivots),
        basis_generators=basis,
        boundary=bound,
    )

    verify_boundary(S, construction)
    return construction


def verify_boundary(S: PointSet, construction: BoundaryConstruction):
    """Certify the boundary contract by exact rank; raise on any violation.

    A boundary meets each class at most once and has def(S) coordinates, so
    stacked under S's rows it is square; `linalg._is_boundary` then decides
    its rank.
    """
    bound = tuple(map(_coordinate, construction.boundary))
    seen_classes = set()
    for axis, label in bound:
        cls = construction.ei.class_of(axis, label)
        if (axis, cls) in seen_classes:
            raise VerificationError("boundary meets a class twice")
        seen_classes.add((axis, cls))
    if len(bound) != S.deficiency():
        raise VerificationError(
            f"boundary size {len(bound)} differs from deficiency {S.deficiency()}"
        )
    if not _is_boundary(IncidenceSystem(S), bound):
        raise VerificationError("boundary pins do not force a unique solution")
