"""Relatedness, geodesics, component partitions, and boundary construction.

Two points of a good set are *related* when some full subset contains both;
a minimal such subset is a *geodesic*, and it is unique.  Both come from
one depth-first search over the points in canonical order, across all sizes.
Inside a good set every subset is good, so a selection is full exactly when
need = deficiency - (n - 1) is zero, and as an added point lowers the
deficiency by at most one, every full extension has at least size + need
points.  So a selection is pruned, losing no full set the search is after,
when `need` exceeds the points left after it or, when every minimal subset
is wanted, when size + need exceeds the least full size found so far.  A
full selection is a leaf, as its extensions are not minimal.  The search is
exponential in the worst case; there is no known polynomial relatedness test
for n > 2, and desk-scale sets are the target.

Relatedness classes are grown from the full subsets the search finds.  Two
full subsets F1, F2 of a good set that share a point have a full union: with
C(.) the coordinate set and def(.) the deficiency,
def(F1 | F2) = 2(n - 1) - |C(F1) & C(F2)| + |F1 & F2|, and the nonempty good
set F1 & F2 has |C(F1) & C(F2)| >= |C(F1 & F2)| >= |F1 & F2| + n - 1, so
def(F1 | F2) <= n - 1, which the good set F1 | F2 can only meet with
equality.  Hence x's class is the union of the full subsets through x, it is
full, and the classes partition the set.  Growing it costs one search per
point not yet in it, and a hit adds the whole full subset it found.  The
partition grows each class from the least point not yet assigned and
searches only the unassigned points: a full subset holding that point and a
point of an earlier class would have put it in that class.

The same equality gives |C(F1) & C(F2)| = |F1 & F2| + n - 1, which squeezes
|C(F1 & F2)| to that value: two full subsets sharing a point meet in a full
set.  So the geodesic of x and y lies inside every full F through both (else
its meet with F would be a smaller full set through them), and a geodesic is
searched inside one such F: the set itself when it is full, else the first
full subset a search meets.  Inside F the search starts from the *core* of
x and y.  Pinning x's first n - 1 coordinates makes F's system square and
invertible, and for a full G in F through x the pinned solve on G agrees
with the one on F on C(G), so u_c for c in C(G) depends only on f on G.
Hence the points with a nonzero entry in the rows of the inverse at y's
coordinates lie in every full G through x and y, and with x and y they form
the core.  Every minimal full subset through x and y contains it, so the
uniqueness check still sees every competitor, and most often the core is
the geodesic and the search ends at its root.

The classes drive the boundary construction: per axis, chains of components
sharing a value merge projection values into equivalence classes; each class
becomes a formal variable; each component contributes the relation "its n
incident class variables sum to zero"; a basis chosen among the variables
(the free columns of an exact elimination) yields the boundary once the
least value of each basis class is picked.  Prescribing arbitrary values on
the boundary then makes the decomposition of every right-hand side unique,
which is certified by exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .goodness import is_full, is_good
from .linalg import IncidenceSystem, _echelon, _pinned_inverse, _stack_pins
from .model import (
    Coordinate,
    PinSet,
    Point,
    PointSet,
    PreconditionError,
    VerificationError,
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


def _require_member(S: PointSet, p) -> Point:
    p = S.space.validate_point(p)
    if p not in S:
        raise PreconditionError(f"{p!r} is not a point of the set")
    return p


def _core(F: PointSet, x: Point, y: Point) -> tuple[Point, ...]:
    """x, y and the points that every full subset of F through x and y holds.

    F is full and holds x and y; with x's first n - 1 coordinates pinned,
    these are the points with a nonzero entry in a row of the inverse at one
    of y's coordinates.
    """
    system = IncidenceSystem(F)
    inverse = _pinned_inverse(system, [(i, x[i]) for i in range(F.space.n - 1)])
    support = {x, y}
    support.update(p for c in enumerate(y) for p, v in zip(system.points, inverse[c]) if v)
    return tuple(p for p in F if p in support)


def _geodesic_search(S: PointSet, x: Point, y: Point, find_all: bool):
    """Full subsets of the good set S containing {x, y}, or [] if unrelated.

    With find_all=False the first one the search meets, of any size.  With
    find_all=True, S must be full; the search starts from the core of x and
    y and returns every full subset of minimal cardinality.
    """
    n = S.space.n
    required = _core(S, x, y) if find_all else ((x,) if x == y else (x, y))
    coords_of = {p: tuple(enumerate(p)) for p in S}
    rest = [p for p in S if p not in required]
    counts: dict[Coordinate, int] = {}
    for p in required:
        for coord in coords_of[p]:
            counts[coord] = counts.get(coord, 0) + 1
    distinct = len(counts)

    found: list[tuple[Point, ...]] = []
    chosen: list[Point] = []
    best = len(S)

    def dfs(start: int) -> bool:
        nonlocal distinct, best
        size = len(required) + len(chosen)
        need = distinct - size - (n - 1)
        if need == 0:
            if size < best:
                best = size
                found.clear()
            found.append(required + tuple(chosen))
            return not find_all
        if need > len(rest) - start or size + need > best:
            return False
        for idx in range(start, len(rest)):
            p = rest[idx]
            for coord in coords_of[p]:
                counts[coord] = counts.get(coord, 0) + 1
                distinct += counts[coord] == 1
            chosen.append(p)
            stop = dfs(idx + 1)
            chosen.pop()
            for coord in coords_of[p]:
                counts[coord] -= 1
                distinct -= counts[coord] == 0
            if stop:
                return True
        return False

    dfs(0)
    return found


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
    if not is_good(S):
        raise PreconditionError("related requires a good set")
    x, y = _require_member(S, x), _require_member(S, y)
    if x == y or S.deficiency() == S.space.n - 1:
        return True  # S itself is a full subset containing both
    return bool(_geodesic_search(S, x, y, find_all=False))


def geodesic(S: PointSet, x, y) -> Geodesic | None:
    """The unique minimal full subset containing x and y, or None if unrelated.

    At the minimal cardinality *all* qualifying subsets are enumerated and
    exactly one must exist; a violation is a fatal internal error.
    """
    if not is_good(S):
        raise PreconditionError("geodesic requires a good set")
    return _geodesic(S, _require_member(S, x), _require_member(S, y))


def _geodesic(S: PointSet, x: Point, y: Point) -> Geodesic | None:
    """The search behind `geodesic`, for a good S and two of its points.

    The minimal search runs inside S when S is full, else inside the first
    full subset through x and y that a search meets.
    """
    F = S
    if S.deficiency() != S.space.n - 1:
        hits = _geodesic_search(S, x, y, find_all=False)
        if not hits:
            return None
        F = PointSet(S.space, hits[0])
    hits = _geodesic_search(F, x, y, find_all=True)
    if len(hits) != 1:
        raise VerificationError(
            f"{len(hits)} distinct minimal full subsets join the pair; expected one"
        )
    return Geodesic((x, y), PointSet(S.space, hits[0]))


@dataclass(frozen=True)
class ComponentPartition:
    """Partition of a good set into its (full) relatedness components."""

    components: tuple[PointSet, ...]
    index: dict

    def component_of(self, p) -> PointSet:
        return self.components[self.index[tuple(p)]]

    def __len__(self) -> int:
        return len(self.components)


def _component(S: PointSet, x: Point) -> PointSet:
    """x's relatedness class in the good set S: the union of the full subsets through x.

    Each point not yet in the class gets one search for a full subset through
    it and x; a hit adds that whole subset, a miss marks the point unrelated.
    A marked point that another hit adds anyway means the search missed a
    full subset, as does a class that is not full.
    """
    members = set(S.points) if S.deficiency() == S.space.n - 1 else {x}
    unrelated = []
    for p in S:
        if p in members:
            continue
        hits = _geodesic_search(S, x, p, find_all=False)
        if hits:
            members.update(hits[0])
        else:
            unrelated.append(p)
    if any(p in members for p in unrelated):
        raise VerificationError("a full subset joins a point the search called unrelated")
    comp = PointSet(S.space, tuple(members))
    if not is_full(comp):
        raise VerificationError("a relatedness class is not full")
    return comp


def related_components(S: PointSet) -> ComponentPartition:
    """Relatedness classes in order of their least points, plus the structural assertions.

    Each class is grown from the least point not yet assigned, searching only
    the unassigned points: a full subset through that point holding a point
    of an earlier class would put it in that class.  Distinct classes may
    share at most n - 2 kinds of coordinates.
    """
    if not is_good(S):
        raise PreconditionError("related_components requires a good set")
    components = []
    remaining = S.points
    while remaining:
        comp = _component(PointSet(S.space, remaining), remaining[0])
        components.append(comp)
        remaining = tuple(p for p in remaining if p not in comp)
    index = {q: ci for ci, comp in enumerate(components) for q in comp}
    # Distinct components may share at most n - 2 kinds of coordinates.
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            shared = sum(
                1
                for i in range(S.space.n)
                if set(components[a].projection(i)) & set(components[b].projection(i))
            )
            if shared > S.space.n - 2:
                raise VerificationError(
                    "distinct components share too many coordinate kinds"
                )
    return ComponentPartition(tuple(components), index)


def full_component(S: PointSet, x) -> PointSet:
    """The largest full subset of S containing x (its relatedness class)."""
    if not is_good(S):
        raise PreconditionError("full_component requires a good set")
    return _component(S, _require_member(S, x))


@dataclass(frozen=True)
class EiClasses:
    """Per axis, the partition of the projection values into chain classes.

    Two axis-i values fall in one class when a chain of components, adjacent
    ones overlapping on axis i, joins them.
    """

    classes_by_axis: tuple[tuple[tuple, ...], ...]

    def class_of(self, axis: int, label) -> tuple:
        for cls in self.classes_by_axis[axis]:
            if label in cls:
                return cls
        raise PreconditionError(f"label {label!r} not classified on axis {axis}")


def ei_classes(S: PointSet, partition: ComponentPartition | None = None) -> EiClasses:
    """Union-find per axis over the components' projections."""
    if partition is None:
        partition = related_components(S)
    space = S.space
    per_axis: list[tuple[tuple, ...]] = []
    for i in range(space.n):
        parent: dict = {v: v for v in S.projection(i)}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for comp in partition.components:
            values = comp.projection(i)
            for v in values[1:]:
                ra, rb = find(values[0]), find(v)
                if ra != rb:
                    parent[rb] = ra
        groups: dict = {}
        for v in S.projection(i):
            groups.setdefault(find(v), []).append(v)
        ordered = sorted(
            (tuple(sorted(g, key=lambda v: space.value_index(i, v))) for g in groups.values()),
            key=lambda cls: space.value_index(i, cls[0]),
        )
        per_axis.append(tuple(ordered))
    return EiClasses(tuple(per_axis))


@dataclass(frozen=True)
class BoundaryConstruction:
    """The generator/relation system behind a boundary, plus the boundary itself.

    generators: all (axis, class) pairs in canonical order -- the formal
    variables.  relations: one 0/1 row per component (its n incident class
    variables sum to zero).  Pivot generators of the exact elimination are
    dependent; the free ones form the basis, and the boundary takes the
    least value of each basis class.
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
        return PinSet(tuple((c, values[c]) for c in self.boundary))


def boundary(S: PointSet, verify: bool = True) -> BoundaryConstruction:
    """Build a boundary of the good set S from the class/relation system.

    With `verify` (the default, meant for everything but hot production
    loops) the construction is certified: pinning the boundary must make the
    stacked system square of full rank, so any prescribed boundary values
    and any right-hand side admit exactly one solution.
    """
    if not is_good(S):
        raise PreconditionError("boundary requires a good set")
    partition = related_components(S)
    ei = ei_classes(S, partition)
    space = S.space

    generators: list[tuple[int, tuple]] = []
    gen_index: dict = {}
    for i in range(space.n):
        for cls in ei.classes_by_axis[i]:
            gen_index[(i, cls)] = len(generators)
            generators.append((i, cls))

    relations = []
    cross_section = tuple(comp.points[0] for comp in partition.components)
    for rep in cross_section:
        row = [0] * len(generators)
        for i in range(space.n):
            row[gen_index[(i, ei.class_of(i, rep[i]))]] = 1
        relations.append(tuple(row))

    pivots = sorted(_echelon(relations, len(generators)).pivot_rows)
    basis = tuple(j for j in range(len(generators)) if j not in pivots)
    bound = tuple((generators[j][0], generators[j][1][0]) for j in basis)

    construction = BoundaryConstruction(
        partition=partition,
        cross_section=cross_section,
        ei=ei,
        generators=tuple(generators),
        relations=tuple(relations),
        pivot_generators=tuple(pivots),
        basis_generators=basis,
        boundary=bound,
    )

    if verify:
        verify_boundary(S, construction)
    return construction


def verify_boundary(S: PointSet, construction: BoundaryConstruction):
    """Certify the boundary contract by exact rank; raise on any violation."""
    bound = construction.boundary
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
    system = IncidenceSystem(S)
    rows = _stack_pins(system, bound)
    ncols = len(system.columns)
    if len(rows) != ncols:
        raise VerificationError("stacked boundary system is not square")
    if _echelon(rows, ncols).rank != ncols:
        raise VerificationError("boundary pins do not force a unique solution")
