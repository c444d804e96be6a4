"""Relatedness, geodesics, component partitions, and boundary construction.

Two points of a good set are *related* when some full subset contains both;
a minimal such subset is a *geodesic*, and it is unique.  Both are decided
in polynomial time, by exact eliminations and a bipartite matching, with no
search over subsets.

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
splits.  So at most |G| - 1 splits, one read each, leave parts that are
full and that hold every full subset through any of their points.  Two full
subsets F1, F2 sharing a point have a full union:
def(F1 | F2) = 2(n - 1) - |C(F1) & C(F2)| + |F1 & F2|, and the nonempty good
set F1 & F2 has |C(F1) & C(F2)| >= |C(F1 & F2)| >= |F1 & F2| + n - 1, so
def(F1 | F2) <= n - 1, which the good set F1 | F2 can only meet with
equality.  Hence x's class, the union of the full subsets through x, is the
final part holding x.  A full group is taken as final before any read, so
full and maximal sets cost no read here.

Signatures along the peel.  Whether two points share a signature does not
depend on the basis of K(G): p and q share one exactly when
g(i, p_i) = g(i, q_i) for every axis i and every g in K(G), that is, when
on each axis the columns (i, p_i) and (i, q_i) are the same linear
functional g -> g(c) on K(G).  So any parametrisation of K(G) groups the
points alike, and `linalg._peeled_read`, with count 0, reads one along the
peel of G's rows, with no kernel built and only the 2-core eliminated.
K(G) is parametrised by its values at the free columns, those that no peel
step removes and no core pivot holds, and each column's functional is a
sparse integer dict over them, over one m, the lcm of the core's pivot
entries.  A free column is m at itself.  A core pivot p is read off the
core's back-substituted row r_p, which besides p holds only free columns:
-r_p[f] m / r_p[p] at each free f.  Each step column, in reverse step
order, is minus the sum of its row's other columns: on incidence rows
every step removes a column private to its row, and the row's other
columns are free, core pivots or a later step's, all read by then.  Over
one m, two columns are the same functional exactly when their dicts are
equal.  Each dict gets a number, and two points share a signature exactly
when their n numbers agree; no `Fraction` is built to compare them.  The
doubling chain less some of its points peels to nothing, and so costs no
elimination.  A group is a list of S's point indices in S's order, and its
rows are S's own, with the columns they hold numbered from 0 in order of
first appearance: which columns are free, and so their order, changes no
group, and the read costs the group's size, not |C(S)|, as one over all of
S's columns would for every small group split late.  The count of those
columns, less the group's size, is its deficiency, so no group is built as
a set or a system of its own.

Goodness.  Each public entry names itself to its one good-set check.  The
refinement's first read of S is the check behind `related_components` and
`boundary`: one rank of S's rows when def(S) = n - 1, otherwise the first
split's read along the peel, whose rank, the step count plus the core's,
is |S| exactly when the rows are independent, that is, when the core has
full row rank.  Every later group is a subset of S and good with it.
`boundary` builds S's incidence system once, for that read and for its
certificate.  `related`, `geodesic` and `full_component` rank S once
(`_require_good`) and then read the matching order below, which counts and
so is right only on a good set.  That rank, like the one for a full S in
the refinement, peels S first (`linalg._peeled_rank`): a point with a
coordinate no other point holds is in no loop, so S is good exactly when
the 2-core left after removing such points again and again is good, and
only that core is eliminated.  A chain peels to nothing and costs no
elimination.  Each peel step removes a point with one of its own
coordinates, and no two steps share either, so the check's steps are a
partial matching: the steps off C(x) seed the matching of `_order`, and
only the points they leave are matched by augmenting paths.  Each class
the refinement leaves, and each geodesic and component, is built once from
S's own points in S's order (`PointSet._part`), with nothing read again.

Geodesics.  The same equality gives |C(F1) & C(F2)| = |F1 & F2| + n - 1,
which squeezes |C(F1 & F2)| to that value: two full subsets sharing a point
meet in a full set.  This meet property makes the minimal full subset
through x and y, the geodesic g, unique, and it lies inside every full set
through both.

Every subset of a good S is good, so G through x is full exactly when
|C(G) - C(x)| = |G - {x}|: fullness is a count.  Join each point of S - {x}
to its own coordinates outside C(x).  Each T inside S - {x} is good with S,
so |C(T | {x})| >= |T| + n, and T meets at least |T| of those coordinates;
by Hall's theorem a matching M sends every point of S - {x} to one of them.
Let x own C(x) and M^-1(c) own each matched c, and give each point an edge
to the owner of each of its coordinates.

Matching theorem.  A subset G of S through x is full exactly when it is
closed under the edges and holds no unmatched coordinate.
  (a) If so, each coordinate of G outside C(x) is matched to a point of G,
      and M is injective, so |C(G)| = n + |G| - 1.
  (b) If G is full, G - {x} meets exactly |G| - 1 coordinates outside C(x),
      and M sends its |G| - 1 points to distinct ones among them, so each
      is matched into G: G is closed and holds no unmatched coordinate.
So g(x, z) is the closure of x and z under the edges when it holds no
unmatched coordinate, and x and z are unrelated otherwise; x's class is
the set of the z of the first kind.  This is the Dulmage-Mendelsohn order
of the matching (Dulmage and Mendelsohn, 1958), and `_order` computes it
with no arithmetic: the matching seeded by the good-set check's peel and
completed by augmenting paths, then each closure once.  The points that
share a closure, a strongly connected component of the edges, form a
*block*.  Pinned at x's first n - 1 coordinates, x's row and a block's
rows are zero off C(x), their own matched coordinates and those matched in
smaller closures; so the pinned system of x's class is block-triangular in
order of closure size, each block square over its matched coordinates and
invertible, as the system of the full closure is.  Hence the pinned solve
on any full G through x agrees with the one on the class on C(G).  `solve`
reads the order only to refuse a point unrelated to its base and to
measure the longest geodesic; its split is one pinned solve.  `geodesic`
re-counts |C(g)| - |g| = n - 1 before it returns g.

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

from collections import Counter
from collections.abc import Iterator
from itertools import combinations

from .linalg import (
    IncidenceSystem,
    _echelon,
    _incidence_row,
    _is_boundary,
    _peeled_rank,
    _peeled_read,
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
    _Frozen,
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


def _require_good(system: IncidenceSystem, what: str) -> Iterator[tuple[Point, Coordinate]]:
    """The good-set check by one rank of the system's rows, naming `what` when it fails.

    The rank (`linalg._peeled_rank`) peels the set to its 2-core and
    eliminates only the core, if any is left; no loop lies outside it.
    Returns the peel's steps as (point, coordinate) pairs, built only as
    they are read: each sends a point to one of its own coordinates, and no
    two share either, so they seed `_order`'s matching.
    """
    rank, steps = _peeled_rank(system.sparse_rows, len(system.columns))
    if rank != len(system.points):
        raise PreconditionError(f"{what} requires a good set")
    points, columns = system.points, system.columns
    return ((points[k], columns[j]) for k, j in steps)


def _classes(S: PointSet, what: str, system: IncidenceSystem) -> list[PointSet]:
    """The relatedness classes of S, whose incidence system is `system`, by least point.

    A group is a list of S's point indices in S's order, and its rows are
    S's own, renumbered over the columns they hold.  A full group is final;
    any other group splits by signature, read along the peel
    (`linalg._peeled_read`, count 0), and one that does not split means
    the theorem failed.  A full S is checked good by one rank
    (`_require_good`), and otherwise S's first read is the check; either
    fails with `what` named.  Every later group is a subset of S and good
    with it, so its read's rank is its size.
    """
    if S.deficiency() == S.space.n - 1:
        _require_good(system, what)
        return [S]
    rows = system.sparse_rows
    groups, classes = [range(len(rows))], []
    while groups:
        G = groups.pop()
        held: dict[int, int] = {}
        group_rows = [{held.setdefault(j, len(held)): x for j, x in rows[k].items()} for k in G]
        if len(held) - len(G) == S.space.n - 1:
            classes.append(G)
            continue
        rank, values, _ = _peeled_read(group_rows, 0, len(held))
        if rank != len(G):
            raise PreconditionError(f"{what} requires a good set")
        ids: dict[frozenset, int] = {}
        keys = [ids.setdefault(frozenset(v.items()), len(ids)) for v in values]
        parts: dict[tuple, list[int]] = {}
        for k, row in zip(G, group_rows):
            parts.setdefault(tuple(map(keys.__getitem__, row)), []).append(k)
        if len(parts) == 1:
            raise VerificationError("a group that is not full has one kernel signature")
        groups.extend(parts.values())
    points = S.points
    return [S._part(map(points.__getitem__, G)) for G in sorted(classes)]


def _order(S: PointSet, x: Point, what: str | None) -> tuple:
    """(match, closure): the matching order of the good S from x.

    With `what`, `_require_good` checks S first, and its peel seeds the
    matching: each step (p, c) with c outside C(x), so p is not x, matches
    p to c, as the steps share no point and no coordinate.  `match` sends x
    to its last coordinate and every other point to one of its own
    coordinates outside C(x), injectively: a point the seed left unmatched
    takes a free coordinate of its own when it has one, and otherwise an
    augmenting path found breadth first, which Hall's theorem gives every
    point of a good set.  The closures do not depend on the matching (the
    matching theorem in the module docstring), so the seed changes none of
    them.  `closure(p)` is g(x, p), the points that x and p reach along the
    edges, or None when one of them holds an unmatched coordinate, whose
    owner is `None`.  Each closure is searched once, breadth first, when it
    is first asked for, takes a closure found before whole instead of
    searching past its point, and stops as soon as it reaches `None`: the
    closure is then `None`, whatever else the walk would reach.  Every
    caller in the package reads the closures alone; `match` is returned so
    that tests can hold the matching to its contract.
    """
    owner: dict = dict.fromkeys(enumerate(x), x)
    match = {x: (S.space.n - 1, x[-1])}
    if what is not None:
        for p, c in _require_good(IncidenceSystem(S), what):
            if c not in owner:
                match[p], owner[c] = c, p
    for p in (p for p in S if p not in match):
        parent = dict.fromkeys(enumerate(p), p)
        free = next((c for c in parent if c not in owner), None)
        queue = [owner[c] for c in parent] if free is None else []
        for q in queue:
            fresh = [c for c in enumerate(q) if c not in parent]
            parent.update(dict.fromkeys(fresh, q))
            free = next((c for c in fresh if c not in owner), None)
            if free is not None:
                break
            queue.extend(owner[c] for c in fresh)
        while free is not None:
            q = owner[free] = parent[free]
            match[q], free = free, match.get(q)

    closure: dict = {None: None}

    def close(z):
        if z not in closure:
            reach, todo = {x, z}, [z]
            for p in todo:
                if None in reach:
                    break
                if p in closure:
                    reach.update(closure[p] or (None,))
                    continue
                for q in map(owner.get, enumerate(p)):
                    if q not in reach:
                        reach.add(q)
                        todo.append(q)
            closure[z] = None if None in reach else frozenset(reach)
        return closure[z]

    return match, close


class Geodesic(_Frozen):
    """The unique smallest full subset of S containing both endpoints."""

    endpoints: tuple[Point, Point]
    points: PointSet

    @property
    def length(self) -> int:
        return len(self.points)


def related(S: PointSet, x, y) -> bool:
    """True iff some full subset of S contains both points."""
    x, y = S.require_member(x), S.require_member(y)
    return _order(S, x, "related")[1](y) is not None


def geodesic(S: PointSet, x, y) -> Geodesic | None:
    """The unique minimal full subset containing x and y, or None if unrelated.

    The closure is re-checked to be full by its count before it is returned;
    one that is not is a fatal internal error.
    """
    x, y = S.require_member(x), S.require_member(y)
    g = _order(S, x, "geodesic")[1](y)
    if g is None:
        return None
    if len({c for p in g for c in enumerate(p)}) - len(g) != S.space.n - 1:
        raise VerificationError("the geodesic is not full")
    return Geodesic((x, y), S._part(p for p in S if p in g))


class ComponentPartition(_Frozen):
    """Partition of a good set into its (full) relatedness components."""

    components: tuple[PointSet, ...]

    def __len__(self) -> int:
        return len(self.components)


def related_components(S: PointSet) -> ComponentPartition:
    """Relatedness classes in order of their least points, plus the structural assertions.

    Distinct classes may share at most n - 2 kinds of coordinates.
    """
    S.require_nonempty("related_components")
    return _partition(IncidenceSystem(S), "related_components")


def _partition(system: IncidenceSystem, what: str) -> ComponentPartition:
    """`related_components` of the system's nonempty set, with `what` named when it is not good."""
    S = system.point_set
    components = _classes(S, what, system)
    if _overshared(components, S.space.n):
        raise VerificationError("distinct components share too many coordinate kinds")
    return ComponentPartition(tuple(components))


def _overshared(components, n: int) -> bool:
    """Do two distinct components share more than n - 2 kinds of coordinates?

    A pair shares kind i when some axis-i value is in both.  The components
    are indexed by (axis, value), so only pairs that share a value are
    counted, one per axis on which they do, and pairs that share nothing
    cost nothing.
    """
    shared: Counter = Counter()
    for i in range(n):
        holders: dict = {}
        for k, comp in enumerate(components):
            for v in {p[i] for p in comp}:
                holders.setdefault(v, []).append(k)
        shared.update({pair for ks in holders.values() for pair in combinations(ks, 2)})
    return any(c > n - 2 for c in shared.values())


def full_component(S: PointSet, x) -> PointSet:
    """The largest full subset of S containing x (its relatedness class)."""
    close = _order(S, S.require_member(x), "full_component")[1]
    return S._part(p for p in S if close(p) is not None)


class EiClasses(_Frozen):
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


class BoundaryConstruction(_Frozen):
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
    S.require_nonempty("boundary")
    system = IncidenceSystem(S)
    partition = _partition(system, "boundary")
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

    _verify_boundary(S, construction, system)
    return construction


def verify_boundary(S: PointSet, construction: BoundaryConstruction):
    """Certify the boundary contract by exact rank; raise on any violation.

    A boundary meets each class at most once and has def(S) coordinates, so
    stacked under S's rows it is square; `linalg._is_boundary` then decides
    its rank.
    """
    _verify_boundary(S, construction, None)


def _verify_boundary(S: PointSet, construction: BoundaryConstruction, system):
    """`verify_boundary` on S's incidence system, built here when `system` is None.

    `boundary` hands in the system its refinement read, so one call builds one.
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
    if system is None:
        system = IncidenceSystem(S)
    if not _is_boundary(system, bound):
        raise VerificationError("boundary pins do not force a unique solution")
