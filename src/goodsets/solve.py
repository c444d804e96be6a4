"""Exact solvers for u_1(x_1) + ... + u_n(x_n) = f on a good set.

Four routes produce the same numbers:

* direct -- one pinned solve over the whole incidence system.
* geodesic -- pin a base point's first n - 1 coordinates at zero and solve
  once; `structure._order`, the matching order from the base, only
  refuses a point unrelated to the base and measures the longest geodesic.
* componentwise -- the geodesic route per relatedness component, every
  base pinned in the one solve, valid when components share no coordinate
  of any kind.
* boundary -- prescribe values on a boundary: the pins are stacked under
  the incidence rows, the stacked system must be square, and one pinned
  solve must come out unique.  (The comb through a boundary that meets
  every axis is the structural construction of
  `goodness.associated_full_set`, not a solve route.)

`bound_diagnostics` reports the finite-scale boundedness data: geodesic
lengths from a base, the sizes of the order's closures, and the largest
solution value over singleton indicator right-hand sides.  Those solutions
are the point columns of the inverse of the system pinned at the base's
first n - 1 coordinates, all read along the peel at once, with the point
rows' right-hand sides as the read's parameters (`linalg._peeled_read`),
and finding that inverse is also its good-set check.

Every route solves once, with `linalg.solve_pinned`, and a unique solve
is one read along the peel, `linalg._peeled_solution`: it substitutes in
integers over one denominator and eliminates only the 2-core; the chain
has none.  `solve_pinned` keeps its own oracle, sympy, in the tests.

The geodesic and componentwise routes share one solve, `_geodesic_solve`,
and invert nothing.  The geodesic route's good-set check is the one rank
of S that `structure._order` runs, whose peel also seeds the order's
matching; the componentwise route's is the refinement behind
`related_components`, so its components are not checked again.  Both
routes, like `solve_pinned`, first require f to be given on exactly S's
points.

Every split is built by one builder, `linalg._decomposition`, inside
`solve_pinned`, and checked by one check, `_check`: the split must honour
its pins and reproduce f on S, compared in integers over one denominator.
The geodesic, componentwise and boundary routes run it before they report,
so it certifies each of their splits; `solve_direct`'s split is checked
by tests only.  `_report` builds every route's report, a `LinearSolve`
with the method tag and diagnostics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .goodness import is_good
from .linalg import (
    IncidenceSystem,
    LinearSolve,
    _is_boundary,
    _over_common_denominator,
    _peeled_read,
    _require_total,
    _stack_pins,
    solve_pinned,
)
from .model import (
    Coordinate,
    Decomposition,
    FunctionTable,
    PinSet,
    Point,
    PointSet,
    PreconditionError,
    VerificationError,
    _Frozen,
)
from .structure import _order, _require_good, related_components

__all__ = [
    "BoundDiagnostics",
    "GeodesicMatrix",
    "SolveReport",
    "bound_diagnostics",
    "geodesic_matrix",
    "solve_componentwise",
    "solve_direct",
    "solve_via_geodesics",
    "solve_with_boundary",
]


class SolveReport(LinearSolve):
    """A route's `LinearSolve` with its method tag and diagnostics."""

    method: str
    max_geodesic_length: int | None
    max_abs_value: Fraction | None


def _report(method: str, outcome: LinearSolve, max_len: int | None = None) -> SolveReport:
    """The report of every route: its outcome, tagged with the method, and largest |value|.

    That is the split's largest |numerator| over D, read off its `_integer` form.
    """
    d = outcome.decomposition
    worst = None
    if d is not None:
        numerators, D = d._integer
        worst = Fraction(max(map(abs, numerators), default=0), D)
    return SolveReport(*LinearSolve._key(outcome), method, max_len, worst)


def solve_direct(S: PointSet, f: FunctionTable, pins: PinSet | None = None) -> SolveReport:
    """One pinned solve (`solve_pinned`) over the whole incidence system of S."""
    S.require_nonempty("solve_direct")
    return _report("direct", solve_pinned(IncidenceSystem(S), f, pins))


class GeodesicMatrix(_Frozen):
    """The square 0/1 system of a geodesic, base point first.

    Columns are the geodesic's coordinates minus the base's first n - 1;
    the matrix is square and invertible, which construction asserts.
    """

    points: tuple[Point, ...]
    columns: tuple[Coordinate, ...]
    matrix: tuple[tuple[int, ...], ...]


def geodesic_matrix(G: PointSet, base) -> GeodesicMatrix:
    """Build and certify the geodesic system for a full subset G through base.

    The base's first n - 1 coordinates form a boundary of G exactly when the
    system with their columns deleted is square and invertible, so the one
    boundary test, `linalg._is_boundary`, is the certificate.  The matrix
    reads that system's own rows, base first, at the columns kept.
    """
    base = G.require_member(base)
    removed = [(i, base[i]) for i in range(G.space.n - 1)]
    system = IncidenceSystem(G)
    if not _is_boundary(system, removed):
        raise VerificationError("geodesic system is not square and invertible")
    kept = [j for j, c in enumerate(system.columns) if c not in removed]
    row_of = dict(zip(G.points, system.sparse_rows))
    ordered = (base,) + tuple(p for p in G if p != base)
    matrix = tuple(tuple(row_of[p].get(j, 0) for j in kept) for p in ordered)
    return GeodesicMatrix(ordered, tuple(system.columns[j] for j in kept), matrix)


def _check(S: PointSet, f: FunctionTable, decomposition: Decomposition, pins):
    """The one split check: every (coordinate, value) pin is honoured and f is reproduced on S.

    The split's values, f's and the pins' are put over one denominator
    (`_over_common_denominator`), so each comparison is of integers.  A
    coordinate the split lacks is named by `Decomposition.value`, as it is
    by `Decomposition.evaluate`.
    """
    tables = decomposition.tables
    values = [v for table in tables for v in table.values()]
    values += map(f, S)
    values += (value for _, value in pins)
    numerators = iter(_over_common_denominator(values)[0])
    scaled = [dict(zip(table, numerators)) for table in tables]
    at_points = list(islice(numerators, len(S)))
    for (coord, _), b in zip(pins, numerators):
        decomposition.value(*coord)  # raises if the split has no value there
        if scaled[coord[0]][coord[1]] != b:
            raise VerificationError("solution does not honor a prescribed boundary value")
    for p, b in zip(S, at_points):
        try:
            a = sum(map(dict.__getitem__, scaled, p))
        except KeyError:
            decomposition.evaluate(p)  # raises, naming the coordinate
            raise
        if a != b:
            raise VerificationError("split does not reproduce f")


def _geodesic_solve(S: PointSet, f: FunctionTable, method: str, parts, what=None) -> SolveReport:
    """The geodesic routes' split: every part's base pinned, solved once.

    Each (F, base) in `parts` is S itself or one of its components, and
    the parts share no coordinate.  `structure._order` of F from the base,
    named `what`, refuses the first point of F without a closure as
    unrelated to the base and gives the longest geodesic, its largest
    closure; it solves nothing.  Every base's first n - 1 coordinates are
    then pinned at zero and S is solved once (`solve_pinned`): each part
    is full, so those pins are a boundary of it, and the split is unique.
    Any other verdict is an internal error.  `_check` asserts that the
    split honours the pins and reproduces f.
    """
    coords, longest = [], 0
    for F, base in parts:
        coords += ((i, base[i]) for i in range(S.space.n - 1))
        close = _order(F, base, what)[1]
        for p, g in zip(F, map(close, F)):
            if g is None:
                raise PreconditionError(
                    f"{p!r} is unrelated to the base; use the componentwise or boundary method"
                )
            longest = max(longest, len(g))
    pins = PinSet.zeros(coords)
    outcome = solve_pinned(IncidenceSystem(S), f, pins)
    if not outcome.unique:
        raise VerificationError("the system pinned at the bases has no unique split")
    _check(S, f, outcome.decomposition, pins)
    return _report(method, outcome, longest)


def solve_via_geodesics(S: PointSet, f: FunctionTable, base=None) -> SolveReport:
    """Case of a single relatedness component: one solve pinned at the base.

    Pins the base's first n - 1 coordinates at zero.  One rank of S is the
    good-set check of `structure._order`, and its peel seeds the order's
    matching; `_geodesic_solve` reads the order and solves once.
    """
    _require_total(f, S)
    S.require_nonempty("solve_via_geodesics")
    base = S.points[0] if base is None else S.require_member(base)
    return _geodesic_solve(S, f, "geodesic", [(S, base)], "solve_via_geodesics")


def solve_componentwise(S: PointSet, f: FunctionTable, bases=None) -> SolveReport:
    """Geodesic route per component; requires components to share no coordinate.

    Each component is full and was checked good by `related_components`'
    refinement, so its matching order from its base needs no check of its
    own; `_geodesic_solve` pins every component's base and solves S once,
    and the split is checked once.
    """
    _require_total(f, S)
    S.require_nonempty("solve_componentwise")
    comps = related_components(S).components
    owner: dict[Coordinate, int] = {}
    for k, comp in enumerate(comps):
        for coord in comp.coordinates():
            if owner.setdefault(coord, k) != k:
                raise PreconditionError(
                    f"components share coordinate {coord!r}; use the boundary method"
                )
    if bases is None:
        bases = [comp.points[0] for comp in comps]
    if not hasattr(bases, "__iter__") or len(bases := list(bases)) != len(comps):
        raise PreconditionError("one base point per component required")
    parts = [(comp, comp.require_member(b)) for comp, b in zip(comps, bases)]
    return _geodesic_solve(S, f, "componentwise", parts)


def solve_with_boundary(
    S: PointSet, f: FunctionTable, boundary_values: PinSet
) -> SolveReport:
    """Solve with arbitrary prescribed values on a boundary of S.

    The pinned coordinates must form a boundary: stacking them under the
    incidence rows must give a square invertible system, which is exactly
    "every f and every prescription admit one solution".  The boundary from
    `structure.boundary` always qualifies; so does the coordinate set of a
    full complement from `full_split`.  That is the test of
    `linalg._is_boundary`, the one boundary test, but here the solve itself
    decides it, so the rows are eliminated once: the stacked system is
    checked to be square and then solved once, and any verdict but unique
    means the pins are not a boundary.  A unique square solve also makes
    S's rows independent, so `is_good` runs only on failure, to name the
    broken precondition.
    """
    S.require_nonempty("solve_with_boundary")
    system = IncidenceSystem(S)
    square = len(system.points) + len(boundary_values) == len(system.columns)
    outcome = solve_pinned(system, f, boundary_values) if square else None
    if outcome is None or not outcome.unique:
        if not is_good(S):
            raise PreconditionError("solve_with_boundary requires a good set")
        raise PreconditionError("pins do not coincide with a boundary of the set")
    _check(S, f, outcome.decomposition, boundary_values)
    return _report("boundary", outcome)


class BoundDiagnostics(_Frozen):
    """Finite boundedness data for a single-component good set."""

    base: Point
    lengths: dict
    max_geodesic_length: int
    mean_geodesic_length: Fraction
    max_abs_indicator_value: Fraction


def bound_diagnostics(S: PointSet, base=None) -> BoundDiagnostics:
    """Geodesic lengths from a base and the worst solution value over indicators.

    The indicator sweep is the largest absolute value of any u solving
    u = 1_{p}, p in S, with the base's first n - 1 coordinates pinned at
    zero.  Those solutions are the point columns of the pinned system's
    inverse, read along its peel (`linalg._peeled_read`, with the |S|
    point rows counted) as integers over one m, so the sweep is their
    largest |integer| over m.  The system is square exactly when
    def(S) = n - 1, and then invertible exactly when S is good, that is,
    when the read's rank is the column count; so the read is the good-set
    check.  Any other S is ranked, as a good one has several classes.  The
    lengths are the closures of `structure._order` from the base, each
    computed once.
    """
    S.require_nonempty("bound_diagnostics")
    base = S.points[0] if base is None else S.require_member(base)
    system = IncidenceSystem(S)
    if S.deficiency() != S.space.n - 1:
        _require_good(system, "bound_diagnostics")
        raise PreconditionError("diagnostics are per component; this set has several")
    rows = _stack_pins(system, [(i, base[i]) for i in range(S.space.n - 1)])
    rank, values, m = _peeled_read(rows, len(S), len(system.columns))
    if rank != len(system.columns):
        raise PreconditionError("bound_diagnostics requires a good set")
    close = _order(S, base, None)[1]
    lengths = {y: len(close(y)) for y in S}
    worst = Fraction(max((max(map(abs, v.values())) for v in values if v), default=0), m)
    return BoundDiagnostics(
        base=base,
        lengths=lengths,
        max_geodesic_length=max(lengths.values()),
        mean_geodesic_length=Fraction(sum(lengths.values()), len(lengths)),
        max_abs_indicator_value=worst,
    )
