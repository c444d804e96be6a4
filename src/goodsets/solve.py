"""Exact solvers for u_1(x_1) + ... + u_n(x_n) = f on a good set.

Four routes produce the same numbers and certify each other:

* direct -- one pinned elimination over the whole incidence system.
* geodesic -- pin a base point's first n - 1 coordinates; each coordinate's
  value is its row of the class's pinned inverse dotted with f, which by
  Theorem (a) in `structure` is its row in the pinned inverse of any
  geodesic from the base that reaches it.
* componentwise -- the geodesic route per relatedness component, valid when
  components share no coordinate of any kind.
* boundary -- prescribe values on a boundary: the pins are stacked under
  the incidence rows, the stacked system must be square, and one pinned
  solve must come out unique.  (The comb through a boundary that meets
  every axis is the structural construction of
  `goodness.associated_full_set`, not a solve route.)

`bound_diagnostics` reports the finite-scale boundedness data: geodesic
lengths from a base and the largest solution value over singleton indicator
right-hand sides, read off one exact inverse of the system pinned at the
base's first n - 1 coordinates; every geodesic from the base is walked
over that inverse too.

The geodesic route and `bound_diagnostics` take the base's class, its
sparse pinned inverse and the good-set check from `structure._pinned_class`,
and keep only their own messages for a point outside that class.  The
geodesic and componentwise routes share one loop, `_geodesic_values`: it
dots each sparse row of the one pinned inverse the route holds (the class's,
or each component's `structure._inverse`) once with f, and walks each
point's geodesic over that inverse only for its length.  Both routes, like
`solve_pinned`, first require f to be given on exactly S's points.

Every split is built by one builder, `linalg._decomposition`, and checked
by one check, `_check`: the split must honour its pins and reproduce f on
S.  The geodesic, componentwise and boundary routes run it before they
report; `solve_direct`'s split is checked by tests only.  `_report` builds
every route's report, a `LinearSolve` with the method tag and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .goodness import is_good
from .linalg import (
    UNIQUE,
    IncidenceSystem,
    LinearSolve,
    _decomposition,
    _incidence_row,
    _is_boundary,
    _require_total,
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
)
from .structure import _inverse, _pinned_class, _walk, related_components

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


@dataclass(frozen=True)
class SolveReport(LinearSolve):
    """A route's `LinearSolve` with its method tag and diagnostics."""

    method: str
    max_geodesic_length: int | None
    max_abs_value: Fraction | None


def _report(method: str, outcome: LinearSolve, max_len: int | None = None) -> SolveReport:
    """The report of every route: its outcome and largest |value|, tagged with the method."""
    d = outcome.decomposition
    worst = None
    if d is not None:
        worst = max((abs(v) for t in d.tables for v in t.values()), default=Fraction(0))
    return SolveReport(
        **vars(outcome), method=method, max_geodesic_length=max_len, max_abs_value=worst
    )


def solve_direct(S: PointSet, f: FunctionTable, pins: PinSet | None = None) -> SolveReport:
    """Pinned elimination over the full incidence system of S."""
    S.require_nonempty("solve_direct")
    return _report("direct", solve_pinned(IncidenceSystem(S), f, pins))


@dataclass(frozen=True)
class GeodesicMatrix:
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
    boundary test, `linalg._is_boundary`, is the certificate.
    """
    base = G.require_member(base)
    removed = [(i, base[i]) for i in range(G.space.n - 1)]
    if not _is_boundary(IncidenceSystem(G), removed):
        raise VerificationError("geodesic system is not square and invertible")
    columns = tuple(c for c in G.coordinates() if c not in removed)
    ordered = (base,) + tuple(p for p in G if p != base)
    col_index = {c: j for j, c in enumerate(columns)}
    rows = (_incidence_row(p, col_index) for p in ordered)
    matrix = tuple(tuple(row.get(j, 0) for j in range(len(columns))) for row in rows)
    return GeodesicMatrix(ordered, columns, matrix)


def _base_inverse(S: PointSet, base, what: str, unrelated):
    """The base (S's first point by default) and S's sparse inverse pinned at it.

    `what` names the caller to `structure._pinned_class`, which checks that
    S is good; the first point of S outside the base's class raises
    `unrelated(y)`.
    """
    S.require_nonempty(what)
    base = S.points[0] if base is None else S.require_member(base)
    F, inverse = _pinned_class(S, base, what)
    if inverse is None:
        raise unrelated(next(y for y in S if y not in F))
    return base, inverse


def _geodesic_values(F: PointSet, f: FunctionTable, base: Point, inverse, values: dict) -> int:
    """Write every coordinate's value into `values`; return the longest geodesic.

    F is full and holds the base, and `inverse` is F's inverse pinned at it.
    Each coordinate's value is its row of that inverse dotted once with f
    over F's points; by Theorem (a) in `structure`, the row equals the
    coordinate's row in the inverse of any geodesic that reaches it.  Each
    point's geodesic is walked over the inverse only for its length.
    """
    fs = [f(p) for p in F.points]
    for coord, row in inverse.items():
        values[coord] = sum((w * fs[k] for k, w in row.items()), Fraction(0))
    return max(len(_walk(F, base, y, inverse)) for y in F)


def _check(S: PointSet, f: FunctionTable, decomposition: Decomposition, pins):
    """The one split check: every (coordinate, value) pin is honoured and f is reproduced on S."""
    for coord, value in pins:
        if decomposition.value(*coord) != value:
            raise VerificationError("solution does not honor a prescribed boundary value")
    for p in S:
        if decomposition.evaluate(p) != f(p):
            raise VerificationError("split does not reproduce f")


def _unique(S: PointSet, f: FunctionTable, values: dict) -> LinearSolve:
    """The unique solve with the given {coordinate: value}, checked to reproduce f."""
    decomposition = _decomposition(S.space, values.items())
    _check(S, f, decomposition, ())
    return LinearSolve(UNIQUE, decomposition, (), None)


def solve_via_geodesics(S: PointSet, f: FunctionTable, base=None) -> SolveReport:
    """Case of a single relatedness component: read the split off one pinned inverse.

    Pins the base's first n - 1 coordinates at zero.  Each coordinate's
    value is its row of S's inverse pinned there, dotted with f
    (`_geodesic_values`); by Theorem (a) in `structure`, that row is the
    coordinate's row in the pinned inverse of every geodesic from the base
    that reaches it.  The geodesics are walked over the same inverse for
    their lengths, and `_check` asserts that the split reproduces f.
    """
    _require_total(f, S.points)
    base, inverse = _base_inverse(
        S,
        base,
        "solve_via_geodesics",
        lambda y: PreconditionError(
            f"{y!r} is unrelated to the base; use the componentwise or boundary method"
        ),
    )
    values: dict[Coordinate, Fraction] = {}
    max_len = _geodesic_values(S, f, base, inverse, values)
    return _report("geodesic", _unique(S, f, values), max_len)


def solve_componentwise(S: PointSet, f: FunctionTable, bases=None) -> SolveReport:
    """Geodesic route per component; requires components to share no coordinate.

    Each component is full, so its own inverse pinned at its base is
    invertible, and `_geodesic_values` writes its coordinates into one
    shared table, which is assembled and checked once.
    """
    _require_total(f, S.points)
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
    else:
        bases = list(bases)
        if len(bases) != len(comps):
            raise PreconditionError("one base point per component required")
        bases = [comp.require_member(b) for comp, b in zip(comps, bases)]

    values: dict[Coordinate, Fraction] = {}
    max_len = max(
        _geodesic_values(comp, f, b, _inverse(comp, b), values) for comp, b in zip(comps, bases)
    )
    return _report("componentwise", _unique(S, f, values), max_len)


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


@dataclass(frozen=True)
class BoundDiagnostics:
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
    zero.  Those solutions are the point columns of one pinned inverse, so
    the sweep is read off the inverse that every geodesic is walked over
    too, and that inversion is the good-set check.
    """
    base, inverse = _base_inverse(
        S,
        base,
        "bound_diagnostics",
        lambda y: PreconditionError("diagnostics are per component; this set has several"),
    )
    lengths = {y: len(_walk(S, base, y, inverse)) for y in S}
    entries = (v for row in inverse.values() for v in row.values())
    worst = max(map(abs, entries), default=Fraction(0))
    total = sum(lengths.values())
    return BoundDiagnostics(
        base=base,
        lengths=lengths,
        max_geodesic_length=max(lengths.values()),
        mean_geodesic_length=Fraction(total, len(lengths)),
        max_abs_indicator_value=worst,
    )
