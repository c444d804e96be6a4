"""Fuzzing the library's input contract, in the manner of `test_cli_fuzz.py`.

Each case draws one public entry and one malformed value of the kind that
entry takes: a point that is no sequence, has the wrong arity, or holds a
label that is off its axis or unhashable; an axis or label that is not the
space's; a coordinate that is no (axis, label) pair of the space; text or
another value that is no exact rational; or a function on another domain.
Given arguments of their documented types with such a value inside, every
entry returns a result or raises `PreconditionError`, never anything else.

`ENTRIES` names each entry by the name `goodsets` exports it under, and
`EXEMPT` names, with the reason, every exported callable that is in no
entry; `tests/test_source.py` holds the two lists to the package's exports.
`solve_componentwise` also gets bases that are not iterable at all.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodsets as gs
from util import DIAGONAL, RECTANGLE, T4, cube_set, pset

SETS = (
    cube_set(T4),  # full, int labels
    cube_set(DIAGONAL),  # good, not full
    pset(RECTANGLE),  # a loop, str labels
    pset([("a", "b", "c"), ("a", "B", "C"), ("A", "b", "C")]),
)

NOT_SEQUENCES = (5, None, 2.5, True)
# None asks `solve_componentwise` for its default bases.
NOT_ITERABLE_BASES = tuple(v for v in NOT_SEQUENCES if v is not None)
OFF_AXIS = ("zz", 99, -1, (0,), frozenset())
UNHASHABLE = ([0], {}, {0: 1})
NOT_RATIONALS = (
    "1/0", "abc", "0.5", "1e3", "1e1000", " 3 ", "3\n", "", "1/-2", "--1", "+1", "1/2/3",
    True, False, 0.5, float("nan"), None, [1], (1, 2),
)


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _spoil(point, at: int, label, as_list: bool):
    """The point with the label at `at` replaced, as a list or a tuple."""
    spoiled = list(point)
    spoiled[at] = label
    return spoiled if as_list else tuple(spoiled)


def _points(S):
    """Points of S's space that are no sequence, have another arity, or hold a bad label."""
    n = S.space.n
    return st.one_of(
        st.sampled_from(NOT_SEQUENCES),
        st.builds(
            lambda p, size: (p * 3)[:size],
            st.sampled_from(S.points),
            st.sampled_from([k for k in range(n + 3) if k != n]),
        ),
        st.builds(
            _spoil,
            st.sampled_from(S.points),
            st.integers(0, n - 1),
            st.sampled_from(OFF_AXIS + UNHASHABLE),
            st.booleans(),
        ),
    )


def _axes(S):
    return st.sampled_from((-1, S.space.n, S.space.n + 5, "x1", 0.5, None, [0], (0,)))


def _labels(S):
    return st.sampled_from(OFF_AXIS + UNHASHABLE)


def _coordinates(S):
    """No (axis, label) pair of S's space: a bad axis, a bad label, or no pair at all."""
    label = S.points[0][0]
    return st.one_of(
        st.tuples(_axes(S), st.just(label)),
        st.tuples(st.just(0), _labels(S)),
        st.sampled_from((5, None, (0,), (0, label, 0))),
    )


def _pins(S):
    """Pins that are no ((axis, label), value) pair."""
    label = S.points[0][0]
    return st.sampled_from((5, None, ((0, label),), ((0, label), 0, 0), (0, label)))


def _functions(S):
    """Tables on another domain: a proper subset of S, S and one more point, or another space."""
    domains = [S.subset(S.points[1:])] + [T for T in SETS if T.space != S.space]
    extra = [p for p in S.space.all_points() if p not in S]
    if extra:
        domains.append(S.union(extra[:1]))
    return st.sampled_from(domains).map(gs.FunctionTable.zero)


KINDS = {
    "point": _points,
    "key": lambda S: _points(S).filter(_hashable),
    "axis": _axes,
    "label": _labels,
    "key_label": lambda S: _labels(S).filter(_hashable),
    "coordinate": _coordinates,
    "key_coordinate": lambda S: _coordinates(S).filter(_hashable),
    "rational": lambda S: st.sampled_from(NOT_RATIONALS),
    "pin": _pins,
    "function": _functions,
    "bases": lambda S: st.sampled_from(NOT_ITERABLE_BASES),
}


def _zero(S):
    return gs.FunctionTable.zero(S)


def _pin_at(c):
    return gs.PinSet(((c, 0),))


def _boundary_pins(S, values):
    """`boundary_pins` with the values of every boundary coordinate but the last, plus `values`."""
    construction = gs.boundary(S)
    return construction.boundary_pins({**dict.fromkeys(construction.boundary[:-1], 0), **values})


def _decomposition(S, label=None, value=0):
    """A zero split of S, with one more (label, value) entry on axis 0 when a label is given."""
    tables = [{v: 0 for v in S.projection(i)} for i in range(S.space.n)]
    if label is not None:
        tables[0] = {**tables[0], label: value}
    return gs.Decomposition(S.space, tuple(tables))


def _system(S):
    return gs.IncidenceSystem(S)


def _measure(S):
    return gs.FiniteMeasure.uniform(S)


# (exported name, kind of malformed value, call on (S, value))
ENTRIES = [
    ("Space", "point", lambda S, p: S.space.validate_point(p)),
    ("Space", "point", lambda S, p: S.space.point_key(p)),
    ("Space", "axis", lambda S, a: S.space.value_index(a, S.points[0][0])),
    ("Space", "label", lambda S, v: S.space.value_index(0, v)),
    ("Space", "label", lambda S, v: gs.Space.of(("a", (0, v)), ("b", (0,)))),
    ("Axis", "label", lambda S, v: gs.Axis("a", (0, v))),
    ("PointSet", "point", lambda S, p: gs.PointSet(S.space, (S.points[0], p))),
    ("PointSet", "point", lambda S, p: gs.PointSet.of(S.space, [p])),
    ("PointSet", "point", lambda S, p: gs.PointSet.from_points([S.points[0], p])),
    ("PointSet", "point", lambda S, p: p in S),
    ("PointSet", "point", lambda S, p: S.require_member(p)),
    ("PointSet", "point", lambda S, p: S.subset([p])),
    ("PointSet", "point", lambda S, p: S.union([p])),
    ("PointSet", "point", lambda S, p: S.difference([p])),
    ("PointSet", "axis", lambda S, a: S.projection(a)),
    ("incidence_vector", "point", lambda S, p: gs.incidence_vector(S.space, p)),
    ("as_fraction", "rational", lambda S, r: gs.as_fraction(r)),
    ("FunctionTable", "rational", lambda S, r: gs.FunctionTable(S, {p: r for p in S})),
    ("FunctionTable", "key", lambda S, p: gs.FunctionTable(S, {**_zero(S).values, p: 0})),
    ("FunctionTable", "point", lambda S, p: gs.FunctionTable.indicator(S, p)),
    ("FunctionTable", "point", lambda S, p: _zero(S)(p)),
    ("Decomposition", "rational", lambda S, r: _decomposition(S, S.points[0][0], r)),
    ("Decomposition", "key_label", lambda S, v: _decomposition(S, v)),
    ("Decomposition", "point", lambda S, p: _decomposition(S).evaluate(p)),
    ("Decomposition", "axis", lambda S, a: _decomposition(S).value(a, S.points[0][0])),
    ("Decomposition", "label", lambda S, v: _decomposition(S).value(0, v)),
    ("Decomposition", "rational", lambda S, r: _decomposition(S).scale(r)),
    ("PinSet", "coordinate", lambda S, c: _pin_at(c)),
    ("PinSet", "pin", lambda S, pin: gs.PinSet((pin,))),
    ("PinSet", "key_coordinate", lambda S, c: gs.PinSet.of({c: 0})),
    ("PinSet", "coordinate", lambda S, c: gs.PinSet.zeros([c])),
    ("PinSet", "rational", lambda S, r: gs.PinSet.of({(0, S.points[0][0]): r})),
    ("FiniteMeasure", "rational", lambda S, r: gs.FiniteMeasure(S, {p: r for p in S})),
    ("FiniteMeasure", "key", lambda S, p: gs.FiniteMeasure(S, {**_measure(S).weights, p: 0})),
    ("FiniteMeasure", "point", lambda S, p: _measure(S)(p)),
    ("MarginalVector", "axis", lambda S, a: gs.marginals(_measure(S)).mass(a, S.points[0][0])),
    ("MarginalVector", "label", lambda S, v: gs.marginals(_measure(S)).mass(0, v)),
    ("BoundaryConstruction", "key_coordinate", lambda S, c: _boundary_pins(S, {c: 0})),
    (
        "BoundaryConstruction",
        "rational",
        lambda S, r: _boundary_pins(S, {gs.boundary(S).boundary[-1]: r}),
    ),
    ("EiClasses", "axis", lambda S, a: gs.ei_classes(S).class_of(a, S.points[0][0])),
    ("EiClasses", "label", lambda S, v: gs.ei_classes(S).class_of(0, v)),
    ("extract_circuit", "point", lambda S, p: gs.extract_circuit(S.space, [*S.points, p])),
    (
        "verify_circuit",
        "point",
        lambda S, p: gs.verify_circuit(S.space, gs.CircuitVector((S.points[0], p), (1, -1))),
    ),
    ("in_span", "rational", lambda S, r: gs.in_span(_system(S), {(0, S.points[0][0]): r})),
    ("in_span", "key_coordinate", lambda S, c: gs.in_span(_system(S), {c: 1})),
    ("column_kernel", "coordinate", lambda S, c: gs.column_kernel(_system(S), _pin_at(c))),
    ("solve_pinned", "function", lambda S, f: gs.solve_pinned(_system(S), f)),
    ("solve_pinned", "coordinate", lambda S, c: gs.solve_pinned(_system(S), _zero(S), _pin_at(c))),
    ("solve_direct", "function", lambda S, f: gs.solve_direct(S, f)),
    ("solve_direct", "coordinate", lambda S, c: gs.solve_direct(S, _zero(S), _pin_at(c))),
    ("solve_via_geodesics", "function", lambda S, f: gs.solve_via_geodesics(S, f)),
    ("solve_via_geodesics", "point", lambda S, p: gs.solve_via_geodesics(S, _zero(S), p)),
    ("solve_componentwise", "function", lambda S, f: gs.solve_componentwise(S, f)),
    ("solve_componentwise", "point", lambda S, p: gs.solve_componentwise(S, _zero(S), [p])),
    ("solve_componentwise", "bases", lambda S, b: gs.solve_componentwise(S, _zero(S), b)),
    ("solve_with_boundary", "function", lambda S, f: gs.solve_with_boundary(S, f, gs.PinSet(()))),
    (
        "solve_with_boundary",
        "coordinate",
        lambda S, c: gs.solve_with_boundary(S, _zero(S), _pin_at(c)),
    ),
    ("bound_diagnostics", "point", lambda S, p: gs.bound_diagnostics(S, p)),
    ("geodesic_matrix", "point", lambda S, p: gs.geodesic_matrix(S, p)),
    ("related", "point", lambda S, p: gs.related(S, S.points[0], p)),
    ("geodesic", "point", lambda S, p: gs.geodesic(S, p, S.points[0])),
    ("full_component", "point", lambda S, p: gs.full_component(S, p)),
    ("verify_boundary", "coordinate", lambda S, c: _boundary_with(S, c)),
    ("associated_full_set", "coordinate", lambda S, c: gs.associated_full_set(S, [c])),
]

# Exported callables in no entry, each with the reason.
EXEMPT = {
    "GoodnessVerdict": "a result type the library builds",
    "Loop": "a result type the library builds (CircuitVector)",
    "CircuitVector": "a result type; `verify_circuit` is the entry that reads one",
    "LinearSolve": "a result type the library builds",
    "SimplicialVerdict": "a result type the library builds",
    "SolveReport": "a result type the library builds",
    "GeodesicMatrix": "a result type the library builds",
    "BoundDiagnostics": "a result type the library builds",
    "Geodesic": "a result type the library builds",
    "ComponentPartition": "a result type the library builds",
    "PreconditionError": "the contract's exception",
    "VerificationError": "the internal-error exception",
    "RowBasis": "an elimination over integer rows, whose columns the caller numbers",
    "IncidenceSystem": "takes a PointSet alone, whose points were read when it was built",
    "rank": "takes an IncidenceSystem alone",
    "is_good": "takes a PointSet alone",
    "is_full": "takes a PointSet and a flag",
    "full_closure": "takes a PointSet alone",
    "extend_to_maximal": "takes a PointSet alone",
    "full_split": "takes a PointSet alone",
    "related_components": "takes a PointSet alone",
    "ei_classes": "takes a PointSet and, optionally, its own partition",
    "boundary": "takes a PointSet alone",
    "is_mu_set": "takes a PointSet alone",
    "is_simplicial": "takes a FiniteMeasure alone, whose weights were read when it was built",
    "marginals": "takes a FiniteMeasure alone, whose weights were read when it was built",
}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_library_contract_on_malformed_values(data):
    name, kind, call = data.draw(st.sampled_from(ENTRIES), label="entry")
    S = data.draw(st.sampled_from(SETS), label="set")
    value = data.draw(KINDS[kind](S), label=kind)
    try:
        call(S, value)
    except gs.PreconditionError:
        pass


@pytest.mark.parametrize("bases", NOT_ITERABLE_BASES)
def test_componentwise_refuses_bases_that_are_no_sequence(bases):
    # `list(bases)` leaked "'int' object is not iterable" on the diagonal,
    # whose two components pass the route's other checks.
    S = cube_set(DIAGONAL)
    with pytest.raises(gs.PreconditionError, match="^one base point per component required$"):
        gs.solve_componentwise(S, _zero(S), bases)


def _boundary_with(S, coord):
    """S's boundary construction with its first coordinate replaced by `coord`."""
    construction = gs.boundary(S)
    bound = (coord,) + construction.boundary[1:]
    return gs.verify_boundary(S, dataclasses.replace(construction, boundary=bound))


# Every public entry that takes an axis or a coordinate, called on T4 in
# {0,1}^3, where a bool read as the axis 0 or 1 would be answered.
BOOL_AXIS_ENTRIES = [
    ("Space.value_index", lambda S, b: S.space.value_index(b, 0)),
    ("PointSet.projection", lambda S, b: S.projection(b)),
    ("Decomposition.value", lambda S, b: _decomposition(S).value(b, 0)),
    ("EiClasses.class_of", lambda S, b: gs.ei_classes(S).class_of(b, 0)),
    ("MarginalVector.mass", lambda S, b: gs.marginals(_measure(S)).mass(b, 0)),
    ("PinSet", lambda S, b: _pin_at((b, 0))),
    ("PinSet.of", lambda S, b: gs.PinSet.of({(b, 0): 0})),
    ("PinSet.zeros", lambda S, b: gs.PinSet.zeros([(b, 0)])),
    ("column_kernel", lambda S, b: gs.column_kernel(_system(S), _pin_at((b, 0)))),
    ("solve_direct", lambda S, b: gs.solve_direct(S, _zero(S), _pin_at((b, 0)))),
    (
        "associated_full_set",
        lambda S, b: gs.associated_full_set(S, [(b, 0), (0, 0), (1, 0), (2, 0)]),
    ),
    ("in_span", lambda S, b: gs.in_span(_system(S), {(b, 0): 1, (2, 0): 1})),
    ("verify_boundary", lambda S, b: _boundary_with(S, (b, 0))),
]


@pytest.mark.parametrize("name, call", BOOL_AXIS_ENTRIES, ids=[e[0] for e in BOOL_AXIS_ENTRIES])
@pytest.mark.parametrize("flag", (True, False))
def test_axis_and_coordinate_entries_refuse_a_bool(name, call, flag):
    # A bool is an int to Python, and each entry read it as the axis 0 or 1.
    with pytest.raises(gs.PreconditionError):
        call(cube_set(T4), flag)
