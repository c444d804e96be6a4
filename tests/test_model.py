from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import goodsets as gs
from goodsets import goodness, instances, linalg, measures, model, solve, structure
from util import DIAGONAL, E5, RECTANGLE, T4, cube_set, int_space, pset


def test_space_needs_two_axes():
    with pytest.raises(gs.PreconditionError):
        gs.Space.of(("x", (0, 1)))


def test_axis_rejects_duplicates():
    with pytest.raises(gs.PreconditionError):
        gs.Axis("x", (0, 0, 1))


def test_point_validation():
    space = int_space((2, 2))
    with pytest.raises(gs.PreconditionError):
        space.validate_point((0, 1, 0))
    with pytest.raises(gs.PreconditionError):
        space.validate_point((0, 5))


def test_projection_t4():
    S = cube_set(T4)
    assert set(S.projection(0)) == {0, 1}
    assert set(S.projection(1)) == {0, 1}
    assert set(S.projection(2)) == {0, 1}


def test_projection_singleton_and_empty():
    S = gs.PointSet.from_points([("a", "b", "c"), ("x", "y", "z")])
    single = S.subset([("a", "b", "c")])
    assert single.projection(1) == ("b",)
    empty = gs.PointSet.of(S.space, [])
    assert empty.projection(0) == ()
    with pytest.raises(gs.PreconditionError):
        empty.deficiency()


def test_projection_bad_axis():
    S = cube_set(T4)
    with pytest.raises(gs.PreconditionError):
        S.projection(7)


def test_projection_size_bounds():
    S = cube_set(T4)
    for i in range(3):
        assert 1 <= len(S.projection(i)) <= len(S)


def test_incidence_vector():
    space = int_space((2, 2, 2))
    v = gs.incidence_vector(space, (0, 0, 0))
    assert v == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    w = gs.incidence_vector(space, (1, 0, 1))
    assert w == {(0, 1): 1, (1, 0): 1, (2, 1): 1}
    assert sum(w.values()) == space.n


def test_incidence_vector_injective():
    space = int_space((2, 2, 2))
    vectors = [tuple(sorted(gs.incidence_vector(space, p))) for p in space.all_points()]
    assert len(set(vectors)) == 8


def test_deficiency_examples():
    assert cube_set(T4).deficiency() == 2
    assert cube_set([(0, 0, 0)]).deficiency() == 2
    assert cube_set(DIAGONAL).deficiency() == 4


def test_pointset_deduplicates_and_sorts():
    S = cube_set([(1, 1, 1), (0, 0, 0), (1, 1, 1)])
    assert S.points == ((0, 0, 0), (1, 1, 1))


def test_evaluate_examples():
    space = int_space((2, 2, 2))
    d = gs.Decomposition(space, ({0: 0}, {0: 0}, {0: 1}))
    assert d.evaluate((0, 0, 0)) == 1
    zero = gs.Decomposition.zero(space)
    with pytest.raises(gs.PreconditionError):
        zero.evaluate((0, 0, 0))
    space2 = int_space((2, 2))
    full_zero = gs.Decomposition(space2, ({0: 0, 1: 0}, {0: 0, 1: 0}))
    assert full_zero.evaluate((1, 1)) == 0
    halves = gs.Decomposition(
        space2, ({0: Fraction(1, 2)}, {0: Fraction(1, 3)})
    )
    assert halves.evaluate((0, 0)) == Fraction(5, 6)


def test_decomposition_sum_takes_only_decompositions():
    # d + 1 read `other.space` off the int and leaked an AttributeError, and
    # d + a FunctionTable leaked one too; like 1 + d, each is a TypeError.
    S = cube_set(T4)
    d = gs.Decomposition(S.space, ({0: 1}, {0: 2}, {1: Fraction(1, 2)}))
    f = gs.FunctionTable.indicator(S, T4[0])
    for left, right in ((d, 1), (1, d), (d, f), (f, d)):
        with pytest.raises(TypeError, match="unsupported operand"):
            left + right
    assert (d + d).tables == ({0: 2}, {0: 4}, {1: 1})
    with pytest.raises(gs.PreconditionError, match="different spaces"):
        d + gs.Decomposition.zero(int_space((2, 2)))


def test_function_table_total():
    S = cube_set(T4)
    with pytest.raises(gs.PreconditionError):
        gs.FunctionTable(S, {T4[0]: 1})
    f = gs.FunctionTable.indicator(S, (0, 0, 0))
    assert f((0, 0, 0)) == 1 and f((1, 0, 1)) == 0


def test_pinset_rejects_duplicates():
    with pytest.raises(gs.PreconditionError):
        gs.PinSet((((0, 0), Fraction(1)), ((0, 0), Fraction(2))))


def test_pinset_rejects_an_axis_that_is_not_an_int():
    # int() would turn axis 0.5 into a pin on axis 0, and "a" into a plain
    # ValueError.
    for axis in (0.5, "a"):
        with pytest.raises(gs.PreconditionError, match="is not an int"):
            gs.PinSet((((axis, 0), Fraction(1)),))


def test_pinset_rejects_a_coordinate_that_is_not_an_axis_label_pair():
    # Read as coord[0], coord[1], (0,) leaked an IndexError, 0 a TypeError,
    # and (0, 0, 0) pinned (0, 0).
    for coord in ((0,), 0, (0, 0, 0)):
        with pytest.raises(gs.PreconditionError, match="not an \\(axis, label\\) pair"):
            gs.PinSet(((coord, Fraction(1)),))


def test_pinset_rejects_an_unhashable_label():
    # The pinned-twice check put (0, ['a']) into a set and leaked a TypeError.
    with pytest.raises(gs.PreconditionError, match="not an \\(axis, label\\) pair"):
        gs.PinSet((((0, ["a"]), 1),))


def test_space_rejects_malformed_axes_labels_and_points():
    # Each case leaked a TypeError or read another axis: -1 indexed axis n - 1.
    space = gs.Space.of(("x", ("a", "b")), ("y", ("c", "d")))
    S = gs.PointSet.of(space, [("a", "c"), ("a", "d"), ("b", "c")])
    d = gs.Decomposition(space, ({"a": 1, "b": 2}, {"c": 3, "d": 4}))
    cases = [
        lambda: space.value_index(-1, "c"),
        lambda: space.value_index(2, "c"),
        lambda: space.value_index("1", "c"),
        lambda: d.value(-1, "c"),
        lambda: d.value("0", "a"),
        lambda: space.value_index(1, ["c"]),
        lambda: d.value(1, ["c"]),
        lambda: gs.PointSet.of(space, [("a", ["c"])]),
        lambda: gs.geodesic(S, ("a", "c"), ("a", ["c"])),
        lambda: space.validate_point(5),
        lambda: gs.solve_via_geodesics(S, gs.FunctionTable.zero(S), base=5),
    ]
    for case in cases:
        with pytest.raises(gs.PreconditionError):
            case()
    assert space.value_index(1, "c") == 0 and d.value(1, "d") == 4


def test_every_point_entry_reads_through_the_space():
    # Each case leaked a TypeError, KeyError or IndexError, or took a point of
    # the wrong arity; each now meets the one point reader or membership check.
    space = gs.Space.of(("x", ("a", "b")), ("y", ("c", "d")))
    S = gs.PointSet.of(space, [("a", "c"), ("a", "d"), ("b", "c")])
    system = gs.IncidenceSystem(S)
    marginals = gs.marginals(gs.FiniteMeasure.uniform(S))
    cases = [
        lambda: gs.PointSet.of(space, [5]),
        lambda: S.subset([5]),
        lambda: S.union([5]),
        lambda: S.difference([5]),
        lambda: space.point_key(("a",)),
        lambda: S.projection("x"),
        lambda: gs.PointSet.from_points([("a", "b"), ("c",)]),
        lambda: gs.PointSet.from_points([("a", "b"), 5]),
        lambda: gs.FunctionTable.indicator(S, 5),
        lambda: gs.FunctionTable.zero(S)(("b", "d")),
        lambda: gs.FunctionTable.zero(S)(5),
        lambda: gs.FiniteMeasure.uniform(S)(5),
        lambda: gs.extract_circuit(space, [5]),
        lambda: gs.verify_circuit(space, gs.CircuitVector((("a", "c"), 5), (1, -1))),
        lambda: gs.in_span(system, {(0, "a"): "abc"}),
        lambda: gs.in_span(system, {(0, "a"): [1]}),
        lambda: gs.Axis("z", (0, [1])),
        lambda: marginals.mass(2, "a"),
        lambda: marginals.mass(-1, "c"),
        lambda: marginals.mass(0, ["a"]),
    ]
    for case in cases:
        with pytest.raises(gs.PreconditionError):
            case()
    # A hit is a plain lookup; a list is looked up as a tuple; anything else
    # is just not a member.  A list off the space, of the wrong arity or
    # holding an unhashable label raised `PreconditionError`.
    assert ("a", "c") in S and ["a", "c"] in S and 5 not in S and ("a",) not in S
    assert ("a", "zz") not in S and ["a", "zz"] not in S and ["a"] not in S
    assert [["a"], "c"] not in S and ("a", ["c"]) not in S and "ac" not in S
    assert gs.FunctionTable.zero(S)(["a", "c"]) == 0
    assert gs.FiniteMeasure.uniform(S)(["b", "d"]) == 0
    assert space.point_key(["b", "d"]) == (1, 1) and marginals.mass(1, "d") == Fraction(1, 3)


@pytest.mark.parametrize(
    "points, names, message",
    [
        ([(0, 1), (1, 0)], ["a", "b", "c"], "3 axis names for points of arity 2"),
        ([(0, 1, 2), (1, 0, 2)], ["a", "b"], "2 axis names for points of arity 3"),
        ([(0, 1), (1, 0)], [], "0 axis names for points of arity 2"),
    ],
    ids=["extra", "too-few", "empty"],
)
def test_from_points_axis_names_number_the_arity(points, names, message):
    # Extra names were dropped, too few were blamed on the points ("point
    # (0, 1, 2) has arity 3, want 2"), and [] meant the default names.
    with pytest.raises(gs.PreconditionError, match=message):
        gs.PointSet.from_points(points, names)
    named = gs.PointSet.from_points(points, iter(f"v{i}" for i in range(len(points[0]))))
    assert [axis.name for axis in named.space.axes] == [f"v{i}" for i in range(len(points[0]))]
    default = gs.PointSet.from_points(points)
    assert [axis.name for axis in default.space.axes] == [f"x{i + 1}" for i in range(len(points[0]))]


def test_fractions_never_floats():
    with pytest.raises(gs.PreconditionError):
        gs.as_fraction(0.5)
    with pytest.raises(gs.PreconditionError):
        gs.as_fraction(True)


def test_rational_digits_are_ascii():
    # An Arabic-Indic three and a fullwidth three are Unicode decimal digits,
    # and were each read as 3.
    for text in ("\u0663", "\uff13/4", "-\u0663", "1/\u0663"):
        with pytest.raises(gs.PreconditionError, match="not an exact rational"):
            gs.as_fraction(text)


points_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(points_strategy, st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
def test_deficiency_delta_on_point_addition(points, extra):
    space = int_space((3, 3, 3))
    S = gs.PointSet.of(space, points)
    if extra in S:
        return
    grown = S.union([extra])
    delta = grown.deficiency() - S.deficiency()
    assert -1 <= delta <= space.n - 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
)
def test_evaluate_is_linear(a, b, point):
    space = int_space((2, 2, 2))
    d1 = gs.Decomposition(
        space, tuple({0: Fraction(i + 1), 1: Fraction(-i)} for i in range(3))
    )
    d2 = gs.Decomposition(
        space, tuple({0: Fraction(2 * i - 1), 1: Fraction(i + 2)} for i in range(3))
    )
    combo = d1.scale(a) + d2.scale(b)
    assert combo.evaluate(point) == a * d1.evaluate(point) + b * d2.evaluate(point)


def _one_of_each_value_class() -> list:
    """A value of every value class, built afresh on each call."""
    full, diagonal, loop = cube_set(E5), cube_set(DIAGONAL), pset(RECTANGLE)
    x = full.points[0]
    measure = gs.FiniteMeasure.uniform(loop)
    example = instances.example_names()[0]
    return [
        full.space.axes[0],
        full.space,
        full,
        gs.FunctionTable.indicator(full, x),
        gs.Decomposition.zero(full.space),
        gs.PinSet.zeros(full.coordinates()[:2]),
        linalg.PinRow((0, 0)),
        gs.IncidenceSystem(full),
        gs.solve_pinned(gs.IncidenceSystem(full), gs.FunctionTable.zero(full)),
        gs.is_good(loop).loop,
        gs.is_good(full),
        measure,
        gs.marginals(measure),
        gs.is_simplicial(measure),
        gs.solve_direct(full, gs.FunctionTable.zero(full)),
        gs.geodesic_matrix(full, x),
        gs.bound_diagnostics(full),
        gs.geodesic(full, x, full.points[-1]),
        gs.related_components(diagonal),
        gs.ei_classes(diagonal),
        gs.boundary(diagonal),
        instances.parse_instance(instances.example_instance(example)),
    ]


def _public_fields(value) -> dict:
    return {name: v for name, v in vars(value).items() if not name.startswith("_")}


def test_every_value_class_is_a_frozen_value():
    # Every public class on the package's one base, found through the modules' `__all__`, and
    # `PinRow`, the witness's label for a pin, which the CLI reads but no `__all__` lists.
    modules = (goodness, instances, linalg, measures, model, solve, structure)
    declared = {
        value
        for module in modules
        for value in map(vars(module).__getitem__, module.__all__)
        if isinstance(value, type) and issubclass(value, model._Frozen)
    }
    values, twins = _one_of_each_value_class(), _one_of_each_value_class()
    assert {type(v) for v in values} == declared | {linalg.PinRow}
    assert len(values) == 22
    for value, twin in zip(values, twins):
        cls, fields = type(value), _public_fields(value)
        assert value is not twin and value == twin and not value != twin
        try:
            h = hash(value)
        except TypeError:
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == h
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert _public_fields(value) == fields
        shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
        assert repr(value) == f"{cls.__qualname__}({shown})"
        # A value of another class with the same fields is a different value.
        impostor = object.__new__(type(cls.__name__, (cls,), {}))
        vars(impostor).update(vars(value))
        assert value != impostor and impostor != value


def test_the_base_constructor_takes_each_field_once():
    # A class without an `__init__` of its own is built by the base's one field setter:
    # its fields by position or by name, each exactly once, as a written signature takes them.
    plain = [v for v in _one_of_each_value_class() if type(v).__init__ is model._Frozen.__init__]
    assert len(plain) == 14
    for value in plain:
        cls = type(value)
        fields = {name: getattr(value, name) for name in cls._fields}
        names, values = list(fields), list(fields.values())
        assert cls(*values) == value
        assert cls(**fields) == value
        assert cls(**dict(reversed(fields.items()))) == value
        assert cls(values[0], **dict(list(fields.items())[1:])) == value
        wrong = [
            lambda: cls(*values[:-1]),
            lambda: cls(**dict(list(fields.items())[:-1])),
            lambda: cls(*values, None),
            lambda: cls(**fields, extra=None),
            lambda: cls(*values, **{names[0]: values[0]}),
        ]
        if len(names) > 1:
            wrong.append(lambda: cls(*values[:-1], **{names[0]: values[0]}))
        for build in wrong:
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes the fields"):
                build()


def test_a_report_is_no_plain_solve_and_tables_do_not_hash():
    S = cube_set(E5)
    report = gs.solve_direct(S, gs.FunctionTable.zero(S))
    plain = gs.LinearSolve(report.verdict, report.decomposition, report.kernel, report.witness)
    assert report != plain and plain != report
    for value in (gs.FunctionTable.zero(S), gs.Decomposition.zero(S.space)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
