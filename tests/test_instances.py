import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from test_cli_fuzz import mutated_instances

from goodsets.instances import (
    Instance,
    InstanceError,
    dumps_canonical,
    emit_examples,
    example_instance,
    example_names,
    format_rational,
    _example10,
    instance_to_dict,
    load_instance,
    parse_instance,
    parse_rational,
)

import goodsets as gs


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    for bad in ("0.5", "1e3", "1/0", "1.0", "", "a/b", "1/-2", True, False, None, 0.5):
        with pytest.raises(InstanceError):
            parse_rational(bad)
    with pytest.raises(InstanceError):
        parse_rational("9" * 5000)  # past the interpreter's default digit cap


def test_files_and_the_library_read_one_rational_grammar():
    # A file rational is read by `as_fraction`: the two accept and refuse alike.
    values = ("3/4", "-7", "007", 5, "0.5", "1e3", "1e1000", " 3 ", "3\n", "1/-2", True, 0.5)
    for value in values:
        try:
            expected = gs.as_fraction(value)
        except gs.PreconditionError:
            with pytest.raises(InstanceError):
                parse_rational(value)
        else:
            assert parse_rational(value) == expected


def test_load_rejects_integer_literal_past_digit_cap(tmp_path):
    text = dumps_canonical(example_instance("t4"))
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"points"', '"f": {"0": ' + "9" * 5000 + '}, "points"'))
    with pytest.raises(InstanceError):
        load_instance(path)


def test_rational_formatting():
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


def test_round_trip_all_examples(tmp_path):
    paths = emit_examples(tmp_path)
    assert {p.name for p in paths} == {f"{n}.json" for n in example_names()}
    for path in paths:
        original = json.loads(path.read_text())
        reparsed = instance_to_dict(load_instance(path))
        assert reparsed == original
        assert dumps_canonical(reparsed) == path.read_text()


def test_example_counts():
    ex7 = parse_instance(example_instance("ex07"))
    assert [list(p) for p in ex7.file_points] == [
        ["1", "2", "3"],
        ["4", "5", "6"],
        ["7", "8", "9"],
        ["1", "5", "9"],
    ]
    cross = parse_instance(example_instance("ex08"))
    assert len(cross.file_points) == 7
    assert all(len(ax.values) == 3 for ax in cross.space.axes)
    assert gs.is_good(cross.point_set).good


def test_doubling_chain_shape():
    for depth in range(1, 7):
        inst = parse_instance(example_instance(f"ex10_depth{depth}"))
        assert len(inst.file_points) == 1 + 3 * depth
        assert [len(ax.values) for ax in inst.space.axes] == [depth + 1] * 3
        assert gs.is_good(inst.point_set).good
        assert gs.is_full(inst.point_set)
    deep = parse_instance(example_instance("ex10_depth6"))
    assert len(deep.file_points) == 19


def test_f_defaults_to_zero():
    data = example_instance("t4")
    data["f"] = {"2": "5/3"}
    inst = parse_instance(data)
    assert inst.f(inst.file_points[2]) == Fraction(5, 3)
    assert inst.f(inst.file_points[0]) == 0


def test_pins_parse():
    inst = parse_instance(example_instance("ex10_depth1"))
    assert inst.pins is not None
    coords = dict(inst.pins.pins)
    assert coords[(0, "x0")] == 0 and coords[(1, "y0")] == 0


def test_measure_parse_and_support():
    data = example_instance("rectangle")
    data["measure"] = {"0": "1/2", "1": "1/4", "2": "1/4", "3": "0"}
    inst = parse_instance(data)
    assert len(inst.measure.support) == 3
    assert inst.measure(inst.file_points[0]) == Fraction(1, 2)


def test_parse_errors():
    with pytest.raises(InstanceError):
        parse_instance({"axes": []})
    bad_axis = example_instance("t4")
    bad_axis["pins"] = [{"axis": "w", "value": "0", "rational": "0"}]
    with pytest.raises(InstanceError):
        parse_instance(bad_axis)
    dup = example_instance("t4")
    dup["points"] = dup["points"] + [dup["points"][0]]
    with pytest.raises(InstanceError):
        parse_instance(dup)
    out_of_range = example_instance("t4")
    out_of_range["f"] = {"9": "1"}
    with pytest.raises(InstanceError):
        parse_instance(out_of_range)
    float_measure = example_instance("t4")
    float_measure["measure"] = {"0": "0.25"}
    with pytest.raises(InstanceError):
        parse_instance(float_measure)
    other_axes = example_instance("t4")["axes"][1:]
    for field, value in (
        ("pins", 5),
        ("pins", None),
        ("pins", {}),
        ("pins", [{"axis": "x", "value": "0", "rational": True}]),
        ("f", {"0": True}),
        ("measure", {"0": False}),
        ("f", {" 1": "5"}),
        ("f", {"01": "7"}),
        ("f", {"+1": "5"}),
        ("f", {"1": "5", "01": "7"}),
        ("measure", {"-0": "1"}),
        ("points", ["101", "110", "011", "000"]),
        ("axes", [{"name": name, "values": "01"} for name in "xyz"]),
        ("axes", [{"name": ["x"], "values": ["0", "1"]}] + other_axes),
        ("axes", [{"name": {"x": 0}, "values": ["0", "1"]}] + other_axes),
        ("axes", [{"name": "x", "values": [["0"], "1"]}] + other_axes),
    ):
        data = example_instance("t4")
        data[field] = value
        with pytest.raises(InstanceError):
            parse_instance(data)


def _message(error, call, *args) -> str:
    """The message of the error that call(*args) raises."""
    with pytest.raises(error) as exc:
        call(*args)
    return str(exc.value)


def test_instance_checks_name_their_fault():
    # A negative weight, a point index that is no integer, an unknown
    # example and a chain of depth 0 are refused, each with its own message.
    negative = example_instance("rectangle")
    negative["measure"] = {"0": "1", "1": "-1/2", "2": "1/2"}
    assert _message(InstanceError, parse_instance, negative) == "measure weights must be nonnegative"
    for field in ("f", "measure"):
        data = example_instance("t4")
        data[field] = {"x": "1"}
        assert _message(InstanceError, parse_instance, data) == (
            f"{field!r} point index 'x' is not an integer"
        )
    assert _message(InstanceError, example_instance, "nope") == "no shipped example named 'nope'"
    assert _message(InstanceError, _example10, 0) == "depth must be at least 1"


def test_a_measure_survives_the_round_trip():
    # `instance_to_dict` writes a measure's nonzero weights by point index,
    # and reading them back gives the same instance.
    data = example_instance("rectangle")
    data["measure"] = {"0": "1/2", "1": "1/4", "2": "1/4", "3": "0"}
    inst = parse_instance(data)
    out = instance_to_dict(inst)
    assert out["measure"] == {"0": "1/2", "1": "1/4", "2": "1/4"}
    assert parse_instance(json.loads(dumps_canonical(out))) == inst


def test_index_of_reads_the_file_order_of_a_hand_built_instance():
    # The file-index map is a cache built on first use, so an `Instance`
    # built by hand, here with its file order reversed, answers too; a point
    # the set does not hold is refused by `require_member` first, with its
    # message.
    inst = parse_instance(example_instance("t4"))
    points = inst.file_points
    hand = Instance(inst.space, inst.point_set, points[::-1], None, None, None)
    assert [hand.index_of(p) for p in points] == [3, 2, 1, 0]
    assert [inst.index_of(p) for p in points] == [0, 1, 2, 3]
    assert _message(gs.PreconditionError, hand.index_of, ("1", "1", "1")) == (
        "('1', '1', '1') is not a point of the set"
    )
    with pytest.raises(gs.PreconditionError, match="not a point of the set"):
        inst.index_of(("1", "1", "1"))


@settings(max_examples=150, deadline=None)
@given(raw=mutated_instances())
def test_parse_instance_raises_only_instance_errors(raw):
    # parse_instance is the one boundary where a library PreconditionError becomes an
    # InstanceError; the CLI's exit 2 or 3 for a bad file would not tell the two apart.
    try:
        data = json.loads(raw)
    except ValueError:  # bytes that are no JSON are load_instance's to refuse
        assume(False)
    try:
        assert isinstance(parse_instance(data), Instance)
    except InstanceError:
        pass


def test_load_instance_errors(tmp_path):
    with pytest.raises(InstanceError):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InstanceError):
        load_instance(bad)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(InstanceError):
        load_instance(array)
