"""Instance files: a small JSON format plus the canonical shipped examples.

An instance is UTF-8 JSON with string labels and string rationals (``"p/q"``
or a bare integer string; floats are rejected), read by `parse_rational`,
which is `model.as_fraction`, the library's one rational grammar::

    {
      "axes":   [{"name": "x", "values": ["x0", "x1"]}, ...],
      "points": [["x0", "y0", "z0"], ...],
      "f":      {"0": "1", "1": "0"},                      # optional
      "pins":   [{"axis": "x", "value": "x0", "rational": "0"}, ...],  # optional
      "measure": {"0": "1/4", ...}                          # optional
    }

``f`` and ``measure`` are keyed by 0-based point index in file order; point
indices in command-line flags and reports use the same convention.  Missing
``f`` entries default to zero.  ``measure`` entries must be positive and sum
to one; indices left out (or given as "0") are outside the support.

`_pins` is the one pin parser and `_decode` the one JSON decoder (no key may
repeat in an object): the CLI's ``solve --pins`` list goes through both, so it
is read exactly like a file's ``pins``.  `parse_instance` is the one place a
library `PreconditionError` becomes an `InstanceError`, with the same message;
the other mappings add context (a pin, an ``f`` or ``measure`` entry, or
`parse_rational`'s public contract).  `_coordinate_form` writes a coordinate's
JSON form, ``{"axis": name, "value": label}``, for files and CLI reports alike.
`_read_instance` is the one read of a file: it returns the bytes it parsed,
which the CLI hashes for its report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .measures import FiniteMeasure
from .model import (
    FunctionTable,
    PinSet,
    Point,
    PointSet,
    PreconditionError,
    Space,
    _Frozen,
    as_fraction,
)

__all__ = [
    "Instance",
    "InstanceError",
    "emit_examples",
    "example_names",
    "example_instance",
    "format_rational",
    "instance_to_dict",
    "load_instance",
    "parse_instance",
    "parse_rational",
]

class InstanceError(ValueError):
    """The instance file is malformed or internally inconsistent."""


def parse_rational(text) -> Fraction:
    """`model.as_fraction`, the one rational grammar, failing with `InstanceError`."""
    try:
        return as_fraction(text)
    except PreconditionError as exc:
        raise InstanceError(str(exc)) from None


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _coordinate_form(space: Space, coord) -> dict:
    return {"axis": space.axes[coord[0]].name, "value": coord[1]}


class Instance(_Frozen):
    """A parsed instance; `file_points` keeps the file order for index maps."""

    space: Space
    point_set: PointSet
    file_points: tuple[Point, ...]
    f: FunctionTable | None
    pins: PinSet | None
    measure: FiniteMeasure | None

    def __init__(self, space, point_set, file_points, f, pins, measure):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "point_set", point_set)
        object.__setattr__(self, "file_points", file_points)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "pins", pins)
        object.__setattr__(self, "measure", measure)

    def index_of(self, point) -> int:
        return self.file_points.index(self.point_set.require_member(point))


def _list(value, what: str) -> list:
    """A JSON list; a string here would otherwise be read character by character."""
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a list, not {value!r}")
    return value


def _label(value) -> str:
    """An axis name or value label: any JSON scalar, as its string."""
    if isinstance(value, (list, dict)):
        raise InstanceError(f"a name or label must be a scalar, not {value!r}")
    return str(value)


def parse_instance(data: dict) -> Instance:
    try:
        axes = [
            (_label(ax["name"]), [_label(v) for v in _list(ax["values"], "axis values")])
            for ax in _list(data["axes"], "'axes'")
        ]
        # Tuples of str labels: `PointSet` reads each once and stores it as given.
        file_points = tuple(
            tuple(_label(v) for v in _list(p, "each of 'points'"))
            for p in _list(data["points"], "'points'")
        )
    except (KeyError, TypeError) as exc:
        raise InstanceError(f"missing or malformed field: {exc}") from exc
    try:
        space = Space.of(*axes)
        point_set = PointSet(space, file_points)
        if len(point_set) != len(file_points):
            raise InstanceError("duplicate points in instance")

        f = None
        if "f" in data:
            table = {p: Fraction(0) for p in file_points}
            table.update(_indexed_entries(data, "f", file_points))
            f = FunctionTable(point_set, table)

        pins = _pins(space, data["pins"]) if "pins" in data else None

        measure = None
        if "measure" in data:
            weights = {}
            for p, w in _indexed_entries(data, "measure", file_points):
                if w < 0:
                    raise InstanceError("measure weights must be nonnegative")
                if w > 0:
                    weights[p] = w
            measure = FiniteMeasure(PointSet(space, tuple(weights)), weights)
    except PreconditionError as exc:
        raise InstanceError(str(exc)) from exc

    return Instance(space, point_set, file_points, f, pins, measure)


def _pins(space: Space, entries) -> PinSet:
    """The one pin parser: a file's `pins` and the CLI's `--pins` are read here."""
    if not isinstance(entries, list):
        raise InstanceError("'pins' must be a list of pin objects")
    pins = []
    for pin in entries:
        try:
            axis = space.axis_index(_label(pin["axis"]))
            label = _label(pin["value"])
            value = parse_rational(pin["rational"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed pin {pin!r}: {exc}") from exc
        pins.append(((axis, label), value))
    return PinSet(tuple(pins))


def _indexed_entries(data: dict, name: str, file_points) -> list:
    """(point, rational) pairs of an object field keyed by point index."""
    table = data[name]
    if not isinstance(table, dict):
        raise InstanceError(f"{name!r} must be an object keyed by point index")
    entries = []
    for key, raw in table.items():
        p = file_points[_point_index(name, key, file_points)]
        try:
            entries.append((p, parse_rational(raw)))
        except InstanceError as exc:
            raise InstanceError(f"{name!r} at point {key}: {exc}") from None
    return entries


def _point_index(name: str, key, file_points) -> int:
    """The point index a key names; only the canonical decimal form is one."""
    try:
        idx = int(key)
    except (TypeError, ValueError):
        raise InstanceError(f"{name!r} point index {key!r} is not an integer") from None
    if key != str(idx):
        raise InstanceError(f"{name!r} point index {key!r} is not written as {str(idx)!r}")
    if not 0 <= idx < len(file_points):
        raise InstanceError(f"{name!r} point index {idx} out of range")
    return idx


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are distinct; a repeated key would drop an entry."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise InstanceError(f"duplicate key {key!r} in a JSON object")
        data[key] = value
    return data


def _decode(text: str):
    """The one JSON decoder of instance files and `--pins`: no key repeats in an object."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise InstanceError("JSON nested too deeply") from None


def _read_instance(path) -> tuple[bytes, Instance]:
    """The one read of an instance file: its bytes, and the instance parsed from them."""
    try:
        raw = Path(path).read_bytes()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    try:
        data = _decode(text)
    except ValueError as exc:  # malformed JSON, or an integer with too many digits
        raise InstanceError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    return raw, parse_instance(data)


def load_instance(path) -> Instance:
    return _read_instance(path)[1]


def instance_to_dict(instance: Instance) -> dict:
    """Canonical dictionary form; byte-stable through `dumps_canonical`."""
    data = {
        "axes": [
            {"name": ax.name, "values": list(ax.values)}
            for ax in instance.space.axes
        ],
        "points": [list(p) for p in instance.file_points],
    }
    if instance.f is not None:
        data["f"] = {
            str(i): format_rational(instance.f(p))
            for i, p in enumerate(instance.file_points)
        }
    if instance.pins is not None:
        data["pins"] = [
            {**_coordinate_form(instance.space, coord), "rational": format_rational(value)}
            for coord, value in instance.pins
        ]
    if instance.measure is not None:
        data["measure"] = {
            str(i): format_rational(instance.measure(p))
            for i, p in enumerate(instance.file_points)
            if instance.measure(p) != 0
        }
    return data


def dumps_canonical(data: dict) -> str:
    return json.dumps(data, indent=2, ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# Shipped examples.


def _rectangle() -> dict:
    return {
        "axes": [
            {"name": "x", "values": ["a", "c"]},
            {"name": "y", "values": ["b", "d"]},
        ],
        "points": [["a", "b"], ["a", "d"], ["c", "b"], ["c", "d"]],
    }


def _ex02() -> dict:
    # Three corners of a 2x2 grid: unique split once u1(0) is chosen.
    return {
        "axes": [
            {"name": "x", "values": ["0", "1"]},
            {"name": "y", "values": ["0", "1"]},
        ],
        "points": [["0", "0"], ["1", "0"], ["0", "1"]],
    }


def _ex04() -> dict:
    # Staircase: one unit at a time along the x, then y, then z axis.
    return {
        "axes": [
            {"name": "x", "values": ["0", "1", "2"]},
            {"name": "y", "values": ["0", "1", "2"]},
            {"name": "z", "values": ["0", "1", "2"]},
        ],
        "points": [
            ["0", "0", "0"],
            ["1", "0", "0"],
            ["1", "1", "0"],
            ["1", "1", "1"],
            ["2", "1", "1"],
            ["2", "2", "1"],
            ["2", "2", "2"],
        ],
    }


def _cube_axes() -> list:
    return [
        {"name": "x", "values": ["0", "1"]},
        {"name": "y", "values": ["0", "1"]},
        {"name": "z", "values": ["0", "1"]},
    ]


def _ex05() -> dict:
    return {
        "axes": _cube_axes(),
        "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }


def _e5plus() -> dict:
    data = _ex05()
    data["points"] = data["points"] + [["1", "1", "1"]]
    return data


def _t4() -> dict:
    return {
        "axes": _cube_axes(),
        "points": [["1", "0", "1"], ["1", "1", "0"], ["0", "1", "1"], ["0", "0", "0"]],
    }


def _ex07() -> dict:
    return {
        "axes": [
            {"name": "x", "values": ["1", "4", "7"]},
            {"name": "y", "values": ["2", "5", "8"]},
            {"name": "z", "values": ["3", "6", "9"]},
        ],
        "points": [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"], ["1", "5", "9"]],
    }


def _ex08() -> dict:
    # The cross through (a1, a2, a3) with three values per axis.
    axes = [
        {"name": "x", "values": ["a1", "b1", "c1"]},
        {"name": "y", "values": ["a2", "b2", "c2"]},
        {"name": "z", "values": ["a3", "b3", "c3"]},
    ]
    points = []
    for i in range(3):
        for v in axes[i]["values"]:
            p = ["a1", "a2", "a3"]
            p[i] = v
            if p not in points:
                points.append(p)
    return {"axes": axes, "points": points}


def _example10(depth: int) -> dict:
    """Doubling-chain prefix: 1 + 3*depth points with axes of size depth + 1."""
    if depth < 1:
        raise InstanceError("depth must be at least 1")
    points = [["x0", "y0", "z0"]]
    for m in range(depth):
        points.append([f"x{m+1}", "y0", f"z{m}"])
        points.append(["x0", f"y{m+1}", f"z{m}"])
        points.append([f"x{m+1}", f"y{m+1}", f"z{m+1}"])
    axes = [
        {"name": "x", "values": [f"x{i}" for i in range(depth + 1)]},
        {"name": "y", "values": [f"y{i}" for i in range(depth + 1)]},
        {"name": "z", "values": [f"z{i}" for i in range(depth + 1)]},
    ]
    f = {str(i): "1" if i == 0 else "0" for i in range(len(points))}
    pins = [
        {"axis": "x", "value": "x0", "rational": "0"},
        {"axis": "y", "value": "y0", "rational": "0"},
    ]
    return {"axes": axes, "points": points, "f": f, "pins": pins}


_BUILDERS = {
    "rectangle": _rectangle,
    "ex02": _ex02,
    "ex04": _ex04,
    "ex05": _ex05,
    "e5plus": _e5plus,
    "t4": _t4,
    "ex07": _ex07,
    "ex08": _ex08,
}
for _depth in range(1, 7):
    _BUILDERS[f"ex10_depth{_depth}"] = (lambda d: (lambda: _example10(d)))(_depth)


def example_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def example_instance(name: str) -> dict:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise InstanceError(f"no shipped example named {name!r}") from None


def emit_examples(directory) -> list[Path]:
    """Write every shipped example as `<name>.json` into the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in example_names():
        path = directory / f"{name}.json"
        path.write_text(dumps_canonical(example_instance(name)), encoding="utf-8")
        written.append(path)
    return written
