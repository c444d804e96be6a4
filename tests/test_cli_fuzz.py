"""Fuzzing the CLI exit-code contract with mutated shipped examples.

Each case takes one of the 14 shipped instances, applies one structure-aware
mutation (a value of another JSON type, a truncated list, a duplicate key, a
non-canonical point index, a huge rational) or corrupts the encoded bytes,
and runs one command twice.  On any input the CLI must exit 0, 2 or 3 with
no traceback, and print the same report both times.  A drawn pin list must
be read alike as a file's `pins` and as `solve --pins`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from goodsets.cli import main
from goodsets.instances import example_instance, example_names

COMMANDS = (
    ("check-good",),
    ("is-full",),
    ("fullify",),
    ("split",),
    ("maximalize",),
    ("components",),
    ("geodesic", "--from", "0", "--to", "1"),
    ("boundary",),
    ("solve",),
    ("solve", "--method", "geodesic"),
    ("solve", "--method", "componentwise"),
    ("solve", "--method", "boundary"),
    ("simplicial",),
    ("stats",),
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)


class DuplicateKeys(list):
    """An object written as its (key, value) pairs, so a key may repeat."""


def _encode(node) -> str:
    if isinstance(node, DuplicateKeys):
        pairs = ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in node)
        return "{" + pairs + "}"
    if isinstance(node, dict):
        return _encode(DuplicateKeys(node.items()))
    if isinstance(node, list):
        return "[" + ", ".join(_encode(v) for v in node) + "]"
    return json.dumps(node)


def _paths(node, prefix=()):
    """Every path to a node of the JSON tree, the root first."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[head] = _replace(node[head], rest, value)
    return copy


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _huge_rational(draw) -> str:
    digits = draw(st.integers(4000, 12000))
    numerator = draw(st.sampled_from(("9", "-1", "7"))) + "3" * digits
    return draw(st.sampled_from((numerator, f"1/{'7' * digits}", f"{numerator}/3")))


@st.composite
def mutated_instances(draw) -> bytes:
    data = example_instance(draw(st.sampled_from(example_names())))
    kind = draw(st.sampled_from(("type", "truncate", "duplicate", "index", "huge", "bytes")))
    paths = list(_paths(data))
    if kind == "type":
        data = _replace(data, draw(st.sampled_from(paths)), draw(VALUES))
    elif kind == "truncate":
        path = draw(st.sampled_from([p for p in paths if isinstance(_get(data, p), list)]))
        node = _get(data, path)
        data = _replace(data, path, node[: draw(st.integers(0, max(len(node) - 1, 0)))])
    elif kind == "duplicate":
        objects = [p for p in paths if isinstance(_get(data, p), dict) and _get(data, p)]
        path = draw(st.sampled_from(objects))
        node = _get(data, path)
        key = draw(st.sampled_from(sorted(node)))
        data = _replace(data, path, DuplicateKeys([*node.items(), (key, draw(VALUES))]))
    elif kind == "index":
        field = draw(st.sampled_from(("f", "measure")))
        table = data.get(field) or {"0": "1"}
        key = draw(st.sampled_from(sorted(table)))
        variant = draw(st.sampled_from((" ", "0", "+", "-"))) + key
        data = {**data, field: {**table, variant: table[key]}}
    elif kind == "huge":
        f = dict(data.get("f") or {"0": "0"})
        f[draw(st.sampled_from(sorted(f)))] = _huge_rational(draw)
        data = {**data, "f": f}
    text = _encode(data).encode("utf-8")
    if kind == "bytes":
        raw = bytearray(text)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(raw) - 1))
            raw[at] = draw(st.integers(0, 255))
        text = bytes(raw)
    return text


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(raw=mutated_instances(), command=st.sampled_from(COMMANDS))
def test_cli_contract_on_mutated_examples(raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.json"
        path.write_bytes(raw)
        argv = (command[0], str(path), *command[1:])
        code, out, err = _run(argv)
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        assert (code == 0) == bool(out)
        assert _run(argv)[:2] == (code, out)


PIN_FIELDS = (
    ("axis", st.sampled_from(("x", "y", "z"))),
    ("value", st.sampled_from(("x0", "x1", "y0", "y1", "z0", "x7"))),
    ("rational", st.sampled_from(("0", "1", "-5/3", "01"))),
)


@st.composite
def pin_lists(draw):
    """A list of pins; a pin may miss a field, repeat one, hold another JSON value or be one."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES)
    pins = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("pin",) * 6 + ("missing", "duplicate", "value", "other")))
        pin = DuplicateKeys((key, draw(values)) for key, values in PIN_FIELDS)
        at = draw(st.integers(0, 2))
        if kind == "missing":
            del pin[at]
        elif kind == "duplicate":
            pin.append((pin[at][0], draw(PIN_FIELDS[at][1])))
        elif kind == "value":
            pin[at] = (pin[at][0], draw(VALUES))
        elif kind == "other":
            pin = draw(VALUES)
        pins.append(pin)
    return pins


@settings(max_examples=150, deadline=None)
@given(pins=pin_lists(), method=st.sampled_from(("direct", "boundary")))
def test_inline_pins_are_read_like_file_pins(pins, method):
    data = example_instance("ex10_depth1")
    with tempfile.TemporaryDirectory() as tmp:
        pinned, untouched = Path(tmp) / "pinned.json", Path(tmp) / "untouched.json"
        pinned.write_text(_encode({**data, "pins": pins}))
        untouched.write_text(_encode(data))
        file_code, file_out, file_err = _run(("solve", str(pinned), "--method", method))
        # With "=", argparse takes a value such as -Infinity as the value, not as a flag.
        code, out, err = _run(
            ("solve", str(untouched), "--method", method, f"--pins={_encode(pins)}")
        )
    for c, e in ((file_code, file_err), (code, err)):
        assert c in (0, 2, 3) and "Traceback" not in e, e
    assert (file_code == 3) == (code == 2 and "malformed --pins value" in err), (file_err, err)
    if file_code != 3:
        assert file_code == code
        if code == 0:
            assert json.loads(file_out)["result"] == json.loads(out)["result"]
