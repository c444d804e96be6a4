import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from goodsets import linalg, structure
from goodsets.cli import COMMANDS, main
from goodsets.instances import dumps_canonical, emit_examples, example_instance


@pytest.fixture(scope="module")
def inst_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("instances")
    emit_examples(directory)
    return directory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_check_good_e5plus(capsys, inst_dir):
    code, report, _ = run_cli(capsys, "check-good", str(inst_dir / "e5plus.json"))
    assert code == 0
    assert report["command"] == "check-good"
    assert report["result"]["good"] is False
    assert report["result"]["loop"]["points"] == [0, 1, 2, 3, 4]
    assert report["result"]["loop"]["coefficients"] == [2, -1, -1, -1, 1]


def test_check_good_reports_digest(capsys, inst_dir):
    _, report, _ = run_cli(capsys, "check-good", str(inst_dir / "t4.json"))
    assert len(report["instance"]["sha256"]) == 64
    assert report["instance"]["points"] == 4


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_reads_its_instance_once_and_hashes_those_bytes(
    capsys, tmp_path, monkeypatch, command
):
    # A second read could hash bytes that were never parsed, had the file changed in between.
    # ex07 is good and not full, so every command computes; CRLF line ends are hashed as
    # read and are JSON whitespace to the parser.
    path = tmp_path / "ex07.json"
    data = {**example_instance("ex07"), "f": {"0": "1"}}
    text = dumps_canonical(data).replace("\n", "\r\n")
    path.write_bytes(text.encode("utf-8"))
    want = hashlib.sha256(text.encode("utf-8")).hexdigest()
    reads = []
    for name in ("read_bytes", "read_text"):
        original = getattr(Path, name)

        def spy(self, *args, _original=original, **kwargs):
            reads.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, spy)
    extra = ["--from", "0", "--to", "3"] if command == "geodesic" else []
    code, report, _ = run_cli(capsys, command, str(path), *extra)
    assert code == 0
    assert reads == [path]
    assert report["instance"]["sha256"] == want


def test_find_loop(capsys, inst_dir):
    code, report, _ = run_cli(capsys, "find-loop", str(inst_dir / "rectangle.json"))
    assert code == 0
    assert report["result"]["loop"]["coefficients"] == [1, -1, -1, 1]
    code, report, _ = run_cli(capsys, "find-loop", str(inst_dir / "t4.json"))
    assert report["result"]["loop"] is None


def test_geodesic_t4(capsys, inst_dir):
    code, report, _ = run_cli(
        capsys, "geodesic", str(inst_dir / "t4.json"), "--from", "0", "--to", "3"
    )
    assert code == 0
    assert report["result"] == {"related": True, "length": 4, "points": [0, 1, 2, 3]}


def test_geodesic_index_out_of_range(capsys, inst_dir):
    code, report, err = run_cli(
        capsys, "geodesic", str(inst_dir / "t4.json"), "--from", "0", "--to", "9"
    )
    assert code == 2 and report is None and "precondition" in err


def test_solve_doubling_chain(capsys, inst_dir):
    code, report, _ = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth2.json"), "--method", "direct"
    )
    assert code == 0
    result = report["result"]
    assert result["verdict"] == "unique"
    assert result["decomposition"]["z"]["z2"] == "4"
    assert result["decomposition"]["x"]["x2"] == "-2"
    assert result["diagnostics"]["max_abs_value"] == "4"


def test_solve_methods_agree(capsys, inst_dir):
    path = str(inst_dir / "ex10_depth2.json")
    _, direct, _ = run_cli(capsys, "solve", path, "--method", "direct")
    _, geodesic, _ = run_cli(capsys, "solve", path, "--method", "geodesic")
    _, componentwise, _ = run_cli(capsys, "solve", path, "--method", "componentwise")
    d = direct["result"]["decomposition"]
    assert geodesic["result"]["decomposition"] == d
    assert componentwise["result"]["decomposition"] == d


def test_solve_boundary_method_defaults_to_zero_pins(capsys, tmp_path):
    data = {
        "axes": [
            {"name": "x", "values": ["0", "1"]},
            {"name": "y", "values": ["0", "1"]},
            {"name": "z", "values": ["0", "1"]},
        ],
        "points": [["0", "0", "0"], ["1", "1", "1"]],
        "f": {"0": "1", "1": "0"},
    }
    path = tmp_path / "diag.json"
    path.write_text(dumps_canonical(data))
    code, report, _ = run_cli(capsys, "solve", str(path), "--method", "boundary")
    assert code == 0
    assert report["result"]["decomposition"]["x"] == {"0": "1", "1": "0"}


def test_solve_inline_pins_override(capsys, inst_dir):
    code, report, _ = run_cli(
        capsys,
        "solve",
        str(inst_dir / "ex10_depth1.json"),
        "--pins",
        '[{"axis": "x", "value": "x0", "rational": "1"}, {"axis": "y", "value": "y0", "rational": "0"}]',
    )
    assert code == 0
    assert report["result"]["decomposition"]["x"]["x0"] == "1"


@pytest.mark.parametrize("method", ["geodesic", "componentwise"])
def test_solve_refuses_pins_for_a_route_that_takes_none(capsys, inst_dir, method):
    # These routes pin each base's first n - 1 coordinates at zero; a pin would be dropped.
    pins = json.dumps(
        [
            {"axis": "x", "value": "x0", "rational": "5"},
            {"axis": "y", "value": "y0", "rational": "0"},
        ]
    )
    code, report, err = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth1.json"), "--method", method, "--pins", pins
    )
    assert code == 2 and report is None
    assert err == (
        f"precondition violated: --pins applies to --method direct and boundary, not {method}\n"
    )


@pytest.mark.parametrize("pins", ["{}", "5", "null"])
def test_solve_inline_pins_must_be_a_list(capsys, inst_dir, pins):
    code, report, err = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth1.json"), "--pins", pins
    )
    assert code == 2 and report is None and "--pins" in err


@pytest.mark.parametrize(
    "pins",
    [
        pytest.param(
            '[{"axis": "x", "value": "x0", "rational": "0", "rational": "5"},'
            ' {"axis": "y", "value": "y0", "rational": "0"}]',
            id="duplicate-key",
        ),
        pytest.param(
            '[{"axis": "x", "value": ["x0"], "rational": "0"},'
            ' {"axis": "y", "value": "y0", "rational": "0"}]',
            id="list-label",
        ),
    ],
)
def test_solve_inline_pins_are_read_like_file_pins(capsys, inst_dir, tmp_path, pins):
    # The same list as the file's `pins` is an instance error.
    code, report, err = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth1.json"), "--pins", pins
    )
    assert code == 2 and report is None and "malformed --pins value" in err
    data = example_instance("ex10_depth1")
    del data["pins"]
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(data)[:-1] + f', "pins": {pins}}}')
    code, report, err = run_cli(capsys, "solve", str(path))
    assert code == 3 and report is None and "instance error" in err


def test_deeply_nested_json_is_a_parse_or_pins_error(capsys, inst_dir, tmp_path):
    # The decoder's recursion limit is an input error, not a traceback.
    nested = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "nested.json"
    path.write_text(nested)
    code, report, err = run_cli(capsys, "check-good", str(path))
    assert code == 3 and report is None and "nested too deeply" in err
    code, report, err = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth1.json"), "--pins", nested
    )
    assert code == 2 and report is None and "malformed --pins value" in err


def test_solve_requires_f(capsys, inst_dir):
    code, report, err = run_cli(capsys, "solve", str(inst_dir / "t4.json"))
    assert code == 2 and "f table" in err


def test_solve_inconsistent_verdict_still_exits_zero(capsys, tmp_path):
    data = example_instance("rectangle")
    data["f"] = {"0": "1", "1": "0", "2": "0", "3": "0"}
    path = tmp_path / "rect.json"
    path.write_text(dumps_canonical(data))
    code, report, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert report["result"]["verdict"] == "inconsistent"
    assert report["result"]["decomposition"] is None
    rows = [w["row"] for w in report["result"]["witness"]]
    assert all(isinstance(r, int) for r in rows)


def test_simplicial_uses_file_measure(capsys, tmp_path):
    data = example_instance("rectangle")
    data["measure"] = {"0": "1/2", "1": "1/6", "2": "1/6", "3": "1/6"}
    path = tmp_path / "weighted.json"
    path.write_text(dumps_canonical(data))
    code, report, _ = run_cli(capsys, "simplicial", str(path))
    assert code == 0
    assert report["result"]["simplicial"] is False
    assert report["result"]["certificate"]["epsilon"] == "1/6"


def test_is_full(capsys, inst_dir):
    _, report, _ = run_cli(capsys, "is-full", str(inst_dir / "t4.json"))
    assert report["result"] == {"good": True, "full": True}
    _, report, _ = run_cli(capsys, "is-full", str(inst_dir / "rectangle.json"))
    assert report["result"] == {"good": False, "full": False}


def test_fullify_and_split_and_maximalize(capsys, tmp_path):
    data = {
        "axes": [
            {"name": "x", "values": ["0", "1"]},
            {"name": "y", "values": ["0", "1"]},
            {"name": "z", "values": ["0", "1"]},
        ],
        "points": [["0", "0", "0"], ["1", "1", "1"]],
    }
    path = tmp_path / "diag.json"
    path.write_text(dumps_canonical(data))
    _, report, _ = run_cli(capsys, "fullify", str(path))
    assert len(report["result"]["points"]) == 4
    assert len(report["result"]["added"]) == 2
    _, report, _ = run_cli(capsys, "split", str(path))
    assert len(report["result"]["complement"]) == 2
    _, report, _ = run_cli(capsys, "maximalize", str(path))
    assert len(report["result"]["points"]) == 4


def test_fullify_precondition(capsys, inst_dir):
    code, _, err = run_cli(capsys, "fullify", str(inst_dir / "rectangle.json"))
    assert code == 2 and "good" in err


def test_components(capsys, tmp_path):
    data = {
        "axes": [
            {"name": "x", "values": ["0", "1"]},
            {"name": "y", "values": ["0", "1"]},
            {"name": "z", "values": ["0", "1"]},
        ],
        "points": [["0", "0", "0"], ["1", "1", "1"]],
    }
    path = tmp_path / "diag.json"
    path.write_text(dumps_canonical(data))
    _, report, _ = run_cli(capsys, "components", str(path))
    assert report["result"]["count"] == 2
    assert report["result"]["components"] == [[0], [1]]


def test_boundary_t4(capsys, inst_dir):
    _, report, _ = run_cli(capsys, "boundary", str(inst_dir / "t4.json"))
    assert report["result"]["boundary"] == [
        {"axis": "y", "value": "0"},
        {"axis": "z", "value": "0"},
    ]
    assert report["result"]["pivot_generators"] == [0]


def test_simplicial_rectangle_uniform_default(capsys, inst_dir):
    _, report, _ = run_cli(capsys, "simplicial", str(inst_dir / "rectangle.json"))
    result = report["result"]
    assert result["simplicial"] is False
    assert result["certificate"]["epsilon"] == "1/4"
    assert result["certificate"]["coefficients"] == [1, -1, -1, 1]


def test_stats_t4(capsys, inst_dir):
    _, report, _ = run_cli(capsys, "stats", str(inst_dir / "t4.json"))
    result = report["result"]
    assert result["deficiency"] == 2
    assert result["good"] and result["full"]
    assert result["components"] == 1
    assert result["max_geodesic_length"] == 4
    assert result["mean_geodesic_length"] == "13/4"


def test_determinism_byte_identical(capsys, inst_dir):
    path = str(inst_dir / "e5plus.json")
    main(["check-good", path])
    first = capsys.readouterr().out
    main(["check-good", path])
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_writes_file(capsys, inst_dir, tmp_path):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(
        capsys, "check-good", str(inst_dir / "t4.json"), "--out", str(out)
    )
    assert code == 0 and report is None
    assert json.loads(out.read_text())["result"]["good"] is True


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, report, err = run_cli(capsys, "check-good", str(bad))
    assert code == 3 and report is None and "instance error" in err
    code, _, _ = run_cli(capsys, "check-good", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("f", [], id="f"),
        pytest.param("measure", [], id="measure"),
        pytest.param("pins", 5, id="pins-number"),
        pytest.param("pins", None, id="pins-null"),
        pytest.param("pins", {}, id="pins-object"),
        pytest.param("f", {"0": True}, id="f-boolean"),
        pytest.param("points", ["101", "110", "011", "000"], id="points-strings"),
        pytest.param("f", {"1": "5", "01": "7"}, id="f-non-canonical-index"),
    ],
)
def test_non_object_table_is_parse_error(capsys, tmp_path, field, value):
    data = example_instance("t4")
    data[field] = value
    path = tmp_path / "t4.json"
    path.write_text(dumps_canonical(data))
    code, report, err = run_cli(capsys, "check-good", str(path))
    assert code == 3 and report is None
    assert "instance error" in err and field in err


def test_unsplit_group_exits_internal(capsys, inst_dir, monkeypatch):
    # A group that is not full must split by kernel signature; a read that
    # gives every column the same functional keeps ex07 (deficiency 5) whole
    # and breaks that.
    real = structure._peeled_read

    def alike(rows, count, ncols):
        rank, values, m = real(rows, count, ncols)
        return rank, [{}] * ncols if count == 0 else values, m

    monkeypatch.setattr(structure, "_peeled_read", alike)
    code, report, err = run_cli(capsys, "components", str(inst_dir / "ex07.json"))
    assert code == 4 and report is None
    assert err.startswith("internal error: a group that is not full has one kernel signature")
    assert "Traceback" not in err


@pytest.mark.parametrize("parts", [((0,), (1, 2, 3)), ((1, 2), (0, 3))])
def test_shared_kinds_check_exits_internal(capsys, inst_dir, monkeypatch, parts):
    # t4 is full.  Split into two "classes", its least point and the other
    # three share a value on every axis, and points 1, 2 and points 0, 3 on
    # two of the three; both break the n - 2 shared-kinds bound.
    def split(S, what, x=None):
        return [S.subset(S.points[k] for k in part) for part in parts]

    monkeypatch.setattr(structure, "_classes", split)
    code, report, err = run_cli(capsys, "components", str(inst_dir / "t4.json"))
    assert code == 4 and report is None
    assert err.startswith(
        "internal error: distinct components share too many coordinate kinds"
    )
    assert "Traceback" not in err


def test_internal_error_exit_code(capsys, inst_dir, monkeypatch):
    # A matching order whose closures drop every point but x and y: from
    # point 0 to point 3 of t4 that leaves {0, 3}, which is not full, and the
    # geodesic's count certificate refuses it.
    real = structure._order

    def thinned(S, x, what):
        match, closure = real(S, x, what)
        return match, lambda p: closure(p) and frozenset({x, p})

    monkeypatch.setattr(structure, "_order", thinned)
    code, report, err = run_cli(
        capsys, "geodesic", str(inst_dir / "t4.json"), "--from", "0", "--to", "3"
    )
    assert code == 4 and report is None
    assert err.startswith("internal error: the geodesic is not full\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["geodesic", "componentwise", "boundary"])
def test_a_split_that_fails_its_check_exits_internal(capsys, inst_dir, monkeypatch, method):
    # A split builder wrong by one at u_z(z1): the split check catches it.
    build = linalg._decomposition

    def wrong(space, columns, numerators, D):
        off = [a + D * (c == (2, "z1")) for c, a in zip(columns, numerators)]
        return build(space, columns, off, D)

    monkeypatch.setattr(linalg, "_decomposition", wrong)
    code, report, err = run_cli(
        capsys, "solve", str(inst_dir / "ex10_depth2.json"), "--method", method
    )
    assert code == 4 and report is None
    assert err.startswith("internal error: split does not reproduce f")
    assert "Traceback" not in err


def test_emit_examples_command(capsys, tmp_path):
    code, report, _ = run_cli(capsys, "emit-examples", str(tmp_path / "out"))
    assert code == 0
    assert "t4.json" in report["result"]["files"]
    assert (tmp_path / "out" / "ex10_depth6.json").exists()


def test_unknown_command_exits_2(inst_dir):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(inst_dir / "t4.json")])
    assert exc.value.code == 2


def test_the_cli_imports_no_dataclasses_inspect_or_typing():
    # Each CLI run is a new process, so what `import goodsets.cli` loads is paid on every command.
    # `-S` keeps `site`, and whatever a `.pth` file imports, out of the count.
    src = Path(linalg.__file__).parents[1]
    probe = (
        "import goodsets.cli, sys; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


@pytest.mark.skipif(shutil.which("goodsets") is None, reason="script not installed")
def test_console_script_end_to_end(inst_dir):
    proc = subprocess.run(
        ["goodsets", "check-good", str(inst_dir / "e5plus.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["loop"]["coefficients"] == [2, -1, -1, -1, 1]
    assert "elapsed_ms=" in proc.stderr
    missing = subprocess.run(
        ["goodsets", "stats", str(inst_dir / "nope.json")], capture_output=True
    )
    assert missing.returncode == 3


def test_non_utf8_instance_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bytes.json"
    bad.write_bytes(b"\xff\xfe")
    code, report, err = run_cli(capsys, "check-good", str(bad))
    assert code == 3 and report is None
    assert err.startswith("instance error: cannot read") and "Traceback" not in err


def test_out_into_missing_directory_exits_2(capsys, inst_dir, tmp_path):
    out = tmp_path / "missing" / "report.json"
    code, report, err = run_cli(
        capsys, "check-good", str(inst_dir / "t4.json"), "--out", str(out)
    )
    assert code == 2 and report is None
    assert f"cannot write {out}" in err and "Traceback" not in err
    assert not out.exists()


def test_emit_examples_onto_a_file_exits_2(capsys, tmp_path):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    code, report, err = run_cli(capsys, "emit-examples", str(target))
    assert code == 2 and report is None
    assert f"cannot write {target}" in err and "Traceback" not in err
    assert target.read_text() == "not a directory"


def test_duplicate_key_is_parse_error(capsys, tmp_path):
    path = tmp_path / "dup.json"
    text = dumps_canonical(example_instance("t4"))
    path.write_text(text.replace('"points"', '"f": {"1": "5", "1": "7"}, "points"'))
    code, report, err = run_cli(capsys, "check-good", str(path))
    assert code == 3 and report is None
    assert err.startswith("instance error:") and "duplicate key '1'" in err


def test_a_rational_of_digits_that_are_not_ascii_exits_3(capsys, tmp_path):
    # An Arabic-Indic three was read as 3.
    data = example_instance("ex10_depth2")
    data["f"]["0"] = "\u0663"
    path = tmp_path / "digits.json"
    path.write_text(dumps_canonical(data))
    code, report, err = run_cli(capsys, "solve", str(path))
    assert code == 3 and report is None
    assert err.startswith("instance error:") and "Traceback" not in err


def test_rationals_longer_than_the_int_digit_limit(capsys, tmp_path):
    # 5000 digits in, 5001 out: past the interpreter's default 4300-digit cap.
    huge = "9" * 5000
    data = example_instance("ex10_depth2")
    data["f"]["0"] = huge
    path = tmp_path / "huge.json"
    path.write_text(dumps_canonical(data))
    limit = sys.get_int_max_str_digits()
    code, report, _ = run_cli(capsys, "solve", str(path))
    assert code == 0
    assert report["result"]["decomposition"]["z"]["z2"] == "3" + "9" * 4999 + "6"  # 4 f(0)
    assert sys.get_int_max_str_digits() == limit
