"""Golden CLI reports: every command variant on every shipped example.

The expected exit codes and report digests are the benchmark's recorded
ones (`perfbench/cli_expected.json`); a digest is the sha256 of the report
with `instance.path` removed, serialized with sorted keys and no spaces.
Those digests do not see key order or indentation, so `cli_stdout_sha256.json`
also records the sha256 of each variant's raw stdout, printed from the
examples directory with a relative path, which keeps `instance.path` fixed.
Any change to the bytes of a report on the shipped examples fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from goodsets.cli import main
from goodsets.instances import emit_examples

EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json").read_text()
)
RAW_STDOUT = json.loads(Path(__file__).with_name("cli_stdout_sha256.json").read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    emit_examples(directory)
    return directory


def _digest(report: dict) -> str:
    report = dict(report)
    report["instance"] = {k: v for k, v in report["instance"].items() if k != "path"}
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_golden_report(key, corpus, capsys, monkeypatch):
    name, command, *flags = key.split(" ")
    monkeypatch.chdir(corpus)
    code = main([command, f"{name}.json", *flags])
    out = capsys.readouterr().out
    want = EXPECTED[key]
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == RAW_STDOUT[key]
    if code == 0:
        assert _digest(json.loads(out)) == want["sha256"]
    else:
        assert out == ""
