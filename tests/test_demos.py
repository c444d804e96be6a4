"""Every demo runs clean, and its stdout is held byte for byte.

`demo_stdout_sha256.json` records the sha256 of each demo's raw stdout, as
`cli_stdout_sha256.json` does for the golden CLI reports, so a change to
any printed verdict, loop, certificate or split fails here.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RAW_STDOUT = json.loads(pathlib.Path(__file__).with_name("demo_stdout_sha256.json").read_text())
# The demos import goodsets from the checkout, as the in-process tests do.
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


def test_every_demo_is_recorded():
    assert sorted(RAW_STDOUT) == [script.name for script in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": PYTHONPATH},
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == RAW_STDOUT[script.name]
