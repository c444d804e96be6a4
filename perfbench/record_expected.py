"""Record the expected exit code and report digest of every cli-corpus job.

    python3 perfbench/record_expected.py

Run from the repository root.  Writes perfbench/cli_expected.json; the
benchmark fails any CLI job whose report (minus instance.path) differs.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    env = workloads.cli_env(ROOT)
    examples = ROOT / ".bench_work" / "examples-record"
    shutil.rmtree(examples, ignore_errors=True)
    workloads.emit_examples(examples, env)
    expected = {}
    for name, variant in workloads.cli_job_list(examples):
        argv = (variant[0], str(examples / f"{name}.json"), *variant[1:])
        code, stdout, _ = workloads.subprocess_cli(argv, env)
        entry = {"exit": code}
        if code == 0:
            entry["sha256"] = checks.report_digest(json.loads(stdout))
        expected[workloads.cli_key(name, variant)] = entry
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    codes = [e["exit"] for e in expected.values()]
    print(f"{len(codes)} jobs: {codes.count(0)} exit 0, {codes.count(2)} exit 2")


if __name__ == "__main__":
    main()
