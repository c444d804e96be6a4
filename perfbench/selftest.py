"""Self-test of the benchmark's output checks and per-job cap.

    python3 perfbench/selftest.py

Run from the repository root.  Every check must accept a correct library
result and reject a deliberately corrupted copy of it; a job that outlives
its cap must count as failed.  Exits 1 on the first case that misbehaves.
"""

import copy
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import goodsets as gs  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{fn.__name__} accepted a corrupted result")


def corrupt_table(tables, axis, label, delta=1):
    bad = copy.deepcopy(tables)
    bad[axis][label] += delta
    return bad


def not_good_set():
    space = workloads.int_space((3, 3, 3))
    return gs.PointSet.of(space, list(space.all_points())[:12])


@case
def loop_cancellation():
    S = not_good_set()
    loop = gs.is_good(S).loop
    checks.check_loop(S.points, loop.points, loop.coefficients)
    checks.check_loop_certificate(S.space, S.points, loop)
    bad = list(loop.coefficients)
    bad[0] += 1
    rejects(checks.check_loop, S.points, loop.points, bad)
    rejects(checks.check_loop, S.points[:1], loop.points, loop.coefficients)
    # Cancels coordinatewise but is not normalised: only verify_circuit sees it.
    doubled = gs.CircuitVector(loop.points, tuple(2 * c for c in loop.coefficients))
    rejects(checks.check_loop_certificate, S.space, S.points, doubled)


@case
def decomposition_and_chain():
    inst = workloads.chain_instance(5)
    report = gs.solve_direct(inst.point_set, inst.f, inst.pins)
    tables = [dict(t) for t in report.decomposition.tables]
    checks.check_decomposition(inst.point_set.points, inst.f.values, tables, inst.pins.pins)
    checks.check_chain_values(tables, 5)
    rejects(checks.check_decomposition, inst.point_set.points, inst.f.values, corrupt_table(tables, 2, "z3"))
    rejects(checks.check_decomposition, inst.point_set.points, inst.f.values, tables, [((0, "x0"), Fraction(1))])
    # Shift x up and z down by one: f is still reproduced, the closed form is not.
    shifted = [{k: v + 1 for k, v in tables[0].items()}, tables[1], {k: v - 1 for k, v in tables[2].items()}]
    checks.check_decomposition(inst.point_set.points, inst.f.values, shifted)
    rejects(checks.check_chain_values, shifted, 5)


@case
def partition_geodesic_boundary():
    inst = workloads.chain_instance(3)
    S = inst.point_set.difference([inst.file_points[5]])
    construction = gs.boundary(S)
    comps = [list(c.points) for c in construction.partition.components]
    checks.check_partition(S.points, comps)
    checks.check_boundary(S.points, construction.boundary, comps)
    rejects(checks.check_partition, S.points, comps[1:])
    rejects(checks.check_partition, S.points, [comps[0] + comps[1]] + comps[2:])
    rejects(checks.check_boundary, S.points, construction.boundary[1:], comps)

    full = workloads.chain_instance(3)
    base, y = full.file_points[0], full.file_points[6]
    g = gs.geodesic(full.point_set, base, y)
    checks.check_geodesic(full.point_set.points, base, y, g.points.points, 7)
    rejects(checks.check_geodesic, full.point_set.points, base, y, [p for p in g.points if p != y])
    extra = full.file_points[9]  # adds three new coordinates
    rejects(checks.check_geodesic, full.point_set.points, base, y, list(g.points) + [extra])
    rejects(checks.check_geodesic, full.point_set.points, base, y, g.points.points, 8)


@case
def closures_and_maximal_sets():
    space = workloads.int_space((5, 5, 5))
    seed = [(0, 0, 0)]
    M = gs.extend_to_maximal(gs.PointSet.of(space, seed))
    checks.check_maximal((5, 5, 5), seed, M.points)
    rejects(checks.check_maximal, (5, 5, 5), seed, M.points[1:])
    rejects(checks.check_maximal, (5, 5, 5), [M.points[0]], M.points[1:] + ((4, 4, 4),))

    sub = gs.PointSet.of(space, [(0, 0, 0), (1, 1, 1)])  # good, not full
    closed = gs.full_closure(sub)
    checks.check_full_superset(sub.points, closed.points)
    rejects(checks.check_full_superset, sub.points, sub.points)
    F = gs.full_split(sub)
    checks.check_split(sub.points, F.points)
    rejects(checks.check_split, sub.points, sub.points)


@case
def simplicial_certificate():
    S = not_good_set()
    measure = gs.FiniteMeasure.uniform(S)
    verdict = gs.is_simplicial(measure)
    loop = verdict.loop
    checks.check_perturbation(measure.weights, loop.points, loop.coefficients, verdict.epsilon)
    rejects(checks.check_perturbation, measure.weights, loop.points, loop.coefficients, verdict.epsilon * 2)
    skewed = list(loop.coefficients)
    skewed[0] += 1
    rejects(checks.check_perturbation, measure.weights, loop.points, skewed, verdict.epsilon / 2)
    marginals = gs.marginals(measure)
    checks.check_marginals(measure.weights, marginals)
    bad = copy.deepcopy(marginals.per_axis)
    label = next(iter(bad[0]))
    bad[0][label] += Fraction(1, 7)
    rejects(checks.check_marginals, measure.weights, gs.MarginalVector(tuple(bad)))


@case
def cli_reports():
    work = HERE.parent / ".bench_work" / "selftest"
    env = workloads.cli_env(HERE.parent)
    workloads.emit_examples(work, env)
    expected = json.loads(workloads.EXPECTED_FILE.read_text())
    name, variant = "ex10_depth3", ("solve", "--method", "direct")
    path = work / f"{name}.json"
    instance = json.loads(path.read_text())
    code, stdout, _ = workloads.subprocess_cli((variant[0], str(path), *variant[1:]), env)
    want = expected[workloads.cli_key(name, variant)]
    checks.check_cli(instance, name, variant, code, stdout, want)
    rejects(checks.check_cli, instance, name, variant, 2, stdout, want)
    rejects(checks.check_cli, instance, name, variant, code, "not json", want)
    report = json.loads(stdout)
    report["result"]["decomposition"]["z"]["z2"] = "5"
    rejects(checks.check_cli, instance, name, variant, code, json.dumps(report), want)
    # With a digest that matches the corrupted report, the semantics still catch it.
    forged = {"exit": 0, "sha256": checks.report_digest(report)}
    rejects(checks.check_cli, instance, name, variant, code, json.dumps(report), forged)
    moved = json.loads(stdout)
    moved["instance"]["path"] = "/elsewhere/ex10_depth3.json"
    checks.check_cli(instance, name, variant, code, json.dumps(moved), want)


@case
def per_job_cap():
    run.JOB_CAP_S = 0.2

    def slow():
        time.sleep(2)

    groups = [workloads.Group("slow", 1, [workloads.Job("slow", slow, lambda r: None)])]
    began = time.perf_counter()
    out = run.measure(groups, 0, checks)
    assert out.failed == 1 and out.attempted == 1, "a job past its cap was not failed"
    assert time.perf_counter() - began < 1.5, "the cap did not stop the job"


def main() -> int:
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {fn.__name__}: {exc}")
            return 1
        print(f"ok   {fn.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
