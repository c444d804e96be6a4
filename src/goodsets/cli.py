"""Command-line front end.

Every analysis command reads one instance file, runs the corresponding
library operation, and prints a deterministic JSON report to stdout (or to
``--out``).  The verdict lives in the payload; the exit code only says
whether the computation ran: 0 = computed, 2 = precondition violated
(including a report or example file that cannot be written),
3 = instance could not be parsed, 4 = internal error (a certificate or
invariant check failed, which indicates a bug, not bad input).  Timing goes
to stderr so that reports are byte-identical across runs on identical input.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from pathlib import Path

from . import goodness, instances, measures, solve, structure
from .instances import Instance, InstanceError, dumps_canonical, format_rational
from .linalg import PinRow, verify_circuit
from .measures import FiniteMeasure
from .model import PreconditionError, VerificationError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4


def _loop_payload(instance: Instance, loop) -> dict:
    verify_circuit(instance.space, loop)
    order = sorted(
        range(len(loop.points)), key=lambda i: instance.index_of(loop.points[i])
    )
    return {
        "points": [instance.index_of(loop.points[i]) for i in order],
        "coefficients": [loop.coefficients[i] for i in order],
    }


def _points_payload(points) -> list:
    return [list(p) for p in points]


def _indices_payload(instance: Instance, points) -> list:
    return sorted(instance.index_of(p) for p in points)


def _decomposition_payload(instance: Instance, decomposition) -> dict:
    return {
        ax.name: {
            label: format_rational(v)
            for label, v in sorted(
                decomposition.tables[i].items(),
                key=lambda kv: instance.space.value_index(i, kv[0]),
            )
        }
        for i, ax in enumerate(instance.space.axes)
    }


def _pin_payload(instance: Instance, coord) -> dict:
    return {"axis": instance.space.axes[coord[0]].name, "value": coord[1]}


def _cmd_check_good(instance: Instance, args) -> dict:
    verdict = goodness.is_good(instance.point_set)
    return {
        "good": verdict.good,
        "loop": None if verdict.good else _loop_payload(instance, verdict.loop),
    }


def _cmd_find_loop(instance: Instance, args) -> dict:
    verdict = goodness.is_good(instance.point_set)
    return {"loop": None if verdict.good else _loop_payload(instance, verdict.loop)}


def _cmd_is_full(instance: Instance, args) -> dict:
    S = instance.point_set
    good = bool(goodness.is_good(S))
    # A good set is full exactly when def(S) = n - 1 (`is_full`'s fast path).
    return {"good": good, "full": good and S.deficiency() == S.space.n - 1}


def _cmd_fullify(instance: Instance, args) -> dict:
    closed = goodness.full_closure(instance.point_set)
    added = closed.difference(instance.point_set.points)
    return {"points": _points_payload(closed), "added": _points_payload(added)}


def _cmd_split(instance: Instance, args) -> dict:
    F = goodness.full_split(instance.point_set)
    complement = F.difference(instance.point_set.points)
    return {
        "full_set": _points_payload(F),
        "complement": _points_payload(complement),
    }


def _cmd_maximalize(instance: Instance, args) -> dict:
    extended = goodness.extend_to_maximal(instance.point_set)
    added = extended.difference(instance.point_set.points)
    return {"points": _points_payload(extended), "added": _points_payload(added)}


def _cmd_components(instance: Instance, args) -> dict:
    partition = structure.related_components(instance.point_set)
    return {
        "count": len(partition),
        "components": [
            _indices_payload(instance, comp) for comp in partition.components
        ],
    }


def _cmd_geodesic(instance: Instance, args) -> dict:
    pts = instance.file_points
    for idx in (args.from_index, args.to_index):
        if not 0 <= idx < len(pts):
            raise PreconditionError(f"point index {idx} out of range")
    g = structure.geodesic(instance.point_set, pts[args.from_index], pts[args.to_index])
    if g is None:
        return {"related": False, "length": None, "points": None}
    return {
        "related": True,
        "length": g.length,
        "points": _indices_payload(instance, g.points),
    }


def _cmd_boundary(instance: Instance, args) -> dict:
    construction = structure.boundary(instance.point_set)
    return {
        "boundary": [_pin_payload(instance, c) for c in construction.boundary],
        "components": [
            _indices_payload(instance, comp)
            for comp in construction.partition.components
        ],
        "cross_section": [instance.index_of(p) for p in construction.cross_section],
        "classes": {
            ax.name: [list(cls) for cls in construction.ei.classes_by_axis[i]]
            for i, ax in enumerate(instance.space.axes)
        },
        "generators": [
            {"axis": instance.space.axes[axis].name, "class": list(cls)}
            for axis, cls in construction.generators
        ],
        "pivot_generators": list(construction.pivot_generators),
        "basis_generators": list(construction.basis_generators),
    }


def _cmd_solve(instance: Instance, args) -> dict:
    S = instance.point_set
    f = instance.f
    if f is None:
        raise PreconditionError("solve needs an f table in the instance file")
    pins = instance.pins
    if args.pins is not None:
        try:
            pins = instances._pins(instance.space, instances._decode(args.pins))
        except ValueError as exc:
            raise PreconditionError(f"malformed --pins value: {exc}") from exc

    if args.method == "direct":
        report = solve.solve_direct(S, f, pins)
    elif args.method == "geodesic":
        report = solve.solve_via_geodesics(S, f)
    elif args.method == "componentwise":
        report = solve.solve_componentwise(S, f)
    else:
        if pins is None:
            construction = structure.boundary(S)
            pins = construction.boundary_pins()
        report = solve.solve_with_boundary(S, f, pins)

    payload = {
        "method": report.method,
        "verdict": report.verdict,
        "decomposition": None
        if report.decomposition is None
        else _decomposition_payload(instance, report.decomposition),
        "kernel_dimension": len(report.kernel),
        "witness": None
        if report.witness is None
        else [
            {
                "row": {"pin": _pin_payload(instance, label.coordinate)}
                if isinstance(label, PinRow)
                else instance.index_of(label),
                "coefficient": format_rational(c),
            }
            for label, c in report.witness
        ],
        "diagnostics": {
            "max_geodesic_length": report.max_geodesic_length,
            "max_abs_value": None
            if report.max_abs_value is None
            else format_rational(report.max_abs_value),
        },
    }
    return payload


def _cmd_simplicial(instance: Instance, args) -> dict:
    measure = instance.measure
    if measure is None:
        measure = FiniteMeasure.uniform(instance.point_set)
    verdict = measures.is_simplicial(measure)
    if verdict.simplicial:
        return {"simplicial": True, "certificate": None}
    payload = _loop_payload(instance, verdict.loop)
    payload["epsilon"] = format_rational(verdict.epsilon)
    return {"simplicial": False, "certificate": payload}


def _cmd_stats(instance: Instance, args) -> dict:
    S = instance.point_set
    payload = {
        "n": S.space.n,
        "axis_sizes": [len(ax.values) for ax in S.space.axes],
        "points": len(S),
        "projection_sizes": [len(S.projection(i)) for i in range(S.space.n)],
        "coordinate_count": S.coordinate_count(),
        "deficiency": S.deficiency(),
    }
    verdict = goodness.is_good(S)
    payload["good"] = verdict.good
    if not verdict.good:
        payload["full"] = False
        payload["components"] = None
        return payload
    # A good set is one relatedness class exactly when it is full.
    payload["full"] = S.deficiency() == S.space.n - 1
    payload["components"] = 1 if payload["full"] else len(structure.related_components(S))
    if payload["full"]:
        diag = solve.bound_diagnostics(S)
        payload["max_geodesic_length"] = diag.max_geodesic_length
        payload["mean_geodesic_length"] = format_rational(diag.mean_geodesic_length)
        payload["max_abs_indicator_value"] = format_rational(
            diag.max_abs_indicator_value
        )
    return payload


_HANDLERS = {
    "check-good": _cmd_check_good,
    "find-loop": _cmd_find_loop,
    "is-full": _cmd_is_full,
    "fullify": _cmd_fullify,
    "split": _cmd_split,
    "maximalize": _cmd_maximalize,
    "components": _cmd_components,
    "geodesic": _cmd_geodesic,
    "boundary": _cmd_boundary,
    "solve": _cmd_solve,
    "simplicial": _cmd_simplicial,
    "stats": _cmd_stats,
}

COMMANDS = tuple(_HANDLERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodsets",
        description="Decide, certify, and solve additive decompositions on finite product sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to a JSON instance file")
        p.add_argument("--out", help="write the JSON report to this path")
        if name == "geodesic":
            p.add_argument("--from", dest="from_index", type=int, required=True)
            p.add_argument("--to", dest="to_index", type=int, required=True)
        if name == "solve":
            p.add_argument(
                "--method",
                choices=("direct", "geodesic", "componentwise", "boundary"),
                default="direct",
            )
            p.add_argument(
                "--pins",
                help='inline pins as JSON: [{"axis": ..., "value": ..., "rational": ...}]',
            )
    emit = sub.add_parser("emit-examples")
    emit.add_argument("directory", help="output directory for the canonical instances")
    return parser


def _digest(path) -> dict:
    raw = Path(path).read_bytes()
    return {
        "path": str(path),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def run(args) -> tuple[dict, int]:
    """Dispatch a parsed command; returns (report, exit code)."""
    if args.command == "emit-examples":
        try:
            written = instances.emit_examples(args.directory)
        except OSError as exc:
            raise PreconditionError(f"cannot write {args.directory}: {exc}") from exc
        report = {
            "command": "emit-examples",
            "result": {"files": [p.name for p in written], "directory": args.directory},
        }
        return report, EXIT_OK

    instance = instances.load_instance(args.instance)
    digest = _digest(args.instance)
    digest["points"] = len(instance.file_points)
    digest["axes"] = [len(ax.values) for ax in instance.space.axes]
    echo = {"command": args.command}
    if args.command == "geodesic":
        echo["from"] = args.from_index
        echo["to"] = args.to_index
    if args.command == "solve":
        echo["method"] = args.method
    result = _HANDLERS[args.command](instance, args)
    return {**echo, "instance": digest, "result": result}, EXIT_OK


@contextlib.contextmanager
def _unlimited_int_digits():
    """Read and print exact rationals of any length.

    Python 3.10.7+ caps int/str conversions at 4300 digits by default; an
    instance file may hold longer rationals, and a report longer values.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        with _unlimited_int_digits():
            report, code = run(args)
    except InstanceError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    text = dumps_canonical(report)
    out = getattr(args, "out", None)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"precondition violated: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
    else:
        sys.stdout.write(text)
    elapsed_ms = (time.monotonic() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
