"""Command-line front end.

Every analysis command reads one instance file, runs the corresponding
library operation, and prints a deterministic JSON report to stdout (or to
``--out``).  The verdict lives in the payload; the exit code only says
whether the computation ran: 0 = computed, 2 = precondition violated
(including a report or example file that cannot be written),
3 = instance could not be parsed, 4 = internal error (a certificate or
invariant check failed, which indicates a bug, not bad input).  `main` is the
one error boundary: `_ERRORS` maps each of the three error classes to its
stderr prefix and exit code.  Timing goes to stderr so that reports are
byte-identical across runs on identical input.
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

_ERRORS = (
    (InstanceError, "instance error", EXIT_PARSE),
    (PreconditionError, "precondition violated", EXIT_PRECONDITION),
    (VerificationError, "internal error", EXIT_INTERNAL),
)


def _loop_payload(instance: Instance, loop) -> dict:
    verify_circuit(instance.space, loop)
    # A verified circuit repeats no point, so the file indices alone set the order.
    pairs = sorted(zip(map(instance.index_of, loop.points), loop.coefficients))
    return {"points": [i for i, _ in pairs], "coefficients": [c for _, c in pairs]}


def _points_payload(points) -> list:
    return [list(p) for p in points]


def _indices_payload(instance: Instance, points) -> list:
    return sorted(instance.index_of(p) for p in points)


def _decomposition_payload(instance: Instance, decomposition) -> dict:
    # Every reported split is built by `linalg._decomposition`, which fills each table in
    # the system's column order: each axis's labels in declaration order, as printed.
    return {
        ax.name: {label: format_rational(v) for label, v in table.items()}
        for ax, table in zip(instance.space.axes, decomposition.tables)
    }


def _cmd_loop(instance: Instance, args) -> dict:
    """check-good and find-loop; find-loop reports the loop alone."""
    verdict = goodness.is_good(instance.point_set)
    loop = None if verdict.good else _loop_payload(instance, verdict.loop)
    return {"loop": loop} if args.command == "find-loop" else {"good": verdict.good, "loop": loop}


def _cmd_is_full(instance: Instance, args) -> dict:
    S = instance.point_set
    good = bool(goodness.is_good(S))
    # A good set is full exactly when def(S) = n - 1 (`is_full`'s fast path).
    return {"good": good, "full": good and S.deficiency() == S.space.n - 1}


# command: (goodness function that grows S to F, key of F, key of F \ S).  The
# function is looked up by name at call time, so a wrapped one is what runs.
_GROW = {
    "fullify": ("full_closure", "points", "added"),
    "split": ("full_split", "full_set", "complement"),
    "maximalize": ("extend_to_maximal", "points", "added"),
}


def _cmd_grow(instance: Instance, args) -> dict:
    grow, whole, added = _GROW[args.command]
    F = getattr(goodness, grow)(instance.point_set)
    return {
        whole: _points_payload(F),
        added: _points_payload(F.difference(instance.point_set.points)),
    }


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
        "boundary": [instances._coordinate_form(instance.space, c) for c in construction.boundary],
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


# The routes that take no pins, by name as in `_GROW`: each pins its bases' first
# n - 1 coordinates at zero.
_UNPINNED = {"geodesic": "solve_via_geodesics", "componentwise": "solve_componentwise"}


def _cmd_solve(instance: Instance, args) -> dict:
    S, f, pins = instance.point_set, instance.f, instance.pins
    if f is None:
        raise PreconditionError("solve needs an f table in the instance file")
    unpinned = _UNPINNED.get(args.method)
    if args.pins is not None:
        if unpinned is not None:
            raise PreconditionError(
                f"--pins applies to --method direct and boundary, not {args.method}"
            )
        try:
            pins = instances._pins(instance.space, instances._decode(args.pins))
        except ValueError as exc:
            raise PreconditionError(f"malformed --pins value: {exc}") from exc

    if unpinned is not None:
        report = getattr(solve, unpinned)(S, f)
    elif args.method == "direct":
        report = solve.solve_direct(S, f, pins)
    else:
        if pins is None:
            pins = structure.boundary(S).boundary_pins()
        report = solve.solve_with_boundary(S, f, pins)

    return {
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
                "row": {"pin": instances._coordinate_form(instance.space, label.coordinate)}
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
        **_cmd_is_full(instance, args),
    }
    # A good set is one relatedness class exactly when it is full.
    payload["components"] = (
        None
        if not payload["good"]
        else 1 if payload["full"] else len(structure.related_components(S))
    )
    if payload["full"]:
        diag = solve.bound_diagnostics(S)
        payload["max_geodesic_length"] = diag.max_geodesic_length
        payload["mean_geodesic_length"] = format_rational(diag.mean_geodesic_length)
        payload["max_abs_indicator_value"] = format_rational(
            diag.max_abs_indicator_value
        )
    return payload


_HANDLERS = {
    "check-good": _cmd_loop,
    "find-loop": _cmd_loop,
    "is-full": _cmd_is_full,
    "fullify": _cmd_grow,
    "split": _cmd_grow,
    "maximalize": _cmd_grow,
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


def run(args) -> dict:
    """Dispatch a parsed command; returns its report."""
    if args.command == "emit-examples":
        try:
            written = instances.emit_examples(args.directory)
        except OSError as exc:
            raise PreconditionError(f"cannot write {args.directory}: {exc}") from exc
        return {
            "command": "emit-examples",
            "result": {"files": [p.name for p in written], "directory": args.directory},
        }

    raw, instance = instances._read_instance(args.instance)
    digest = {
        "path": str(args.instance),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "points": len(instance.file_points),
        "axes": [len(ax.values) for ax in instance.space.axes],
    }
    echo = {"command": args.command}
    if args.command == "geodesic":
        echo["from"] = args.from_index
        echo["to"] = args.to_index
    if args.command == "solve":
        echo["method"] = args.method
    result = _HANDLERS[args.command](instance, args)
    return {**echo, "instance": digest, "result": result}


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
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with _unlimited_int_digits():
            text = dumps_canonical(run(args))
        out = getattr(args, "out", None)
        if out:
            try:
                Path(out).write_text(text, encoding="utf-8")
            except OSError as exc:
                raise PreconditionError(f"cannot write {out}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        prefix, code = next((p, c) for cls, p, c in _ERRORS if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    elapsed_ms = (time.monotonic() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
