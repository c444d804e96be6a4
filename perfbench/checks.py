"""Output checks that recompute every claim from its definition.

Each check raises CheckFailed on a wrong result.  The checks use plain
arithmetic on points, coordinates and Fractions: loop cancellation is summed
coordinate by coordinate, decompositions are evaluated by table lookups,
fullness is coordinate counting and goodness is this module's own exact
integer rank.  The only library call is `goodsets.verify_circuit`, made in
addition to, never instead of, the recomputed cancellation.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

import goodsets as gs


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent arithmetic.


class IntegerBasis:
    """Fraction-free row echelon basis over the integers (exact rank)."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, list[int]] = {}

    def add(self, vec) -> bool:
        """Absorb the vector if it is independent; return whether it was."""
        v = list(vec)
        for j in range(self.ncols):
            if v[j] == 0:
                continue
            row = self.rows.get(j)
            if row is None:
                g = 0
                for x in v:
                    g = gcd(g, x)
                self.rows[j] = [x // g for x in v]
                return True
            a, b = row[j], v[j]
            v = [x * a - y * b for x, y in zip(v, row)]
        return False


def incidence_rows(points):
    """0/1 rows over the coordinates the points realise."""
    points = list(points)
    columns = sorted({(i, label) for p in points for i, label in enumerate(p)}, key=repr)
    index = {c: j for j, c in enumerate(columns)}
    rows = []
    for p in points:
        row = [0] * len(columns)
        for coord in enumerate(p):
            row[index[coord]] = 1
        rows.append(row)
    return rows, len(columns)


def is_independent(points) -> bool:
    """Good set <=> incidence rows independent; decided by exact integer rank."""
    rows, ncols = incidence_rows(points)
    basis = IntegerBasis(ncols)
    return all(basis.add(row) for row in rows)


def deficiency(points) -> int:
    """Coordinate count minus point count; n - 1 exactly on full good sets."""
    points = list(points)
    n = len(points[0])
    return sum(len({p[i] for p in points}) for i in range(n)) - len(points)


def projections(points) -> tuple:
    points = list(points)
    return tuple(frozenset(p[i] for p in points) for i in range(len(points[0])))


def require_full(points, what: str):
    points = list(points)
    require(points, f"{what} is empty")
    require(deficiency(points) == len(points[0]) - 1, f"{what} is not full by coordinate counting")


# ---------------------------------------------------------------------------
# Loops, decompositions, partitions, geodesics, boundaries.


def check_loop(members, loop_points, coefficients):
    """Nonzero integer coefficients on distinct members that cancel coordinatewise."""
    loop_points = [tuple(p) for p in loop_points]
    aligned = loop_points and len(loop_points) == len(coefficients)
    require(aligned, "loop points and coefficients do not align")
    require(len(set(loop_points)) == len(loop_points), "loop repeats a point")
    member_set = set(members)
    require(all(p in member_set for p in loop_points), "loop uses a point outside the set")
    nonzero = all(isinstance(c, int) and c != 0 for c in coefficients)
    require(nonzero, "loop has a zero or non-integer coefficient")
    sums: dict = {}
    for p, c in zip(loop_points, coefficients):
        for coord in enumerate(p):
            sums[coord] = sums.get(coord, 0) + c
    require(not any(sums.values()), "loop does not cancel coordinatewise")


def check_loop_certificate(space, members, loop):
    check_loop(members, loop.points, loop.coefficients)
    try:
        gs.verify_circuit(space, loop)
    except gs.VerificationError as exc:
        raise CheckFailed(f"verify_circuit rejected the loop: {exc}") from None


def check_decomposition(points, f, tables, pins=()):
    """tables[i][label] reproduces f on every point and honours every pin."""
    for p in points:
        try:
            total = sum((Fraction(tables[i][label]) for i, label in enumerate(p)), Fraction(0))
        except KeyError:
            raise CheckFailed(f"decomposition has no value for a coordinate of {p!r}") from None
        require(total == f[p], f"decomposition gives {total} at {p!r}, want {f[p]}")
    for (axis, label), value in pins:
        require(tables[axis].get(label) == value, f"pin {(axis, label)!r} not honoured")


def check_chain_values(tables, depth: int):
    """Doubling chain with f = 1 at the base: x_n = y_n = -2^(n-1), z_n = 2^n."""
    require(tables[0].get("x0") == 0 and tables[1].get("y0") == 0, "chain pins not zero")
    require(tables[2].get("z0") == 1, "chain value at z0 is not 1")
    for n in range(1, depth + 1):
        require(tables[0].get(f"x{n}") == -(2 ** (n - 1)), f"chain value at x{n} is wrong")
        require(tables[1].get(f"y{n}") == -(2 ** (n - 1)), f"chain value at y{n} is wrong")
        require(tables[2].get(f"z{n}") == 2 ** n, f"chain value at z{n} is wrong")


def check_partition(points, components):
    """Components cover the points exactly once and each is full."""
    components = [[tuple(p) for p in comp] for comp in components]
    flat = [p for comp in components for p in comp]
    require(len(flat) == len(set(flat)), "components overlap")
    require(set(flat) == {tuple(p) for p in points}, "components do not cover the set")
    for comp in components:
        require_full(comp, "a component")


def check_geodesic(points, x, y, geodesic_points, length=None):
    g = [tuple(p) for p in geodesic_points]
    require(x in g and y in g, "geodesic misses an endpoint")
    require(set(g) <= {tuple(p) for p in points}, "geodesic leaves the set")
    require_full(g, "geodesic")
    if length is not None:
        require(len(g) == length, f"geodesic has {len(g)} points, want {length}")


def chain_geodesic_length(step: int, diagonal: bool) -> int:
    """Base to the step-m points of the doubling chain: 3m - 1 or 3m + 1."""
    if step == 0:
        return 1
    return 3 * step + 1 if diagonal else 3 * step - 1


def check_boundary(points, boundary_coords, components):
    check_partition(points, components)
    coords = [(int(a), label) for a, label in boundary_coords]
    require(len(set(coords)) == len(coords), "boundary repeats a coordinate")
    require(len(coords) == deficiency(points), "boundary size differs from the deficiency")
    realised = {(i, label) for p in points for i, label in enumerate(p)}
    require(set(coords) <= realised, "boundary coordinate outside the projections")


def check_full_superset(base, result):
    """A full good superset of `base` over the same projections."""
    base = [tuple(p) for p in base]
    result = [tuple(p) for p in result]
    require(set(base) <= set(result), "result drops a point of the input")
    require(projections(result) == projections(base), "result changes the projections")
    require(is_independent(result), "result is not good")
    require_full(result, "result")


def check_split(base, full_set):
    check_full_superset(base, full_set)
    rest = set(map(tuple, full_set)) - set(map(tuple, base))
    require_full(rest, "split complement")


def check_maximal(sizes, seed_points, result):
    result = [tuple(p) for p in result]
    require(set(map(tuple, seed_points)) <= set(result), "maximal set drops a seed point")
    require(len(result) == sum(sizes) - (len(sizes) - 1), "maximal set has the wrong size")
    require(is_independent(result), "maximal set is not good")


def marginal_table(weights) -> tuple:
    per_axis: dict = {}
    for p, w in weights.items():
        for coord in enumerate(p):
            per_axis[coord] = per_axis.get(coord, Fraction(0)) + w
    return {c: v for c, v in per_axis.items() if v != 0}


def check_perturbation(weights, loop_points, coefficients, epsilon):
    """mu +- eps * nu are probability measures with the marginals of mu."""
    require(epsilon > 0, "perturbation step is not positive")
    target = marginal_table(weights)
    for sign in (1, -1):
        moved = dict(weights)
        for p, c in zip(loop_points, coefficients):
            moved[tuple(p)] = moved.get(tuple(p), Fraction(0)) + sign * epsilon * c
        require(all(v >= 0 for v in moved.values()), "perturbed measure goes negative")
        require(sum(moved.values()) == 1, "perturbed measure loses mass")
        require(marginal_table(moved) == target, "perturbation changes a marginal")


def check_marginals(weights, marginal_vector):
    """The library's marginals equal the recomputed ones, axis by axis."""
    recomputed = marginal_table(weights)
    reported = {
        (i, label): v
        for i, table in enumerate(marginal_vector.per_axis)
        for label, v in table.items()
        if v != 0
    }
    require(reported == recomputed, "marginals differ from the recomputed ones")


# ---------------------------------------------------------------------------
# CLI reports.


def report_digest(report: dict) -> str:
    """sha256 of the report with instance.path removed (it names a temp dir)."""
    report = dict(report)
    if isinstance(report.get("instance"), dict):
        report["instance"] = {k: v for k, v in report["instance"].items() if k != "path"}
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_cli(instance: dict, name: str, variant: tuple, code: int, stdout: str, expected: dict):
    """Exit code, JSON stdout, digest against the recorded report, and semantics."""
    require(code == expected["exit"], f"exit code {code}, want {expected['exit']}")
    if code != 0:
        return
    try:
        report = json.loads(stdout)
    except ValueError:
        raise CheckFailed("stdout is not JSON") from None
    require(report_digest(report) == expected["sha256"], "report differs from the recorded one")

    points = [tuple(p) for p in instance["points"]]
    axes = [ax["name"] for ax in instance["axes"]]
    result = report["result"]

    def at(indices):
        return [points[i] for i in indices]

    def loop_of(payload):
        check_loop(points, at(payload["points"]), payload["coefficients"])

    command = variant[0]
    if command in ("check-good", "find-loop") and result["loop"] is not None:
        loop_of(result["loop"])
    elif command == "simplicial" and result["certificate"] is not None:
        loop_of(result["certificate"])
    elif command == "components":
        check_partition(points, [at(c) for c in result["components"]])
    elif command == "geodesic" and result["related"]:
        check_geodesic(points, points[0], points[1], at(result["points"]))
    elif command == "boundary":
        coords = [(axes.index(b["axis"]), b["value"]) for b in result["boundary"]]
        check_boundary(points, coords, [at(c) for c in result["components"]])
    elif command == "solve" and result["decomposition"] is not None:
        f = {p: Fraction(0) for p in points}
        for key, raw in instance.get("f", {}).items():
            f[points[int(key)]] = Fraction(raw)
        tables = [
            {label: Fraction(v) for label, v in result["decomposition"][ax].items()}
            for ax in axes
        ]
        pins = ()
        if variant[-1] == "direct":
            pins = [
                ((axes.index(p["axis"]), p["value"]), Fraction(p["rational"]))
                for p in instance.get("pins", ())
            ]
        check_decomposition(points, f, tables, pins)
        if variant[-1] == "direct" and name.startswith("ex10_depth"):
            check_chain_values(tables, int(name[len("ex10_depth"):]))
