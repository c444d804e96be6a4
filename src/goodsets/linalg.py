"""Exact linear algebra over the point/coordinate incidence system.

The decomposition equation u_1(x_1) + ... + u_n(x_n) = f(x) is linear with
0/1 coefficients: one row per point of S, one column per coordinate value in
the union of the projections.  Rank decisions drive every correctness claim
in this package, so there is exactly one elimination, the integer
:class:`RowBasis`; rank, kernel, solve, span membership and circuit
coefficients are views on it.  A point's row has n nonzeros among |C(S)|
columns, so rows are sparse: dicts {column: int} of their nonzero entries,
and a reduction touches only the entries that are there.  The right-hand
side, the unit tags of a witness or a circuit and the unit columns of an
inverse are extra keys of the same dicts.  A rational right-hand side is
scaled to integers by the lcm of its denominators, and `Fraction` appears
only at the final division by a pivot entry.  Pins (prescribed coordinate
values) enter as extra unit rows, not by column elimination, which keeps
the unique / underdetermined / inconsistent reporting uniform.  Every pin,
target and vector key finds its column through `_column`, the one column
lookup, which refuses a coordinate that is not a column of the system; a
key handed in by a caller is first read by `model._coordinate`.

Questions whose answer does not depend on the order of rows or the choice
of free columns, the rank (`rank`) and the boundary test (`_is_boundary`),
are decided by the peel first (`_peel`): with no arithmetic it removes,
again and again, a row together with a column that only it holds, or a row
with one live column together with that column, each step adding 1 to the
rank.  Only the 2-core left, if any, goes to the one elimination.  The
doubling chain peels to nothing, and so does every unit pin row.  A solve
peels first too, for the unique verdict (`_peeled_solution`): a unique
solution does not depend on that choice either, so it is read along the
peel by integer substitution, forward for a step whose other columns are
known and backward for one with a private column, with only the core
eliminated.  Answers that do depend on the choice (an underdetermined
solve's split and kernel, an inconsistent one's witness, span tests,
signatures) eliminate the rows as they are, and so does the dependence scan
below, which stops at the tail it needs.

One dependence scan decides goodness and yields loops (`extract_circuit`):
one reverse pass over the canonical support finds the first point e_k that
turns the rows dependent, if any; from e_k on, the support holds exactly
one circuit.  The scan builds a point's row only when it reaches the point,
so it builds no `IncidenceSystem`, and a set that is not good costs the
tail from e_k on, not the whole support.  Only then are the tail's rows
eliminated once more, each tagged by a unit column of its own, the way a
witness is read: the one basis row whose coordinate part is zero carries
the circuit's primitive integer coefficients in its tags, e_k's first and
positive.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from .model import (
    Coordinate,
    Decomposition,
    FunctionTable,
    PinSet,
    Point,
    PointSet,
    PreconditionError,
    Space,
    VerificationError,
    _coordinate,
    _Frozen,
    as_fraction,
)

__all__ = [
    "CircuitVector",
    "IncidenceSystem",
    "LinearSolve",
    "RowBasis",
    "column_kernel",
    "extract_circuit",
    "in_span",
    "rank",
    "solve_pinned",
    "verify_circuit",
]

UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


def _primitive(v: dict[int, int]) -> dict[int, int]:
    g = gcd(*v.values())
    return {j: x // g for j, x in v.items()} if g > 1 else v


def _combine(v: dict[int, int], a: int, row: dict[int, int], b: int) -> dict[int, int]:
    """The primitive part of a*v - b*row, zeros dropped.

    v is consumed: it is updated in place when a is 1, so the caller must
    own it.  row is only read.
    """
    if a != 1:
        v = {j: x * a for j, x in v.items()}
    get = v.get
    for j, y in row.items():
        z = get(j, 0) - y * b
        if z:
            v[j] = z
        else:
            del v[j]
    return _primitive(v)


def _transpose(rows: Sequence[Mapping[int, int]], ncols: int) -> list[dict[int, int]]:
    """Column j of the rows as a sparse row keyed by row index, for j < ncols."""
    columns: list[dict[int, int]] = [{} for _ in range(ncols)]
    for k, row in enumerate(rows):
        for j, x in row.items():
            columns[j][k] = x
    return columns


class RowBasis:
    """Incremental integer row-echelon basis with exact arithmetic, on sparse rows.

    A row is a dict {column: int} of its nonzero entries.  The pivot of a
    row is its least column; a reduced row is kept primitive (gcd 1) and a
    new basis row gets a positive leading entry, one row per pivot column.
    `add_sparse` and `contains_sparse` take such dicts.  A row handed in is
    copied before it is reduced and never modified; the basis owns its
    rows, and `back_substitute` rewrites them in place without changing
    their span.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _reduce(self, vec: Mapping[int, int]) -> tuple[dict[int, int], int]:
        """(residual, lead): the residual's least column, ncols if it is zero."""
        v = dict(vec)
        pivot_rows = self.pivot_rows
        while v:
            j = min(v)
            row = pivot_rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = {k: -x for k, x in v.items()}
                return v, j
            # v and the pivot row are both zero before column j.
            v = _combine(v, row[j], row, v[j])
        return v, self.ncols

    def contains_sparse(self, row: Mapping[int, int]) -> bool:
        return self._reduce(row)[1] == self.ncols

    def add_sparse(self, row: Mapping[int, int]) -> int | None:
        """Insert if independent; returns the new pivot column, else None."""
        r, lead = self._reduce(row)
        if lead == self.ncols:
            return None
        self.pivot_rows[lead] = r
        return lead

    def back_substitute(self):
        """Clear every pivot column above its pivot.

        The rows keep their span, primitivity and positive leading entries;
        afterwards pivot column p is nonzero only in row p, so each solution
        or kernel entry is a single division by that row's pivot entry.
        """
        rows = self.pivot_rows
        pivots = sorted(rows)
        # Row p, once cleared, is nonzero at no other pivot column, so
        # clearing p from a row q never adds a pivot column to q: the rows
        # that hold column p can be listed before any row changes.
        holders: dict[int, list[int]] = {p: [] for p in pivots}
        for q in pivots:
            for j in rows[q]:
                if j != q and j in holders:
                    holders[j].append(q)
        for p in reversed(pivots):
            prow = rows[p]
            a = prow[p]
            for q in holders[p]:
                rows[q] = _combine(rows[q], a, prow, rows[q][p])


def _echelon(rows: Iterable[Mapping[int, int]], ncols: int) -> RowBasis:
    basis = RowBasis(ncols)
    for row in rows:
        basis.add_sparse(row)
    return basis


def _peel(rows: Sequence[Mapping[int, int]], ncols: int) -> tuple[list, dict[int, dict[int, int]]]:
    """(steps, core): the 2-core peel of the rows, with no arithmetic.

    A step (k, j) removes row k together with column j, where k holds j and
    either no other live row holds j (j is private to k) or j is the one
    live column of k.  Either way the rank is 1 plus that of the other rows
    with column j deleted: row k can clear column j from them, and it is
    nonzero there.  So each step adds exactly 1 to the rank.  Steps repeat
    until neither rule applies.  `core` maps each row left, in increasing
    index, to its entries at the live columns; a row left with no live
    column is zero and is dropped.  So the rows' rank is len(steps) plus
    the core's rank.  A row with a private column is in no relation among
    the rows; on incidence rows, n >= 2 entries each, the second rule never
    fires, so the core holds every loop.  Stored entries must be nonzero;
    the value of an entry is never read.  O(nonzeros).
    """
    holders: list[list[int]] = [[] for _ in range(ncols)]
    for k, row in enumerate(rows):
        for j in row:
            holders[j].append(k)
    count = list(map(len, holders))
    degree = list(map(len, rows))
    row_live = [d > 0 for d in degree]
    col_live = [True] * ncols
    private = [j for j in range(ncols) if count[j] == 1]
    single = [k for k in range(len(rows)) if degree[k] == 1]
    steps = []
    while private or single:
        if private:
            j = private.pop()
            if not col_live[j] or count[j] != 1:
                continue
            k = next(k for k in holders[j] if row_live[k])
        else:
            k = single.pop()
            if not row_live[k] or degree[k] != 1:
                continue
            j = next(j for j in rows[k] if col_live[j])
        steps.append((k, j))
        row_live[k] = col_live[j] = False
        for i in rows[k]:
            if col_live[i]:
                count[i] -= 1
                if count[i] == 1:
                    private.append(i)
        for h in holders[j]:
            if row_live[h]:
                degree[h] -= 1
                if degree[h] == 1:
                    single.append(h)
                elif degree[h] == 0:
                    row_live[h] = False
    core = {
        k: {j: x for j, x in row.items() if col_live[j]}
        for k, row in enumerate(rows)
        if row_live[k]
    }
    return steps, core


def _peeled_rank(rows: Sequence[Mapping[int, int]], ncols: int) -> tuple[int, list]:
    """(rank, steps): the peel's step count plus the core's rank, and the peel's steps.

    The core is eliminated only when it is not empty.
    """
    steps, core = _peel(rows, ncols)
    return len(steps) + (_echelon(core.values(), ncols).rank if core else 0), steps


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals as integer numerators over D, the lcm of their denominators.

    Numerator k is values[k] * D, with the sign of values[k]; the values sum
    to one exactly when the numerators sum to D.  The one common-denominator
    helper, behind the augmented rhs, the peeled solve, `in_span`,
    `measures` and `solve`'s largest |value|.
    """
    ratios = [v.as_integer_ratio() for v in values]
    D = lcm(*(d for _, d in ratios))
    return [a * (D // d) for a, d in ratios], D


def _augment(rows, rhs: Sequence[Fraction], ncols: int) -> tuple[list[dict[int, int]], int]:
    """Rows extended by the rhs at column ncols, scaled by the lcm of its denominators."""
    numerators, scale = _over_common_denominator(rhs)
    return [{**r, ncols: a} if a else r for r, a in zip(rows, numerators)], scale


def _peeled_solution(rows: Sequence[Mapping[int, int]], rhs: Sequence[Fraction], ncols: int):
    """(verdict, x): the unique x with rows . x = rhs, read along the peel.

    Precondition: the entry of every peel step is 1, as on incidence and pin
    rows, so a step divides by 1; it is checked, and a step that breaks it
    is a `VerificationError`.  The solution is unique only if the steps and
    the columns the core holds number ncols, which is counted before any
    arithmetic.  Then the rhs is put over D, the lcm of its denominators,
    and every value is an integer numerator until the end.  A step (k, j)
    whose other columns went in earlier steps reads u_j = b_k minus the
    others *forward*, in step order; such columns are all forward ones, as
    a column that a live row still holds is never private.  The core,
    whose removed columns are all forward, is eliminated once by `RowBasis`
    on its rhs reduced by those values, and back-substituted; every value
    is then brought over D m, m the lcm of the core's pivot entries.  The
    other steps, each with a private column, read theirs *backward*, in
    reverse step order, once every later column has its value.  A row the
    peel dropped as zero holds forward columns only and must sum to its
    rhs.  `Fraction`s are built once, at the end, and the verdict is UNIQUE.
    Every forward value is forced by its row, so a dropped row that fails,
    or a core whose rhs column is a pivot, makes the system inconsistent:
    the verdict is INCONSISTENT and x is None.  A core short of full rank,
    or a count short of ncols, gives (None, None): not unique, and not
    decided further.
    """
    steps, core = _peel(rows, ncols)
    held = {j for row in core.values() for j in row}
    if len(steps) + len(held) != ncols:
        return None, None
    b, scale = _over_common_denominator(rhs)
    value: list = [None] * ncols
    backward = []
    for k, j in steps:
        row = rows[k]
        if row[j] != 1:
            raise VerificationError("a peel step's entry is not 1")
        s = b[k]
        for i, x in row.items():
            if i != j:
                v = value[i]
                if v is None:
                    backward.append((k, j))
                    break
                s -= x * v
        else:
            value[j] = s
    dropped = set(range(len(rows))).difference(core, (k for k, _ in steps))
    for k in dropped:
        if sum(x * value[i] for i, x in rows[k].items()) != b[k]:
            return INCONSISTENT, None
    m = 1
    if core:
        reduced = []
        for k, row in core.items():
            s = b[k] - sum(x * value[i] for i, x in rows[k].items() if i not in row)
            reduced.append({**row, ncols: s} if s else row)
        basis = _echelon(reduced, ncols + 1)
        if ncols in basis.pivot_rows:
            return INCONSISTENT, None
        if basis.rank != len(held):
            return None, None
        basis.back_substitute()
        m = lcm(*(row[p] for p, row in basis.pivot_rows.items()))
        if m != 1:
            value = [v if v is None else v * m for v in value]
        for p, row in basis.pivot_rows.items():
            value[p] = row.get(ncols, 0) * (m // row[p])
    for k, j in reversed(backward):
        value[j] = m * b[k] - sum(x * value[i] for i, x in rows[k].items() if i != j)
    denominator = scale * m
    return UNIQUE, [Fraction(v, denominator) for v in value]


def _canonical_solution(rows, rhs: Sequence[Fraction], ncols: int):
    """(x, basis): x solves rows . x = rhs with free columns at 0, or is None.

    The basis is the back-substituted echelon form of the augmented rows when
    the system is consistent, so its first ncols columns carry the kernel.
    `solve_pinned` runs it only when `_peeled_solution` finds no unique
    solution: which columns are free decides the solution, the kernel and
    the witness, so those eliminate the rows as they are.  An inconsistent
    verdict of the peel skips it.
    """
    augmented, scale = _augment(rows, rhs, ncols)
    basis = _echelon(augmented, ncols + 1)
    if ncols in basis.pivot_rows:
        return None, basis
    basis.back_substitute()
    x = [Fraction(0)] * ncols
    for p, row in basis.pivot_rows.items():
        x[p] = Fraction(row.get(ncols, 0), row[p] * scale)
    return x, basis


def _incidence_row(point: Point, col_index: Mapping) -> dict[int, int]:
    """Sparse 0/1 row of a point over the indexed columns; other coordinates are dropped."""
    row = {}
    for coord in enumerate(point):
        j = col_index.get(coord)
        if j is not None:
            row[j] = 1
    return row


class PinRow(_Frozen):
    """Label of a stacked pin equation inside a witness combination."""

    coordinate: Coordinate

    def __init__(self, coordinate):
        object.__setattr__(self, "coordinate", coordinate)


class IncidenceSystem(_Frozen):
    """Rows: incidence vectors of the points of S.  Columns: coordinates of S.

    `sparse_rows`, one dict {column: 1} per point, are what the elimination
    reads.
    """

    point_set: PointSet
    columns: tuple[Coordinate, ...]
    col_index: dict
    sparse_rows: tuple[dict[int, int], ...]

    def __init__(self, point_set: PointSet):
        point_set.require_nonempty("incidence system")
        columns = point_set.coordinates()
        col_index = {c: j for j, c in enumerate(columns)}
        sparse_rows = tuple(_incidence_row(p, col_index) for p in point_set)
        object.__setattr__(self, "point_set", point_set)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "col_index", col_index)
        object.__setattr__(self, "sparse_rows", sparse_rows)

    @property
    def space(self) -> Space:
        return self.point_set.space

    @property
    def points(self) -> tuple[Point, ...]:
        return self.point_set.points


def _column(system: IncidenceSystem, coord) -> int:
    """The one column lookup: the coordinate's column in the system."""
    try:
        return system.col_index[coord]
    except KeyError:
        raise PreconditionError(f"coordinate {coord!r} is not a column of the system") from None


def _stack_pins(system: IncidenceSystem, coords) -> list[dict[int, int]]:
    """The incidence rows followed by one unit row per pinned coordinate."""
    rows = list(system.sparse_rows)
    rows.extend({_column(system, c): 1} for c in coords)
    return rows


def _is_boundary(system: IncidenceSystem, coords: Sequence[Coordinate]) -> bool:
    """Do the coordinates form a boundary: does pinning them make every split unique?

    They do exactly when, stacked as pin rows under the incidence rows, they
    give a square system of full rank: |S| + |coords| = |C(S)|, every
    coordinate is a column, and the `_stack_pins` rows have rank |C(S)|.
    The rows are ranked (`_peeled_rank`) only once the count and the columns
    pass; the peel collapses each unit pin row with its column.
    """
    size = len(system.columns)
    if len(system.points) + len(coords) != size or any(c not in system.col_index for c in coords):
        return False
    return _peeled_rank(_stack_pins(system, coords), size)[0] == size


def _pinned_inverse(system: IncidenceSystem, coords) -> dict[Coordinate, dict[int, Fraction]]:
    """The rows of A^-1, A the incidence rows over the pins, one per column.

    Each row is a sparse dict {k: Fraction} of its nonzero entries in
    increasing k: entry k of the row at column c is the weight of
    right-hand side entry k, the point k, in u_c.  The pins' entries are
    left out, as every caller pins at zero, so the keys are the points the
    row weights.  That row w solves A^T w = e_c, so one elimination of
    [A^T | I] followed by back-substitution leaves D W in the I block, D
    diagonal and W's columns the rows.  The rows of A^T enter in reverse
    column order: the result does not depend on the order, and this one
    measured 1.2-7 times faster than column order on chains, maximal sets
    and random full sets.
    """
    rows = _stack_pins(system, coords)
    size = len(system.columns)
    if len(rows) != size:
        raise VerificationError(f"pinned system is {len(rows)} x {size}; expected square")
    transpose = [{**column, size + j: 1} for j, column in enumerate(_transpose(rows, size))]
    basis = _echelon(reversed(transpose), 2 * size)
    if any(k not in basis.pivot_rows for k in range(size)):
        raise VerificationError("pinned system is singular")
    basis.back_substitute()
    inverse: dict[Coordinate, dict[int, Fraction]] = {c: {} for c in system.columns}
    for k in range(len(system.points)):
        # Past back-substitution, row k is nonzero at its pivot k and in
        # the identity block alone.
        row = basis.pivot_rows[k]
        for j, x in row.items():
            if j >= size:
                inverse[system.columns[j - size]][k] = Fraction(x, row[k])
    return inverse


def rank(system: IncidenceSystem) -> int:
    """Exact rank of the incidence rows over the rationals: the peel, then its core."""
    return _peeled_rank(system.sparse_rows, len(system.columns))[0]


def _kernel_dicts(system: IncidenceSystem, basis: RowBasis) -> list[dict]:
    """Kernel of a back-substituted basis: one vector per free column, 1 there.

    Each vector is a dict {coordinate: Fraction} of its nonzero entries in
    column order.
    """
    columns = system.columns
    vectors = {f: {f: Fraction(1)} for f in range(len(columns)) if f not in basis.pivot_rows}
    for p, row in basis.pivot_rows.items():
        for f, x in row.items():
            v = vectors.get(f)
            if v is not None:
                v[p] = Fraction(-x, row[p])
    return [{columns[j]: x for j, x in sorted(v.items())} for v in vectors.values()]


def column_kernel(system: IncidenceSystem, pins: PinSet | None = None) -> list[dict]:
    """Basis of {g on columns : M g = 0, g = 0 at pinned coordinates}.

    Pinning with value 0 is what the kernel of the pinned system means; the
    pin *values* are ignored here on purpose.
    """
    coords = () if pins is None else pins.coordinates()
    basis = _echelon(_stack_pins(system, coords), len(system.columns))
    basis.back_substitute()
    return _kernel_dicts(system, basis)


class LinearSolve(_Frozen):
    """Outcome of a pinned solve.

    verdict 'unique': decomposition set, kernel empty.
    verdict 'underdetermined': decomposition is the canonical solution with
    free variables at 0, kernel spans the remaining freedom.
    verdict 'inconsistent': witness is a rational combination of rows (points
    and pins) that sums to the zero functional but a nonzero right-hand side.
    """

    verdict: str
    decomposition: Decomposition | None
    kernel: tuple[dict, ...]
    witness: tuple[tuple[object, Fraction], ...] | None

    def __init__(self, verdict, decomposition, kernel, witness):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "decomposition", decomposition)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "witness", witness)

    @property
    def unique(self) -> bool:
        return self.verdict == UNIQUE


def _tagged_echelon(rows: Sequence[Mapping[int, int]], width: int) -> RowBasis:
    """The echelon basis of [rows | I]: row k carries a unit tag at column width + k.

    The tags keep every row independent, and a basis row's tag entries give
    the integer combination of the rows that it is.  A basis row whose lead
    is at or past column width is zero before it, so its tags are a primitive
    integer relation among the rows' first width entries, led by a positive
    entry at the least row index it involves.
    """
    return _echelon(({**r, width + k: 1} for k, r in enumerate(rows)), width + len(rows))


def _witness(rows, rhs: Sequence[Fraction], ncols: int, labels) -> tuple:
    """A row combination that kills every column but not the rhs.

    Eliminates the augmented rows [rows | D rhs] tagged: on an inconsistent
    system the rhs column is a pivot, and its basis row is zero on the
    columns and carries the combination in its tags.
    """
    augmented, _ = _augment(rows, rhs, ncols)
    combination = _tagged_echelon(augmented, ncols + 1).pivot_rows[ncols]
    return tuple(
        (labels[k - ncols - 1], Fraction(c)) for k, c in sorted(combination.items()) if k > ncols
    )


def _decomposition(space: Space, pairs: Iterable[tuple[Coordinate, Fraction]]) -> Decomposition:
    """The split that gives each coordinate of the (coordinate, value) pairs its value.

    Every route builds its split here, as every route solves with
    `solve_pinned`, from its columns and solution.
    """
    tables: list[dict] = [dict() for _ in range(space.n)]
    for (axis, label), v in pairs:
        tables[axis][label] = v
    return Decomposition(space, tuple(tables))


def _require_total(rhs: FunctionTable, points: Iterable[Point]):
    """The right-hand side must be given at exactly the points solved over."""
    if set(rhs.domain.points) != set(points):
        raise PreconditionError("right-hand side must be total on the system's points")


def solve_pinned(
    system: IncidenceSystem, rhs: FunctionTable, pins: PinSet | None = None
) -> LinearSolve:
    """Solve M u = f subject to the pins, exactly.

    The three verdicts are mutually exclusive and exhaustive; for unique and
    underdetermined outcomes the returned decomposition reproduces `rhs`
    bit-exactly on every point.  A unique solution is read along the peel
    (`_peeled_solution`), with only the 2-core eliminated.  When the peel
    proves the system inconsistent, the witness (`_witness`) is the only
    elimination left.  Any other system is eliminated as it is
    (`_canonical_solution`), which picks the free columns of the split and
    the kernel, and an inconsistent one then gets its witness.
    """
    _require_total(rhs, system.points)
    pins = PinSet(()) if pins is None else pins
    rows = _stack_pins(system, pins.coordinates())
    b = [rhs(p) for p in system.points] + [value for _, value in pins]
    ncols = len(system.columns)

    verdict, solution = _peeled_solution(rows, b, ncols)
    if verdict == UNIQUE:
        decomposition = _decomposition(system.space, zip(system.columns, solution))
        return LinearSolve(UNIQUE, decomposition, (), None)
    if verdict is None:
        solution, basis = _canonical_solution(rows, b, ncols)
    if solution is None:
        labels = list(system.points) + [PinRow(c) for c in pins.coordinates()]
        return LinearSolve(INCONSISTENT, None, (), _witness(rows, b, ncols, labels))
    if basis.rank == ncols:
        raise VerificationError("the peel missed a unique solution")
    decomposition = _decomposition(system.space, zip(system.columns, solution))
    kernel = tuple(_kernel_dicts(system, basis))
    return LinearSolve(UNDERDETERMINED, decomposition, kernel, None)


def in_span(system: IncidenceSystem, vector: Mapping[Coordinate, object]) -> bool:
    """True iff the vector is a rational combination of the incidence rows."""
    entries = {}
    for coord, v in vector.items():
        j = _column(system, _coordinate(coord))
        x = as_fraction(v)
        if x:
            entries[j] = x
    numerators, _ = _over_common_denominator(entries.values())
    basis = _echelon(system.sparse_rows, len(system.columns))
    return basis.contains_sparse(dict(zip(entries, numerators)))


class CircuitVector(_Frozen):
    """A minimal dependent point list with its normalized integer coefficients.

    sum_i coefficients[i] * incidence_vector(points[i]) = 0 coordinatewise,
    no proper nonempty subset of the points supports such a relation, the
    coefficients are all nonzero with gcd 1, and the first one is positive.
    """

    points: tuple[Point, ...]
    coefficients: tuple[int, ...]

    def __init__(self, points, coefficients):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "coefficients", coefficients)

    def __len__(self) -> int:
        return len(self.points)


def _circuit(S: PointSet) -> CircuitVector | None:
    """The dependence scan: the circuit among S's points, None if they are independent.

    One pass scans S in reverse canonical order, with rows over S's own
    coordinates (`S.coordinates()`); each point's row is built by
    `_incidence_row` only when the scan reaches it.  The first point e_k
    whose row is dependent on the rows after it makes T = S.points[k:] hold
    exactly one circuit, and e_k is in it.  That circuit is what the
    deletion loop (drop, in canonical order, any point whose removal keeps
    the rest dependent) would leave.  T's rows, the ones the scan built, are
    then eliminated once more, tagged (`_tagged_echelon`): exactly one basis
    row has a zero coordinate part, its lead is e_k's tag, and its tag
    entries are the circuit's primitive integer coefficients, e_k's
    positive.  So a set that is not good costs its tail, not its support,
    and a good set pays the scan alone.
    """
    col_index = {c: j for j, c in enumerate(S.coordinates())}
    ncols = len(col_index)
    scan = RowBasis(ncols)
    tail: list[dict[int, int]] = []
    for k in reversed(range(len(S))):
        tail.append(_incidence_row(S.points[k], col_index))
        if scan.add_sparse(tail[-1]) is None:
            break
    else:
        return None

    basis = _tagged_echelon(tail[::-1], ncols)
    if [p for p in basis.pivot_rows if p >= ncols] != [ncols]:
        raise VerificationError("tail relations are not one, led by the first dependent point")
    tags, coefficients = zip(*sorted(basis.pivot_rows[ncols].items()))
    return CircuitVector(tuple(S.points[k + j - ncols] for j in tags), coefficients)


def extract_circuit(space: Space, points: Iterable[Point]) -> CircuitVector:
    """The circuit the dependence scan (`_circuit`) finds among dependent points."""
    S = PointSet.of(space, points)
    circuit = _circuit(S) if len(S) else None
    if circuit is None:
        raise PreconditionError("points are linearly independent; no circuit exists")
    return circuit


def verify_circuit(space: Space, circuit: CircuitVector):
    """Re-check a circuit: distinct points, exact cancellation, minimality, normalization.

    Once the points are distinct and the coefficients cancel and are all
    nonzero, the support is minimal exactly when its rows have rank
    |support| - 1: the relation then spans the whole space of relations, and
    it vanishes on no point.  A repeated point would pass the rank test (one
    point listed twice, with coefficients 1 and -1, has rank 1 = 2 - 1).
    """
    pts = tuple(map(space.validate_point, circuit.points))
    coeffs = circuit.coefficients
    if len(pts) != len(coeffs) or not pts:
        raise VerificationError("circuit points and coefficients do not align")
    if len(set(pts)) != len(pts):
        raise VerificationError("circuit repeats a point")
    sums: dict = {}
    for p, c in zip(pts, coeffs):
        if c == 0:
            raise VerificationError("circuit carries a zero coefficient")
        for coord in enumerate(p):
            sums[coord] = sums.get(coord, 0) + c
    if any(v != 0 for v in sums.values()):
        raise VerificationError("circuit coefficients do not cancel coordinatewise")
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    if g != 1 or coeffs[0] <= 0:
        raise VerificationError("circuit coefficients are not normalized")
    # A circuit is its own 2-core: a point holding a coordinate no other
    # point holds would have coefficient 0.  So the peel would remove
    # nothing here, and the rows go straight to the elimination.
    system = IncidenceSystem(PointSet(space, pts))
    if _echelon(system.sparse_rows, len(system.columns)).rank != len(pts) - 1:
        raise VerificationError("circuit support is not minimal")
