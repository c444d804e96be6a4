"""Exact linear algebra over the point/coordinate incidence system.

The decomposition equation u_1(x_1) + ... + u_n(x_n) = f(x) is linear with
0/1 coefficients: one row per point of S, one column per coordinate value in
the union of the projections.  Rank decisions drive every correctness claim
in this package, so there is exactly one elimination, the integer
:class:`RowBasis`; rank, kernel, solve, span membership and circuit
coefficients are views on it.  A point's row has n nonzeros among |C(S)|
columns, so rows are sparse: dicts {column: int} of their nonzero entries,
and a reduction touches only the entries that are there.  The right-hand
side, the unit tags of a witness or a circuit and the point tags of an
inverse's core are extra keys of the same dicts.  A rational right-hand
side is scaled to integers by the lcm of its denominators, and `Fraction`
appears only at the final division by a pivot entry.  Pins (prescribed
coordinate values) enter as extra unit rows, not by column elimination,
which keeps the unique / underdetermined / inconsistent reporting uniform.
Every incidence row is built by one builder, `_incidence_row`.  Every pin,
target and vector key finds its column through `_column`, the one column
lookup, which refuses a coordinate that is not a column of the system; a
key handed in by a caller is first read by `model._coordinate`.

Questions whose answer does not depend on the order of rows or the choice
of free columns, the rank (`rank`) and the boundary test (`_is_boundary`),
are decided by the peel first (`_peel`): with no arithmetic it removes,
again and again, a row together with a column that only it holds, or a row
with one live column together with that column, each step adding 1 to the
rank.  Only the 2-core left, if any, goes to the one elimination; a private
column's one holder is read off a running sum of holder indices.  The
doubling chain peels to nothing, and so does every unit pin row.  Every
step's entry must be 1, as on incidence and pin rows, and the peel checks
it where it takes the step.  The peel also sorts its steps for the reads
along it: a step whose row has no other live column is forward, and the
rest, each with a private column, are backward.  A solve peels first too,
for the unique verdict
(`_peeled_solution`): a unique solution does not depend on that choice
either, so it is read along the peel by integer substitution, forward steps
in step order, then the core, then backward steps in reverse, and handed to
the split builder (`_decomposition`) as integer numerators over one
denominator.  Every other read along the peel is one reader
(`_peeled_read`), which reads every column of the general solution
x = W b + V g at once: each value is a sparse integer dict over one m,
keyed by the solution's parameters, the right-hand side of each of the
first count rows at its tag column ncols + k and each free column, one that
no step removes and no core pivot holds, at itself.  Forward steps go in
step order, then the core step on the core's rows tagged with their
right-hand-side combinations, then each free column is m at itself, and
backward steps go in reverse.  With count 0 the values are each column's
functional on the column kernel, by which the relatedness refinement groups
points; which columns are free changes the functionals but not which of
them are equal, so the signatures they give are the same.  With the point
rows counted, on a square system of full rank, no column is free and the
values are the inverse at its point rows, the solves of every indicator
right-hand side at once.  The span test (`in_span`) is one count-0 read
too: a vector lies in the row span exactly when it vanishes on the column
kernel, whatever basis spans the kernel.  The two readers share the peel,
with its step check, and the one core step (`_core_step`), which
`column_kernel` and `_canonical_solution` also run on all the rows; their
arithmetic stays apart, as one dict-valued read for both took about 1.25
times the int read's time on the unique solves of an exact-solve and a
related-search pass.  Answers that do depend on the choice (an
underdetermined solve's split and kernel, an inconsistent one's witness)
eliminate the rows as they are, and so does the dependence scan below,
which stops at the tail it needs.  One reader (`_canonical_solution`)
reads a split in integers off the core step: the underdetermined split off
all the rows, and, for `_peeled_solution`, the unique solve's core, which
has no free column.  `goodness.full_split`'s swap is the first key of
`column_kernel`'s first vector, and a circuit is minimal exactly when the
dependence scan of its support first meets a dependent row at its first
point (`verify_circuit`).

One dependence scan decides goodness and yields loops (`extract_circuit`):
one reverse pass over the canonical support finds the first point e_k that
turns the rows dependent, if any; from e_k on, the support holds exactly
one circuit.  The scan builds a point's row only when it reaches the point,
over the space's coordinates, so it builds no `IncidenceSystem` and
computes no projections, and a set that is not good costs the tail from
e_k on, not the whole support.  Each row carries a unit tag of its own, the
way a witness is read, so e_k's residual, zero on the coordinates, carries
the circuit's primitive integer coefficients in its tags, e_k's first and
positive.  A set with more points than a good set can hold is scanned so,
in one elimination; a set that may be good is scanned untagged first, as
the tags would cost a good set several times its scan, and only a tail
found dependent is scanned again, tagged.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

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
    _over_common_denominator,
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


def _peel(rows: Sequence[Mapping[int, int]], ncols: int) -> tuple[list, list, dict, list]:
    """(forward, backward, core, dropped): the 2-core peel of the rows, with no arithmetic.

    A step (k, j) removes row k together with column j, where k holds j and
    either no other live row holds j (j is private to k) or j is the one
    live column of k.  Either way the rank is 1 plus that of the other rows
    with column j deleted: row k can clear column j from them, and it is
    nonzero there.  So each step adds exactly 1 to the rank.  Steps repeat
    until neither rule applies.  `core` maps each row left, in increasing
    index, to its entries at the live columns; a row left with no live
    column is zero, and `dropped` lists it.  So the rows' rank is the step
    count plus the core's rank.  A row with a private column is in no
    relation among the rows; on incidence rows, n >= 2 entries each, the
    second rule never fires, so the core holds every loop.  Stored entries
    must be nonzero.  O(nonzeros).

    Every step's entry must be 1, as on incidence and pin rows, so that the
    readers along the peel divide by 1 at each step; a step on any other
    entry is a `VerificationError`, raised where the step is taken.

    The peel also sorts its steps for the readers along it.  A step whose
    row has one live column left when it is taken is *forward*: every other
    column of the row went in an earlier forward step, as a column that a
    live row still holds is private to no other row.  Every other step is
    *backward*: its row still holds live columns, which a later step or
    the core removes.  `forward` and `backward` each keep step order, and a
    dropped row holds forward columns only.

    Each live column keeps its count of live holders and the sum of their
    indices, so a private column's one holder is that sum.  Only a step by
    the second rule, on a column other live rows still hold, lowers their
    degrees, and only then are holder lists built, once; so every live
    row's degree is exact, and it sorts the step.
    """
    count = [0] * ncols
    total = [0] * ncols  # per column, the sum of its live holders' indices
    for k, row in enumerate(rows):
        for j in row:
            count[j] += 1
            total[j] += k
    degree = list(map(len, rows))
    row_live = list(map(bool, degree))
    col_live = [True] * ncols
    private = [j for j, c in enumerate(count) if c == 1]
    single = [k for k, d in enumerate(degree) if d == 1]
    holders = None
    forward, backward = [], []
    dropped = [k for k, d in enumerate(degree) if not d]
    while private or single:
        if private:
            j = private.pop()
            if not col_live[j] or count[j] != 1:
                continue
            k = total[j]
        else:
            k = single.pop()
            if not row_live[k] or degree[k] != 1:
                continue
            j = next(j for j in rows[k] if col_live[j])
        if rows[k][j] != 1:
            raise VerificationError("a peel step's entry is not 1")
        (forward if degree[k] == 1 else backward).append((k, j))
        row_live[k] = col_live[j] = False
        for i in rows[k]:
            if col_live[i]:
                count[i] -= 1
                total[i] -= k
                if count[i] == 1:
                    private.append(i)
        if count[j] == 1:
            continue
        if holders is None:
            holders = [[] for _ in range(ncols)]
            for h, row in enumerate(rows):
                for i in row:
                    holders[i].append(h)
        for h in holders[j]:
            if row_live[h]:
                degree[h] -= 1
                if degree[h] == 1:
                    single.append(h)
                elif degree[h] == 0:
                    row_live[h] = False
                    dropped.append(h)
    core = {
        k: {j: x for j, x in row.items() if col_live[j]}
        for k, row in enumerate(rows)
        if row_live[k]
    }
    return forward, backward, core, dropped


def _peeled_rank(rows: Sequence[Mapping[int, int]], ncols: int) -> tuple[int, list]:
    """(rank, steps): the peel's step count plus the core's rank, and the peel's steps.

    The steps come forward ones first.  The core is eliminated only when it
    is not empty.
    """
    forward, backward, core, _ = _peel(rows, ncols)
    steps = forward + backward
    return len(steps) + (_echelon(core.values(), ncols).rank if core else 0), steps


def _augment(rows, rhs: Sequence[Fraction], ncols: int) -> tuple[list[dict[int, int]], int]:
    """Rows extended by the rhs at column ncols, scaled by the lcm of its denominators."""
    numerators, scale = _over_common_denominator(rhs)
    return [{**r, ncols: a} if a else r for r, a in zip(rows, numerators)], scale


def _core_step(rows, width: int, ncols: int) -> tuple[RowBasis, int | None]:
    """(basis, m): the one back-substituted elimination, m None where it is refused.

    The rows, over width columns, the first ncols of them the system's, are
    eliminated by `RowBasis`.  A pivot at or past ncols is a row that is
    zero on the system's columns but not past them (at a rhs or a tag
    column), so the read is refused: the basis is returned as eliminated,
    with m None.  Otherwise the basis is back-substituted, so pivot column
    p is read off row p alone, and m is the lcm of the pivot entries, 1
    with no rows.  `_peeled_read` runs it on the core, `column_kernel` on
    all the rows, and `_canonical_solution` on whatever rows it is given:
    all of them, or `_peeled_solution`'s core.
    """
    basis = _echelon(rows, width)
    if any(p >= ncols for p in basis.pivot_rows):
        return basis, None
    basis.back_substitute()
    return basis, lcm(*(row[p] for p, row in basis.pivot_rows.items()))


def _peeled_solution(rows: Sequence[Mapping[int, int]], rhs: Sequence[Fraction], ncols: int):
    """(verdict, numerators, D): the unique x with rows . x = rhs, as numerators over D.

    x is read along the peel (`_peel`), which has sorted its steps; the
    solution is unique only if the steps and the held columns, those the
    core holds, number ncols, which is counted before any arithmetic.  Then
    the rhs is put over D, the lcm of its denominators, and every value is
    an integer numerator until the end; a column not yet read counts as 0
    in a row's sum.  Each forward step (k, j) reads u_j = b_k minus the
    row's other columns, in step order.  A row the peel dropped as zero
    holds forward columns only and must sum to its rhs.  The core, whose
    removed columns are all forward, is read by `_canonical_solution` on
    its rhs reduced by those values, already integer, so its numerators are
    over m, the lcm of the core's pivot entries; a core of full rank has no
    free column, so they are its unique values.  Every forward value is
    then brought over D m and each core value added.  The backward
    steps read theirs last, in reverse step order, once every later column
    has its value.  The verdict is UNIQUE, and the numerators go to the
    split builder (`_decomposition`) over D as they are, with no `Fraction`
    built here.  Every forward value is forced by its row, so a dropped row
    that fails, or a core step refused at the rhs column, makes the system
    inconsistent: (INCONSISTENT, None, None).  A core short of full rank,
    or a peel that fails the count, gives (None, None, None): not unique,
    and not decided further.
    """
    forward, backward, core, dropped = _peel(rows, ncols)
    held = len(set().union(*core.values()))
    if len(forward) + len(backward) + held != ncols:
        return None, None, None
    b, scale = _over_common_denominator(rhs)
    value = [0] * ncols

    def total(k: int) -> int:
        """Row k's sum over the values read so far."""
        return sum(map(mul, rows[k].values(), map(value.__getitem__, rows[k])))

    for k, j in forward:
        value[j] = b[k] - total(k)
    if any(total(k) != b[k] for k in dropped):
        return INCONSISTENT, None, None
    m = 1
    if core:
        x, m, basis = _canonical_solution(core.values(), [b[k] - total(k) for k in core], ncols)
        if x is None:
            return INCONSISTENT, None, None
        if basis.rank != held:
            return None, None, None
        value[:] = [v * m + a for v, a in zip(value, x)]
    for k, j in reversed(backward):
        value[j] = m * b[k] - total(k)
    return UNIQUE, value, scale * m


def _peeled_read(rows: Sequence[Mapping[int, int]], count: int, ncols: int):
    """(rank, values, m): every column of the general solution of rows . x = b, over m.

    The rhs b_k of row k is a parameter for k < count and 0 after.
    values[j] is a sparse integer dict over the solution's parameters, so
    x_j = sum_r values[j][r] t_r / m: t_r is b_k at r = ncols + k, the tag
    column that carries it through the core step, and the value of free
    column f at r = f.  A free column is one that no step removes and no
    core pivot holds.  m is the lcm of the core's pivot entries, 1 with no
    core.

    The read follows the peel (`_peel`); a column not yet read counts as 0
    in a row's sum.  Each forward step's column, in step order, is its
    row's rhs less the row's other columns, all forward.  The core step
    (`_core_step`) runs on the core's rows, each with its rhs combination
    at the tag columns, and the values read so far are brought over m.  A
    core pivot p is read off the back-substituted row p, each tag entry
    with a + sign and each free entry with a - sign.  A free column is m at
    itself.  Each backward step's column, in reverse step order, is its
    row's rhs times m less the row's other columns, all read by then.

    rank is the step count plus the core's rank, so the rows are
    independent exactly when it is their count.  With count > 0 a read is
    refused, giving (None, None, None), only on dependent rows: before any
    arithmetic where the peel's count proves them dependent, with fewer
    steps and held columns, those the core holds, than rows, and where the
    core step is refused at a tag column.  With count 0 no read is refused
    and nothing is counted, and the values are each column's functional on
    the rows' column kernel K: two columns agree on all of K exactly when
    their dicts are equal, whatever the parametrisation.  On square rows of
    rank ncols no column is free, and the values are the inverse at its
    first count columns:
    x_j = sum_k values[j][ncols + k] b_k / m.  The arithmetic stays apart
    from `_peeled_solution`'s: one dict-valued read for both took about
    1.25 times the int read's time on the unique solves of an exact-solve
    and a related-search pass.
    """
    forward, backward, core, _ = _peel(rows, ncols)
    steps = forward + backward
    if count and len(steps) + len(set().union(*core.values())) < len(rows):
        return None, None, None
    value = [{}] * ncols

    def read(k: int, a: int) -> dict[int, int]:
        """Row k's rhs times a, less the row's sum over the values read so far, zeros dropped."""
        s = {ncols + k: a} if k < count else {}
        for i, x in rows[k].items():
            for r, c in value[i].items():
                s[r] = s.get(r, 0) - x * c
        return {r: c for r, c in s.items() if c}

    for k, j in forward:
        value[j] = read(k, 1)
    pivot_rows, m = {}, 1
    if core:
        tagged = (read(k, 1) | row for k, row in core.items())
        basis, m = _core_step(tagged, ncols + count, ncols)
        if m is None:
            return None, None, None
        pivot_rows = basis.pivot_rows
        value[:] = [v and {r: c * m for r, c in v.items()} for v in value]
    for p, row in pivot_rows.items():
        a = m // row[p]
        value[p] = {r: c * a if r >= ncols else -c * a for r, c in row.items() if r != p}
    for f in set(range(ncols)).difference(pivot_rows, (j for _, j in steps)):
        value[f] = {f: m}
    for k, j in reversed(backward):
        value[j] = read(k, m)
    return len(steps) + len(pivot_rows), value, m


def _canonical_solution(rows, rhs: Sequence[Fraction], ncols: int):
    """(numerators, D, basis): x with rows . x = rhs and free columns at 0, over D, or None.

    The basis is the core step's (`_core_step`) on all the augmented rows;
    where it is refused the system is inconsistent, and the numerators and
    D are None.  Otherwise it is back-substituted, so its first ncols
    columns carry the kernel, and pivot p's numerator is read off row p
    alone over D, the rhs's scale times m; a free column's is 0.
    `_peeled_solution` runs it on its core, whose reduced rhs is integer,
    so D is m there.  `solve_pinned` runs it on all the rows only when
    `_peeled_solution` finds no unique solution: which columns are free
    decides the solution, the kernel and the witness, so those eliminate
    the rows as they are.  An inconsistent verdict of the peel skips it.
    """
    augmented, scale = _augment(rows, rhs, ncols)
    basis, m = _core_step(augmented, ncols + 1, ncols)
    if m is None:
        return None, None, basis
    x = [0] * ncols
    for p, row in basis.pivot_rows.items():
        x[p] = row.get(ncols, 0) * (m // row[p])
    return x, scale * m, basis


def _incidence_row(point: Point, col_index: Mapping) -> dict[int, int]:
    """The one row builder: the point's sparse 0/1 row, 1 at col_index[c] for its coordinates c."""
    row = {}
    for coord in enumerate(point):
        row[col_index[coord]] = 1
    return row


class PinRow(_Frozen):
    """Label of a stacked pin equation inside a witness combination."""

    coordinate: Coordinate


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
        super().__init__(point_set, columns, col_index, sparse_rows)

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
    pin *values* are ignored here on purpose.  The basis is the core step's
    (`_core_step`) on the incidence rows over unit rows at the pinned
    coordinates, which has no column past the system's to refuse at.
    """
    coords = () if pins is None else pins.coordinates()
    size = len(system.columns)
    return _kernel_dicts(system, _core_step(_stack_pins(system, coords), size, size)[0])


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

    @property
    def unique(self) -> bool:
        return self.verdict == UNIQUE


def _witness(rows, rhs: Sequence[Fraction], ncols: int, labels) -> tuple:
    """A row combination that kills every column but not the rhs.

    Eliminates the augmented rows [rows | D rhs] tagged: row k carries a
    unit tag at column ncols + 1 + k, so a basis row's tags say which
    integer combination of the rows it is.  On an inconsistent system the
    rhs column is a pivot, and its basis row is zero on the columns and
    carries the combination in its tags.  The dependence scan (`_scan`)
    tags its rows the same way.
    """
    augmented, _ = _augment(rows, rhs, ncols)
    width = ncols + 1
    tagged = ({**r, width + k: 1} for k, r in enumerate(augmented))
    combination = _echelon(tagged, width + len(augmented)).pivot_rows[ncols]
    return tuple(
        (labels[k - width], Fraction(c)) for k, c in sorted(combination.items()) if k > ncols
    )


def _decomposition(space: Space, columns, numerators: list[int], D: int) -> Decomposition:
    """The split with value numerators[k] / D at columns[k], the solve's own columns.

    Every route builds its split here, as every route solves with
    `solve_pinned`; nothing is read again (`Decomposition._trusted`).
    """
    tables = tuple({} for _ in range(space.n))
    for (axis, label), a in zip(columns, numerators):
        tables[axis][label] = Fraction(a, D)
    return Decomposition._trusted(space, tables, numerators, D)


def _require_total(rhs: FunctionTable, S: PointSet):
    """The right-hand side must be given at exactly the points of S."""
    if rhs.domain._members != S._members:
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
    the kernel, and an inconsistent one then gets its witness.  Either
    read hands its split to the one split builder (`_decomposition`) as
    integer numerators over one denominator.
    """
    _require_total(rhs, system.point_set)
    pins = PinSet(()) if pins is None else pins
    rows = _stack_pins(system, pins.coordinates())
    b = list(map(rhs.values.__getitem__, system.points))
    b += (value for _, value in pins)
    ncols = len(system.columns)

    verdict, numerators, D = _peeled_solution(rows, b, ncols)
    if verdict is None:
        numerators, D, basis = _canonical_solution(rows, b, ncols)
        if numerators is not None and basis.rank == ncols:
            raise VerificationError("the peel missed a unique solution")
    if numerators is None:
        labels = list(system.points) + [PinRow(c) for c in pins.coordinates()]
        return LinearSolve(INCONSISTENT, None, (), _witness(rows, b, ncols, labels))
    decomposition = _decomposition(system.space, system.columns, numerators, D)
    if verdict == UNIQUE:
        return LinearSolve(UNIQUE, decomposition, (), None)
    return LinearSolve(UNDERDETERMINED, decomposition, tuple(_kernel_dicts(system, basis)), None)


def in_span(system: IncidenceSystem, vector: Mapping[Coordinate, object]) -> bool:
    """True iff the vector is a rational combination of the incidence rows.

    It is exactly when the vector vanishes on the rows' column kernel,
    whatever basis spans the kernel, so it is read along the peel: every
    key and value is read first, then the values go over one denominator,
    and one count-0 read (`_peeled_read`), never refused, gives each
    column's functional on the kernel; the vector is in the span when its
    integer combination of them is zero at every parameter.  Keys are
    read as coordinates (`model._coordinate`), and a second key that reads
    as a coordinate already given is refused, as `PinSet` refuses a
    repeated pin.
    """
    entries = {}
    for key, v in vector.items():
        coord = _coordinate(key)
        j = _column(system, coord)
        if j in entries:
            raise PreconditionError(f"coordinate {coord!r} is given twice")
        entries[j] = as_fraction(v)
    numerators, _ = _over_common_denominator(entries.values())
    values = _peeled_read(system.sparse_rows, 0, len(system.columns))[1]
    total = [0] * len(system.columns)
    for j, a in zip(entries, numerators):
        for r, c in values[j].items():
            total[r] += a * c
    return not any(total)


class CircuitVector(_Frozen):
    """A minimal dependent point list with its normalized integer coefficients.

    sum_i coefficients[i] * incidence_vector(points[i]) = 0 coordinatewise,
    no proper nonempty subset of the points supports such a relation, the
    coefficients are all nonzero with gcd 1, and the first one is positive.
    """

    points: tuple[Point, ...]
    coefficients: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def _scan(points: Sequence[Point], columns: Mapping, stop: int, tagged: bool):
    """The reverse scan of points[stop:]: (k, residual, lead) at the first dependent row, or None.

    Row k is built (`_incidence_row`) only when the scan reaches it, over
    the space's coordinates: `columns` numbers them all (`Space._columns`),
    and width is their count.  A tagged row also carries a unit tag at
    column width + k, so every residual's tags say which combination of the
    scanned rows it is.  A residual that leads at a coordinate becomes a
    pivot row; the first one that does not is returned.
    """
    width = len(columns)
    scan = RowBasis(width + len(points))
    for k in reversed(range(stop, len(points))):
        row = _incidence_row(points[k], columns)
        if tagged:
            row[width + k] = 1
        residual, lead = scan._reduce(row)
        if lead >= width:
            return k, residual, lead
        scan.pivot_rows[lead] = residual
    return None


def _circuit(S: PointSet) -> CircuitVector | None:
    """The dependence scan: the circuit among S's points, None if they are independent.

    S is scanned in reverse canonical order (`_scan`), over the space's
    coordinates in canonical order, so S's projections are never computed,
    and the columns keep the relative order of S's own.
    The first point e_k whose row depends on the rows after it makes T =
    S.points[k:] hold exactly one circuit, and e_k is in it; it is what the
    deletion loop (drop, in canonical order, any point whose removal keeps
    the rest dependent) would leave.  On tagged rows, e_k's residual is zero
    on the coordinates, so its tags are T's one relation, primitive; e_k's
    tag is the least in T, so it leads, positive.

    A good set has at most width - (n - 1) points.  With more, S holds a
    loop, and its rows carry their tags from the start: the loop costs one
    elimination of the tail.  Otherwise S may be good, and tags carried to
    the end of a good set's scan would cost it several times the scan, so
    the scan runs untagged, and a tail it finds dependent is scanned again,
    tagged, in the same order.  That route alone would serve every set, but
    it eliminates each dependent tail twice, and the count spares the sets
    it decides.
    """
    columns = S.space._columns
    width = len(columns)
    points = S.points
    stop = 0
    if len(points) <= width - S.space.n + 1:
        found = _scan(points, columns, 0, tagged=False)
        if found is None:
            return None
        stop = found[0]
    # Dependent, by the count or by the untagged scan: a tagged row leads at its tag.
    k, residual, lead = _scan(points, columns, stop, tagged=True)
    if lead != width + k:
        raise VerificationError("the tail's relation is not led by the first dependent point")
    tags, coefficients = zip(*sorted(residual.items()))
    return CircuitVector(tuple(points[j - width] for j in tags), coefficients)


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
    reads = list(map(space._read, circuit.points))
    coeffs = circuit.coefficients
    if len(reads) != len(coeffs) or not reads:
        raise VerificationError("circuit points and coefficients do not align")
    keys = dict(reads)
    if len(keys) != len(reads):
        raise VerificationError("circuit repeats a point")
    sums: dict = {}
    for p, c in zip(keys, coeffs):
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
    # The dependence scan (`_scan`) decides the rank, over the space's
    # columns and the support sorted by the canonical keys that reading the
    # points gave.  The relation above misses no row, so a dependent row
    # first met at k > 0 makes rows[k:] carry a second relation, which
    # misses row 0: rank at most |support| - 2, and the scan stops there.
    # Met first at k = 0, rows[1:] are independent: rank |support| - 1.
    found = _scan(sorted(keys, key=keys.__getitem__), space._columns, 0, tagged=False)
    if found is None or found[0]:
        raise VerificationError("circuit support is not minimal")
