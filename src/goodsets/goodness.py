"""Goodness and fullness decisions, closures, and full/complement splits.

A point set S is *good* when every function on it is a sum of univariate
functions, equivalently when its incidence rows are linearly independent,
equivalently when it contains no loop; the one dependence scan behind
`linalg.extract_circuit` decides it, and its circuit is the loop.  A good
set is *full* when it is maximal good inside the product of its own
projections; for good sets this is the same as deficiency(S) = n - 1, and
both characterisations are implemented so they can be played against each
other in tests.

`full_closure`, `extend_to_maximal` and `full_split` grow S by the matroid
greedy, `_addable`.  It holds the grown set T as its coordinates and the
column kernel K(T) of its incidence rows, one integer vector per unit of
deficiency, so T is full exactly when n - 1 vectors are left; a candidate
enters when some kernel vector is nonzero at it, or when it brings a new
coordinate.  Once T is full, whole blocks of the product that lie inside
T's coordinates are skipped unread.
"""

from __future__ import annotations

from itertools import islice

from .linalg import (
    CircuitVector,
    IncidenceSystem,
    _circuit,
    _combine,
    _echelon,
    _first_kernel_coordinate,
    _incidence_row,
    _is_boundary,
    rank,
)
from .model import (
    PointSet,
    PreconditionError,
    VerificationError,
    _coordinate,
    _Frozen,
)

__all__ = [
    "GoodnessVerdict",
    "Loop",
    "associated_full_set",
    "extend_to_maximal",
    "full_closure",
    "full_split",
    "is_full",
    "is_good",
]

# A loop is exactly a circuit of incidence vectors.
Loop = CircuitVector


class GoodnessVerdict(_Frozen):
    """good=True means no loop exists; otherwise `loop` is the certificate."""

    good: bool
    loop: Loop | None

    def __bool__(self) -> bool:
        return self.good


def is_good(S: PointSet) -> GoodnessVerdict:
    """Decide goodness by the dependence scan; on failure its circuit is the loop.

    The loop is the scan's own circuit, not re-verified here; callers that
    print it (the CLI) re-check it with `linalg.verify_circuit`.
    """
    S.require_nonempty("goodness")
    loop = _circuit(S)
    return GoodnessVerdict(loop is None, loop)


def is_full(S: PointSet, definitional: bool = False) -> bool:
    """Is S maximal good within the product of its own projections?

    Fast path: deficiency = n - 1, then good by `linalg.rank`, which peels
    first; a bool needs no loop, so the dependence scan is not run.  The
    definitional check eliminates S's rows once: S must be good (rank |S|)
    and every point of the projection product must lie in the row span; the
    two must agree everywhere and tests enforce that.
    """
    S.require_nonempty("fullness")
    if not definitional:
        return S.deficiency() == S.space.n - 1 and rank(IncidenceSystem(S)) == len(S)
    system = IncidenceSystem(S)
    basis = _echelon(system.sparse_rows, len(system.columns))
    if basis.rank < len(S):
        return False
    return all(
        basis.contains_sparse(_incidence_row(p, system.col_index)) for p in S.product_points()
    )


def _enter(kernel: list[dict], used: list[set], p) -> bool:
    """Grow a good T by the point p if p's row is independent of T's rows.

    T is held as `used`, its coordinates C(T) axis by axis, and `kernel`, a
    basis K(T) of the column kernel of its rows over C(T): integer dicts
    keyed by coordinate, with g(q) = sum_i g(i, q_i) = 0 at every point q
    of T.  T is good, so len(K) = def(T).  Both are updated in place, and
    only when p enters.

    If p has coordinates outside C(T), its row is independent: each g is set
    at p's first new coordinate j0 so that g(p) = 0, and e_j - e_j0 is
    appended for each other new coordinate j.  Otherwise its row is
    independent exactly when some g(p) != 0: the first such g0 is dropped,
    and every other g with g(p) != 0 is combined with it by
    `linalg._combine`, the elimination's one step, to vanish at p.
    """
    coords = tuple(enumerate(p))
    zeros = (0,) * len(coords)
    values = [sum(map(g.get, coords, zeros)) for g in kernel]
    new = [c for c in coords if c[1] not in used[c[0]]]
    if new:
        j0 = new[0]
        for g, x in zip(kernel, values):
            if x:
                g[j0] = -x
        kernel.extend({j: 1, j0: -1} for j in new[1:])
        for i, v in new:
            used[i].add(v)
        return True
    k = next((k for k, x in enumerate(values) if x), None)
    if k is None:
        return False
    g0, a = kernel.pop(k), values.pop(k)
    kernel[:] = [_combine(g, a, g0, x) if x else g for g, x in zip(kernel, values)]
    return True


def _addable(S: PointSet, axes, what: str):
    """Greedy growth: the points of the product of `axes`, outside S, that enlarge the row span.

    The walk is lexicographic, and each yielded point's incidence row is
    independent of S's rows and of the rows yielded before it.  The product
    of `axes` must hold S.  T, S plus the points yielded so far, is held as
    C(T) and K(T), the column kernel of its rows, and each point enters by
    `_enter`; T is full exactly when len(K) = n - 1.  S's points enter
    first, here and before any candidate is drawn: that is the goodness
    check, and a dependent point raises "<what> requires a good set".

    A full T spans every point of the product of its projections.  So while
    T is full, a block of the walk (the points with a fixed prefix) is
    skipped whole when the prefix's coordinates lie in C(T) and every later
    axis lies wholly in C(T).  `is_full(definitional=True)` does not rest on
    this fact, since it is the check that holds the deficiency count to the
    definition.
    """
    S.require_nonempty("goodness")
    n = S.space.n
    kernel: list[dict] = []
    used = [set() for _ in range(n)]
    for p in S:
        if not _enter(kernel, used, p):
            raise PreconditionError(f"{what} requires a good set")
    sizes = [len(values) for values in axes]

    def covered(prefix) -> bool:
        return (
            len(kernel) == n - 1
            and all(len(used[i]) == sizes[i] for i in range(len(prefix), n))
            and all(map(set.__contains__, used, prefix))
        )

    def walk(prefix, d):
        for v in axes[d]:
            p = prefix + (v,)
            if covered(p):
                continue
            if d + 1 < n:
                yield from walk(p, d + 1)
            elif p not in S and _enter(kernel, used, p):
                yield p
            else:
                continue
            if covered(prefix):  # T may have grown, so the rest of this block may be covered
                return

    return walk((), 0)


def extend_to_maximal(S: PointSet) -> PointSet:
    """Grow S greedily to a maximal good set in the whole space.

    Candidates run in lexicographic order; one pass suffices because the row
    span only grows.  The result's projections cover every axis entirely.
    """
    axes = tuple(axis.values for axis in S.space.axes)
    grown = _addable(S, axes, "extend_to_maximal")
    result = S.union(grown)
    for i in range(S.space.n):
        if set(result.projection(i)) != set(S.space.axes[i].values):
            raise VerificationError("maximal extension does not cover an axis")
    return result


def full_closure(S: PointSet) -> PointSet:
    """The full set over S's own projections, grown lexicographically.

    Projections are preserved; the growth stops exactly when deficiency
    reaches n - 1.
    """
    grown = _addable(S, S.projections(), "full_closure")
    missing = S.deficiency() - (S.space.n - 1)
    result = S.union(islice(grown, missing))
    if result.deficiency() != S.space.n - 1:
        raise VerificationError("full closure did not reach deficiency n-1")
    return result


def full_split(S: PointSet) -> PointSet:
    """Return a full F containing the good, non-full S with F - S full too.

    F keeps S's projections and |F - S| = deficiency(S) - (n - 1).  Each
    round fixes the first point x0 of F - S, takes a nontrivial homogeneous
    solution pinned to zero at x0's first n - 1 coordinates, and swaps one
    coordinate of x0 to a value where the solution is nonzero; the new point
    lowers the deficiency by exactly one.  The solution is the first vector
    of `linalg.column_kernel` over those pins, the one of the least free
    column, and it lists its nonzero coordinates in column order; the
    swap is its first, which `linalg._first_kernel_coordinate` reads with
    no kernel built.
    """
    grown = _addable(S, S.projections(), "full_split")
    n = S.space.n
    if S.deficiency() == n - 1:
        raise PreconditionError("full_split requires a set that is not full")

    first = next(grown, None)
    if first is None:
        raise VerificationError("a good set that is not full has no addable point")
    F = S.union([first])
    while F.deficiency() > n - 1:
        x0 = next(p for p in F if p not in S)
        swap = _first_kernel_coordinate(IncidenceSystem(F), [(i, x0[i]) for i in range(n - 1)])
        if swap is None:
            raise VerificationError("set not full but pinned kernel is trivial")
        j, value = swap
        new_point = tuple(value if i == j else x0[i] for i in range(n))
        if new_point in F:
            raise VerificationError("split construction produced an existing point")
        before = F.deficiency()
        F = F.union([new_point])
        if F.deficiency() != before - 1:
            raise VerificationError("split step did not lower deficiency by one")

    if not is_full(F):
        raise VerificationError("split result is not full")
    remainder = F.difference(S.points)
    if not is_full(remainder):
        raise VerificationError("split remainder is not full")
    if F.projections() != S.projections():
        raise VerificationError("split changed the projections")
    return F


def associated_full_set(S: PointSet, boundary_coords) -> PointSet:
    """Adjoin the axis-parallel comb through the least boundary values.

    Given a boundary B with B_i = B on axis i nonempty for every axis, the
    comb R = union_i {b_1} x ... x B_i x ... x {b_n} (b_i the least element
    of B_i) is full, and F = S union R is full with S's projections.  Both
    facts are verified here.  F contains S, so the fullness check of F is
    the good-set check.  When either check fails, `is_good(S)` and then the
    one boundary test, `linalg._is_boundary` (the coordinates stacked under
    S's rows give a square system of full rank), run to name the broken
    precondition; a failure with both met signals a bug upstream.  A
    coordinate is read by `model._coordinate`, as a `PinSet` pin is, and
    checked against the space by `Space.value_index`.
    """
    S.require_nonempty("associated_full_set")
    n = S.space.n
    by_axis: dict[int, list] = {i: [] for i in range(n)}
    for coord in boundary_coords:
        axis, label = _coordinate(coord)
        S.space.value_index(axis, label)
        if label not in by_axis[axis]:
            by_axis[axis].append(label)
    for i in range(n):
        if not by_axis[i]:
            raise PreconditionError(
                f"boundary meets no value on axis {i}; the comb construction needs one per axis"
            )
        by_axis[i].sort(key=lambda v: S.space.value_index(i, v))

    base = tuple(by_axis[i][0] for i in range(n))
    comb = set()
    for i in range(n):
        for v in by_axis[i]:
            comb.add(tuple(v if k == i else base[k] for k in range(n)))
    comb_set = PointSet(S.space, tuple(comb))
    if not is_full(comb_set):
        raise VerificationError("comb through the boundary is not full")
    F = S.union(comb)
    if not is_full(F) or F.projections() != S.projections():
        if not is_good(S):
            raise PreconditionError("associated_full_set requires a good set")
        coords = [(i, v) for i in range(n) for v in by_axis[i]]
        if not _is_boundary(IncidenceSystem(S), coords):
            raise PreconditionError("boundary_coords do not form a boundary of the set")
        raise VerificationError("S plus comb is not full with S's projections")
    return F
