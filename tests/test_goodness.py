import gc
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodsets as gs
from goodsets import goodness
from util import (
    DIAGONAL,
    E5,
    E5_PLUS,
    RECTANGLE,
    T4,
    cube_set,
    int_space,
    oracle_independent,
    pset,
    random_good_set,
    random_point_set,
    random_space,
    rref_full_split,
    rref_swap,
)


def test_is_good_example_seven():
    S = gs.PointSet.from_points([(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 9)])
    verdict = gs.is_good(S)
    assert verdict.good and verdict.loop is None


def test_is_good_e5_plus_certificate():
    S = cube_set(E5_PLUS)
    verdict = gs.is_good(S)
    assert not verdict.good
    gs.verify_circuit(S.space, verdict.loop)
    assert set(verdict.loop.points) <= set(S.points)
    assert cube_set(E5).deficiency() == 2
    assert gs.is_good(cube_set(E5)).good


def test_is_good_singleton():
    assert gs.is_good(cube_set([(1, 1, 0)])).good


def test_is_good_disjoint_coordinates():
    # No two points share any coordinate: always good.
    S = gs.PointSet.from_points([(1, 2, 3), (4, 5, 6), (7, 8, 9)])
    assert gs.is_good(S).good


def test_goodness_matches_solvability_of_indicators():
    # Definitional reading: good iff every indicator right-hand side solves.
    rng = random.Random(5)
    for _ in range(25):
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        system = gs.IncidenceSystem(S)
        solvable = all(
            gs.solve_pinned(system, gs.FunctionTable.indicator(S, p)).verdict
            != "inconsistent"
            for p in S
        )
        assert solvable == gs.is_good(S).good
        assert gs.is_good(S).good == oracle_independent(S.space, S.points)


def test_goodness_monotone_under_subsets():
    rng = random.Random(9)
    for _ in range(20):
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 7)
        pts = list(S.points)
        for _ in range(5):
            take = rng.sample(pts, rng.randint(1, len(pts)))
            assert gs.is_good(gs.PointSet.of(S.space, take)).good


def test_is_full_examples():
    assert gs.is_full(cube_set(T4))
    assert gs.is_full(cube_set(T4), definitional=True)
    assert gs.is_full(cube_set(E5))
    assert gs.is_full(cube_set(E5), definitional=True)
    assert not gs.is_full(cube_set(DIAGONAL))
    assert not gs.is_full(cube_set(DIAGONAL), definitional=True)


def test_is_full_fast_path_agrees_with_definitional():
    rng = random.Random(15)
    for _ in range(150):
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=3), 7)
        assert gs.is_full(S) == gs.is_full(S, definitional=True)


def test_extend_to_maximal_square():
    space = int_space((2, 2))
    S = gs.PointSet.of(space, [(0, 0)])
    M = gs.extend_to_maximal(S)
    assert M.points == ((0, 0), (0, 1), (1, 0))


def test_extend_to_maximal_fixpoint():
    space = int_space((2, 2))
    M = gs.PointSet.of(space, [(0, 0), (0, 1), (1, 0)])
    assert gs.extend_to_maximal(M).points == M.points


def test_extend_to_maximal_cube():
    space = int_space((2, 2, 2))
    M = gs.extend_to_maximal(gs.PointSet.of(space, [(0, 0, 0)]))
    assert len(M) == 4
    assert gs.is_good(M).good
    for i in range(3):
        assert set(M.projection(i)) == {0, 1}
    # Nothing else is addable.
    for candidate in space.all_points():
        if candidate not in M:
            assert not gs.is_good(M.union([candidate])).good


def _greedy_maximal(S):
    """The plain greedy: every candidate of the space goes through `RowBasis.add_sparse`."""
    columns = S.space.coordinates()
    index = {c: j for j, c in enumerate(columns)}

    def row(p):
        return {index[c]: 1 for c in enumerate(p)}

    basis = gs.RowBasis(len(columns))
    for p in S:
        basis.add_sparse(row(p))
    grown = [
        c for c in S.space.all_points() if c not in S and basis.add_sparse(row(c)) is not None
    ]
    return gs.PointSet.of(S.space, S.points + tuple(grown)).points


def test_extend_to_maximal_matches_plain_greedy():
    rng = random.Random(71)
    for _ in range(240):
        S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 8)
        assert gs.extend_to_maximal(S).points == _greedy_maximal(S)


def test_definitional_is_full_ignores_deficiency(monkeypatch):
    # With every deficiency reading n - 1, only the fast path is fooled.
    monkeypatch.setattr(gs.PointSet, "deficiency", lambda self: self.space.n - 1)
    D = cube_set(DIAGONAL)
    assert gs.is_full(D)
    assert not gs.is_full(D, definitional=True)
    assert gs.is_full(cube_set(T4), definitional=True)


def test_extend_to_maximal_frontier():
    # 88 points in 30^3 from two seed points.
    space = int_space((30, 30, 30))
    seeds = [(0, 0, 0), (1, 1, 1)]
    start = time.monotonic()
    M = gs.extend_to_maximal(gs.PointSet.of(space, seeds))
    elapsed = time.monotonic() - start
    assert len(M) == 3 * 30 - 2
    assert gs.is_good(M).good
    assert all(p in M for p in seeds)
    assert all(set(M.projection(i)) == set(range(30)) for i in range(3))
    assert elapsed < 10


def test_extend_to_maximal_frontier_skips_blocks():
    # 298 points in 100^3 from three seed points: once the grown set is full,
    # whole blocks of the product are skipped rather than each point.
    space = int_space((100, 100, 100))
    seeds = [(0, 0, 0), (5, 7, 9), (50, 2, 3)]
    gc.collect()
    start = time.monotonic()
    M = gs.extend_to_maximal(gs.PointSet.of(space, seeds))
    elapsed = time.monotonic() - start
    assert len(M) == 3 * 100 - 2
    assert gs.is_good(M).good
    assert all(p in M for p in seeds)
    assert all(set(M.projection(i)) == set(range(100)) for i in range(3))
    assert elapsed < 0.3


def _plain_greedy(S, candidates):
    """The plain greedy's additions: each candidate outside S goes through `RowBasis.add_sparse`."""
    index = {c: j for j, c in enumerate(S.space.coordinates())}
    basis = gs.RowBasis(len(index))
    for p in S:
        assert basis.add_sparse({index[c]: 1 for c in enumerate(p)}) is not None
    return [
        p
        for p in candidates
        if p not in S and basis.add_sparse({index[c]: 1 for c in enumerate(p)}) is not None
    ]


def test_full_closure_and_split_match_plain_greedy():
    # Full sets among the draws are closed to themselves and have no split.
    rng = random.Random(34)
    splits = 0
    while splits < 60:
        S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 8)
        grown = _plain_greedy(S, S.product_points())
        assert len(grown) == S.deficiency() - (S.space.n - 1)
        assert gs.full_closure(S).points == S.union(grown).points
        if grown:
            first = next(goodness._addable(S, S.projections(), "probe"))
            assert first == grown[0]
            assert first in gs.full_split(S)
            splits += 1


def _check_held_kernel(kernel, used, T):
    """K(T) has def(T) vectors of rank def(T) over C(T), each vanishing on every row of T."""
    from sympy import Matrix

    columns = sorted({(i, v) for p in T for i, v in enumerate(p)})
    assert [set(u) for u in used] == [{v for i, v in columns if i == k} for k in range(len(used))]
    deficiency = len(columns) - len(T)
    assert len(kernel) == deficiency
    assert all(set(g) <= set(columns) for g in kernel)
    if kernel:
        assert Matrix([[g.get(c, 0) for c in columns] for g in kernel]).rank() == deficiency
    for g in kernel:
        for p in T:
            assert sum(g.get(c, 0) for c in enumerate(p)) == 0


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("extend", "closure", "greedy-part")),
    rng=st.randoms(use_true_random=False),
)
def test_held_kernel_is_the_column_kernel_of_the_grown_set(kind, rng):
    # The growth's own step, replayed on S's points and then on each point
    # the growth yields: after each, the held vectors are a basis of K(T).
    space = random_space(rng, (2, 3, 4), max_axis=4)
    if kind == "greedy-part":
        M = gs.extend_to_maximal(random_good_set(rng, space, 3))
        S = gs.PointSet.of(space, rng.sample(M.points, rng.randint(1, len(M))))
    else:
        S = random_good_set(rng, space, 8)
    if kind == "extend":
        axes = tuple(axis.values for axis in space.axes)
    else:
        axes = S.projections()
    kernel, used, T = [], [set() for _ in range(space.n)], []
    for p in S.points + tuple(goodness._addable(S, axes, "probe")):
        assert goodness._enter(kernel, used, p)
        T.append(p)
        _check_held_kernel(kernel, used, T)
    for p in T:
        assert not goodness._enter(kernel, used, p)
    assert len(kernel) == space.n - 1


def test_full_closure_diagonal():
    F = gs.full_closure(cube_set(DIAGONAL))
    assert F.points == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1))
    assert gs.is_full(F, definitional=True)


def test_full_closure_fixpoints():
    T = cube_set(T4)
    assert gs.full_closure(T).points == T.points
    E = cube_set(E5)
    assert gs.full_closure(E).points == E.points


def test_full_closure_properties():
    rng = random.Random(21)
    for _ in range(25):
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        F = gs.full_closure(S)
        assert set(S.points) <= set(F.points)
        assert F.projections() == S.projections()
        assert F.deficiency() == S.space.n - 1
        assert gs.full_closure(F).points == F.points


def test_full_closure_rejects_bad_sets():
    with pytest.raises(gs.PreconditionError):
        gs.full_closure(pset(RECTANGLE))


def test_full_split_diagonal():
    S = cube_set(DIAGONAL)
    F = gs.full_split(S)
    remainder = F.difference(S.points)
    assert len(F) == 4 and len(remainder) == 2
    assert gs.is_full(F) and gs.is_full(remainder)
    assert F.projections() == S.projections()


def test_full_split_two_disjoint_points_n2():
    S = gs.PointSet.from_points([("a", "b"), ("c", "d")])
    F = gs.full_split(S)
    remainder = F.difference(S.points)
    assert len(remainder) == 1
    assert gs.is_full(remainder)


def test_full_split_size_identity():
    rng = random.Random(27)
    done = 0
    while done < 25:
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        if gs.is_full(S):
            continue
        F = gs.full_split(S)
        assert len(F.difference(S.points)) == S.deficiency() - (S.space.n - 1)
        done += 1


def test_full_split_preconditions():
    with pytest.raises(gs.PreconditionError):
        gs.full_split(pset(RECTANGLE))
    with pytest.raises(gs.PreconditionError):
        gs.full_split(cube_set(T4))


def test_non_good_inputs_raise_before_growth():
    # Goodness is read off the held kernel that the growth starts from, as
    # S's points enter it.  The rectangle and the full cube have deficiency
    # below n - 1, so full_closure would slice no candidate at all.
    rng = random.Random(89)
    bad = [pset(RECTANGLE), cube_set(list(int_space((2, 2, 2)).all_points()))]
    while len(bad) < 60:
        S = random_point_set(rng, random_space(rng, (2, 3, 4), max_axis=3), 9)
        if not oracle_independent(S.space, S.points):
            bad.append(S)
    for S in bad:
        for fn in (gs.extend_to_maximal, gs.full_closure, gs.full_split):
            with pytest.raises(gs.PreconditionError) as exc:
                fn(S)
            assert str(exc.value) == f"{fn.__name__} requires a good set"

    # The axes of the walk are read only after every point of S has entered
    # the held kernel, so no candidate is drawn from a set that is not good.
    def untouched():
        raise AssertionError("an axis of the walk was read")
        yield

    S = pset(RECTANGLE)
    with pytest.raises(gs.PreconditionError, match="^probe requires a good set$"):
        goodness._addable(S, untouched(), "probe")


def test_associated_full_set_missing_axis():
    S = cube_set(DIAGONAL)
    construction = gs.boundary(S)
    # The computed boundary of the diagonal misses axis 0 entirely.
    assert all(axis != 0 for axis, _ in construction.boundary)
    with pytest.raises(gs.PreconditionError):
        gs.associated_full_set(S, construction.boundary)


def test_associated_full_set_comb():
    # A boundary meeting every axis: the coordinates of a full complement
    # (the class-basis construction never leaves a free axis-0 class, so it
    # cannot supply one).
    S = cube_set(DIAGONAL)
    F = gs.full_split(S)
    complement_coords = F.difference(S.points).coordinates()
    assert {axis for axis, _ in complement_coords} == {0, 1, 2}
    rebuilt = gs.associated_full_set(S, complement_coords)
    assert gs.is_full(rebuilt, definitional=True)
    assert rebuilt.projections() == S.projections()


def test_associated_full_set_names_an_axis_outside_the_space():
    # A negative index, a float and a string: none is an axis of {0,1}^3.
    # The int -1 meets the axis rule; the others are no int, so no coordinate.
    S = cube_set(T4)
    messages = {
        -1: "axis -1 is outside range(3)",
        0.5: "coordinate (0.5, 0) is not an (axis, label) pair: axis 0.5 is not an int",
        "a": "coordinate ('a', 0) is not an (axis, label) pair: axis 'a' is not an int",
    }
    for axis, message in messages.items():
        with pytest.raises(gs.PreconditionError, match=f"^{re.escape(message)}$"):
            gs.associated_full_set(S, [(axis, 0), (0, 0), (1, 0), (2, 0)])


def test_associated_full_set_rejects_a_coordinate_that_is_not_an_axis_label_pair():
    # Read as coord[0], coord[1], (0,) leaked an IndexError, 0 a TypeError,
    # and (0, 0, 0) was read as (0, 0).
    S = cube_set(T4)
    for coord in ((0,), 0, (0, 0, 0)):
        with pytest.raises(gs.PreconditionError, match="not an \\(axis, label\\) pair"):
            gs.associated_full_set(S, [coord, (0, 0), (1, 0), (2, 0)])


def test_associated_full_set_names_coordinates_that_are_not_a_boundary(monkeypatch):
    message = "^boundary_coords do not form a boundary of the set$"
    S = cube_set(DIAGONAL)
    cases = [
        # One value per axis: the comb is (0, 0, 0) alone, so F = S is not
        # full, and three pins under two rows are not square.
        (S, list(enumerate((0, 0, 0)))),
        # Square but singular: the pins at (0, 0, 0)'s coordinates sum to its row.
        (S, [(0, 0), (1, 0), (2, 0), (0, 1)]),
        # A full F with a value outside S's projections.
        (pset([(0, 0, 0)], (3, 3, 3)), [(0, 0), (1, 0), (2, 0), (0, 2)]),
    ]
    for T, coords in cases:
        with pytest.raises(gs.PreconditionError, match=message):
            gs.associated_full_set(T, coords)
    # On a true boundary a comb that fails its check is still an internal error.
    complement_coords = gs.full_split(S).difference(S.points).coordinates()
    is_full = goodness.is_full
    monkeypatch.setattr(
        goodness, "is_full", lambda G: is_full(G) and not all(p in G for p in S)
    )
    with pytest.raises(gs.VerificationError, match="^S plus comb is not full"):
        gs.associated_full_set(S, complement_coords)


def test_cross_is_full():
    # The axis-parallel cross through one point: a comb with maximal teeth.
    space = int_space((3, 3, 3))
    points = set()
    for i in range(3):
        for v in range(3):
            p = [0, 0, 0]
            p[i] = v
            points.add(tuple(p))
    cross = gs.PointSet.of(space, sorted(points))
    assert len(cross) == 7
    assert gs.is_good(cross).good
    assert gs.is_full(cross, definitional=True)


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_swap_coordinate_is_the_first_key_of_the_pinned_kernel(rng):
    # `full_split` swaps x0 to the first key of `column_kernel`'s first
    # vector over zero pins at x0's first n - 1 coordinates.  On any set,
    # good or not, pinned at a point's first n - 1 coordinates or at random
    # columns, that key, or None when the kernel is trivial, is the one
    # sympy's rref of the stacked rows gives (tests/util.rref_swap): the
    # least of f0, the least non-pivot column, and the pivot columns whose
    # rref row is nonzero at f0.
    space = random_space(rng, max_axis=5)
    S = random_good_set(rng, space, 12) if rng.random() < 0.5 else random_point_set(rng, space, 12)
    system = gs.IncidenceSystem(S)
    x0 = rng.choice(S.points)
    columns = list(system.columns)
    for coords in (
        [(i, x0[i]) for i in range(space.n - 1)],
        rng.sample(columns, rng.randint(0, len(columns))),
    ):
        kernel = gs.column_kernel(system, gs.PinSet.zeros(coords))
        assert (next(iter(kernel[0])) if kernel else None) == rref_swap(S, coords)


def test_full_split_matches_the_rref_swap_loop(monkeypatch):
    # On random good sets that are not full (n = 2-4, at most 12 points),
    # `full_split` grows S as tests/util.rref_full_split does: the same
    # first point, then each round's swap read off sympy's rref.  The set
    # each round pins is recorded, since another choice of swaps can still
    # end at the same split.  A set of deficiency n - 1 + r takes r points,
    # the first and r - 1 rounds; at least 50 sets need two rounds or more.
    column_kernel, pinned = goodness.column_kernel, []

    def recorded(system, pins):
        pinned.append(system.point_set)
        return column_kernel(system, pins)

    monkeypatch.setattr(goodness, "column_kernel", recorded)
    rng = random.Random(1)
    multi = 0
    for _ in range(1200):
        S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=5), 12)
        r = S.deficiency() - (S.space.n - 1)
        if r == 0:
            continue
        pinned.clear()
        F = gs.full_split(S)
        assert [*pinned, F] == rref_full_split(S)
        multi += r >= 3
    assert multi >= 50
