import gc
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodsets as gs
from goodsets import linalg, solve, structure
from goodsets.instances import _example10, example_instance, parse_instance
from util import (
    DIAGONAL,
    T4,
    brute_force_geodesic,
    cube_set,
    greedy_maximal_cube,
    int_space,
    pinned_inverse,
    pset,
    random_decomposition,
    random_fraction,
    random_function,
    random_good_set,
    random_space,
)


def ex10(depth):
    return parse_instance(example_instance(f"ex10_depth{depth}"))


def test_doubling_chain_depth_two():
    inst = ex10(2)
    report = gs.solve_direct(inst.point_set, inst.f, inst.pins)
    assert report.verdict == "unique"
    d = report.decomposition
    assert d.value(2, "z0") == 1
    assert d.value(0, "x1") == d.value(1, "y1") == -1
    assert d.value(2, "z1") == 2
    assert d.value(0, "x2") == d.value(1, "y2") == -2
    assert d.value(2, "z2") == 4


def test_corner_set_unique_once_pinned():
    # Three corners of a 2x2 grid: fixing u1(0) makes the split unique.
    inst = parse_instance(example_instance("ex02"))
    S = inst.point_set
    f = gs.FunctionTable.indicator(S, ("0", "0"))
    pins = gs.PinSet(((((0, "0")), Fraction(5, 7)),))
    report = gs.solve_direct(S, f, pins)
    assert report.verdict == "unique"
    assert report.decomposition.value(0, "0") == Fraction(5, 7)
    assert report.decomposition.value(1, "0") == 1 - Fraction(5, 7)


def test_t4_zero_function_trivial():
    S = cube_set(T4)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    report = gs.solve_direct(S, gs.FunctionTable.zero(S), pins)
    assert report.verdict == "unique"
    assert report.max_abs_value == 0


def test_round_trip_random_full_sets():
    rng = random.Random(61)
    for _ in range(25):
        S = gs.full_closure(random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 5))
        d = random_decomposition(rng, S)
        f = gs.FunctionTable.from_decomposition(S, d)
        construction = gs.boundary(S)
        pins = gs.PinSet(
            tuple((c, d.value(*c)) for c in construction.boundary)
        )
        report = gs.solve_direct(S, f, pins)
        assert report.verdict == "unique"
        assert report.decomposition.tables == d.tables


def test_geodesic_method_matches_direct_on_t4():
    S = cube_set(T4)
    f = gs.FunctionTable.indicator(S, (0, 0, 0))
    base = (1, 1, 0)
    via_geodesics = gs.solve_via_geodesics(S, f, base)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    direct = gs.solve_direct(S, f, pins)
    assert via_geodesics.decomposition.tables == direct.decomposition.tables
    assert via_geodesics.max_geodesic_length == 4


def test_staircase_unique_with_two_pins():
    inst = parse_instance(example_instance("ex04"))
    S = inst.point_set
    rng = random.Random(67)
    f = random_function(rng, S)
    report = gs.solve_via_geodesics(S, f, ("0", "0", "0"))
    assert report.verdict == "unique"
    pins = gs.PinSet.zeros([(0, "0"), (1, "0")])
    direct = gs.solve_direct(S, f, pins)
    assert report.decomposition.tables == direct.decomposition.tables


def test_geodesic_matrices_square_invertible():
    S = cube_set(T4)
    for y in S:
        G = gs.geodesic(S, (1, 1, 0), y)
        gm = gs.geodesic_matrix(G.points, (1, 1, 0))
        assert len(gm.matrix) == len(gm.columns) == G.length


def test_geodesic_method_rejects_unrelated():
    S = cube_set(DIAGONAL)
    f = gs.FunctionTable.zero(S)
    with pytest.raises(gs.PreconditionError):
        gs.solve_via_geodesics(S, f, (0, 0, 0))


def test_componentwise_on_disjoint_components():
    S = cube_set(DIAGONAL)
    f = gs.FunctionTable(S, {(0, 0, 0): Fraction(3), (1, 1, 1): Fraction(-2)})
    report = gs.solve_componentwise(S, f)
    assert report.verdict == "unique"
    for p in S:
        assert report.decomposition.evaluate(p) == f(p)


def test_componentwise_rejects_shared_coordinate():
    S = gs.PointSet.from_points([("a", "b", "c"), ("a", "B", "C")])
    f = gs.FunctionTable.zero(S)
    with pytest.raises(gs.PreconditionError):
        gs.solve_componentwise(S, f)


def test_componentwise_matches_direct_on_random_disjoint_components():
    # Unions of 2-3 random full sets on disjoint value ranges: each full set
    # is one component, and no two share a coordinate of any kind.
    rng = random.Random(109)
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        offsets, points, parts = [0] * n, [], rng.randint(2, 3)
        for _ in range(parts):
            sizes = [rng.randint(1, 3) for _ in range(n)]
            F = gs.full_closure(random_good_set(rng, int_space(sizes), 6))
            points += [tuple(o + v for o, v in zip(offsets, p)) for p in F]
            offsets = [o + s for o, s in zip(offsets, sizes)]
        S = gs.PointSet.of(int_space(offsets), points)
        f = random_function(rng, S)
        comps = gs.related_components(S).components
        assert len(comps) == parts
        for bases in (None, [rng.choice(comp.points) for comp in comps]):
            report = gs.solve_componentwise(S, f, bases)
            pins = gs.PinSet.zeros(
                (i, b[i]) for b in bases or [c.points[0] for c in comps] for i in range(n - 1)
            )
            direct = gs.solve_direct(S, f, pins)
            assert report.verdict == direct.verdict == "unique"
            assert report.decomposition.tables == direct.decomposition.tables


def test_componentwise_single_component_equals_geodesic_method():
    S = cube_set(T4)
    rng = random.Random(71)
    f = random_function(rng, S)
    a = gs.solve_componentwise(S, f)
    b = gs.solve_via_geodesics(S, f)
    assert a.decomposition.tables == b.decomposition.tables


def test_boundary_solve_diagonal_example():
    S = cube_set(DIAGONAL)
    f = gs.FunctionTable.indicator(S, (0, 0, 0))
    pins = gs.PinSet.zeros([(1, 0), (1, 1), (2, 0), (2, 1)])
    report = gs.solve_with_boundary(S, f, pins)
    assert report.verdict == "unique"
    d = report.decomposition
    assert d.value(0, 0) == 1
    assert d.value(0, 1) == 0
    for axis in (1, 2):
        for v in (0, 1):
            assert d.value(axis, v) == 0


def test_boundary_solve_full_set_matches_direct():
    S = cube_set(T4)
    rng = random.Random(73)
    f = random_function(rng, S)
    construction = gs.boundary(S)
    values = {c: random_fraction(rng) for c in construction.boundary}
    pins = gs.PinSet.of(values)
    report = gs.solve_with_boundary(S, f, pins)
    direct = gs.solve_direct(S, f, pins)
    assert report.decomposition.tables == direct.decomposition.tables


def test_boundary_solve_extends_prescription():
    rng = random.Random(79)
    for _ in range(15):
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        construction = gs.boundary(S)
        values = {c: random_fraction(rng) for c in construction.boundary}
        pins = gs.PinSet.of(values)
        report = gs.solve_with_boundary(S, gs.FunctionTable.zero(S), pins)
        assert report.verdict == "unique"
        for coord, v in values.items():
            assert report.decomposition.value(*coord) == v


def test_boundary_solve_rejects_non_boundary_pins():
    S = cube_set(DIAGONAL)
    f = gs.FunctionTable.zero(S)
    with pytest.raises(gs.PreconditionError):
        gs.solve_with_boundary(S, f, gs.PinSet.zeros([(1, 0)]))
    # Right size, but the pins at (0,0),(1,0),(2,0) already add up to the
    # first point's equation, so the stacked system is singular.
    with pytest.raises(gs.PreconditionError):
        gs.solve_with_boundary(
            S, f, gs.PinSet.zeros([(0, 0), (1, 0), (2, 0), (0, 1)])
        )


def test_comb_route_matches_direct_stacked():
    # A boundary meeting every axis (a full complement's coordinates) goes
    # through the one stacked solve; it must equal solve_pinned on the same
    # pins.
    rng = random.Random(83)
    done = 0
    while done < 12:
        S = random_good_set(rng, random_space(rng, (3,), max_axis=3), 5)
        if gs.is_full(S):
            continue
        F = gs.full_split(S)
        bound = F.difference(S.points).coordinates()
        values = {c: random_fraction(rng) for c in bound}
        pins = gs.PinSet.of(values)
        f = random_function(rng, S)
        report = gs.solve_with_boundary(S, f, pins)
        stacked = gs.solve_pinned(gs.IncidenceSystem(S), f, pins)
        assert stacked.verdict == "unique"
        assert report.decomposition.tables == stacked.decomposition.tables
        done += 1


def test_gauge_freedom_on_partial_pins():
    # Pinning fewer than n-1 axes of a full set leaves per-axis constants
    # with zero sum on the unpinned axes.
    S = cube_set(T4)
    f = gs.FunctionTable.zero(S)
    pins = gs.PinSet.zeros([(0, 1)])  # pin only axis 0
    out = gs.solve_pinned(gs.IncidenceSystem(S), f, pins)
    assert out.verdict == "underdetermined"
    for vec in out.kernel:
        for v in S.projection(0):
            assert vec.get((0, v), Fraction(0)) == 0
        constants = []
        for axis in (1, 2):
            values = {vec.get((axis, v), Fraction(0)) for v in S.projection(axis)}
            assert len(values) == 1
            constants.append(values.pop())
        assert sum(constants) == 0


def test_two_solutions_differ_by_axis_constants():
    S = cube_set(T4)
    rng = random.Random(89)
    f = random_function(rng, S)
    pins = gs.PinSet.zeros([(0, 1)])
    out = gs.solve_pinned(gs.IncidenceSystem(S), f, pins)
    assert out.verdict == "underdetermined"
    other = out.decomposition + gs.Decomposition(
        S.space, ({}, {0: 1, 1: 1}, {0: -1, 1: -1})
    )
    for p in S:
        assert other.evaluate(p) == f(p)
    diff_constants = []
    for axis in (1, 2):
        diffs = {
            other.value(axis, v) - out.decomposition.value(axis, v)
            for v in S.projection(axis)
        }
        assert len(diffs) == 1
        diff_constants.append(diffs.pop())
    assert sum(diff_constants) == 0


def test_solution_map_is_linear():
    S = cube_set(T4)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    rng = random.Random(97)
    f = random_function(rng, S)
    g = random_function(rng, S)
    a, b = Fraction(3, 2), Fraction(-5, 7)
    combo = gs.FunctionTable(S, {p: a * f(p) + b * g(p) for p in S})
    sf = gs.solve_direct(S, f, pins).decomposition
    sg = gs.solve_direct(S, g, pins).decomposition
    sc = gs.solve_direct(S, combo, pins).decomposition
    assert sc.tables == (sf.scale(a) + sg.scale(b)).tables


def test_full_complement_boundary_route_equivalence():
    # The complement-of-a-full-split boundary solves identically through the
    # extension route and the direct route for arbitrary prescriptions.
    rng = random.Random(101)
    done = 0
    while done < 10:
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 5)
        if gs.is_full(S):
            continue
        F = gs.full_split(S)
        remainder = F.difference(S.points)
        bound = remainder.coordinates()
        values = {c: random_fraction(rng) for c in bound}
        f = random_function(rng, S)
        # Extension route by hand: extend f onto F - S by the prescription's
        # sums, solve on F pinned at the first remainder point, restrict.
        x0 = remainder.points[0]
        ext = {}
        for p in F:
            if p in S:
                ext[p] = f(p)
            else:
                ext[p] = sum(
                    (values[(i, label)] for i, label in enumerate(p)), Fraction(0)
                )
        pins_f = gs.PinSet(
            tuple(((i, x0[i]), values[(i, x0[i])]) for i in range(S.space.n - 1))
        )
        on_f = gs.solve_pinned(
            gs.IncidenceSystem(F), gs.FunctionTable(F, ext), pins_f
        )
        assert on_f.verdict == "unique"
        direct = gs.solve_pinned(gs.IncidenceSystem(S), f, gs.PinSet.of(values))
        assert direct.verdict == "unique"
        assert on_f.decomposition.tables == direct.decomposition.tables
        done += 1


def test_bound_diagnostics_t4():
    diag = gs.bound_diagnostics(cube_set(T4))
    assert diag.max_geodesic_length == 4
    assert diag.mean_geodesic_length == Fraction(13, 4)
    # The base indicator puts weight 1 on the base's own third coordinate;
    # every other indicator stays at 1/2.
    assert diag.max_abs_indicator_value == 1


def test_bound_diagnostics_single_point_n2():
    S = gs.PointSet.from_points([("a", "b")])
    diag = gs.bound_diagnostics(S)
    assert diag.max_geodesic_length == 1
    assert diag.max_abs_indicator_value == 1


def test_bound_diagnostics_doubling_chain():
    inst = ex10(5)
    diag = gs.bound_diagnostics(inst.point_set, ("x0", "y0", "z0"))
    assert diag.max_abs_indicator_value == 32
    assert diag.max_geodesic_length == 16


def _indicator_sweep(S, base):
    """Largest |value| over the pinned solves of every point indicator."""
    pins = gs.PinSet.zeros([(i, base[i]) for i in range(S.space.n - 1)])
    system = gs.IncidenceSystem(S)
    worst = Fraction(0)
    for p in S:
        outcome = gs.solve_pinned(system, gs.FunctionTable.indicator(S, p), pins)
        assert outcome.verdict == "unique"
        tables = outcome.decomposition.tables
        worst = max(worst, max(abs(v) for t in tables for v in t.values()))
    return worst


def test_bound_diagnostics_matches_indicator_sweep():
    for depth in range(1, 7):
        S = ex10(depth).point_set
        diag = gs.bound_diagnostics(S)
        assert diag.max_abs_indicator_value == _indicator_sweep(S, S.points[0])
    rng = random.Random(71)
    for _ in range(40):
        S = gs.full_closure(random_good_set(rng, random_space(rng), 8))
        base = rng.choice(S.points)
        diag = gs.bound_diagnostics(S, base)
        assert diag.max_abs_indicator_value == _indicator_sweep(S, base)


def test_indicator_maximum_matches_every_inverse_entry():
    # The sweep's maximum skips the zero entries of the inverse it reads
    # along the peel; it must equal the largest |v| over every entry of the
    # Gauss-Jordan inverse (`tests/util.pinned_inverse`), zeros included.
    sets = [greedy_maximal_cube(random.Random(seed), k) for seed in range(3) for k in (8, 20)]
    sets += [greedy_maximal_cube(random.Random(seed), 5, 4) for seed in range(3)]
    rng = random.Random(103)
    for S in sets:
        base = rng.choice(S.points)
        inverse = pinned_inverse(S, base)
        expected = max(abs(row.get(k, 0)) for row in inverse.values() for k in range(len(S)))
        assert gs.bound_diagnostics(S, base).max_abs_indicator_value == expected


def _looped(S: gs.PointSet, rng) -> gs.PointSet | None:
    """S, full, with a point of its projections' product added and a point with two fresh values.

    The first point lies in the span of S's rows, as S is full, and the
    second adds two coordinates, so the set has S's deficiency n - 1 and a
    loop; None when S's projections hold no other point.
    """
    inside = [p for p in itertools.product(*map(S.projection, range(S.space.n))) if p not in S]
    if not inside:
        return None
    sizes = [len(axis.values) for axis in S.space.axes]
    a, b = rng.sample(range(S.space.n), 2)
    fresh = [rng.choice(S.projection(i)) for i in range(S.space.n)]
    fresh[a], fresh[b] = sizes[a], sizes[b]
    space = int_space([size + 1 for size in sizes])
    return gs.PointSet.of(space, [*S.points, rng.choice(inside), tuple(fresh)])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["closure", "greedy"]))
def test_indicator_sweep_matches_the_gauss_jordan_inverse(seed, kind):
    # On full closures of random good sets and on greedy maximal cubes, whose
    # peel leaves a core, the sweep is the largest |entry| of the Gauss-Jordan
    # inverse (`tests/util.pinned_inverse`) pinned at a random base.  The same
    # set with a loop planted and deficiency kept at n - 1 has no inverse,
    # and the sweep says so as the good-set precondition.
    rng = random.Random(seed)
    if kind == "greedy":
        S = greedy_maximal_cube(rng, *rng.choice([(4, 2), (8, 3), (5, 4)]))
    else:
        S = gs.full_closure(random_good_set(rng, random_space(rng), 9))
    base = rng.choice(S.points)
    inverse = pinned_inverse(S, base)
    expected = max(abs(w) for row in inverse.values() for w in row.values())
    assert gs.bound_diagnostics(S, base).max_abs_indicator_value == expected
    T = _looped(S, rng)
    if T is not None:
        assert T.deficiency() == T.space.n - 1
        base = rng.choice(T.points)
        with pytest.raises(ValueError, match="singular"):
            pinned_inverse(T, base)
        with pytest.raises(gs.PreconditionError) as err:
            gs.bound_diagnostics(T, base)
        assert str(err.value) == "bound_diagnostics requires a good set"


def test_doubling_chain_frontier_depth_twelve():
    # 37 points: every block of the matching order is one point.
    depth = 12
    S = parse_instance(_example10(depth)).point_set
    f = random_function(random.Random(73), S)
    start = time.monotonic()
    diag = gs.bound_diagnostics(S)
    report = gs.solve_via_geodesics(S, f)
    elapsed = time.monotonic() - start
    assert len(S) == 37
    assert diag.max_geodesic_length == 3 * depth + 1
    assert diag.max_abs_indicator_value == 2**depth
    assert report.max_geodesic_length == 3 * depth + 1
    assert all(report.decomposition.evaluate(p) == f(p) for p in S)
    assert elapsed < 10


def test_doubling_chain_frontier_depth_forty():
    # 121 points: the indicator sweep read along the peel, and every
    # geodesic length read off the matching order.
    depth = 40
    S = parse_instance(_example10(depth)).point_set
    f = random_function(random.Random(79), S)
    start = time.monotonic()
    diag = gs.bound_diagnostics(S)
    diag_elapsed = time.monotonic() - start
    start = time.monotonic()
    report = gs.solve_via_geodesics(S, f)
    solve_elapsed = time.monotonic() - start
    assert len(S) == 121
    assert diag.max_geodesic_length == 3 * depth + 1
    assert diag.max_abs_indicator_value == 2**depth
    assert report.max_geodesic_length == 3 * depth + 1
    assert all(report.decomposition.evaluate(p) == f(p) for p in S)
    assert diag_elapsed < 5
    assert solve_elapsed < 5


def test_doubling_chain_indicator_sweep_frontier():
    # The d = 400 chain (1,201 points) pinned at its base peels to an empty
    # core, so every indicator's split is read by integer substitution with
    # no elimination, though its values grow like 2^d.
    S = parse_instance(_example10(400)).point_set
    gc.collect()
    start = time.monotonic()
    diag = gs.bound_diagnostics(S)
    elapsed = time.monotonic() - start
    assert len(S) == 1201
    assert diag.max_abs_indicator_value == 2**400
    assert diag.max_geodesic_length == 1201
    assert elapsed < 1


def test_doubling_chain_frontier_depth_two_hundred():
    # 601 points: the rank and the solve peel to an empty core, and goodness
    # is one sparse dependence scan.
    inst = parse_instance(_example10(200))
    S = inst.point_set
    start = time.monotonic()
    rank = gs.rank(gs.IncidenceSystem(S))
    good = gs.is_good(S).good
    report = gs.solve_direct(S, inst.f, inst.pins)
    elapsed = time.monotonic() - start
    assert len(S) == 601 and rank == len(S) and good
    assert report.verdict == "unique"
    assert all(report.decomposition.evaluate(p) == inst.f(p) for p in S)
    assert elapsed < 5


def test_doubling_chain_peeled_solve_frontier():
    # The d = 1,000 chain (3,001 points) pinned as its instance pins it peels
    # to an empty core, so its unique split is read by integer substitution
    # with no elimination, though its values grow like 2^d.
    inst = parse_instance(_example10(1000))
    S = inst.point_set
    start = time.monotonic()
    report = gs.solve_direct(S, inst.f, inst.pins)
    elapsed = time.monotonic() - start
    assert len(S) == 3001 and report.verdict == "unique"
    assert all(report.decomposition.evaluate(p) == inst.f(p) for p in S)
    assert elapsed < 0.2


def test_greedy_maximal_frontier():
    # 598 points of 200^3, one relatedness class: a maximal good set is full.
    rng = random.Random(83)
    S = greedy_maximal_cube(rng, 200)
    f = random_function(rng, S)
    pins = gs.PinSet.zeros([(i, S.points[0][i]) for i in range(2)])
    start = time.monotonic()
    report = gs.solve_direct(S, f, pins)
    solve_elapsed = time.monotonic() - start
    start = time.monotonic()
    partition = gs.related_components(S)
    components_elapsed = time.monotonic() - start
    assert len(S) == 598 and S.deficiency() == 2
    assert report.verdict == "unique"
    assert all(report.decomposition.evaluate(p) == f(p) for p in S)
    assert len(partition) == 1
    assert solve_elapsed < 5
    assert components_elapsed < 5


def test_greedy_maximal_matching_order_frontier():
    # The same 598 points: both geodesic routes read the matching order
    # from the base and solve once pinned there, and 20 geodesics from the
    # base each rank S once and read one closure.
    rng = random.Random(83)
    S = greedy_maximal_cube(rng, 200)
    f = random_function(rng, S)
    base = S.points[0]
    pins = gs.PinSet.zeros([(i, base[i]) for i in range(2)])
    direct = gs.solve_direct(S, f, pins)
    for solver in (gs.solve_via_geodesics, gs.solve_componentwise):
        start = time.monotonic()
        report = solver(S, f)
        elapsed = time.monotonic() - start
        assert report.decomposition.tables == direct.decomposition.tables
        assert elapsed < 2
    targets = random.Random(5).sample(S.points, 20)
    start = time.monotonic()
    geodesics = [gs.geodesic(S, base, y) for y in targets]
    elapsed = time.monotonic() - start
    for y, g in zip(targets, geodesics):
        assert {base, y} <= set(g.points) and g.points.deficiency() == 2
    assert elapsed < 5


def test_greedy_maximal_geodesic_frontier():
    # 118 points of 40^3: most geodesics from the base hold points of the
    # one large block of the matching order.
    rng = random.Random(2)
    S = greedy_maximal_cube(rng, 40)
    base = S.points[0]
    f = random_function(rng, S)
    start = time.monotonic()
    diag = gs.bound_diagnostics(S, base)
    diag_elapsed = time.monotonic() - start
    start = time.monotonic()
    via = gs.solve_via_geodesics(S, f, base)
    via_elapsed = time.monotonic() - start
    assert len(S) == 118 and S.deficiency() == 2
    assert list(diag.lengths) == list(S.points)
    for y in rng.sample(S.points, 12):
        assert diag.lengths[y] == gs.geodesic(S, base, y).length
    assert via.max_geodesic_length == diag.max_geodesic_length
    assert all(via.decomposition.evaluate(p) == f(p) for p in S)
    assert diag_elapsed < 5
    assert via_elapsed < 5


def test_greedy_maximal_geodesic_routes_frontier():
    # 238 points of 80^3: both routes read the matching order and solve
    # once, with no pinned inverse.
    rng = random.Random(2)
    S = greedy_maximal_cube(rng, 80)
    f = random_function(rng, S)
    base = S.points[0]
    pins = gs.PinSet.zeros([(i, base[i]) for i in range(S.space.n - 1)])
    direct = gs.solve_direct(S, f, pins)
    assert len(S) == 238 and direct.verdict == "unique"
    for solver in (gs.solve_via_geodesics, gs.solve_componentwise):
        start = time.monotonic()
        report = solver(S, f)
        elapsed = time.monotonic() - start
        assert report.decomposition.tables == direct.decomposition.tables
        assert elapsed < 2


def test_shared_inverse_matches_single_geodesics():
    # The lengths `bound_diagnostics` reads off one matching order from the
    # base are those of each single geodesic, which orders again.  The
    # greedy maximal sets have large blocks.  The direct solve pins the same
    # coordinates.
    rng = random.Random(97)
    sets = [gs.full_closure(random_good_set(rng, random_space(rng), 8)) for _ in range(40)]
    sets += [ex10(depth).point_set for depth in range(1, 7)]
    greedy = [greedy_maximal_cube(random.Random(seed), 8) for seed in range(3)]
    greedy += [greedy_maximal_cube(random.Random(seed), 5, 4) for seed in range(3)]
    for S in sets + greedy:
        base = rng.choice(S.points)
        diag = gs.bound_diagnostics(S, base)
        assert list(diag.lengths) == list(S.points)
        for y in S:
            g = gs.geodesic(S, base, y).points
            assert diag.lengths[y] == len(g)
            if S in greedy:
                # Too large for brute force: g is full by coordinate
                # counting, and minimal since dropping any other point
                # leaves base and y unrelated.
                assert base in g and y in g and g.deficiency() == S.space.n - 1
                for p in set(g.points) - {base, y}:
                    assert not gs.related(g.difference([p]), base, y)
        f = random_function(rng, S)
        via = gs.solve_via_geodesics(S, f, base)
        pins = gs.PinSet.zeros([(i, base[i]) for i in range(S.space.n - 1)])
        direct = gs.solve_direct(S, f, pins)
        assert direct.verdict == "unique"
        assert via.decomposition.tables == direct.decomposition.tables


def test_several_classes_name_the_first_unrelated_point():
    rng = random.Random(101)
    done = 0
    while done < 30:
        S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 9)
        base = rng.choice(S.points)
        unrelated = [y for y in S if not brute_force_geodesic(S.points, base, y)]
        if not unrelated:
            continue
        with pytest.raises(gs.PreconditionError) as exc:
            gs.bound_diagnostics(S, base)
        assert str(exc.value) == "diagnostics are per component; this set has several"
        with pytest.raises(gs.PreconditionError) as exc:
            gs.solve_via_geodesics(S, random_function(rng, S), base)
        assert str(exc.value) == (
            f"{unrelated[0]!r} is unrelated to the base; "
            "use the componentwise or boundary method"
        )
        done += 1


def test_bound_diagnostics_rejects_multiple_components():
    with pytest.raises(gs.PreconditionError):
        gs.bound_diagnostics(cube_set(DIAGONAL))


def _adds_one_at(target):
    """A split builder that is wrong by one at the target coordinate."""
    build = linalg._decomposition

    def wrong(space, columns, numerators, D):
        off = [a + D * (c == target) for c, a in zip(columns, numerators)]
        return build(space, columns, off, D)

    return wrong


def _fraction_split_check(S, f, decomposition, pins):
    """The split check in `Fraction`s, pin by pin and point by point: the oracle of `_check`."""
    for coord, value in pins:
        if decomposition.value(*coord) != value:
            raise gs.VerificationError("solution does not honor a prescribed boundary value")
    for p in S:
        if decomposition.evaluate(p) != f(p):
            raise gs.VerificationError("split does not reproduce f")


def _raised(check, *args):
    try:
        check(*args)
    except (gs.PreconditionError, gs.VerificationError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_integer_split_check_matches_the_fraction_check(rng):
    # `solve._check` compares integers over one denominator.  On splits
    # that reproduce f or miss it at one point or more, that lack a
    # coordinate or not, and on pins that hold, miss, lie off the split or
    # off the axes, it raises exactly what the `Fraction` check raises.
    S = random_good_set(rng, random_space(rng), 8)
    tables = [dict(t) for t in random_decomposition(rng, S).tables]
    split = gs.Decomposition(S.space, tuple(tables))
    values = gs.FunctionTable.from_decomposition(S, split).values
    off = {p: (rng.random() < 0.2) * random_fraction(rng) for p in S}
    f = gs.FunctionTable(S, {p: v + off[p] for p, v in values.items()})
    if rng.random() < 0.2:
        axis = rng.randrange(S.space.n)
        del tables[axis][rng.choice(list(tables[axis]))]
        split = gs.Decomposition(S.space, tuple(tables))
    coords = rng.sample(S.coordinates(), rng.randint(0, min(3, len(S.coordinates()))))
    pins = [(c, split.tables[c[0]].get(c[1], 0) + (rng.random() < 0.1)) for c in coords]
    if rng.random() < 0.2:
        pins.insert(rng.randint(0, len(pins)), (rng.choice([(S.space.n, 0), (0, "off")]), 0))
    pins = gs.PinSet(tuple(pins))
    expected = _raised(_fraction_split_check, S, f, split, pins)
    assert _raised(solve._check, S, f, split, pins) == expected


def _largest_abs(values) -> Fraction:
    """The largest |value|, 0 for none, by `Fraction` comparison."""
    return max(map(abs, values), default=Fraction(0))


@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_solver_built_split_matches_the_validated_one(rng):
    # `solve_pinned` hands its split over as integer numerators over one D,
    # built with nothing read again: pinned at a boundary of a good set the
    # peel reads it, pinned at one coordinate fewer the canonical
    # elimination does.  Either way it equals and prints as the split
    # validated from the same `Fraction`s, its integer form is its
    # values, its report's largest |value| is `_largest_abs` over its
    # tables, compared as `Fraction`s, the report built by position equals
    # and prints as the one built by name, and the split check refuses the
    # split with any one value changed.
    S = random_good_set(rng, random_space(rng), 9)
    f = random_function(rng, S)
    bound = gs.boundary(S).boundary
    coords = bound[: len(bound) - (rng.random() < 0.3)]
    pins = gs.PinSet(tuple((c, random_fraction(rng)) for c in coords))
    out = gs.solve_pinned(gs.IncidenceSystem(S), f, pins)
    assert out.verdict == ("unique" if coords == bound else "underdetermined")
    split = out.decomposition
    values = [v for table in split.tables for v in table.values()]
    validated = gs.Decomposition(S.space, split.tables)
    assert split == validated and repr(split) == repr(validated)
    numerators, D = split._integer
    assert [Fraction(a, D) for a in numerators] == values
    report = solve._report("direct", out)
    assert report.max_abs_value == _largest_abs(values)
    by_name = solve.SolveReport(
        **vars(out), method="direct", max_geodesic_length=None, max_abs_value=_largest_abs(values)
    )
    assert report == by_name and repr(report) == repr(by_name)
    solve._check(S, f, split, pins)
    axis = rng.choice([i for i, table in enumerate(split.tables) if table])
    label = rng.choice(list(split.tables[axis]))
    changed = [dict(table) for table in split.tables]
    changed[axis][label] += rng.choice([-1, 1]) * random_fraction(rng, max_den=3) or 1
    with pytest.raises(gs.VerificationError):
        solve._check(S, f, gs.Decomposition(S.space, tuple(changed)), pins)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_every_route_lists_each_axis_in_declaration_order(rng):
    # The CLI prints each split table as it is, so every route's split must
    # list each axis's labels in the axis's declaration order.  The labels
    # are declared shuffled, so sorted and declaration order differ.  S is
    # 2-3 full sets on disjoint value ranges, so each is one component and
    # no two share a coordinate: the direct route pinned at a boundary is
    # unique and at one coordinate fewer underdetermined, the
    # componentwise and boundary routes solve S, and the geodesic route
    # solves one component.
    n = rng.choice((2, 3, 4))
    offsets, points = [0] * n, []
    for _ in range(rng.randint(2, 3)):
        sizes = [rng.randint(1, 3) for _ in range(n)]
        F = gs.full_closure(random_good_set(rng, int_space(sizes), 6))
        points += [tuple(o + v for o, v in zip(offsets, p)) for p in F]
        offsets = [o + s for o, s in zip(offsets, sizes)]
    axes = ((f"x{i + 1}", tuple(rng.sample(range(s), s))) for i, s in enumerate(offsets))
    space = gs.Space.of(*axes)
    S = gs.PointSet.of(space, points)
    f = random_function(rng, S)
    bound = gs.boundary(S).boundary
    pins = gs.PinSet(tuple((c, random_fraction(rng)) for c in bound))
    reports = [
        gs.solve_direct(S, f, pins),
        gs.solve_direct(S, f, gs.PinSet(pins.pins[1:])),
        gs.solve_componentwise(S, f),
        gs.solve_with_boundary(S, f, pins),
    ]
    component = gs.related_components(S).components[0]
    reports.append(gs.solve_via_geodesics(component, random_function(rng, component)))
    assert [r.verdict for r in reports] == ["unique", "underdetermined"] + ["unique"] * 3
    for report in reports:
        split = report.decomposition
        for axis, table in zip(space.axes, split.tables):
            assert list(table) == [v for v in axis.values if v in table]


@pytest.mark.parametrize(
    "route, target, message",
    [
        ("geodesic", (2, "z1"), "split does not reproduce f"),
        ("componentwise", (2, "z1"), "split does not reproduce f"),
        ("boundary", (2, "z1"), "split does not reproduce f"),
        ("boundary", (0, "x0"), "solution does not honor a prescribed boundary value"),
    ],
)
def test_split_check_catches_a_wrong_value(monkeypatch, route, target, message):
    # Every route builds its split through `linalg._decomposition`, and
    # every route but direct checks it in `solve._check`; one wrong value
    # must not be reported.
    inst = parse_instance(_example10(2))
    S, f = inst.point_set, inst.f
    wrong = _adds_one_at(target)
    monkeypatch.setattr(linalg, "_decomposition", wrong)
    solvers = {
        "geodesic": lambda: gs.solve_via_geodesics(S, f),
        "componentwise": lambda: gs.solve_componentwise(S, f),
        "boundary": lambda: gs.solve_with_boundary(S, f, inst.pins),
    }
    with pytest.raises(gs.VerificationError, match=f"^{message}$"):
        solvers[route]()


@pytest.mark.parametrize("route", ["geodesic", "componentwise"])
def test_wrong_block_value_is_caught(monkeypatch, route):
    # Both routes solve S once, pinned at the bases, with
    # `linalg._peeled_solution`.  The last column's value, which no pin
    # holds, off by one must not be reported: the split check must refuse
    # the split.
    inst = parse_instance(_example10(2))
    S, f = inst.point_set, inst.f
    real, solved = linalg._peeled_solution, []

    def wrong(rows, rhs, ncols):
        verdict, numerators, D = real(rows, rhs, ncols)
        solved.append(ncols)
        numerators[-1] += D
        return verdict, numerators, D

    monkeypatch.setattr(linalg, "_peeled_solution", wrong)
    solver = gs.solve_via_geodesics if route == "geodesic" else gs.solve_componentwise
    with pytest.raises(gs.VerificationError, match="^split does not reproduce f$"):
        solver(S, f)
    assert solved == [len(S.coordinates())]


def test_no_pinned_inverse_on_either_geodesic_route(monkeypatch):
    # The geodesic and componentwise routes read the matching order and
    # solve once, pinned at the bases, and the geodesic route's good-set
    # check is one rank of S; neither inverts a class or a geodesic, and
    # each runs `linalg._peeled_solution` exactly once.  Their splits equal
    # the direct solve pinned at the same base.  An inversion is a read
    # along the peel with rhs tags (count > 0); the refinement's kernel read
    # (count 0) still runs.
    real_read = linalg._peeled_read

    def no_inverse(rows, count, ncols):
        if count:
            raise AssertionError("a geodesic route inverted a pinned system")
        return real_read(rows, count, ncols)

    for module in (linalg, solve, structure):
        monkeypatch.setattr(module, "_peeled_read", no_inverse)
    real, peeled = linalg._peeled_solution, []

    def counted(rows, rhs, ncols):
        peeled.append(ncols)
        return real(rows, rhs, ncols)

    monkeypatch.setattr(linalg, "_peeled_solution", counted)
    rng = random.Random(131)
    full = [gs.full_closure(random_good_set(rng, random_space(rng), 8)) for _ in range(20)]
    full += [ex10(depth).point_set for depth in (1, 3)]
    for S in full:
        f, base = random_function(rng, S), rng.choice(S.points)
        pins = gs.PinSet.zeros([(i, base[i]) for i in range(S.space.n - 1)])
        peeled.clear()
        via = gs.solve_via_geodesics(S, f, base)
        assert len(peeled) == 1
        assert via.decomposition.tables == gs.solve_direct(S, f, pins).decomposition.tables
    for parts in (1, 2, 3):
        points, offsets = [], [0, 0, 0]
        for _ in range(parts):
            points += [tuple(o + v for o, v in zip(offsets, p)) for p in T4]
            offsets = [o + 2 for o in offsets]
        S = gs.PointSet.of(int_space(offsets), points)
        f = random_function(rng, S)
        peeled.clear()
        report = gs.solve_componentwise(S, f)
        assert len(peeled) == 1
        assert len(gs.related_components(S)) == parts
        assert all(report.decomposition.evaluate(p) == f(p) for p in S)


@pytest.mark.parametrize("solver", [gs.solve_via_geodesics, gs.solve_componentwise])
def test_geodesic_routes_require_f_on_exactly_the_set(solver):
    # f on a subset would miss a point of the dot products, and f on a
    # superset would be taken for a split of points outside the set.
    S = gs.PointSet.from_points([("a", "b"), ("a", "c"), ("b", "c")])
    assert gs.is_full(S)
    subset = gs.PointSet.of(S.space, S.points[:2])
    superset = S.union([("b", "b")])
    for domain in (subset, superset):
        f = gs.FunctionTable(domain, {p: 1 for p in domain})
        with pytest.raises(gs.PreconditionError) as err:
            solver(S, f)
        assert str(err.value) == "right-hand side must be total on the system's points"


def test_geodesic_matrix_rejects_sets_whose_base_pins_are_no_boundary():
    # The diagonal is good but not full (deficiency 4); a rectangle plus a
    # point with two fresh coordinates has deficiency n - 1 = 2 but a loop.
    bad = gs.PointSet.of(
        int_space((2, 3, 2)), [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 2, 1)]
    )
    assert bad.deficiency() == 2 and not gs.is_good(bad)
    for S in (cube_set(DIAGONAL), bad):
        with pytest.raises(gs.VerificationError, match="^geodesic system is not square"):
            gs.geodesic_matrix(S, S.points[0])


def test_componentwise_names_a_coordinate_two_components_hold():
    # Unions of 2-3 random full sets in n = 3 or 4 whose value ranges meet
    # in one value of one axis: each full set stays a component.
    rng = random.Random(113)
    for _ in range(40):
        n = rng.choice((3, 4))
        points, parts = [], rng.randint(2, 3)
        for _ in range(parts):
            F = gs.full_closure(random_good_set(rng, int_space([3] * n), 6))
            # F moves past every earlier label, except that its least label
            # on one axis lands on the largest earlier label there.
            top = [max((p[i] for p in points), default=-1) for i in range(n)]
            offsets = [t + 1 for t in top]
            shared = rng.randrange(n)
            offsets[shared] = max(top[shared], 0) - min(F.projection(shared))
            points += [tuple(o + v for o, v in zip(offsets, p)) for p in F]
        S = gs.PointSet.of(int_space([1 + max(p[i] for p in points) for i in range(n)]), points)
        comps = gs.related_components(S).components
        assert len(comps) == parts
        held = [c for c in S.coordinates() if sum(c in comp.coordinates() for comp in comps) > 1]
        with pytest.raises(gs.PreconditionError) as exc:
            gs.solve_componentwise(S, random_function(rng, S))
        assert str(exc.value) in {
            f"components share coordinate {c!r}; use the boundary method" for c in held
        }
