"""Acceptance criteria: one test per criterion, exact values, pinned limits.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime against the stated budget.
"""

import itertools
import random
import time
from fractions import Fraction

import goodsets as gs
from goodsets.instances import example_instance, parse_instance
from util import (
    E5,
    E5_PLUS,
    T4,
    bipartite_components,
    bipartite_is_forest,
    cube_set,
    oracle_zero_marginal_dependency,
    random_fraction,
    random_good_set,
    random_measure,
    random_point_set,
    random_space,
    int_space,
)


def _criterion(number, description, limit_s, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {number:02d} [{description}] FAIL")
        raise
    elapsed = time.monotonic() - start
    print(
        f"criterion {number:02d} [{description}] PASS"
        f" ({elapsed:.2f}s / limit {limit_s}s)"
    )
    assert elapsed < limit_s


def test_criterion_01_doubling_chain_reproduction():
    def body():
        for depth in range(1, 7):
            inst = parse_instance(example_instance(f"ex10_depth{depth}"))
            report = gs.solve_direct(inst.point_set, inst.f, inst.pins)
            assert report.verdict == "unique"
            d = report.decomposition
            assert d.value(0, "x0") == 0 and d.value(1, "y0") == 0
            assert d.value(2, "z0") == 1
            for n in range(1, depth + 1):
                assert d.value(0, f"x{n}") == -(2 ** (n - 1))
                assert d.value(1, f"y{n}") == -(2 ** (n - 1))
                assert d.value(2, f"z{n}") == 2 ** n

    _criterion(1, "doubling-chain exact solutions", 1.0, body)


def test_criterion_02_geodesic_distance_four():
    def body():
        S = cube_set(T4)
        for x, y in itertools.combinations(S.points, 2):
            g = gs.geodesic(S, x, y)  # checks that the result is full and holds its core
            assert g is not None and g.length == 4
            assert set(g.points) == set(S.points)

    _criterion(2, "T4 geodesic distance four", 1.0, body)


def test_criterion_03_loop_certification():
    def body():
        assert gs.is_good(cube_set(E5)).good
        verdict = gs.is_good(cube_set(E5_PLUS))
        assert not verdict.good
        loop = verdict.loop
        assert len(loop.points) == 5
        gs.verify_circuit(cube_set(E5_PLUS).space, loop)
        sums = {}
        for p, c in zip(loop.points, loop.coefficients):
            for coord in enumerate(p):
                sums[coord] = sums.get(coord, 0) + c
        assert all(v == 0 for v in sums.values())

    _criterion(3, "loop certification", 1.0, body)


def test_criterion_04_fullness_oracle_equivalence():
    def body():
        rng = random.Random(10_004)
        for _ in range(1000):
            space = random_space(rng, (2, 3, 4), max_axis=4)
            S = random_point_set(rng, space, 8)
            assert gs.is_full(S) == gs.is_full(S, definitional=True)

    _criterion(4, "fullness fast path vs definitional, 1000 instances", 60.0, body)


def test_criterion_05_geodesic_uniqueness():
    def body():
        rng = random.Random(10_005)
        pairs_checked = 0
        for _ in range(200):
            space = random_space(rng, (2, 3), max_axis=3)
            S = random_good_set(rng, space, 10)
            for x, y in itertools.combinations(S.points, 2):
                g = gs.geodesic(S, x, y)  # raises if minimal subset not unique
                if g is not None:
                    pairs_checked += 1
        assert pairs_checked > 200

    _criterion(5, "geodesic uniqueness on 200 good sets", 120.0, body)


def test_criterion_06_full_intersection_property():
    def body():
        rng = random.Random(10_006)
        qualifying = 0
        attempts = 0
        while qualifying < 500 and attempts < 50_000:
            attempts += 1
            space = random_space(rng, (2, 3), max_axis=3)
            S = gs.full_closure(random_good_set(rng, space, 6))
            if len(S) < 2:
                continue
            g1 = gs.geodesic(S, *rng.sample(S.points, 2))
            g2 = gs.geodesic(S, *rng.sample(S.points, 2))
            a, b = set(g1.points), set(g2.points)
            if not (a & b):
                continue
            union = gs.PointSet.of(S.space, sorted(a | b))
            if not gs.is_full(union):
                continue
            qualifying += 1
            inter = gs.PointSet.of(S.space, sorted(a & b))
            assert gs.is_full(inter)
        assert qualifying >= 500

    _criterion(6, "full intersections on 500 sampled pairs", 60.0, body)


def test_criterion_07_solver_round_trip_and_equivalence():
    def body():
        rng = random.Random(10_007)
        for _ in range(500):
            space = random_space(rng, (2, 3), max_axis=3)
            S = gs.full_closure(random_good_set(rng, space, 5))
            d = gs.Decomposition(
                space,
                tuple(
                    {v: random_fraction(rng) for v in S.projection(i)}
                    for i in range(space.n)
                ),
            )
            f = gs.FunctionTable.from_decomposition(S, d)
            # n-1 coordinates of distinct kinds form a boundary of a full set.
            pins = gs.PinSet(
                tuple(
                    ((i, S.projection(i)[0]), d.value(i, S.projection(i)[0]))
                    for i in range(1, space.n)
                )
            )
            direct = gs.solve_direct(S, f, pins)
            assert direct.verdict == "unique"
            assert direct.decomposition.tables == d.tables
            via_boundary = gs.solve_with_boundary(S, f, pins)
            assert via_boundary.decomposition.tables == d.tables
            base = S.points[0]
            zero_pins = gs.PinSet.zeros(
                [(i, base[i]) for i in range(space.n - 1)]
            )
            a = gs.solve_direct(S, f, zero_pins)
            b = gs.solve_via_geodesics(S, f, base)
            assert a.verdict == "unique"
            assert a.decomposition.tables == b.decomposition.tables

    _criterion(7, "solver round trip + method equivalence, 500 sets", 120.0, body)


def test_criterion_08_boundary_contract():
    def body():
        rng = random.Random(10_008)
        for _ in range(200):
            space = random_space(rng, (2, 3), max_axis=3)
            S = random_good_set(rng, space, 8)
            construction = gs.boundary(S)
            bound = construction.boundary
            # (a) at most one boundary point per chain class
            for i in range(space.n):
                for cls in construction.ei.classes_by_axis[i]:
                    hits = [c for c in bound if c[0] == i and c[1] in cls]
                    assert len(hits) <= 1
            # (b) arbitrary values + arbitrary f solve uniquely
            values = {c: random_fraction(rng) for c in bound}
            f = gs.FunctionTable(S, {p: random_fraction(rng) for p in S})
            out = gs.solve_pinned(
                gs.IncidenceSystem(S), f, gs.PinSet.of(values)
            )
            assert out.verdict == "unique"
            for coord, v in values.items():
                assert out.decomposition.value(*coord) == v
            # (c) no proper subset is a boundary
            for drop in bound:
                reduced = gs.PinSet.of(
                    {c: v for c, v in values.items() if c != drop}
                )
                weaker = gs.solve_pinned(gs.IncidenceSystem(S), f, reduced)
                assert weaker.verdict == "underdetermined"

    _criterion(8, "boundary contract on 200 good sets", 120.0, body)


def test_criterion_09_simplicial_equivalence():
    def body():
        rng = random.Random(10_009)
        shapes = [(2, 2, 2), (2, 2, 3), (3, 3), (3, 4), (2, 6), (2, 5), (2, 2)]
        checked = 0
        while checked < 100:
            space = int_space(rng.choice(shapes))
            S = random_point_set(rng, space, 8)
            m = random_measure(rng, S)
            verdict = gs.is_simplicial(m)
            dependency = oracle_zero_marginal_dependency(space, S.points)
            assert verdict.simplicial == (dependency is None)
            if not verdict.simplicial:
                base = gs.marginals(m)
                for sign in (+1, -1):
                    weights = verdict.perturbed(m, sign)
                    assert all(v >= 0 for v in weights.values())
                    assert sum(weights.values()) == 1
                    support = gs.PointSet.of(space, list(weights))
                    shifted = gs.marginals(gs.FiniteMeasure(support, weights))
                    for i in range(space.n):
                        for v in S.projection(i):
                            assert shifted.mass(i, v) == base.mass(i, v)
            checked += 1

    _criterion(9, "simplicial vs brute force, 100 measures", 120.0, body)


def test_criterion_10_full_split():
    def body():
        rng = random.Random(10_010)
        done = 0
        while done < 200:
            space = random_space(rng, (2, 3), max_axis=3)
            S = random_good_set(rng, space, 8)
            if gs.is_full(S):
                continue
            F = gs.full_split(S)
            remainder = F.difference(S.points)
            assert gs.is_full(F)
            assert gs.is_full(remainder)
            assert F.projections() == S.projections()
            assert len(remainder) == S.deficiency() - (space.n - 1)
            done += 1

    _criterion(10, "full split postconditions, 200 sets", 120.0, body)


def test_criterion_11_bipartite_consistency():
    def body():
        rng = random.Random(10_011)
        for _ in range(200):
            space = random_space(rng, (2,), max_axis=4)
            S = random_point_set(rng, space, 8)
            forest = bipartite_is_forest(S.points)
            assert gs.is_good(S).good == forest
            if forest:
                partition = gs.related_components(S)
                ours = sorted(frozenset(c.points) for c in partition.components)
                assert ours == bipartite_components(list(S.points))

    _criterion(11, "bipartite components and acyclicity, 200 instances", 60.0, body)
