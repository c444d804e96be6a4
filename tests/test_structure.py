import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goodsets as gs
from goodsets import structure
from goodsets.instances import _example10, parse_instance
from goodsets.linalg import _echelon
from util import (
    DIAGONAL,
    RECTANGLE,
    T4,
    bipartite_components,
    brute_force_components,
    brute_force_full_subsets,
    brute_force_geodesic,
    bipartite_is_forest,
    cube_set,
    fraction_signature_groups,
    geodesic_inverse_rows,
    greedy_maximal_cube,
    int_space,
    inverse_walk,
    pinned_inverse,
    pruned_tree_geodesic,
    pset,
    random_good_set,
    random_space,
    union_find_ei_classes,
)


def test_related_t4_all_pairs():
    S = cube_set(T4)
    for x, y in itertools.combinations(S.points, 2):
        assert gs.related(S, x, y)


def test_related_diagonal_false():
    S = cube_set(DIAGONAL)
    assert not gs.related(S, (0, 0, 0), (1, 1, 1))


def test_related_reflexive():
    S = cube_set(DIAGONAL)
    assert gs.related(S, (0, 0, 0), (0, 0, 0))


def test_related_requires_membership_and_goodness():
    S = cube_set(DIAGONAL)
    with pytest.raises(gs.PreconditionError):
        gs.related(S, (0, 0, 0), (0, 0, 1))
    with pytest.raises(gs.PreconditionError):
        gs.related(pset(RECTANGLE), ("a", "b"), ("c", "d"))


def test_geodesic_t4_is_whole_set():
    S = cube_set(T4)
    g = gs.geodesic(S, (1, 0, 1), (0, 0, 0))
    assert g.length == 4
    assert set(g.points) == set(S.points)


def test_geodesic_chain_n2():
    S = gs.PointSet.from_points([("a", "b"), ("c", "b"), ("c", "d")])
    g = gs.geodesic(S, ("a", "b"), ("c", "d"))
    assert g.length == 3
    assert set(g.points) == set(S.points)


def test_geodesic_unrelated_returns_none():
    S = cube_set(DIAGONAL)
    assert gs.geodesic(S, (0, 0, 0), (1, 1, 1)) is None


def test_geodesic_single_point():
    S = cube_set(T4)
    g = gs.geodesic(S, (0, 0, 0), (0, 0, 0))
    assert g.length == 1


def test_geodesic_uniqueness_sampled():
    rng = random.Random(31)
    for _ in range(20):
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 7)
        for x, y in itertools.combinations(S.points, 2):
            g = gs.geodesic(S, x, y)  # checks that the result is full and holds its core
            if g is not None:
                assert gs.is_full(g.points)
                assert x in g.points and y in g.points


def test_related_components_t4():
    assert len(gs.related_components(cube_set(T4))) == 1


def test_related_components_diagonal():
    partition = gs.related_components(cube_set(DIAGONAL))
    assert len(partition) == 2
    assert all(len(c) == 1 for c in partition.components)


def test_related_components_two_trees_n2():
    points = [("a", "b"), ("a", "d"), ("e", "f"), ("g", "f")]
    S = gs.PointSet.from_points(points)
    partition = gs.related_components(S)
    ours = sorted(frozenset(c.points) for c in partition.components)
    assert ours == bipartite_components(points)


def test_related_components_match_graph_on_random_forests():
    rng = random.Random(37)
    done = 0
    while done < 20:
        space = random_space(rng, (2,), max_axis=4)
        pts = random_good_set(rng, space, 7)
        assert bipartite_is_forest(pts.points)
        partition = gs.related_components(pts)
        ours = sorted(frozenset(c.points) for c in partition.components)
        assert ours == bipartite_components(list(pts.points))
        done += 1


def test_full_component_is_class():
    # A full pair plus a point sharing one coordinate kind with it.
    S = cube_set([(0, 0, 0), (1, 0, 0), (1, 1, 1)])
    comp = gs.full_component(S, (0, 0, 0))
    assert set(comp.points) == {(0, 0, 0), (1, 0, 0)}
    assert gs.is_full(comp)


def test_components_match_brute_force_subsets():
    rng = random.Random(59)
    multi = 0
    for _ in range(60):
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.choice((3, 4))))
        S = random_good_set(rng, int_space(sizes), 9)
        expected = brute_force_components(S.points)
        assert sorted(p for c in expected for p in c) == list(S.points)
        partition = gs.related_components(S)
        assert sorted(frozenset(c.points) for c in partition.components) == sorted(expected)
        for x in S:
            (cls,) = [c for c in expected if x in c]
            assert frozenset(gs.full_component(S, x).points) == cls
        multi += len(expected) > 1
    assert multi >= 25


def test_geodesics_match_brute_force_subsets():
    rng = random.Random(61)
    pairs = related_pairs = 0
    for _ in range(120):
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.choice((3, 4))))
        S = random_good_set(rng, int_space(sizes), 9)
        for x, y in itertools.combinations_with_replacement(S.points, 2):
            expected = brute_force_geodesic(S.points, x, y)
            assert gs.related(S, x, y) == bool(expected)
            g = gs.geodesic(S, x, y)
            if expected:
                assert len(expected) == 1
                assert frozenset(g.points.points) == expected[0]
                assert g.endpoints == (x, y)
            else:
                assert g is None
            pairs += 1
            related_pairs += bool(expected)
    assert pairs >= 1000 and 0 < related_pairs < pairs


def test_geodesics_lie_inside_every_full_subset():
    # Two full subsets of a good set that share a point meet in a full set,
    # so a geodesic lies inside every full subset through its endpoints, and
    # so does the core, the first layer of the inverse walk: x, y and the
    # points in the support of the class's pinned inverse's rows at y's
    # coordinates.
    rng = random.Random(67)
    pairs = completed = 0
    for _ in range(80):
        sizes = tuple(rng.randint(2, 4) for _ in range(rng.choice((3, 4))))
        S = random_good_set(rng, int_space(sizes), 9)
        full_subsets = brute_force_full_subsets(S.points)
        for x, y in itertools.combinations_with_replacement(S.points, 2):
            expected = brute_force_geodesic(S.points, x, y)
            if not expected:
                continue
            (g,) = expected
            for F in full_subsets:
                if x in F and y in F:
                    assert g <= F
            cls = gs.full_component(S, x)
            inverse = pinned_inverse(cls, x)
            weighted = (cls.points[k] for c in enumerate(y) for k in inverse[c])
            core = frozenset({x, y}.union(weighted))
            assert core <= g
            pairs += 1
            completed += core != g
    assert pairs >= 500 and completed > 0


def _rows_off_their_geodesics(S, base, held, inverse):
    """The points y whose held rows at y's coordinates differ from y's geodesic's own."""
    return [
        y
        for y in S
        if {c: held[c] for c in enumerate(y)} != geodesic_inverse_rows(S, base, y, inverse)
    ]


def test_held_inverse_rows_are_every_geodesics_rows():
    # The matching theorem in `structure`: for a full G in the class F
    # through the base, the pinned solve on G agrees with the one on F on
    # C(G).  So the rows of F's pinned
    # inverse at y's coordinates are those of y's geodesic's own inverse,
    # and zero off it.  A held row with one entry dropped must be caught at
    # every y that holds its coordinate.
    rng = random.Random(137)
    sets = [gs.full_closure(random_good_set(rng, random_space(rng), 8)) for _ in range(60)]
    sets += [parse_instance(_example10(depth)).point_set for depth in range(1, 9)]
    for S in sets:
        base = rng.choice(S.points)
        inverse = pinned_inverse(S, base)
        assert _rows_off_their_geodesics(S, base, inverse, inverse) == []
        coord = rng.choice([c for c, row in inverse.items() if row])
        dropped = dict(inverse[coord])
        del dropped[rng.choice(list(dropped))]
        mutant = {**inverse, coord: dropped}
        holders = [y for y in S if coord in enumerate(y)]
        assert _rows_off_their_geodesics(S, base, mutant, inverse) == holders


def _brute_force_class(S, x):
    return next(c for c in brute_force_components(S.points) if x in c)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 8))
def test_matching_order_matches_brute_force_subsets(seed, pick):
    # On random good sets of up to 9 points, the order from x gives every
    # geodesic g(x, z) that the subset search finds, None for an unrelated
    # z, and x's class; `related`, `geodesic` and `full_component` read it.
    rng = random.Random(seed)
    S = random_good_set(rng, random_space(rng), 9)
    x = S.points[pick % len(S)]
    _, closure = structure._order(S, x, "test")
    for z in S:
        expected = brute_force_geodesic(S.points, x, z)
        assert closure(z) == (expected[0] if expected else None)
        assert gs.related(S, x, z) == bool(expected)
        g = gs.geodesic(S, x, z)
        assert (g and frozenset(g.points)) == (expected[0] if expected else None)
    cls = _brute_force_class(S, x)
    assert frozenset(z for z in S if closure(z) is not None) == cls
    assert frozenset(gs.full_component(S, x)) == cls


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(8, 3), (5, 4)]))
def test_matching_order_matches_the_inverse_walk(seed, shape):
    # Greedy maximal sets in 8^3 and 5^4 are full and too large for the
    # subset search: each closure from the base must be the walk over the
    # set's pinned inverse, and the matching must send each point but the
    # base, injectively, to one of its own coordinates outside the base's.
    rng = random.Random(seed)
    S = greedy_maximal_cube(rng, *shape)
    x = rng.choice(S.points)
    match, closure = structure._order(S, x, None)
    inverse = pinned_inverse(S, x)
    for z in S:
        assert closure(z) == frozenset(inverse_walk(S, x, z, inverse))
    assert match[x] == (S.space.n - 1, x[-1])
    assert len(set(match.values())) == len(S)
    for p in S:
        assert p == x or (match[p] in set(enumerate(p)) - set(enumerate(x)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_peel_seeded_matching_order_matches_the_unseeded_one(seed):
    # With `what`, the good-set check's peel seeds the matching with its
    # steps off C(x).  On random good sets, n = 2-4, from every x: the
    # seeded order's closures are the unseeded order's for every z, and the
    # seeded match sends x to its last coordinate and every other point,
    # injectively, to one of its own coordinates outside C(x).
    rng = random.Random(seed)
    S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 9)
    for x in S:
        match, closure = structure._order(S, x, "test")
        _, unseeded = structure._order(S, x, None)
        assert [closure(z) for z in S] == [unseeded(z) for z in S]
        assert match[x] == (S.space.n - 1, x[-1])
        assert len(match) == len(set(match.values())) == len(S)
        for p in S:
            assert p == x or match[p] in set(enumerate(p)) - set(enumerate(x))


def test_matching_order_on_two_axes_is_the_tree_order():
    # For n = 2 a good set is a forest in the bipartite graph of its values:
    # x's class is x's tree, each block of the order is one point, and
    # g(x, z) is the least subtree holding x and z.
    rng = random.Random(139)
    for _ in range(40):
        S = random_good_set(rng, random_space(rng, (2,), max_axis=8), 14)
        trees = bipartite_components(list(S.points))
        x = rng.choice(S.points)
        tree = next(t for t in trees if x in t)
        _, closure = structure._order(S, x, None)
        assert frozenset(z for z in S if closure(z) is not None) == tree
        assert len({closure(z) for z in tree}) == len(tree)
        for z in tree:
            assert closure(z) == pruned_tree_geodesic(tree, x, z)


def test_ei_classes_single_component():
    S = cube_set(T4)
    ei = gs.ei_classes(S)
    for i in range(3):
        assert ei.classes_by_axis[i] == ((0, 1),)


def test_ei_classes_diagonal_singletons():
    S = cube_set(DIAGONAL)
    ei = gs.ei_classes(S)
    for i in range(3):
        assert ei.classes_by_axis[i] == ((0,), (1,))


def test_ei_classes_shared_axis():
    S = gs.PointSet.from_points([("a", "b", "c"), ("a", "B", "C")])
    ei = gs.ei_classes(S)
    assert ei.classes_by_axis[0] == (("a",),)
    assert len(ei.classes_by_axis[1]) == 2
    assert len(ei.classes_by_axis[2]) == 2


def test_ei_classes_refuses_a_partition_of_another_set():
    # The diagonal's partition holds two of T4's four points; the classes it
    # gave were the diagonal's.  A partition that repeats a point and
    # misses another fails too.
    S = cube_set(T4)
    with pytest.raises(gs.PreconditionError, match="partition"):
        gs.ei_classes(S, gs.related_components(cube_set(DIAGONAL)))
    repeated = gs.ComponentPartition((S.subset(S.points[:3]), S.subset(S.points[:1])))
    with pytest.raises(gs.PreconditionError, match="partition"):
        gs.ei_classes(S, repeated)
    assert gs.ei_classes(S, gs.related_components(S)) == gs.ei_classes(S)


def test_class_of_rejects_an_axis_outside_the_space():
    # Axis -1 would read axis 2's classes and axis 3 would leak an IndexError.
    S = cube_set(DIAGONAL)
    ei = gs.ei_classes(S)
    for axis in (-1, 3):
        with pytest.raises(gs.PreconditionError, match=r"outside range\(3\)"):
            ei.class_of(axis, 0)
    # A boundary holding an axis -1 coordinate fails at the class check,
    # before the rank test.
    c = gs.boundary(S)
    bound = ((-1, 0),) + c.boundary[1:]
    altered = gs.BoundaryConstruction(
        c.partition, c.cross_section, c.ei, c.generators,
        c.relations, c.pivot_generators, c.basis_generators, boundary=bound,
    )
    with pytest.raises(gs.PreconditionError, match=r"outside range\(3\)"):
        structure.verify_boundary(S, altered)


def test_ei_classes_match_the_union_find_reference():
    rng = random.Random(23)
    sets = [random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 10) for _ in range(200)]
    for d in range(1, 9):
        chain = parse_instance(_example10(d)).point_set
        sets.append(chain.difference([chain.points[len(chain) // 2]]))
    merged = 0
    for S in sets:
        ei = gs.ei_classes(S)
        assert ei == union_find_ei_classes(S)
        merged += any(len(classes) < len(S.projection(i)) for i, classes in enumerate(ei.classes_by_axis))
    # Most sets have a class of several values, so the merging is exercised.
    assert merged > len(sets) // 2


def test_boundary_t4():
    construction = gs.boundary(cube_set(T4))
    assert construction.generators == ((0, (0, 1)), (1, (0, 1)), (2, (0, 1)))
    assert construction.relations == ((0, 1, 2),)
    assert construction.pivot_generators == (0,)
    assert construction.basis_generators == (1, 2)
    assert construction.boundary == ((1, 0), (2, 0))


def test_boundary_diagonal():
    construction = gs.boundary(cube_set(DIAGONAL))
    assert len(construction.generators) == 6
    assert construction.relations == ((0, 2, 4), (1, 3, 5))
    assert construction.pivot_generators == (0, 1)
    assert construction.boundary == ((1, 0), (1, 1), (2, 0), (2, 1))


def test_boundary_single_tree_n2():
    S = gs.PointSet.from_points([("a", "b"), ("a", "d")])
    construction = gs.boundary(S)
    # One class per axis, one relation; the free column is the axis-2 class.
    assert len(construction.boundary) == 1
    axis, value = construction.boundary[0]
    assert axis == 1 and value == "b"


def test_boundary_class_intersection_and_size():
    rng = random.Random(41)
    for _ in range(20):
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        construction = gs.boundary(S)
        assert len(construction.boundary) == S.deficiency()
        # generator count minus relation rank gives the basis size
        assert len(construction.boundary) == len(construction.generators) - len(
            construction.pivot_generators
        )
        for i in range(S.space.n):
            for cls in construction.ei.classes_by_axis[i]:
                hits = [c for c in construction.boundary if c[0] == i and c[1] in cls]
                assert len(hits) <= 1
        # pinning the boundary kills the homogeneous kernel
        pins = construction.boundary_pins()
        assert gs.column_kernel(gs.IncidenceSystem(S), pins) == []


def test_boundary_requires_good():
    with pytest.raises(gs.PreconditionError):
        gs.boundary(pset(RECTANGLE))


def test_full_intersection_closure_sampled():
    # A, B, and their union full with nonempty intersection force a full
    # intersection.
    rng = random.Random(43)
    qualifying = 0
    attempts = 0
    while qualifying < 40 and attempts < 4000:
        attempts += 1
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 7)
        if len(S) < 2:
            continue
        x1, y1 = rng.sample(S.points, 2)
        x2, y2 = rng.sample(S.points, 2)
        g1 = gs.geodesic(S, x1, y1)
        g2 = gs.geodesic(S, x2, y2)
        if g1 is None or g2 is None:
            continue
        a, b = set(g1.points), set(g2.points)
        union = gs.PointSet.of(S.space, sorted(a | b))
        inter = a & b
        if not inter or not gs.is_full(union):
            continue
        qualifying += 1
        assert gs.is_full(gs.PointSet.of(S.space, sorted(inter)))
    assert qualifying >= 40


def test_union_of_overlapping_full_sets():
    # Two full subsets sharing at least n-1 coordinate kinds have a full
    # union whenever that union is good; inside a good set it always is.
    rng = random.Random(47)
    qualifying = 0
    attempts = 0
    while qualifying < 30 and attempts < 4000:
        attempts += 1
        S = random_good_set(rng, random_space(rng, (2, 3), max_axis=3), 7)
        if len(S) < 2:
            continue
        g1 = gs.geodesic(S, *rng.sample(S.points, 2))
        g2 = gs.geodesic(S, *rng.sample(S.points, 2))
        if g1 is None or g2 is None:
            continue
        shared_kinds = sum(
            1
            for i in range(S.space.n)
            if set(g1.points.projection(i)) & set(g2.points.projection(i))
        )
        if shared_kinds < S.space.n - 1:
            continue
        union = gs.PointSet.of(S.space, sorted(set(g1.points) | set(g2.points)))
        qualifying += 1
        assert gs.is_full(union)
    assert qualifying >= 30


def test_components_share_few_kinds():
    # Also asserted inside related_components; exercise it on samples.
    rng = random.Random(53)
    for _ in range(15):
        S = random_good_set(rng, random_space(rng, (3,), max_axis=3), 6)
        partition = gs.related_components(S)
        for a in range(len(partition)):
            for b in range(a + 1, len(partition)):
                shared = sum(
                    1
                    for i in range(S.space.n)
                    if set(partition.components[a].projection(i))
                    & set(partition.components[b].projection(i))
                )
                assert shared <= S.space.n - 2


def _pairwise_overshared(components, n):
    """Every pair of components, counting the axes on which they share a value."""
    kinds = [[{p[i] for p in comp} for i in range(n)] for comp in components]
    return any(
        sum(not va.isdisjoint(vb) for va, vb in zip(a, b)) > n - 2
        for a, b in itertools.combinations(kinds, 2)
    )


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_indexed_kind_check_matches_the_pairwise_one(rng):
    # Random component lists, not partitions of a good set, so that both
    # answers come up: the index by (axis, value) counts only the pairs
    # that share a value and must agree with the check of every pair.
    n = rng.randint(2, 4)
    values = rng.randint(1, 4)
    components = [
        [tuple(rng.randrange(values) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 6))
    ]
    assert structure._overshared(components, n) == _pairwise_overshared(components, n)


def _assert_class_invariants(S, partition):
    """Full classes (definitional check) that partition S, in least-point order."""
    classes = partition.components
    assert all(gs.is_full(c, definitional=True) for c in classes)
    assert sorted(p for c in classes for p in c) == sorted(S.points)
    keys = [S.space.point_key(c.points[0]) for c in classes]
    assert keys == sorted(keys)


def _chain_minus_middle(depth):
    S = parse_instance(_example10(depth)).point_set
    return S.difference([S.points[len(S) // 2]])


def test_chain_minus_middle_components_frontier():
    # 60 points in 46 classes, one kernel per split.
    S = _chain_minus_middle(20)
    start = time.monotonic()
    partition = gs.related_components(S)
    elapsed = time.monotonic() - start
    assert len(S) == 60 and len(partition) == 46
    _assert_class_invariants(S, partition)
    assert elapsed < 10
    small = _chain_minus_middle(4)
    ours = sorted(frozenset(c.points) for c in gs.related_components(small).components)
    assert ours == sorted(brute_force_components(small.points))


def test_doubling_chain_peel_frontier():
    # The d = 1,000 chain (3,001 points) peels to an empty core, so its rank,
    # alone or as `geodesic`'s good-set check, takes no elimination.  A
    # collection before each timed window keeps the cyclic collector's
    # schedule out of the budgets.
    S = parse_instance(_example10(1000)).point_set
    system = gs.IncidenceSystem(S)
    gc.collect()
    start = time.monotonic()
    g = gs.geodesic(S, S.points[0], S.points[-1])
    geodesic_s = time.monotonic() - start
    gc.collect()
    start = time.monotonic()
    r = gs.rank(system)
    rank_s = time.monotonic() - start
    assert len(S) == r == g.length == 3001
    assert g.points == S
    assert geodesic_s < 0.2
    assert rank_s < 0.1


def test_thinned_maximal_sets_components_frontier():
    # Maximal good sets in 6^4 (21 points) with random points removed.
    rng = random.Random(83)
    space = int_space((6, 6, 6, 6))
    elapsed = 0.0
    multi = 0
    for _ in range(20):
        maximal = gs.extend_to_maximal(random_good_set(rng, space, 21))
        assert len(maximal) == 21
        S = maximal.difference(rng.sample(maximal.points, rng.randint(3, 12)))
        start = time.monotonic()
        partition = gs.related_components(S)
        elapsed += time.monotonic() - start
        _assert_class_invariants(S, partition)
        multi += len(partition) > 1
    assert multi >= 10
    assert elapsed < 10


def _signature_inputs():
    """Random good sets, chains minus their middle point and thinned maximal sets."""
    rng = random.Random(89)
    sets = [
        random_good_set(rng, int_space(tuple(rng.randint(2, 5) for _ in range(n))), 12)
        for n in (2, 3, 4)
        for _ in range(60)
    ]
    sets += [_chain_minus_middle(depth) for depth in range(2, 9)]
    space = int_space((6, 6, 6, 6))
    for _ in range(20):
        maximal = gs.extend_to_maximal(random_good_set(rng, space, 21))
        sets.append(maximal.difference(rng.sample(maximal.points, rng.randint(3, 12))))
    return sets


def test_integer_signature_keys_match_fraction_kernel():
    # The integer keys must group the points as the Fraction kernel's
    # signatures do, group for group and in the same order, including where
    # a back-substituted row's pivot entry is above 1 and the key stands for
    # the column -row / row[p].  A key without its pivot entry would split
    # a pivot column from the free column it equals; one with the entry set
    # to 1 would not be caught, since K(G) holds the per-axis constants and
    # so no two coordinate columns are distinct positive multiples.
    inputs = _signature_inputs()
    assert len(inputs) >= 200
    largest_pivot = 0
    for G in inputs:
        assert structure._signature_groups(G) == fraction_signature_groups(G)
        system = gs.IncidenceSystem(G)
        basis = _echelon(system.sparse_rows, len(system.columns))
        basis.back_substitute()
        largest_pivot = max(largest_pivot, *(row[p] for p, row in basis.pivot_rows.items()))
    assert largest_pivot > 1
