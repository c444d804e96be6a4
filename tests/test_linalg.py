import gc
import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goodsets as gs
from goodsets import linalg
from goodsets.instances import _example10, parse_instance
from goodsets.linalg import (
    INCONSISTENT,
    UNIQUE,
    PinRow,
    _canonical_solution,
    _circuit,
    _decomposition,
    _is_boundary,
    _kernel_dicts,
    _peel,
    _peeled_rank,
    _peeled_read,
    _peeled_solution,
    _stack_pins,
    _witness,
)
from goodsets.model import _over_common_denominator
from util import (
    DIAGONAL,
    DenseRowBasis,
    E5_PLUS,
    RECTANGLE,
    T4,
    _rows,
    bipartite_is_forest,
    cube_set,
    greedy_maximal_cube,
    holder_list_peel,
    incidence_row,
    int_space,
    oracle_independent,
    oracle_is_boundary,
    oracle_rank,
    oracle_zero_marginal_dependency,
    pinned_inverse,
    pset,
    random_fraction,
    random_good_set,
    random_point_set,
    random_space,
    transposed_kernel_circuit,
    whole_system_circuit,
)


def test_rank_t4():
    S = cube_set(T4)
    assert gs.rank(gs.IncidenceSystem(S)) == 4
    assert oracle_rank(S.space, S.points) == 4


def test_rank_rectangle():
    S = pset(RECTANGLE)
    assert gs.rank(gs.IncidenceSystem(S)) == 3
    assert oracle_rank(S.space, S.points) == 3


def test_rank_single_row():
    S = cube_set([(1, 0, 1)])
    assert gs.rank(gs.IncidenceSystem(S)) == 1


def test_rank_matches_oracle_on_random_sets():
    rng = random.Random(7)
    for _ in range(40):
        pts = [
            tuple(rng.randint(0, 2) for _ in range(3))
            for _ in range(rng.randint(1, 7))
        ]
        S = pset(pts, sizes=(3, 3, 3))
        assert gs.rank(gs.IncidenceSystem(S)) == oracle_rank(S.space, S.points)


def test_rank_upper_bound_and_axis_constant_kernel():
    # The (n-1)-dimensional slack is witnessed by per-axis-constant vectors.
    rng = random.Random(11)
    for _ in range(20):
        pts = [
            tuple(rng.randint(0, 1) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        ]
        S = pset(pts, sizes=(2, 2, 2))
        system = gs.IncidenceSystem(S)
        n = S.space.n
        assert gs.rank(system) <= min(len(S), len(system.columns) - (n - 1))
        for i in range(n - 1):
            vec = {}
            for v in S.projection(i):
                vec[(i, v)] = Fraction(1)
            for v in S.projection(n - 1):
                vec[(n - 1, v)] = Fraction(-1)
            for row_point in S:
                pairing = sum(vec.get((k, label), 0) for k, label in enumerate(row_point))
                assert pairing == 0


def test_column_kernel_t4_pinned_is_trivial():
    S = cube_set(T4)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    assert gs.column_kernel(gs.IncidenceSystem(S), pins) == []


def test_column_kernel_t4_unpinned_axis_constants():
    S = cube_set(T4)
    kernel = gs.column_kernel(gs.IncidenceSystem(S))
    assert len(kernel) == 2
    for vec in kernel:
        constants = []
        for i in range(3):
            values = {vec.get((i, v), Fraction(0)) for v in S.projection(i)}
            assert len(values) == 1
            constants.append(values.pop())
        assert sum(constants) == 0


def test_column_kernel_diagonal_dimension():
    S = cube_set(DIAGONAL)
    assert len(gs.column_kernel(gs.IncidenceSystem(S))) == 4


def test_solve_pinned_unique_trivial():
    S = cube_set(T4)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    out = gs.solve_pinned(gs.IncidenceSystem(S), gs.FunctionTable.zero(S), pins)
    assert out.verdict == "unique"
    assert all(v == 0 for t in out.decomposition.tables for v in t.values())


def test_solve_pinned_inconsistent_with_witness():
    S = pset(RECTANGLE)
    f = gs.FunctionTable.indicator(S, ("a", "b"))
    out = gs.solve_pinned(gs.IncidenceSystem(S), f)
    assert out.verdict == "inconsistent"
    # The witness combination kills every column but pairs to a nonzero rhs.
    totals = {}
    rhs_total = Fraction(0)
    for label, coeff in out.witness:
        assert not isinstance(label, gs.linalg.PinRow)
        rhs_total += coeff * f(label)
        for coord in enumerate(label):
            totals[coord] = totals.get(coord, Fraction(0)) + coeff
    assert all(v == 0 for v in totals.values())
    assert rhs_total != 0


def test_solve_pinned_underdetermined():
    S = cube_set(T4)
    out = gs.solve_pinned(gs.IncidenceSystem(S), gs.FunctionTable.zero(S))
    assert out.verdict == "underdetermined"
    assert len(out.kernel) == 2


def test_solve_pinned_rejects_foreign_pin():
    S = cube_set(DIAGONAL)
    pins = gs.PinSet.zeros([(0, 0), (1, 1)])
    gs.solve_pinned(gs.IncidenceSystem(S), gs.FunctionTable.zero(S), pins)
    with pytest.raises(gs.PreconditionError):
        bad = gs.PinSet.zeros([(0, 7)])
        gs.solve_pinned(gs.IncidenceSystem(S), gs.FunctionTable.zero(S), bad)


def test_solutions_reproduce_rhs_exactly():
    rng = random.Random(13)
    for _ in range(30):
        pts = {
            tuple(rng.randint(0, 2) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        }
        S = pset(sorted(pts), sizes=(3, 3, 3))
        f = gs.FunctionTable(
            S, {p: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for p in S}
        )
        out = gs.solve_pinned(gs.IncidenceSystem(S), f)
        if out.verdict in ("unique", "underdetermined"):
            for p in S:
                assert out.decomposition.evaluate(p) == f(p)


def test_verdicts_exclusive_and_exhaustive():
    rng = random.Random(17)
    seen = set()
    for _ in range(60):
        pts = {
            tuple(rng.randint(0, 1) for _ in range(3))
            for _ in range(rng.randint(1, 6))
        }
        S = pset(sorted(pts), sizes=(2, 2, 2))
        f = gs.FunctionTable(S, {p: Fraction(rng.randint(-3, 3)) for p in S})
        out = gs.solve_pinned(gs.IncidenceSystem(S), f)
        seen.add(out.verdict)
        assert out.verdict in ("unique", "underdetermined", "inconsistent")
        assert (out.witness is not None) == (out.verdict == "inconsistent")
        assert (len(out.kernel) > 0) == (out.verdict == "underdetermined")
    assert "underdetermined" in seen and "inconsistent" in seen


def test_unique_iff_full_column_rank():
    S = cube_set(T4)
    system = gs.IncidenceSystem(S)
    pins = gs.PinSet.zeros([(0, 1), (1, 1)])
    assert gs.rank(system) + len(pins) == len(system.columns)
    out = gs.solve_pinned(system, gs.FunctionTable.zero(S), pins)
    assert out.verdict == "unique"


def test_in_span_examples():
    T = cube_set(T4)
    assert gs.in_span(gs.IncidenceSystem(T), gs.incidence_vector(T.space, (1, 1, 1)))
    D = cube_set(DIAGONAL)
    assert not gs.in_span(gs.IncidenceSystem(D), gs.incidence_vector(D.space, (0, 0, 1)))
    assert gs.in_span(gs.IncidenceSystem(D), gs.incidence_vector(D.space, (0, 0, 0)))
    with pytest.raises(gs.PreconditionError):
        gs.in_span(gs.IncidenceSystem(D), {(0, 9): 1})


def test_in_span_names_a_bad_key_before_a_bad_value():
    # Every key and every value is read before any arithmetic, item by item,
    # each key before its value: a key that is no pair or no column is
    # named even when its value is no rational, and a bad value is named
    # before a later item's bad key.
    system = gs.IncidenceSystem(cube_set(T4))
    for vector, message in (
        ({(0, 9): "abc"}, "coordinate (0, 9) is not a column of the system"),
        ({5: "abc"}, "coordinate 5 is not an (axis, label) pair"),
        ({(0, 0): "abc", (0, 9): 1}, "not an exact rational: 'abc'"),
        ({(0, 0): 1, (1, 0): [1], (0, 9): 1}, "not an exact rational: [1]"),
    ):
        with pytest.raises(gs.PreconditionError) as exc:
            gs.in_span(system, vector)
        assert str(exc.value) == message


def test_in_span_refuses_a_coordinate_given_twice():
    # Any 2-item iterable reads as a coordinate, so the bytes key b'\x00\x00'
    # is (0, 0) again; keeping either entry would make the answer depend on
    # which, so the second is refused, named as read, before its value is.
    system = gs.IncidenceSystem(pset([(0, 0), (1, 1)]))
    for vector in (
        {(0, 0): 1, b"\x00\x00": 0, (1, 0): 1},
        {(0, 0): 1, b"\x00\x00": "abc"},
    ):
        with pytest.raises(gs.PreconditionError) as exc:
            gs.in_span(system, vector)
        assert str(exc.value) == "coordinate (0, 0) is given twice"


def _span_input(kind, rng) -> gs.PointSet:
    """A set for the span test.

    Random point sets, good or not, and random good sets; doubling chains
    (d = 1-8) less some points; greedy maximal sets in 4^3-6^3 less up to a
    third of their points, which keep a 2-core.
    """
    if kind == "random":
        space = random_space(rng, max_axis=4)
        if rng.random() < 0.5:
            return random_point_set(rng, space, 12)
        return random_good_set(rng, space, 9)
    if kind == "chain":
        chain = parse_instance(_example10(rng.randint(1, 8))).point_set
        return chain.difference(rng.sample(chain.points, rng.randint(0, len(chain) // 2)))
    greedy = greedy_maximal_cube(rng, rng.randint(4, 6))
    return greedy.difference(rng.sample(greedy.points, rng.randint(0, len(greedy) // 3)))


def _span_vectors(S: gs.PointSet, rng) -> list[dict]:
    """{}, incidence vectors of points of the product of S's projections,
    rational combinations of S's rows, and random sparse rationals on its
    columns, some written as strings."""
    columns = S.coordinates()
    vectors = [{}]
    for _ in range(2):
        point = tuple(rng.choice(values) for values in S.projections())
        vectors.append(gs.incidence_vector(S.space, point))
    for _ in range(2):
        combination = {}
        for point in rng.sample(S.points, rng.randint(1, len(S))):
            c = random_fraction(rng)
            for coord in enumerate(point):
                combination[coord] = combination.get(coord, 0) + c
        vectors.append(combination)
    for _ in range(2):
        keys = rng.sample(columns, rng.randint(1, min(4, len(columns))))
        vectors.append({c: str(random_fraction(rng)) for c in keys})
    return vectors


def _assert_span(S: gs.PointSet, rng) -> Counter:
    """Check `in_span` on S's `_span_vectors` and tally what was read.

    Each answer is the one-elimination answer, `RowBasis.contains_sparse`
    over `_echelon` of S's rows, and sympy's: v is in the span exactly when
    appending it keeps the rank.
    """
    system = gs.IncidenceSystem(S)
    ncols = len(system.columns)
    rows = [[row.get(j, 0) for j in range(ncols)] for row in system.sparse_rows]
    rank = _sympy_rank(rows)
    basis = linalg._echelon(system.sparse_rows, ncols)
    core = bool(_peel(system.sparse_rows, ncols)[2])
    tally = Counter()
    for vector in _span_vectors(S, rng):
        entries = {system.col_index[c]: Fraction(x) for c, x in vector.items() if Fraction(x)}
        numerators, _ = _over_common_denominator(entries.values())
        dense = [0] * ncols
        for j, a in zip(entries, numerators):
            dense[j] = a
        inside = _sympy_rank(rows + [dense]) == rank
        assert basis.contains_sparse(dict(zip(entries, numerators))) == inside
        assert gs.in_span(system, vector) == inside, (S.points, vector)
        tally["inside" if inside else "outside"] += 1
        tally["not good"] += rank < len(S)
        tally["core"] += core
    return tally


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(("random", "chain", "greedy")), rng=st.randoms(use_true_random=False))
def test_span_test_along_the_peel_matches_the_echelon_and_sympy(kind, rng):
    # `in_span` reads each column's functional on the column kernel with one
    # count-0 read along the peel: v is in the row span exactly when its
    # combination of them vanishes.  On sets good or not, chains less some
    # points and greedy sets with a 2-core, it answers as the echelon and
    # sympy do (`_assert_span`).
    _assert_span(_span_input(kind, rng), rng)


def test_span_property_reaches_vectors_outside_and_sets_that_are_not_good():
    # The span property's inputs, drawn from fixed seeds, hold at least 100
    # vectors outside the span and at least 50 read on sets that are not
    # good, where the read is never refused.
    tally = Counter()
    for seed in range(40):
        for kind in ("random", "chain", "greedy"):
            rng = random.Random(seed)
            tally.update(_assert_span(_span_input(kind, rng), rng))
    assert tally["outside"] >= 100 and tally["not good"] >= 50 and tally["inside"] >= 100, tally
    assert tally["core"] >= 50, tally


def test_span_test_frontier(monkeypatch):
    # The d = 1,000 chain (3,001 points) peels to nothing, so `in_span`
    # reads its kernel functionals with no elimination at all, where an
    # echelon of all 3,001 rows takes about 2 s.  The chain is full,
    # so its kernel holds only the shifts between axes: every point of the
    # product of its projections is in the span, and no unit vector is.
    S = parse_instance(_example10(1000)).point_set
    assert len(S) == 3001 and S.deficiency() == S.space.n - 1
    system = gs.IncidenceSystem(S)
    first, last = S.points[0], S.points[-1]
    real, eliminations = linalg._echelon, []

    def counted(rows, ncols):
        eliminations.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    for vector, inside in (
        (gs.incidence_vector(S.space, last), True),
        (gs.incidence_vector(S.space, (first[0], last[1], first[2])), True),
        ({(0, first[0]): 1}, False),
    ):
        gc.collect()
        start = time.monotonic()
        answer = gs.in_span(system, vector)
        elapsed = time.monotonic() - start
        assert answer == inside and elapsed < 0.3
    assert eliminations == []


def test_extract_circuit_rectangle():
    S = pset(RECTANGLE)
    circuit = gs.extract_circuit(S.space, S.points)
    assert circuit.points == (("a", "b"), ("a", "d"), ("c", "b"), ("c", "d"))
    assert circuit.coefficients == (1, -1, -1, 1)
    gs.verify_circuit(S.space, circuit)


def test_extract_circuit_e5_plus():
    S = cube_set(E5_PLUS)
    circuit = gs.extract_circuit(S.space, S.points)
    by_point = dict(zip(circuit.points, circuit.coefficients))
    assert by_point == {
        (0, 0, 0): 2,
        (1, 0, 0): -1,
        (0, 1, 0): -1,
        (0, 0, 1): -1,
        (1, 1, 1): 1,
    }
    gs.verify_circuit(S.space, circuit)
    # Brute-force minimality: every proper subset is independent.
    for p in circuit.points:
        rest = [q for q in circuit.points if q != p]
        assert oracle_independent(S.space, rest)
    # The oracle's coefficient vector agrees up to normalization.
    oracle = oracle_zero_marginal_dependency(S.space, circuit.points)
    scale = oracle[0] / circuit.coefficients[0]
    assert [c * scale for c in circuit.coefficients] == oracle


def test_extract_circuit_prunes_to_rectangle():
    space = gs.Space.of(("x", ("a", "c", "e")), ("y", ("b", "d", "f")))
    points = [("a", "b"), ("a", "d"), ("c", "b"), ("c", "d"), ("e", "f")]
    circuit = gs.extract_circuit(space, points)
    assert set(circuit.points) == {("a", "b"), ("a", "d"), ("c", "b"), ("c", "d")}


def test_extract_circuit_requires_dependence():
    S = cube_set([(0, 0, 0), (1, 1, 1)])
    with pytest.raises(gs.PreconditionError):
        gs.extract_circuit(S.space, S.points)


def test_extract_circuit_random_certificates():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.choice((2, 3))
        pts = sorted(
            {
                tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(3, 8))
            }
        )
        S = pset(pts, sizes=(3,) * n)
        if oracle_independent(S.space, S.points):
            continue
        circuit = gs.extract_circuit(S.space, S.points)
        gs.verify_circuit(S.space, circuit)
        done += 1


def _two_rectangles():
    space = int_space((4, 4))
    points = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    return space, points


def test_verify_circuit_rejects_union_of_two_circuits():
    # Cancels with every coefficient nonzero and normalized, but each
    # rectangle alone is a circuit.
    space, points = _two_rectangles()
    vector = gs.CircuitVector(points, (1, -1, -1, 1, 1, -1, -1, 1))
    with pytest.raises(gs.VerificationError, match="not minimal"):
        gs.verify_circuit(space, vector)
    gs.verify_circuit(space, gs.CircuitVector(points[:4], (1, -1, -1, 1)))


def test_verify_circuit_rejects_zero_coefficient():
    space, points = _two_rectangles()
    vector = gs.CircuitVector(points[:5], (1, -1, -1, 1, 0))
    with pytest.raises(gs.VerificationError, match="zero coefficient"):
        gs.verify_circuit(space, vector)


def test_verify_circuit_rejects_non_cancelling_vector():
    space, points = _two_rectangles()
    vector = gs.CircuitVector(points[:4], (1, -1, 1, -1))
    with pytest.raises(gs.VerificationError, match="do not cancel"):
        gs.verify_circuit(space, vector)


@pytest.mark.parametrize("coefficients", [(2, -2, -2, 2), (-1, 1, 1, -1)])
def test_verify_circuit_rejects_non_normalized_vector(coefficients):
    space, points = _two_rectangles()
    vector = gs.CircuitVector(points[:4], coefficients)
    with pytest.raises(gs.VerificationError, match="not normalized"):
        gs.verify_circuit(space, vector)


def test_verify_circuit_rejects_repeated_point():
    # One point listed twice cancels, is normalized, and its two equal rows
    # have rank 1 = 2 - 1; only the repeat gives it away.
    space = gs.Space.of(("x", ("a",)), ("y", ("c",)))
    vector = gs.CircuitVector((("a", "c"), ("a", "c")), (1, -1))
    with pytest.raises(gs.VerificationError, match="repeats a point"):
        gs.verify_circuit(space, vector)


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(("dense-subset", "closed-chain", "maximal-plus-one")),
    rng=st.randoms(use_true_random=False),
)
def test_verify_circuit_reads_points_in_any_order(kind, rng):
    # The rows are sorted by the keys read with the points, so any order of
    # the (point, coefficient) pairs is the same circuit; the first pair is
    # kept positive, as normalization asks.
    S = _scan_input(kind, rng)
    loop = gs.is_good(S).loop
    assume(loop is not None)
    pairs = list(zip(loop.points, loop.coefficients))
    first = rng.choice([pair for pair in pairs if pair[1] > 0])
    pairs.remove(first)
    rng.shuffle(pairs)
    points, coefficients = zip(first, *pairs)
    gs.verify_circuit(S.space, gs.CircuitVector(points, coefficients))
    # A repeat, also spelled as a list, is found once the lengths align.
    k = rng.randrange(len(points))
    for repeat in (points[k], list(points[k])):
        repeated = gs.CircuitVector(points + (repeat,), coefficients + (coefficients[k],))
        with pytest.raises(gs.VerificationError, match="repeats a point"):
            gs.verify_circuit(S.space, repeated)
        short = gs.CircuitVector(points + (repeat,), coefficients)
        with pytest.raises(gs.VerificationError, match="do not align"):
            gs.verify_circuit(S.space, short)


def _deletion_loop_support(space, points):
    """Oracle: shrink to a circuit by the deletion loop, dependence by sympy rank.

    Scan the support in canonical order, drop the first point whose removal
    keeps the rest dependent, and restart until no point can be dropped.
    """
    support = sorted(set(points), key=space.point_key)
    changed = True
    while changed:
        changed = False
        for p in support:
            rest = [q for q in support if q != p]
            if not oracle_independent(space, rest):
                support = rest
                changed = True
                break
    return support


def test_extract_circuit_matches_deletion_loop():
    rng = random.Random(37)
    done = 0
    while done < 40:
        sizes = tuple(rng.randint(2, 3) for _ in range(rng.choice((2, 3, 4))))
        space = int_space(sizes)
        product = list(space.all_points())
        S = gs.PointSet.of(space, rng.sample(product, rng.randint(3, min(9, len(product)))))
        if oracle_independent(space, S.points):
            continue
        circuit = gs.extract_circuit(space, S.points)
        assert list(circuit.points) == _deletion_loop_support(space, S.points)
        assert gs.is_good(S).loop == circuit
        null = oracle_zero_marginal_dependency(space, circuit.points)
        ratio = circuit.coefficients[0] / null[0]
        assert [ratio * c for c in null] == list(circuit.coefficients)
        done += 1


def _closed_chain(d):
    chain = parse_instance(_example10(d)).point_set
    return chain.union([(f"x{d}", "y0", f"z{d}")])


def _tagged_circuit_inputs():
    """Dependent sets: random ones for n = 2, 3, 4, closed chains, maximal plus one."""
    rng = random.Random(41)
    sets = []
    for n in (2, 3, 4):
        found = 0
        while found < 40:
            space = int_space(tuple(rng.randint(2, 4) for _ in range(n)))
            product = list(space.all_points())
            S = gs.PointSet.of(space, rng.sample(product, rng.randint(2, min(14, len(product)))))
            if not oracle_independent(space, S.points):
                sets.append(S)
                found += 1
    sets += [_closed_chain(d) for d in range(6, 15)]
    for sizes in ((4, 4, 4), (6, 6, 6), (8, 8, 8), (3, 3, 3, 3)):
        space = int_space(sizes)
        for _ in range(3):
            M = gs.extend_to_maximal(random_good_set(rng, space, 3))
            extra = rng.choice([p for p in space.all_points() if p not in M])
            sets.append(M.union([extra]))
    return sets


def test_tagged_circuit_matches_transposed_kernel():
    magnitudes = set()
    for S in _tagged_circuit_inputs():
        want = transposed_kernel_circuit(S)
        assert want is not None
        assert gs.is_good(S).loop == want
        assert gs.extract_circuit(S.space, S.points) == want
        magnitudes.update(map(abs, want.coefficients))
    assert max(magnitudes) > 1
    # The closed chain of depth d has coefficients up to 2^(d - 1).
    for d, top in ((6, 32), (10, 512), (14, 8192)):
        assert max(map(abs, transposed_kernel_circuit(_closed_chain(d)).coefficients)) == top


def _scan_input(kind, rng) -> gs.PointSet:
    """One set of the kind: a random dense subset, a closed chain, a maximal
    set plus one point, or a random good set."""
    if kind == "closed-chain":
        return _closed_chain(rng.randint(1, 14))
    space = random_space(rng, max_axis=6)
    product = list(space.all_points())
    if kind == "dense-subset":
        return gs.PointSet.of(space, rng.sample(product, rng.randint(1, min(150, len(product)))))
    S = random_good_set(rng, space, 12)
    if kind == "good":
        return S
    M = gs.extend_to_maximal(S)
    return M.union(rng.sample([p for p in product if p not in M], min(1, len(product) - len(M))))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("dense-subset", "closed-chain", "maximal-plus-one", "good")),
    rng=st.randoms(use_true_random=False),
)
def test_lazy_scan_matches_whole_system_scan(kind, rng):
    S = _scan_input(kind, rng)
    want = whole_system_circuit(S)
    assert _circuit(S) == want
    assert gs.is_good(S).loop == want
    if kind != "dense-subset":
        assert (want is None) == oracle_independent(S.space, S.points)


def test_the_scan_reads_no_projections():
    # The scan finds each coordinate's column from the space, so neither a
    # good set nor one that is not good has its projections computed.
    space = int_space((40, 40, 40))
    for points in ([(0, 0, 0), (1, 1, 1), (0, 1, 2)], space.all_points()):
        S = gs.PointSet.of(space, points)
        gs.is_good(S)
        assert "_projections" not in vars(S)


def test_closed_chain_loop_frontier():
    # The closed chain of depth 200 (602 points) holds one loop through all
    # but one of its points, with coefficients up to 2^199.  The scan reads
    # it off its one tagged elimination, and `verify_circuit` ranks the
    # loop's rows in the scan's order.
    S = _closed_chain(200)
    gc.collect()
    start = time.monotonic()
    loop = gs.is_good(S).loop
    elapsed = time.monotonic() - start
    assert len(S) == 602 and len(loop) == 601
    assert max(map(abs, loop.coefficients)) == 2**199
    gs.verify_circuit(S.space, loop)
    assert elapsed < 0.15


def test_good_set_scan_frontier():
    # A set that may be good is scanned untagged: tags carried to the end of
    # the scan would cost the d = 1,000 chain (3,001 points) and a 598-point
    # greedy maximal set several times the scan itself.
    chain = parse_instance(_example10(1000)).point_set
    greedy = greedy_maximal_cube(random.Random(83), 200)
    for S, budget in ((chain, 0.1), (greedy, 0.2)):
        gc.collect()
        start = time.monotonic()
        verdict = gs.is_good(S)
        elapsed = time.monotonic() - start
        assert verdict.good and verdict.loop is None
        assert elapsed < budget


def _peel_input(kind, rng) -> gs.PointSet:
    """A random sparse set, a dense subset, or a doubling chain: whole, closed or thinned."""
    if kind == "chain":
        d = rng.randint(1, 9)
        S = parse_instance(_example10(d)).point_set
        shape = rng.choice(("whole", "closed", "thinned"))
        if shape == "closed":
            return _closed_chain(d)
        if shape == "thinned":
            return S.difference(rng.sample(S.points, rng.randint(1, len(S) - 1)))
        return S
    space = random_space(rng, max_axis=5)
    product = list(space.all_points())
    if kind == "dense":
        top = min(60, len(product))
        k = rng.randint(min(top, (len(product) + 1) // 2), top)
        return gs.PointSet.of(space, rng.sample(product, k))
    return gs.PointSet.of(space, rng.sample(product, rng.randint(1, min(12, len(product)))))


def _assert_two_core(rows, steps, core):
    """On incidence rows: each step takes its own column, each row is a step
    or in the core, and the core is a 2-core: every core row keeps two live
    columns, and no live column is private."""
    assert len({j for _, j in steps}) == len(steps)
    assert sorted([*core, *(k for k, _ in steps)]) == list(range(len(rows)))
    dead = {j for _, j in steps}
    for k, row in core.items():
        assert row == {j: x for j, x in rows[k].items() if j not in dead}
        assert len(row) >= 2
    held = Counter(j for row in core.values() for j in row)
    assert all(c >= 2 for c in held.values())


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("random", "dense", "chain")), rng=st.randoms(use_true_random=False))
def test_peeled_rank_matches_sympy(kind, rng):
    # The rank is the peel's step count plus the core's elimination; sympy
    # ranks the dense rows over every coordinate of the space.
    S = _peel_input(kind, rng)
    system = gs.IncidenceSystem(S)
    forward, backward, core, _ = _peel(system.sparse_rows, len(system.columns))
    _assert_two_core(system.sparse_rows, forward + backward, core)
    assert gs.rank(system) == oracle_rank(S.space, S.points)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("random", "good", "chain")), rng=st.randoms(use_true_random=False))
def test_peeled_boundary_test_matches_sympy(kind, rng):
    # The pins stacked under S's rows are unit rows, which the peel's second
    # rule collapses; a pin repeated leaves a zero row behind.
    if kind == "good":
        S = random_good_set(rng, random_space(rng, max_axis=4), 9)
    else:
        S = _peel_input(kind, rng)
    system = gs.IncidenceSystem(S)
    columns = list(system.columns)
    d = len(columns) - len(S)
    candidates = [rng.choices(columns, k=max(d, 0))]
    candidates += [rng.sample(columns, k) for k in (d - 1, d, d + 1) if 0 <= k <= len(columns)]
    if gs.is_good(S):
        candidates.append(gs.boundary(S).boundary)
    for coords in candidates:
        assert _is_boundary(system, coords) == oracle_is_boundary(S, coords), (S.points, coords)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("dense-subset", "closed-chain", "maximal-plus-one")),
    rng=st.randoms(use_true_random=False),
)
def test_every_loop_lies_in_the_core(kind, rng):
    S = _scan_input(kind, rng)
    assume(not gs.is_good(S))
    circuit = gs.extract_circuit(S.space, S.points)
    system = gs.IncidenceSystem(S)
    core = _peel(system.sparse_rows, len(system.columns))[2]
    assert set(circuit.points) <= {S.points[k] for k in core}


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_two_fold_core_is_empty_exactly_on_forests(rng):
    # For n = 2 a private coordinate is a leaf of the bipartite graph, so
    # the peel strips leaves, and only a forest strips to nothing.
    space = int_space((rng.randint(1, 6), rng.randint(1, 6)))
    product = list(space.all_points())
    S = gs.PointSet.of(space, rng.sample(product, rng.randint(1, min(10, len(product)))))
    system = gs.IncidenceSystem(S)
    forward, backward, core, _ = _peel(system.sparse_rows, len(system.columns))
    assert (not core) == bipartite_is_forest(S.points) == (len(forward) + len(backward) == len(S))


def _solve_input(kind, rng) -> gs.PointSet:
    """A `_peel_input` set, or a greedy maximal set of up to 19 points in k^3 or 4^4."""
    if kind != "greedy":
        return _peel_input(kind, rng)
    if rng.random() < 0.3:
        return greedy_maximal_cube(rng, 4, 4)
    return greedy_maximal_cube(rng, rng.randint(2, 7))


def _pin_lists(S: gs.PointSet, system, rng) -> list[list]:
    """Coordinate lists to pin: random ones of def(S) - 1, def(S) and def(S) + 1
    coordinates, one with repeats, a base point's first n - 1, the boundary
    of a good S, and that boundary with one coordinate pinned twice."""
    columns = list(system.columns)
    d = len(columns) - len(S)
    lists = [rng.choices(columns, k=max(d, 1))]
    lists += [rng.sample(columns, k) for k in (d - 1, d, d + 1) if 0 <= k <= len(columns)]
    lists.append([(i, rng.choice(S.points)[i]) for i in range(S.space.n - 1)])
    if gs.is_good(S):
        bound = list(gs.boundary(S).boundary)
        lists += [bound, bound + [rng.choice(bound or columns)]]
    return lists


def _sympy_rank(A) -> int:
    """The rank over ZZ of a dense integer matrix given as a list of rows."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    return DomainMatrix.from_list(A, ZZ).rank()


def _sympy_verdict(rows, rhs, ncols) -> str:
    """The verdict of rows . x = rhs from sympy ranks of the matrix and the augmented one.

    The rhs is scaled to integers, which keeps both ranks, so sympy ranks over ZZ.
    """
    scale = lcm(*(b.denominator for b in rhs))
    A = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    rank = _sympy_rank(A)
    augmented = [a + [int(b * scale)] for a, b in zip(A, rhs)]
    if _sympy_rank(augmented) > rank:
        return "inconsistent"
    return "unique" if rank == ncols else "underdetermined"


def _stacked_systems(kind, rng):
    """(rows, ncols): a `_solve_input` set's rows over each of its `_pin_lists`,
    stacked, with up to two zero rows put in at random."""
    S = _solve_input(kind, rng)
    system = gs.IncidenceSystem(S)
    for coords in _pin_lists(S, system, rng):
        rows = _stack_pins(system, coords)
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), {})
        yield rows, len(system.columns)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("random", "dense", "chain", "greedy")),
    rng=st.randoms(use_true_random=False),
)
def test_holder_sum_peel_matches_the_holder_list_peel(kind, rng):
    # Stacked pins, a repeated one among them, and zero rows put in at
    # random: the peel that reads a private column's holder off the holder
    # sum, and builds holder lists only for the second rule, takes as many
    # steps as the holder-list oracle and leaves the same core; each of its
    # steps takes a column of its own, held by its row; and its rank is
    # sympy's.
    for rows, ncols in _stacked_systems(kind, rng):
        forward, backward, core, _ = _peel(rows, ncols)
        steps = forward + backward
        oracle_steps, oracle_core = holder_list_peel(rows, ncols)
        assert len(steps) == len(oracle_steps) and core == oracle_core
        assert len({j for _, j in steps}) == len({k for k, _ in steps}) == len(steps)
        assert all(j in rows[k] for k, j in steps)
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        assert _peeled_rank(rows, ncols)[0] == _sympy_rank(dense)


def _assert_sorted_peel(rows, ncols, forward, backward, core, dropped):
    """The order the readers follow: every other column of a forward step's
    row went in an earlier forward step, so its value is known when the
    step is read; every other column of a backward step's row is a forward
    column, a core column or the column of a later backward step, read
    before it in reverse step order, or an idle column, one that no step
    takes and no core row holds, which only a system the readers' count
    refuses has; a core row's removed columns and a dropped row's columns
    are all forward; and every row is a step, a core row or dropped."""
    known = set()
    for k, j in forward:
        assert set(rows[k]) - {j} <= known
        known.add(j)
    held = {j for row in core.values() for j in row}
    idle = set(range(ncols)) - known - held - {j for _, j in backward}
    assert (not idle) == (len(forward) + len(backward) + len(held) == ncols)
    later = set()
    for k, j in reversed(backward):
        assert set(rows[k]) - {j} <= known | held | later | idle
        later.add(j)
    assert all(set(rows[k]) - set(row) <= known for k, row in core.items())
    assert all(set(rows[k]) <= known for k in dropped)
    stepped = [k for k, _ in forward + backward]
    assert sorted([*stepped, *core, *dropped]) == list(range(len(rows)))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(("random", "dense", "chain", "greedy")),
    rng=st.randoms(use_true_random=False),
)
def test_peel_sorts_its_steps_into_forward_and_backward(kind, rng):
    # On the holder-sum peel's inputs (stacked pins, a repeated pin, zero
    # rows), the steps come sorted in the order the readers follow
    # (`_assert_sorted_peel`); forward and backward steps number the
    # holder-list oracle's steps, and the core is the oracle's.
    # `test_peeled_solve_by_hand` shows that a peel marking every step
    # forward fails the order.
    for rows, ncols in _stacked_systems(kind, rng):
        forward, backward, core, dropped = _peel(rows, ncols)
        _assert_sorted_peel(rows, ncols, forward, backward, core, dropped)
        oracle_steps, oracle_core = holder_list_peel(rows, ncols)
        assert len(forward) + len(backward) == len(oracle_steps) and core == oracle_core


@settings(max_examples=200, deadline=None)
@given(labels=st.sampled_from(("int", "str")), rng=st.randoms(use_true_random=False))
def test_incidence_rows_match_the_coordinate_lookup_reference(labels, rng):
    # `IncidenceSystem` numbers S's coordinates and builds each point's row
    # with `linalg._incidence_row`, the one row builder, which the scan,
    # `is_full` and `boundary` share.  Against rows built from the
    # definition, over `S.coordinates()`, the columns, the column index and
    # the rows agree, key order included, with int labels and with shuffled
    # string labels.
    space = random_space(rng, max_axis=5)
    if labels == "str":
        names = [[f"v{rng.randrange(99)}-{k}" for k in range(len(ax.values))] for ax in space.axes]
        for values in names:
            rng.shuffle(values)
        space = gs.Space.of(*((ax.name, values) for ax, values in zip(space.axes, names)))
    S = random_point_set(rng, space, 14)
    system = gs.IncidenceSystem(S)
    col_index = {c: j for j, c in enumerate(S.coordinates())}
    reference = [incidence_row(p, col_index) for p in S]
    assert system.columns == S.coordinates()
    assert list(system.col_index.items()) == list(col_index.items())
    assert [list(row.items()) for row in system.sparse_rows] == [
        list(row.items()) for row in reference
    ]


def _peeled(rows, rhs, ncols):
    """`_peeled_solution`'s verdict and its numerators over D rebuilt as `Fraction`s, or None."""
    verdict, numerators, D = _peeled_solution(rows, rhs, ncols)
    if verdict != UNIQUE:
        assert numerators is None and D is None
        return verdict, None
    return verdict, [Fraction(a, D) for a in numerators]


def _canonical(rows, rhs, ncols):
    """`_canonical_solution`'s numerators over D rebuilt as `Fraction`s, or None; and its basis."""
    numerators, D, basis = _canonical_solution(rows, rhs, ncols)
    if numerators is None:
        assert D is None
        return None, basis
    assert all(type(a) is int for a in numerators) and type(D) is int and D > 0
    return [Fraction(a, D) for a in numerators], basis


def _canonical_solve(system, rhs, pins):
    """`solve_pinned` as one canonical elimination with no peel: (verdict, split, kernel, witness)."""
    rows = _stack_pins(system, pins.coordinates())
    b = [rhs(p) for p in system.points] + [value for _, value in pins]
    ncols = len(system.columns)
    solution, basis = _canonical(rows, b, ncols)
    if solution is None:
        labels = list(system.points) + [PinRow(c) for c in pins.coordinates()]
        return "inconsistent", None, (), _witness(rows, b, ncols, labels)
    split = _decomposition(system.space, system.columns, *_over_common_denominator(solution))
    if basis.rank == ncols:
        return "unique", split, (), None
    return "underdetermined", split, tuple(_kernel_dicts(system, basis)), None


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("random", "dense", "chain", "greedy")),
    rng=st.randoms(use_true_random=False),
)
def test_peeled_solve_matches_canonical_elimination_and_sympy(kind, rng):
    # Stacked pins, repeated ones too (one pinned twice leaves a zero row
    # behind, consistent or not): the peeled read is a solution exactly when
    # the canonical elimination's is unique, and then it is that solution;
    # when the peel's count says the system is determined and it is
    # inconsistent, the peel says so, and otherwise it decides nothing;
    # sympy ranks give the same verdict.
    S = _solve_input(kind, rng)
    system = gs.IncidenceSystem(S)
    ncols = len(system.columns)
    for coords in _pin_lists(S, system, rng):
        rows = _stack_pins(system, coords)
        rhs = [random_fraction(rng) for _ in rows]
        if rng.random() < 0.5:
            # Consistent on S: f is a split's sum and each pin its value.
            split = {c: random_fraction(rng) for c in system.columns}
            rhs = [sum(split[c] for c in enumerate(p)) for p in S] + [split[c] for c in coords]
        solution, basis = _canonical(rows, rhs, ncols)
        unique = solution is not None and basis.rank == ncols
        forward, backward, core, _ = _peel(rows, ncols)
        held = {j for row in core.values() for j in row}
        determined = len(forward) + len(backward) + len(held) == ncols
        if unique:
            peeled = UNIQUE, solution
        else:
            peeled = (INCONSISTENT if solution is None and determined else None), None
        assert _peeled(rows, rhs, ncols) == peeled
        want = "unique" if unique else "inconsistent" if solution is None else "underdetermined"
        assert _sympy_verdict(rows, rhs, ncols) == want
        if len(set(coords)) == len(coords):
            pins = gs.PinSet(tuple(zip(coords, rhs[len(S) :])))
            f = gs.FunctionTable(S, dict(zip(S.points, rhs)))
            out = gs.solve_pinned(system, f, pins)
            assert (out.verdict, out.decomposition, out.kernel, out.witness) == _canonical_solve(
                system, f, pins
            )


def test_peeled_solve_refuses_a_step_entry_other_than_one():
    # Incidence and pin rows are 0/1, so every step divides by 1; a step on
    # an entry of 2 is refused rather than read, by the peel where it takes
    # the step.  `_peeled_read`, the kernel read with count 0 and the
    # inverse read with count 1, refuses a forward step on it, [{0: 2}], and
    # a backward one, [{0: 1, 1: 2}]; so do the solve and the rank.
    with pytest.raises(gs.VerificationError, match="peel step's entry is not 1"):
        _peeled_solution([{0: 2}], [Fraction(1)], 1)
    with pytest.raises(gs.VerificationError, match="peel step's entry is not 1"):
        _peeled_rank([{0: 2}], 1)
    for rows, ncols in (([{0: 2}], 1), ([{0: 1, 1: 2}], 2)):
        for count in (0, 1):
            with pytest.raises(gs.VerificationError, match="peel step's entry is not 1"):
                _peeled_read(rows, count, ncols)
    assert _peeled([{0: 1, 1: 1}, {1: 1}], [Fraction(3), Fraction(1, 2)], 2) == (
        UNIQUE,
        [Fraction(5, 2), Fraction(1, 2)],
    )


def test_inconsistent_verdict_of_the_peel_skips_the_canonical_elimination(monkeypatch):
    # When the peel's count says the system is determined, a dropped row
    # that fails or a core whose rhs column is a pivot proves it
    # inconsistent, and `solve_pinned` goes straight to the witness.  All of
    # 2^3 is its own core, of rank 4 over 6 columns: an indicator rhs makes
    # the rhs a pivot, and a consistent one leaves the peel undecided.  The
    # d = 2 chain with its boundary and one more pin, off the split, fails
    # at a dropped row.  Every outcome is the canonical-only reference's.
    # The peel reads a core with `_canonical_solution` too, so only the
    # calls on the stacked rows themselves, `_stack_pins`' list, count: on
    # the cube the core is every row, but not that list.
    real, canonical = linalg._canonical_solution, []
    real_stack, stacked = linalg._stack_pins, []

    def stack(system, coords):
        stacked.append(real_stack(system, coords))
        return stacked[-1]

    def counted(rows, rhs, ncols):
        if any(rows is s for s in stacked):
            canonical.append(ncols)
        return real(rows, rhs, ncols)

    monkeypatch.setattr(linalg, "_stack_pins", stack)
    monkeypatch.setattr(linalg, "_canonical_solution", counted)
    cube = cube_set(list(itertools.product((0, 1), repeat=3)))
    chain = parse_instance(_example10(2))
    unique = gs.solve_pinned(gs.IncidenceSystem(chain.point_set), chain.f, chain.pins)
    extra = next(c for c in chain.point_set.coordinates() if c not in chain.pins.coordinates())
    pins = gs.PinSet(chain.pins.pins + ((extra, unique.decomposition.value(*extra) + 1),))
    for S, f, pins, verdict, runs in [
        (cube, gs.FunctionTable.indicator(cube, (0, 0, 0)), None, "inconsistent", 0),
        (cube, gs.FunctionTable.zero(cube), None, "underdetermined", 1),
        (chain.point_set, chain.f, pins, "inconsistent", 0),
    ]:
        system = gs.IncidenceSystem(S)
        canonical.clear()
        out = gs.solve_pinned(system, f, pins)
        assert out.verdict == verdict and len(canonical) == runs
        reference = _canonical_solve(system, f, pins or gs.PinSet(()))
        assert (out.verdict, out.decomposition, out.kernel, out.witness) == reference


def test_peeled_solve_by_hand():
    # Greedy maximal in 3^3, pinned at its second point's first two
    # coordinates: the two pins and one point peel forward, three points
    # each with a private coordinate and another live one peel backward, and
    # the core is three points in an odd cycle, each pair sharing one
    # coordinate, whose determinant is 2.  So an integer f has half-integer
    # splits, read only through the core's lcm, which the backward steps
    # read after the core.
    S = greedy_maximal_cube(random.Random(1), 3)
    assert S.points == ((0, 2, 0), (1, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 0), (2, 0, 2), (2, 1, 1))
    system = gs.IncidenceSystem(S)
    ncols = len(system.columns)
    coords = [(0, 1), (1, 0)]
    rows = _stack_pins(system, coords)
    forward, backward, core, dropped = _peel(rows, ncols)
    assert len(forward) == 3 and len(backward) == 3 and sorted(core) == [3, 5, 6] and not dropped
    _assert_sorted_peel(rows, ncols, forward, backward, core, dropped)
    # A peel that marked every step forward would have the first backward
    # step read before its core column has a value.
    with pytest.raises(AssertionError):
        _assert_sorted_peel(rows, ncols, forward + backward, [], core, dropped)
    rhs = [Fraction(k == 2) for k in range(len(rows))]
    solution, _ = _canonical(rows, rhs, ncols)
    assert Fraction(1, 2) in solution
    assert _peeled(rows, rhs, ncols) == (UNIQUE, solution)
    # The first pin again: its row is dropped as zero, and must agree, or
    # the system is inconsistent.
    twice = _stack_pins(system, coords + coords[:1])
    assert _peeled(twice, rhs + [rhs[-2]], ncols) == (UNIQUE, solution)
    assert _peeled(twice, rhs + [rhs[-2] + 1], ncols) == (INCONSISTENT, None)
    # One pin short, the count refuses before any arithmetic.
    assert _peeled(rows[:-1], rhs[:-1], ncols) == (None, None)


def test_unique_solutions_match_sympy():
    # Dual route for the solver: sympy solves the same stacked system.
    from sympy import Matrix, Rational, linsolve, symbols

    rng = random.Random(31)
    done = 0
    while done < 15:
        pts = sorted(
            {
                tuple(rng.randint(0, 1) for _ in range(3))
                for _ in range(rng.randint(2, 5))
            }
        )
        S = pset(pts, sizes=(2, 2, 2))
        if not gs.is_good(S).good:
            continue
        system = gs.IncidenceSystem(S)
        construction_cols = list(system.columns)
        f = gs.FunctionTable(
            S, {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for p in S}
        )
        bound = gs.boundary(S).boundary
        values = {c: Fraction(rng.randint(-3, 3)) for c in bound}
        out = gs.solve_pinned(system, f, gs.PinSet.of(values))
        assert out.verdict == "unique"
        xs = symbols(f"v0:{len(construction_cols)}")
        eqs = []
        for p, row in zip(system.points, system.sparse_rows):
            eqs.append(sum(xs[j] for j in row) - Rational(str(f(p))))
        for coord, v in values.items():
            eqs.append(xs[system.col_index[coord]] - Rational(str(v)))
        (solution,) = linsolve(eqs, xs)
        for j, coord in enumerate(construction_cols):
            assert Fraction(str(solution[j])) == out.decomposition.value(*coord)
        done += 1


def test_row_basis_rank_matches_oracle():
    rng = random.Random(29)
    for _ in range(30):
        ncols = rng.randint(2, 6)
        rows = [
            [rng.randint(-2, 2) for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))
        ]
        basis = gs.RowBasis(ncols)
        for row in rows:
            basis.add_sparse({j: x for j, x in enumerate(row) if x})
        from sympy import Matrix

        assert basis.rank == Matrix(rows).rank()


def _random_int_matrix(rng):
    """Rows with negative entries and zeros, some of them combinations of earlier rows."""
    ncols = rng.randint(1, 8)
    rows = []
    for _ in range(rng.randint(1, 10)):
        if rows and rng.random() < 0.3:
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            coeffs = [rng.randint(-3, 3) for _ in picks]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, picks)) for j in range(ncols)])
        else:
            rows.append([rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(ncols)])
    return ncols, rows


def _assert_same_pivot_rows(sparse, dense):
    assert sorted(sparse.pivot_rows) == sorted(dense.pivot_rows)
    for p, row in dense.pivot_rows.items():
        # Entry by entry, and the sparse row stores no zero.
        assert sparse.pivot_rows[p] == {j: x for j, x in enumerate(row) if x}


def test_sparse_row_basis_matches_dense_reference():
    rng = random.Random(37)
    matrices = [_random_int_matrix(rng) for _ in range(300)]
    for _ in range(60):
        space = int_space(tuple(rng.randint(1, 5) for _ in range(rng.choice((2, 3, 4)))))
        S = random_good_set(rng, space, 12)
        product = list(space.all_points())
        others = rng.sample(product, min(4, len(product)))
        matrices.append(
            (len(space.coordinates()), _rows(space, list(S.points) + others))
        )
    for ncols, rows in matrices:
        sparse, dense = gs.RowBasis(ncols), DenseRowBasis(ncols)
        for row in rows:
            sparse_row = {j: x for j, x in enumerate(row) if x}
            assert sparse.contains_sparse(sparse_row) == dense.contains(row)
            assert sparse.add_sparse(sparse_row) == dense.add(row)
        _assert_same_pivot_rows(sparse, dense)
        sparse.back_substitute()
        dense.back_substitute()
        _assert_same_pivot_rows(sparse, dense)


def _full_sets_and_chains():
    rng = random.Random(31)
    sets = []
    for n in (2, 3, 4) * 12:
        space = int_space(tuple(rng.randint(2, 4) for _ in range(n)))
        sets.append(gs.full_closure(random_good_set(rng, space, 9)))
    sets += [parse_instance(_example10(depth)).point_set for depth in range(1, 9)]
    return rng, sets


def test_pinned_inverse_is_an_inverse():
    # The inverse read along the peel, W at the point columns of A^-1, A the
    # stacked pinned system, keyed by the tag columns ncols + k of the point
    # rows' rhs, multiplied out in plain Fraction arithmetic:
    # every point row of A times W is the identity, and W is empty at each
    # pinned coordinate (the pin rows of A times W are zero).  As A is
    # invertible, that fixes every returned entry, and each equals the
    # `Fraction` Gauss-Jordan inverse of `tests/util.pinned_inverse`.  The
    # chains peel to no core, so m is 1 on them; greedy maximal cubes keep
    # one, and in 5^4 its pivot entries make m > 1 before backward steps.
    rng, sets = _full_sets_and_chains()
    sets += [greedy_maximal_cube(random.Random(seed), 8) for seed in range(4)]
    sets += [greedy_maximal_cube(random.Random(seed), 5, 4) for seed in range(4)]
    cores = scaled = 0
    for S in sets:
        base = rng.choice(S.points)
        pins = [(i, base[i]) for i in range(S.space.n - 1)]
        system = gs.IncidenceSystem(S)
        columns = system.columns
        assert len(S) + len(pins) == len(columns)
        rows = _stack_pins(system, pins)
        rank, values, m = _peeled_read(rows, len(S), len(columns))
        cores += bool(_peel(rows, len(columns))[2])
        scaled += m > 1
        assert rank == len(columns) and m >= 1 and len(values) == len(columns)
        inverse = {
            c: {k - len(columns): Fraction(x, m) for k, x in sorted(v.items())}
            for c, v in zip(columns, values)
        }
        assert inverse == pinned_inverse(S, base)
        for c in columns:
            assert all(inverse[c].values())
        for p in S:
            for q in range(len(S)):
                entry = sum((inverse[c].get(q, 0) for c in enumerate(p)), Fraction(0))
                assert entry == (p == S.points[q])
        for c in pins:
            assert inverse[c] == {}
    assert cores >= 8 and scaled >= 2


def test_pinned_inverse_rejects_singular_and_foreign_pins(monkeypatch):
    # Two pins on one axis of T4 make a square singular system, one pin or
    # three a system that is not square, and a rectangle plus a point with
    # two fresh values, pinned at its first point, a square singular one of
    # deficiency n - 1.  The peel reads no inverse of any: the rows are not
    # square, or their rank is not the column count.  The last one's peel
    # leaves fewer steps and held columns than rows, so its read is refused
    # with no core step.  The Gauss-Jordan oracle finds none.  A pin off
    # the columns is refused where the pin rows are stacked.
    S = cube_set(T4)
    system = gs.IncidenceSystem(S)
    ncols = len(system.columns)
    for pins in ([(0, 0), (0, 1)], [(0, 0)], [(0, 0), (1, 0), (2, 0)]):
        rows = _stack_pins(system, pins)
        rank = _peeled_read(rows, len(S), ncols)[0]
        assert (len(rows), rank) != (ncols, ncols)
    looped = pset([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 2, 0)], (3, 3, 1))
    base = looped.points[0]
    looped_system = gs.IncidenceSystem(looped)
    rows = _stack_pins(looped_system, [(0, base[0]), (1, base[1])])
    assert len(rows) == len(looped_system.columns)
    monkeypatch.setattr(linalg, "_core_step", None)
    assert _peeled_read(rows, len(looped), len(rows)) == (None, None, None)
    with pytest.raises(ValueError, match="singular"):
        pinned_inverse(looped, base)
    with pytest.raises(ValueError, match="not square"):
        pinned_inverse(cube_set(DIAGONAL), DIAGONAL[0])
    with pytest.raises(gs.PreconditionError, match="not a column"):
        _stack_pins(system, [(0, 0), (0, 7)])


def _general_solution_inputs(kind, rng):
    """(rows, count, ncols): a set's rows with 0-3 random pins, or a base point's first n - 1,
    stacked under them, each read with count 0, |S| and a random count.

    The sets: random point sets, good or not, and full closures of random
    good sets; doubling chains less some points, or none; greedy maximal
    sets in 6^3, whole or less every 5th point, which keep a 2-core.
    """
    if kind == "random":
        space = random_space(rng, max_axis=4)
        S = random_point_set(rng, space, 9)
        if rng.random() < 0.5:
            S = gs.full_closure(random_good_set(rng, space, 9))
    elif kind == "chain":
        chain = parse_instance(_example10(rng.randint(1, 6))).point_set
        S = chain.difference(rng.sample(chain.points, rng.randint(0, len(chain) // 2)))
    else:
        greedy = greedy_maximal_cube(rng, 6)
        S = greedy if rng.random() < 0.5 else greedy.difference(greedy.points[rng.randrange(5) :: 5])
    system = gs.IncidenceSystem(S)
    columns = list(system.columns)
    base = rng.choice(S.points)
    for pins in (rng.choices(columns, k=rng.randint(0, 3)), list(enumerate(base[:-1]))):
        rows = _stack_pins(system, pins)
        for count in (0, len(S), rng.randint(1, len(rows))):
            yield rows, count, len(columns)


def _assert_general_solution(rows, count, ncols) -> set:
    """Check one read along the peel and return the kinds of read it is.

    The rank is sympy's, and a read is refused only with count > 0 on
    dependent rows.  Whenever count is 0 or the rows are independent, the
    values are the general solution: each value's keys are parameters, a
    tag ncols + k for a row k < count or a free column f, which is m at
    itself alone; the free columns number ncols less the rank; and every
    row k sums to its rhs over m, {ncols + k: m} for k < count and {} after.
    """
    rank, values, m = _peeled_read(rows, count, ncols)
    oracle = _sympy_rank([[row.get(j, 0) for j in range(ncols)] for row in rows])
    kinds = {"core"} if _peel(rows, ncols)[2] else set()
    if rank is None:
        assert count > 0 and oracle < len(rows)
        return kinds | {"refused"}
    assert rank == oracle
    if count and rank < len(rows):
        return kinds
    free = {j for j, v in enumerate(values) if v == {j: m}}
    tags = {ncols + k for k in range(count)}
    keys = {r for v in values for r in v}
    assert keys <= free | tags and len(free) == ncols - rank
    for k, row in enumerate(rows):
        total = Counter()
        for j, x in row.items():
            total.update({r: x * c for r, c in values[j].items()})
        assert {r: c for r, c in total.items() if c} == ({ncols + k: m} if k < count else {})
    if not count:
        kinds.add("kernel")
    elif not free:
        kinds.add("inverse")
    elif keys & tags and keys & free:
        kinds.add("both")
    if count and m > 1:
        kinds.add("scaled")
    return kinds


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(("random", "chain", "greedy")), rng=st.randoms(use_true_random=False))
def test_peeled_read_is_the_general_solution(kind, rng):
    # One read along the peel gives both halves of the general solution
    # x = W b + V g: count 0 is the kernel read behind the refinement's
    # signatures, count |S| on square rows of full rank the inverse behind
    # the indicator sweep, and a count between reads both kinds of
    # parameter.  Every read is checked by `_assert_general_solution`.
    for rows, count, ncols in _general_solution_inputs(kind, rng):
        _assert_general_solution(rows, count, ncols)


def test_peeled_read_property_reaches_every_kind_of_read():
    # The inputs of `test_peeled_read_is_the_general_solution`, drawn from
    # fixed seeds, reach every kind of read at least 100 times: kernel
    # reads, inverse reads, reads with both kinds of parameter, refused
    # reads, reads with a 2-core, and reads with rhs tags over an m above 1,
    # where a forward value left unscaled or a free column read as 1 shows.
    tally = Counter()
    for seed in range(200):
        for kind in ("random", "chain", "greedy"):
            for rows, count, ncols in _general_solution_inputs(kind, random.Random(seed)):
                tally.update(_assert_general_solution(rows, count, ncols))
    kinds = ("kernel", "inverse", "both", "refused", "core", "scaled")
    assert all(tally[kind] >= 100 for kind in kinds), tally


def test_is_boundary_agrees_with_sympy_rank_of_the_stacked_pins():
    # Per random good set: its computed boundary, random coordinate sets of
    # def(S) - 1, def(S) (twice) and def(S) + 1 of its columns, and def(S)
    # coordinates with one value off the projections.
    rng = random.Random(17)
    cases = boundaries = 0
    while cases < 1000:
        S = random_good_set(rng, random_space(rng, (2, 3, 4), max_axis=4), 9)
        system = gs.IncidenceSystem(S)
        columns = list(system.columns)
        d = S.deficiency()
        candidates = [gs.boundary(S).boundary]
        candidates += [rng.sample(columns, k) for k in (d - 1, d, d, d + 1) if k <= len(columns)]
        off = [c for c in S.space.coordinates() if c not in system.col_index]
        if off:
            coords = rng.sample(columns, d)
            coords[rng.randrange(d)] = rng.choice(off)
            candidates.append(coords)
        for coords in candidates:
            verdict = _is_boundary(system, coords)
            assert verdict == oracle_is_boundary(S, coords), (S.points, coords)
            cases += 1
            boundaries += verdict
    assert 200 < boundaries < cases - 200
