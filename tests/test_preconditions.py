"""Every public entry that needs a good set names itself when it gets none.

Non-goodness of the random inputs comes from the sympy rank oracle, not
from the package.  Each input breaks only the good-set precondition: the
points passed in are members of the set, and the set is nonempty.  Inputs
that break two preconditions at once only have to raise some
`PreconditionError`, since either check may come first.
"""

import random
from fractions import Fraction

import pytest

import goodsets as gs
from goodsets import linalg, solve, structure
from goodsets.instances import _example10, parse_instance
from util import RECTANGLE, T4, cube_set, int_space, oracle_independent, pset


def _solve_with_boundary(S, p, q):
    return gs.solve_with_boundary(S, gs.FunctionTable.zero(S), gs.PinSet(()))


def _associated_full_set(S, p, q):
    # S's first point's coordinates as the boundary; none on an empty S.
    return gs.associated_full_set(S, [c for x in S.points[:1] for c in enumerate(x)])


# name, call on (S, p, q) with p and q points of S, expected message
ENTRIES = [
    ("related", lambda S, p, q: gs.related(S, p, q), "related requires a good set"),
    ("geodesic", lambda S, p, q: gs.geodesic(S, p, q), "geodesic requires a good set"),
    (
        "related_components",
        lambda S, p, q: gs.related_components(S),
        "related_components requires a good set",
    ),
    (
        "full_component",
        lambda S, p, q: gs.full_component(S, p),
        "full_component requires a good set",
    ),
    ("ei_classes", lambda S, p, q: gs.ei_classes(S), "related_components requires a good set"),
    ("boundary", lambda S, p, q: gs.boundary(S), "boundary requires a good set"),
    (
        "bound_diagnostics",
        lambda S, p, q: gs.bound_diagnostics(S),
        "bound_diagnostics requires a good set",
    ),
    (
        "bound_diagnostics-base",
        lambda S, p, q: gs.bound_diagnostics(S, q),
        "bound_diagnostics requires a good set",
    ),
    (
        "solve_via_geodesics",
        lambda S, p, q: gs.solve_via_geodesics(S, gs.FunctionTable.zero(S)),
        "solve_via_geodesics requires a good set",
    ),
    (
        "solve_via_geodesics-base",
        lambda S, p, q: gs.solve_via_geodesics(S, gs.FunctionTable.zero(S), q),
        "solve_via_geodesics requires a good set",
    ),
    (
        "solve_componentwise",
        lambda S, p, q: gs.solve_componentwise(S, gs.FunctionTable.zero(S)),
        "related_components requires a good set",
    ),
    ("solve_with_boundary", _solve_with_boundary, "solve_with_boundary requires a good set"),
    (
        "extend_to_maximal",
        lambda S, p, q: gs.extend_to_maximal(S),
        "extend_to_maximal requires a good set",
    ),
    ("full_closure", lambda S, p, q: gs.full_closure(S), "full_closure requires a good set"),
    ("full_split", lambda S, p, q: gs.full_split(S), "full_split requires a good set"),
    (
        "associated_full_set",
        _associated_full_set,
        "associated_full_set requires a good set",
    ),
]
ENTRY_IDS = [name for name, _, _ in ENTRIES]


RECTANGLE_CELLS = [(0, 0), (0, 1), (1, 0), (1, 1)]

# A loop of four points plus one point with enough fresh values that the
# deficiency is exactly n - 1.
RANK_PATH_SETS = [
    pset(RECTANGLE + [("e", "f")]),
    pset([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 2, 0)], (3, 3, 1)),
]


def _random_bad_sets(count=50, seed=20):
    """A planted rectangle plus random points, confirmed dependent by sympy.

    The sample alternates between deficiency below and above n - 1.
    """
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        space = int_space(tuple(rng.randint(2, 5) for _ in range(rng.choice((2, 3, 4)))))
        a, b = rng.sample(range(space.n), 2)
        corner = [rng.choice(ax.values) for ax in space.axes]
        us, vs = rng.sample(space.axes[a].values, 2), rng.sample(space.axes[b].values, 2)
        loop = [
            tuple(u if i == a else v if i == b else c for i, c in enumerate(corner))
            for u in us
            for v in vs
        ]
        product = list(space.all_points())
        extra = rng.sample(product, rng.randint(0, min(8, len(product))))
        S = gs.PointSet.of(space, loop + extra)
        excess = S.deficiency() - (space.n - 1)
        if excess == 0 or (excess < 0) != (len(sets) % 2 == 0):
            continue
        assert not oracle_independent(space, S.points)
        sets.append(S)
    return sets


RANDOM_BAD = _random_bad_sets()


def _members(S, rng):
    return rng.choice(S.points), rng.choice(S.points)


@pytest.mark.parametrize("name, call, message", ENTRIES, ids=ENTRY_IDS)
def test_rectangle_names_the_entry(name, call, message):
    S = pset(RECTANGLE)
    with pytest.raises(gs.PreconditionError) as err:
        call(S, S.points[0], S.points[-1])
    assert str(err.value) == message


@pytest.mark.parametrize("name, call, message", ENTRIES, ids=ENTRY_IDS)
def test_bad_set_of_deficiency_n_minus_one_names_the_entry(name, call, message):
    for S in RANK_PATH_SETS:
        assert S.deficiency() == S.space.n - 1
        assert not oracle_independent(S.space, S.points)
        for p, q in [(S.points[0], S.points[-1]), (S.points[-1], S.points[1])]:
            with pytest.raises(gs.PreconditionError) as err:
                call(S, p, q)
            assert str(err.value) == message


def _count_eliminations(monkeypatch) -> list:
    """Record the column count of every `_echelon` call, under each name it is bound to."""
    real, calls = linalg._echelon, []

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(structure, "_echelon", counted)
    return calls


def test_geodesic_entries_run_one_good_set_elimination(monkeypatch):
    # `related`, `geodesic` and `full_component` rank S once and read the
    # rest off the matching order, which does no arithmetic and is seeded by
    # that rank's peel; on a set with def(S) = n - 1, `bound_diagnostics`
    # takes its inverse, read along the peel, as the check.  The rank peels
    # S first and eliminates only a core that is left: T4 and `apart` keep
    # one (T4 has no private coordinate), and the doubling chain peels to
    # nothing, so it is ranked, and its inverse read, with no elimination.
    # Each entry runs its one check, `structure._require_good`.  The known
    # geodesics still come back, and a dependent set still gets the exact
    # message after its one elimination.
    calls = _count_eliminations(monkeypatch)
    real_check, checks = structure._require_good, []

    def check(S, what):
        checks.append(what)
        return real_check(S, what)

    monkeypatch.setattr(structure, "_require_good", check)
    cores = {"t4": 1, "chain": 0, "apart": 1}
    chain = parse_instance(_example10(6))
    t4 = cube_set(T4)
    apart = pset(T4 + [(2, 2, 2)], (3, 3, 3))
    for y in t4:
        calls.clear()
        g = gs.geodesic(t4, (1, 0, 1), y)
        assert set(g.points) == ({y} if y == (1, 0, 1) else set(t4.points))
        assert len(calls) == cores["t4"]
    base = chain.file_points[0]
    for index, y in enumerate(chain.file_points):
        # Base to a step-m point of the doubling chain: 3m + 1 points on the
        # diagonal, 3m - 1 off it.
        step = (index + 2) // 3
        length = 1 if step == 0 else 3 * step + (1 if index % 3 == 0 else -1)
        calls.clear()
        g = gs.geodesic(chain.point_set, base, y)
        assert g.length == length and {base, y} <= set(g.points)
        assert len(calls) == cores["chain"]
        assert gs.is_full(g.points)
    for name, S in (("t4", t4), ("chain", chain.point_set), ("apart", apart)):
        for call in (
            lambda: gs.geodesic(S, S.points[0], S.points[-1]),
            lambda: gs.related(S, S.points[0], S.points[-1]),
            lambda: gs.full_component(S, S.points[-1]),
        ):
            checks.clear()
            calls.clear()
            call()
            assert len(checks) == 1 and len(calls) == cores[name]
    calls.clear()
    assert gs.bound_diagnostics(chain.point_set).max_geodesic_length == 19
    assert len(calls) == 0
    # The pinned solve eliminates S's core, so the solve routes count
    # good-set checks: the geodesic route checks S once, and the
    # componentwise route leaves its check to the refinement behind
    # `related_components`.
    for S, solver, count in [
        (chain.point_set, gs.solve_via_geodesics, 1),
        (t4, gs.solve_via_geodesics, 1),
        (apart, gs.solve_componentwise, 0),
    ]:
        checks.clear()
        assert solver(S, gs.FunctionTable.zero(S)).unique
        assert len(checks) == count
    for S in RANK_PATH_SETS:
        calls.clear()
        with pytest.raises(gs.PreconditionError) as err:
            gs.geodesic(S, S.points[0], S.points[-1])
        assert str(err.value) == "geodesic requires a good set"
        assert len(calls) == 1


def test_refinement_reads_signatures_along_the_peel(monkeypatch):
    # The refinement reads each group's kernel functionals along the peel
    # and eliminates only a 2-core that is left.  The d = 300 chain less its
    # middle point (900 points, 676 classes) and the d = 40 chain less every
    # 10th point (108 points, each its own class) peel to nothing, so their
    # partition takes no elimination, the good-set check included.
    # `boundary` adds its generator elimination and the rank of its
    # certificate, on the incidence system its refinement read.
    calls = _count_eliminations(monkeypatch)
    systems = []
    real_system = structure.IncidenceSystem

    def built(S):
        systems.append(S)
        return real_system(S)

    monkeypatch.setattr(structure, "IncidenceSystem", built)
    middle = parse_instance(_example10(300)).point_set
    thinned = parse_instance(_example10(40)).point_set
    sets = [
        (middle.difference([middle.points[len(middle) // 2]]), 676),
        (thinned.difference(thinned.points[::10]), 108),
    ]
    for S, classes in sets:
        calls.clear()
        assert len(gs.related_components(S)) == classes
        assert len(calls) == 0
        calls.clear()
        systems.clear()
        assert len(gs.boundary(S).partition) == classes
        assert len(calls) == 2
        assert systems.count(S) == 1


def test_singular_class_inversion_is_a_precondition_only_on_the_whole_set(monkeypatch):
    # The one pinned inversion left is `bound_diagnostics`' of the whole set
    # with def(S) = n - 1, read along the peel, where no inverse means S is
    # not good.  No other entry inverts a class: the matching order answers
    # them, so a broken inversion leaves their answers as they were.  Only
    # reads with rhs tags (count > 0) are inversions; the refinement's
    # kernel read (count 0) still runs.
    real = linalg._peeled_read

    def singular(rows, count, ncols):
        return (None, None, None) if count else real(rows, count, ncols)

    for module in (linalg, solve, structure):
        monkeypatch.setattr(module, "_peeled_read", singular)
    t4 = cube_set(T4)
    apart = pset(T4 + [(2, 2, 2)], (3, 3, 3))
    assert gs.is_good(apart) and apart.deficiency() > apart.space.n - 1
    assert set(gs.geodesic(apart, (1, 0, 1), (0, 0, 0)).points) == set(T4)
    assert gs.geodesic(apart, (1, 0, 1), (2, 2, 2)) is None
    assert gs.geodesic(t4, (1, 0, 1), (0, 0, 0)).length == 4
    assert gs.solve_via_geodesics(t4, gs.FunctionTable.zero(t4)).unique
    with pytest.raises(gs.PreconditionError) as err:
        gs.bound_diagnostics(t4)
    assert str(err.value) == "bound_diagnostics requires a good set"


def test_random_bad_sets_cover_both_sides_of_n_minus_one():
    excess = [S.deficiency() - (S.space.n - 1) for S in RANDOM_BAD]
    assert sum(e < 0 for e in excess) == sum(e > 0 for e in excess) == len(excess) // 2


@pytest.mark.parametrize("name, call, message", ENTRIES, ids=ENTRY_IDS)
def test_random_bad_sets_name_the_entry(name, call, message):
    rng = random.Random(name)
    for S in RANDOM_BAD:
        with pytest.raises(gs.PreconditionError) as err:
            call(S, *_members(S, rng))
        assert str(err.value) == message


def test_square_singular_boundary_system_names_a_bad_set():
    # def(S) distinct pins of S's own coordinates make the stacked system
    # square; dependent point rows make it singular, so the solve cannot be
    # unique.  Zero data gives an underdetermined system, random data an
    # inconsistent one on these inputs.
    rng = random.Random(21)
    verdicts = set()
    sets = [S for S in RANK_PATH_SETS + RANDOM_BAD if S.deficiency() > 0]
    assert len(sets) >= 30
    for S in sets:
        coords = rng.sample(S.coordinates(), S.deficiency())
        assert len(S) + len(coords) == len(S.coordinates())
        zero = (gs.FunctionTable.zero(S), gs.PinSet.zeros(coords))
        random_f = gs.FunctionTable(S, {p: Fraction(rng.randint(-5, 5)) for p in S})
        random_pins = gs.PinSet(tuple((c, Fraction(rng.randint(-5, 5))) for c in coords))
        for f, pins in (zero, (random_f, random_pins)):
            verdicts.add(gs.solve_pinned(gs.IncidenceSystem(S), f, pins).verdict)
            with pytest.raises(gs.PreconditionError) as err:
                gs.solve_with_boundary(S, f, pins)
            assert str(err.value) == "solve_with_boundary requires a good set"
    assert verdicts == {"underdetermined", "inconsistent"}


@pytest.mark.parametrize("name, call, message", ENTRIES, ids=ENTRY_IDS)
def test_two_broken_preconditions_still_raise(name, call, message):
    space = int_space((2, 2))
    empty = gs.PointSet.of(space, [])
    with pytest.raises(gs.PreconditionError):
        call(empty, (0, 0), (1, 1))
    # A bad set, and a point or base outside it where the entry takes one.
    S = gs.PointSet.of(int_space((3, 3)), RECTANGLE_CELLS)
    with pytest.raises(gs.PreconditionError):
        call(S, (2, 2), (2, 2))


@pytest.mark.parametrize("text", ["1/0", "abc", "1e1000", "0.5", " 3 "])
def test_text_that_is_no_rational_names_itself(text):
    # A zero denominator, a non-numeral or text outside the one rational
    # grammar (an exponent, a decimal point, spaces) is refused as a
    # precondition, not a bare ZeroDivisionError or ValueError or a value,
    # by every exact constructor.
    S = cube_set(T4)
    p = S.points[0]
    calls = [
        lambda: gs.as_fraction(text),
        lambda: gs.FunctionTable(S, {q: text if q == p else 0 for q in S}),
        lambda: gs.PinSet((((0, 0), text),)),
        lambda: gs.FiniteMeasure(S, {q: text for q in S}),
        lambda: gs.Decomposition(S.space, ({0: text}, {}, {})),
    ]
    for call in calls:
        with pytest.raises(gs.PreconditionError) as err:
            call()
        assert str(err.value) == f"not an exact rational: {text!r}"
