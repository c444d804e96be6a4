import gc
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import goodsets as gs
from goodsets import measures
from util import (
    E5_PLUS,
    RECTANGLE,
    T4,
    cube_set,
    fraction_marginals,
    fraction_perturbation,
    int_space,
    oracle_zero_marginal_dependency,
    pset,
    random_measure,
    random_point_set,
    random_space,
)


def test_marginals_uniform_t4():
    m = gs.FiniteMeasure.uniform(cube_set(T4))
    marg = gs.marginals(m)
    for axis in range(3):
        assert marg.mass(axis, 0) == Fraction(1, 2)
        assert marg.mass(axis, 1) == Fraction(1, 2)


def test_marginals_point_mass():
    S = gs.PointSet.from_points([("a", "b", "c")])
    marg = gs.marginals(gs.FiniteMeasure.uniform(S))
    assert marg.mass(0, "a") == 1
    assert marg.mass(1, "b") == 1
    assert marg.mass(2, "c") == 1


def test_marginals_uniform_rectangle():
    marg = gs.marginals(gs.FiniteMeasure.uniform(pset(RECTANGLE)))
    for axis, labels in ((0, ("a", "c")), (1, ("b", "d"))):
        for v in labels:
            assert marg.mass(axis, v) == Fraction(1, 2)


def test_measure_validation():
    S = pset(RECTANGLE)
    with pytest.raises(gs.PreconditionError) as exc:
        gs.FiniteMeasure(S, {p: Fraction(1, 3) for p in S})
    assert str(exc.value) == "weights must sum to one exactly"
    with pytest.raises(gs.PreconditionError) as exc:
        gs.FiniteMeasure(S, {p: Fraction(0) for p in S})
    assert str(exc.value) == "weights must be positive on the support"
    # These weights sum to one, so only the positivity check can fire.
    weights = dict(zip(S.points, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))))
    with pytest.raises(gs.PreconditionError) as exc:
        gs.FiniteMeasure(S, weights)
    assert str(exc.value) == "weights must be positive on the support"


def test_point_mass_simplicial():
    S = gs.PointSet.from_points([("a", "b", "c")])
    verdict = gs.is_simplicial(gs.FiniteMeasure.uniform(S))
    assert verdict.simplicial and verdict.loop is None


def test_uniform_rectangle_not_simplicial():
    m = gs.FiniteMeasure.uniform(pset(RECTANGLE))
    verdict = gs.is_simplicial(m)
    assert not verdict.simplicial
    assert sorted(verdict.loop.coefficients) == [-1, -1, 1, 1]
    assert verdict.epsilon == Fraction(1, 4)
    base = gs.marginals(m)
    for sign in (+1, -1):
        weights = verdict.perturbed(m, sign)
        assert all(v >= 0 for v in weights.values())
        assert sum(weights.values()) == 1
        support = gs.PointSet.of(m.support.space, list(weights))
        shifted = gs.marginals(gs.FiniteMeasure(support, weights))
        for axis in range(m.support.space.n):
            for v in m.support.projection(axis):
                assert shifted.mass(axis, v) == base.mass(axis, v)


def test_perturbed_refuses_a_bad_sign_and_a_measure_the_step_does_not_fit():
    verdict = gs.is_simplicial(gs.FiniteMeasure.uniform(cube_set(E5_PLUS)))
    # T4's uniform measure misses three of the loop's points, and the step
    # of 1/10 took one of them to -1/10.
    t4 = gs.FiniteMeasure.uniform(cube_set(T4))
    for sign in (+1, -1):
        with pytest.raises(gs.PreconditionError, match="below the certificate's step"):
            verdict.perturbed(t4, sign)
    m = gs.FiniteMeasure.uniform(pset(RECTANGLE))
    rectangle = gs.is_simplicial(m)
    for sign in (0, 2, -2, True, 1.0, Fraction(1)):
        with pytest.raises(gs.PreconditionError, match="is not the int"):
            rectangle.perturbed(m, sign)


def test_uniform_t4_simplicial():
    verdict = gs.is_simplicial(gs.FiniteMeasure.uniform(cube_set(T4)))
    assert verdict.simplicial
    # Independent confirmation: no signed measure with zero marginals.
    S = cube_set(T4)
    assert oracle_zero_marginal_dependency(S.space, S.points) is None


def test_mu_set_examples():
    assert gs.is_mu_set(cube_set(T4))
    assert not gs.is_mu_set(pset(RECTANGLE))
    assert gs.is_mu_set(gs.PointSet.from_points([("a", "b", "c")]))


def test_mu_set_certified_by_measures():
    rng = random.Random(103)
    for _ in range(20):
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=3), 6)
        claim = gs.is_mu_set(S)
        uniform = gs.is_simplicial(gs.FiniteMeasure.uniform(S))
        sampled = [gs.is_simplicial(random_measure(rng, S)) for _ in range(3)]
        if claim:
            assert uniform.simplicial and all(v.simplicial for v in sampled)
        else:
            assert not uniform.simplicial
            assert all(not v.simplicial for v in sampled)


def test_simplicial_matches_bruteforce_small():
    rng = random.Random(107)
    for _ in range(25):
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=2), 6)
        m = random_measure(rng, S)
        verdict = gs.is_simplicial(m)
        dependency = oracle_zero_marginal_dependency(S.space, S.points)
        assert verdict.simplicial == (dependency is None)


# L is a product of several of these primes: a total off by 1/L is below
# double precision, so only an exact total rejects it.
LARGE_PRIMES = (1_000_000_007, 998_244_353, 2_147_483_647, 1_000_000_009)


def _mixed_weights(rng, S: gs.PointSet) -> dict:
    """Positive weights summing to one, over unrelated random denominators.

    Every weight but one is at most 9 / (20 |S|), so the remainder, put on
    one shuffled point, is above one half.
    """
    points = list(S.points)
    rng.shuffle(points)
    weights = {p: Fraction(rng.randint(1, 9), rng.randint(20 * len(S), 10**12)) for p in points[1:]}
    weights[points[0]] = 1 - sum(weights.values())
    return weights


def test_integer_marginals_match_fraction_sums():
    rng = random.Random(131)
    for _ in range(60):
        S = random_point_set(rng, random_space(rng, (2, 3, 4), max_axis=5), 40)
        weights = _mixed_weights(rng, S)
        m = gs.FiniteMeasure(S, weights)
        got = gs.marginals(m).per_axis
        want = fraction_marginals(m.weights, S.space.n)
        assert [list(table.items()) for table in got] == [list(t.items()) for t in want]
        assert all(type(v) is Fraction for table in got for v in table.values())


def test_weights_off_by_one_over_a_prime_product():
    rng = random.Random(137)
    for k in (2, 3, 4):
        L = 1
        for q in LARGE_PRIMES[:k]:
            L *= q
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=4), 12)
        if len(S) < 2:
            continue
        weights = _mixed_weights(rng, S)
        p, q = S.points[0], S.points[-1]
        for sign in (+1, -1):
            off = dict(weights)
            off[p] += sign * Fraction(1, L)
            assert sum(off.values()) == 1 + sign * Fraction(1, L)
            with pytest.raises(gs.PreconditionError) as exc:
                gs.FiniteMeasure(S, off)
            assert str(exc.value) == "weights must sum to one exactly"
            off[q] -= sign * Fraction(1, L)
            m = gs.FiniteMeasure(S, off)
            assert gs.marginals(m).per_axis == tuple(fraction_marginals(off, S.space.n))


def test_tampered_marginal_message():
    m = gs.FiniteMeasure.uniform(pset(RECTANGLE))
    m.weights[m.support.points[0]] = Fraction(1, 2)
    with pytest.raises(gs.VerificationError) as exc:
        gs.marginals(m)
    assert str(exc.value) == "a marginal does not sum to one"


def _with_loop(monkeypatch, points, coefficients):
    loop = gs.Loop(tuple(points), tuple(coefficients))
    monkeypatch.setattr(measures, "is_good", lambda S: gs.GoodnessVerdict(False, loop))


def test_perturbation_went_negative_message(monkeypatch):
    # A point outside the support has no weight to bound the step by, so
    # the loop repeats a support point instead: the step of 1/4 moves a's
    # weight by -1/2 and b's by +1/2, mass preserved, a negative.
    m = gs.FiniteMeasure.uniform(pset(RECTANGLE))
    a, b = m.support.points[:2]
    _with_loop(monkeypatch, (a, a, b, b), (-1, -1, 1, 1))
    with pytest.raises(gs.VerificationError) as exc:
        gs.is_simplicial(m)
    assert str(exc.value) == "perturbed measure went negative"


def test_perturbation_lost_mass_message(monkeypatch):
    # Coefficients 1 and 1 do not cancel: the step adds 1/2 to the total.
    m = gs.FiniteMeasure.uniform(pset(RECTANGLE))
    a, b = m.support.points[:2]
    _with_loop(monkeypatch, (a, b), (1, 1))
    with pytest.raises(gs.VerificationError) as exc:
        gs.is_simplicial(m)
    assert str(exc.value) == "perturbed measure lost total mass"


def _full_dict_verdict(m, loop):
    """What checking both perturbed measures in full, as `Fraction` dicts, says."""
    for sign in (+1, -1):
        _, weights = fraction_perturbation(m, loop, sign)
        if any(v < 0 for v in weights.values()):
            return "perturbed measure went negative"
        if sum(weights.values()) != 1:
            return "perturbed measure lost total mass"
    return None


def test_certificates_match_the_fraction_oracle():
    rng = random.Random(139)
    done = 0
    while done < 60:
        S = random_point_set(rng, random_space(rng, (2, 3, 4), max_axis=5), 40)
        weights = _mixed_weights(rng, S) if rng.random() < 0.5 else random_measure(rng, S).weights
        m = gs.FiniteMeasure(S, weights)
        verdict = gs.is_simplicial(m)
        if verdict.simplicial:
            continue
        for sign in (+1, -1):
            epsilon, weights = fraction_perturbation(m, verdict.loop, sign)
            assert verdict.epsilon == epsilon
            assert list(verdict.perturbed(m, sign).items()) == list(weights.items())
        done += 1


def test_loop_only_check_matches_the_full_dict_check(monkeypatch):
    # Hand-made loops may repeat a point and need not cancel: the check
    # sums each point's coefficients, and must raise what the full-dict
    # check raised, in the same order, or pass where it passed.
    rng = random.Random(149)
    outcomes = set()
    passed = set()
    for _ in range(300):
        S = random_point_set(rng, random_space(rng, (2, 3), max_axis=3), 8)
        m = random_measure(rng, S)
        points = [rng.choice(S.points) for _ in range(rng.randint(1, 6))]
        coefficients = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in points]
        if rng.random() < 0.5:
            points.append(rng.choice(S.points))
            coefficients.append(-sum(coefficients) or 1)
        _with_loop(monkeypatch, points, coefficients)
        want = _full_dict_verdict(m, gs.Loop(tuple(points), tuple(coefficients)))
        if want is None:
            verdict = gs.is_simplicial(m)
            for sign in (+1, -1):
                epsilon, weights = fraction_perturbation(m, verdict.loop, sign)
                assert verdict.epsilon == epsilon
                assert list(verdict.perturbed(m, sign).items()) == list(weights.items())
            moves = Counter()
            for p, c in zip(points, coefficients):
                moves[p] += c
            if len(moves) < len(points):
                passed.add("zero-sum repeat" if 0 in moves.values() else "repeat")
        else:
            with pytest.raises(gs.VerificationError) as exc:
                gs.is_simplicial(m)
            assert str(exc.value) == want
        outcomes.add(want)
    assert outcomes == {
        None, "perturbed measure went negative", "perturbed measure lost total mass"
    }
    assert passed == {"repeat", "zero-sum repeat"}


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_integer_step_and_push_match_the_fraction_oracle(rng):
    # Mixed denominators: epsilon, read by integer cross-multiplication, and
    # both perturbed dicts, one `Fraction` per loop point, against the plain
    # `Fraction` step and push over the whole dict.
    S = random_point_set(rng, random_space(rng, (2, 3, 4), max_axis=5), 40)
    m = gs.FiniteMeasure(S, _mixed_weights(rng, S))
    verdict = gs.is_simplicial(m)
    assume(not verdict.simplicial)
    for sign in (+1, -1):
        epsilon, weights = fraction_perturbation(m, verdict.loop, sign)
        assert verdict.epsilon == epsilon
        assert list(verdict.perturbed(m, sign).items()) == list(weights.items())
    # A second measure on the same support puts half the step's weight on
    # the loop's first point and scales the others to total one: the step
    # does not fit it there.
    q, c = verdict.loop.points[0], verdict.loop.coefficients[0]
    low = verdict.epsilon * abs(c) / 2
    scale = (1 - low) / (1 - m.weights[q])
    second = gs.FiniteMeasure(S, {p: low if p == q else w * scale for p, w in m.weights.items()})
    for sign in (+1, -1):
        with pytest.raises(gs.PreconditionError) as exc:
            verdict.perturbed(second, sign)
        assert str(exc.value) == f"the measure weighs {q!r} below the certificate's step"


def test_measure_repr_and_equality_ignore_the_integer_form():
    S = pset(RECTANGLE)
    weights = dict(zip(S.points, (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))))
    m = gs.FiniteMeasure(S, weights)
    assert repr(m) == f"FiniteMeasure(support={S!r}, weights={weights!r})"
    assert m == gs.FiniteMeasure(S, dict(reversed(weights.items())))
    assert m != gs.FiniteMeasure.uniform(S)


def test_marginals_read_a_weights_dict_changed_in_place():
    # Two weights swapped: the total is still one, and the marginals are
    # those of the weights as they now are.
    S = pset(RECTANGLE)
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 12), Fraction(1, 12))
    m = gs.FiniteMeasure(S, dict(zip(S.points, weights)))
    a, b = S.points[0], S.points[-1]
    m.weights[a], m.weights[b] = m.weights[b], m.weights[a]
    assert gs.marginals(m).per_axis == tuple(fraction_marginals(m.weights, S.space.n))


def test_product_frontier_certificate_costs_the_loop():
    # The uniform measure on all of 40^3 (64,000 points): the scan meets a
    # loop within the last few points, and the certificate is checked over
    # the loop alone.
    space = int_space((40, 40, 40))
    S = gs.PointSet.of(space, space.all_points())
    m = gs.FiniteMeasure.uniform(S)
    gc.collect()
    start = time.monotonic()
    loop = gs.is_good(S).loop
    good_elapsed = time.monotonic() - start
    gc.collect()
    start = time.monotonic()
    verdict = gs.is_simplicial(m)
    simplicial_elapsed = time.monotonic() - start
    assert verdict.loop == loop and len(loop) == 4
    assert verdict.epsilon == Fraction(1, 64000)
    assert good_elapsed < 0.06
    assert simplicial_elapsed < 0.03
