"""Simplicial measures and marginal-uniqueness certificates at finite scale.

A probability measure on a finite product is *simplicial* when it is an
extreme point of the polytope of measures sharing its one-dimensional
marginals.  On finite sets that happens exactly when the support is good: a
loop in the support yields a signed perturbation with zero marginals that
can be added and subtracted without leaving the polytope, while a good
support admits no nonzero signed measure with vanishing marginals at all
(its incidence rows are independent).  The equivalence is cross-checked
against brute-force extremality in the acceptance tests rather than assumed.

Marginals and every "sums to one" check add integer numerators over one
common denominator D, the lcm of the weights' denominators, and build a
`Fraction` only for each value they return.  A `FiniteMeasure` keeps the
numerators and D that its validation computed, and `marginals` reads them.
A simplicial certificate costs the loop, not the support: the step is
epsilon = min w_p / |c_p| over the loop's entries, and `is_simplicial`
checks both perturbed measures in integers over the loop's distinct points
alone.  They keep total mass one exactly when the coefficients sum to
zero, and stay nonnegative exactly when each point's weight covers epsilon
times the sum of its coefficients; no other weight moves.  The step and
the moved weights are integer reads too: with w_p = a / d, the least ratio
a / (d*|c_p|) is found by cross-multiplying numerators and denominators,
and epsilon is the one `Fraction` built for it; `perturbed` builds one
`Fraction` per distinct loop point and keeps every other weight as it is.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .goodness import Loop, is_good
from .linalg import _over_common_denominator
from .model import PointSet, PreconditionError, VerificationError, _axis, _Frozen, as_fraction

__all__ = [
    "FiniteMeasure",
    "MarginalVector",
    "SimplicialVerdict",
    "is_mu_set",
    "is_simplicial",
    "marginals",
]


class FiniteMeasure(_Frozen):
    """Rational probability weights, strictly positive on the support.

    `_integer` holds what validation computed: the weights' points and
    values, in the weights' order, their integer numerators and D.
    """

    support: PointSet
    weights: Mapping
    _integer: tuple

    def __init__(self, support, weights):
        support.require_nonempty("finite measure")
        w = {p: as_fraction(v) for p, v in weights.items()}
        if w.keys() != support._members:
            raise PreconditionError("weights must be given exactly on the support")
        numerators, D = _over_common_denominator(w.values())
        if any(a <= 0 for a in numerators):
            raise PreconditionError("weights must be positive on the support")
        if sum(numerators) != D:
            raise PreconditionError("weights must sum to one exactly")
        super().__init__(support, w)
        object.__setattr__(self, "_integer", (tuple(w), tuple(w.values()), numerators, D))

    @classmethod
    def uniform(cls, support: PointSet) -> "FiniteMeasure":
        support.require_nonempty("uniform measure")
        w = Fraction(1, len(support))
        return cls(support, {p: w for p in support})

    def _integer_weights(self) -> tuple[Iterable, list[int], int]:
        """(points, numerators, D): the weights in order, as integers over D.

        These are validation's own while the weights dict holds the points
        and values validated; a dict changed in place is read afresh.
        """
        points, values, numerators, D = self._integer
        if tuple(self.weights) != points or tuple(self.weights.values()) != values:
            numerators, D = _over_common_denominator(self.weights.values())
            points = self.weights
        return points, numerators, D

    def __call__(self, point) -> Fraction:
        """The weight at a point, 0 off the support; a point is read only if the lookup misses."""
        try:
            return self.weights[point]
        except (KeyError, TypeError):
            return self.weights.get(self.support.space.validate_point(point), Fraction(0))


class MarginalVector(_Frozen):
    """Per axis, the pushforward weights; each axis sums to one."""

    per_axis: tuple[dict, ...]

    def mass(self, axis: int, label) -> Fraction:
        """The weight of the label on the axis, read by `model._axis`; 0 off the support."""
        try:
            return self.per_axis[_axis(axis, len(self.per_axis))].get(label, Fraction(0))
        except TypeError:
            raise PreconditionError(f"label {label!r} is not hashable") from None


def marginals(m: FiniteMeasure) -> MarginalVector:
    """One-dimensional marginals of the measure."""
    points, numerators, D = m._integer_weights()
    per_axis: list[dict] = []
    for i in range(m.support.space.n):
        table: dict = {}
        for p, a in zip(points, numerators):
            table[p[i]] = table.get(p[i], 0) + a
        if sum(table.values()) != D:
            raise VerificationError("a marginal does not sum to one")
        per_axis.append({label: Fraction(a, D) for label, a in table.items()})
    return MarginalVector(tuple(per_axis))


class SimplicialVerdict(_Frozen):
    """Extremality verdict; failures carry a signed perturbation certificate.

    The certificate is a loop with integer coefficients and a step size
    epsilon such that both mu + eps*nu and mu - eps*nu are probability
    measures with the same marginals as mu.
    """

    simplicial: bool
    loop: Loop | None
    epsilon: Fraction | None

    def perturbed(self, m: FiniteMeasure, sign: int) -> dict:
        """The weights of mu + sign*eps*nu, sign the int +1 or -1.

        m must be a measure the certificate perturbs: each loop point weighs
        at least eps * |its coefficient| in m, so neither sign takes a
        weight below zero; a loop point off m's support weighs 0 and fails.
        With eps = e / f and a weight a / d, each entry's check reads
        a*f < |c*e|*d in integers, and each distinct loop point gets one
        `Fraction`, (a*f + sign*C_p*e*d) / (d*f) for C_p the sum of its
        coefficients; a zero drops the point.  Every other weight is m's.
        """
        if self.simplicial:
            raise PreconditionError("no perturbation exists; the measure is extreme")
        if type(sign) is not int or sign not in (1, -1):
            raise PreconditionError(f"sign {sign!r} is not the int +1 or -1")
        e, f = self.epsilon.as_integer_ratio()
        moves: dict = {}
        for p, c in zip(self.loop.points, self.loop.coefficients):
            a, d = m(p).as_integer_ratio()
            if a * f < abs(c * e) * d:
                raise PreconditionError(f"the measure weighs {p!r} below the certificate's step")
            moves[p] = moves.get(p, 0) + c
        w = dict(m.weights)
        for p, c in moves.items():
            a, d = w.get(p, 0).as_integer_ratio()
            value = Fraction(a * f + sign * c * e * d, d * f)
            if value:
                w[p] = value
            else:
                w.pop(p, None)
        return w


def is_simplicial(m: FiniteMeasure) -> SimplicialVerdict:
    """Extreme among measures with the same marginals <=> support is good.

    epsilon is the least w_p / |c_p| over the loop's entries, repeated
    points entry by entry: with w_p = a / d, the entry's ratio is
    a / (d*|c_p|), two ratios compare by cross-multiplying, and only the
    least becomes a `Fraction`.  A loop point off the weights raises
    `KeyError`.

    The certificate is checked before it is returned, over the loop alone:
    with epsilon = e / f and C_p the sum of point p's coefficients,
    mu + sign*eps*nu weighs w_p + sign*C_p*e/f at p, which for w_p = a / d
    is nonnegative exactly when a*f + sign*C_p*e*d is, and its total stays
    one exactly when the C_p sum to zero.  The checks run in the order of
    the two perturbed measures, +1 first, each sign before mass.
    """
    verdict = is_good(m.support)
    if verdict.good:
        return SimplicialVerdict(True, None, None)
    loop = verdict.loop
    weights = m.weights
    moves: dict = {}
    e, f = 1, 0  # the least ratio so far, e / f; f = 0 reads as infinity
    for p, c in zip(loop.points, loop.coefficients):
        a, d = weights[p].as_integer_ratio()
        moves[p] = moves.get(p, 0) + c
        d *= abs(c)
        if a * f < e * d:
            e, f = a, d
    epsilon = Fraction(e, f)
    e, f = epsilon.as_integer_ratio()
    for sign in (+1, -1):
        for p, c in moves.items():
            a, d = weights[p].as_integer_ratio()
            if a * f + sign * c * e * d < 0:
                raise VerificationError("perturbed measure went negative")
        if sum(moves.values()):
            raise VerificationError("perturbed measure lost total mass")
    return SimplicialVerdict(False, loop, epsilon)


def is_mu_set(S: PointSet) -> bool:
    """Is every measure supported on S simplicial?  Finite case: S is good."""
    S.require_nonempty("is_mu_set")
    return bool(is_good(S))
