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
common denominator, the lcm of the weights' denominators, and build a
`Fraction` only for each value they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .goodness import Loop, is_good
from .linalg import _over_common_denominator
from .model import PointSet, PreconditionError, VerificationError, _axis, as_fraction

__all__ = [
    "FiniteMeasure",
    "MarginalVector",
    "SimplicialVerdict",
    "is_mu_set",
    "is_simplicial",
    "marginals",
]


@dataclass(frozen=True)
class FiniteMeasure:
    """Rational probability weights, strictly positive on the support."""

    support: PointSet
    weights: Mapping

    def __post_init__(self):
        self.support.require_nonempty("finite measure")
        w = {p: as_fraction(v) for p, v in self.weights.items()}
        if w.keys() != set(self.support.points):
            raise PreconditionError("weights must be given exactly on the support")
        numerators, D = _over_common_denominator(w.values())
        if any(a <= 0 for a in numerators):
            raise PreconditionError("weights must be positive on the support")
        if sum(numerators) != D:
            raise PreconditionError("weights must sum to one exactly")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, support: PointSet) -> "FiniteMeasure":
        support.require_nonempty("uniform measure")
        w = Fraction(1, len(support))
        return cls(support, {p: w for p in support})

    def __call__(self, point) -> Fraction:
        """The weight at a point, 0 off the support; a point is read only if the lookup misses."""
        try:
            return self.weights[point]
        except (KeyError, TypeError):
            return self.weights.get(self.support.space.validate_point(point), Fraction(0))


@dataclass(frozen=True)
class MarginalVector:
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
    numerators, D = _over_common_denominator(m.weights.values())
    per_axis: list[dict] = []
    for i in range(m.support.space.n):
        table: dict = {}
        for p, a in zip(m.weights, numerators):
            table[p[i]] = table.get(p[i], 0) + a
        if sum(table.values()) != D:
            raise VerificationError("a marginal does not sum to one")
        per_axis.append({label: Fraction(a, D) for label, a in table.items()})
    return MarginalVector(tuple(per_axis))


@dataclass(frozen=True)
class SimplicialVerdict:
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
        """
        if self.simplicial:
            raise PreconditionError("no perturbation exists; the measure is extreme")
        if type(sign) is not int or sign not in (1, -1):
            raise PreconditionError(f"sign {sign!r} is not the int +1 or -1")
        w = dict(m.weights)
        for p, c in zip(self.loop.points, self.loop.coefficients):
            move = self.epsilon * (sign * c)
            if m(p) < abs(move):
                raise PreconditionError(f"the measure weighs {p!r} below the certificate's step")
            w[p] = w.get(p, Fraction(0)) + move
        return {p: v for p, v in w.items() if v.numerator}


def is_simplicial(m: FiniteMeasure) -> SimplicialVerdict:
    """Extreme among measures with the same marginals <=> support is good."""
    verdict = is_good(m.support)
    if verdict.good:
        return SimplicialVerdict(True, None, None)
    loop = verdict.loop
    epsilon = min(
        m.weights[p] / abs(c) for p, c in zip(loop.points, loop.coefficients)
    )
    certificate = SimplicialVerdict(False, loop, epsilon)
    for sign in (+1, -1):
        numerators, D = _over_common_denominator(certificate.perturbed(m, sign).values())
        if any(a < 0 for a in numerators):
            raise VerificationError("perturbed measure went negative")
        if sum(numerators) != D:
            raise VerificationError("perturbed measure lost total mass")
    return certificate


def is_mu_set(S: PointSet) -> bool:
    """Is every measure supported on S simplicial?  Finite case: S is good."""
    S.require_nonempty("is_mu_set")
    return bool(is_good(S))
