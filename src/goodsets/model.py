"""Finite product spaces, point sets, and additive decompositions.

Everything in this package lives inside a finite product X_1 x ... x X_n of
pairwise-disjoint axes.  A point set S is *good* when every function on S
splits as u_1(x_1) + ... + u_n(x_n); deciding that, certifying failures, and
producing the split exactly are the jobs of the sibling modules.  This module
holds the data they all share:

* :class:`Space` -- the axes, their value labels, and the canonical orders
  that make every certificate deterministic.
* :class:`PointSet` -- a finite set of points, kept in canonical
  (coordinate-index lexicographic) order.
* :class:`FunctionTable` -- an exact rational right-hand side on a point set.
* :class:`Decomposition` -- per-axis value tables, the solution object.
* :class:`PinSet` -- prescribed coordinate values ("boundary conditions").

All scalars are :class:`fractions.Fraction`; nothing is ever rounded.  Every
type is immutable after construction and every operation is pure, so shared
instances are safe under concurrent use.  Every value class of the package
stands on `_Frozen`, which sets its fields in one `__init__`, refuses writes,
and compares, hashes and prints a value by its fields.  A class that checks
its input reads it in an `__init__` of its own and hands the fields on.

Input.  Every point that enters the package is read by one reader,
`Space._read`: it makes the point a tuple, checks its arity and looks up
each label on its axis, and returns the point with its canonical key.
`validate_point` and `point_key` are its two views, and `PointSet` sorts by
the keys it read.  `PointSet.require_member` is the one "read, then require
membership" check behind every entry that takes a point of a set.  Plain
lookups (`in`, `FunctionTable.__call__`, `FiniteMeasure.__call__`) read a
point only when the lookup as given fails, so hits cost a dict lookup.
Every axis is read by `_axis`, the one axis rule: an int in range(n) that
is not a bool.  Every coordinate that enters, a pin, a boundary coordinate
or a key of a vector, is read by `_coordinate`, the one coordinate reader:
an (axis, label) pair, its axis an int that is not a bool and its label
hashable.  Every rational is read by `as_fraction`, the one rational
grammar, which instance files share; its digits are ASCII.  A malformed
value raises `PreconditionError`.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter

__all__ = [
    "Axis",
    "Decomposition",
    "FunctionTable",
    "PinSet",
    "PointSet",
    "PreconditionError",
    "Space",
    "VerificationError",
    "as_fraction",
    "incidence_vector",
]

# A point is a plain tuple of labels, one per axis; a coordinate is
# (axis index, value label).  Labels are namespaced by their axis, so axes
# are disjoint even when labels repeat across them.
Point = tuple
Coordinate = tuple

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


class PreconditionError(ValueError):
    """An operation was called outside its stated preconditions."""


class VerificationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class _Frozen:
    """The base of every value class: read-only fields, with equality, hash and repr over them.

    A class's fields are its annotated names without a leading `_`, its
    bases' first.  `__init__` is the one field setter: it takes every field
    once, by position in that order, then by name, as a written signature
    would.  An annotated `_name` is a cache, set with `object.__setattr__`
    and outside equality, hash and repr.  Values are equal only when their
    classes are the same and their fields equal.  `_key(value)` reads the
    fields, a tuple of them when there are two or more.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values) :]
            if len(values) + len(named) != len(fields) or not named.keys() <= set(rest):
                raise TypeError(
                    f"{type(self).__name__} takes the fields ({', '.join(fields)}), each once: "
                    f"got {len(values)} by position and {', '.join(named) or 'none'} by name"
                )
            values += tuple(map(named.__getitem__, rest))
        # Field by field, not `vars(self).update(...)`: building the instance's `__dict__`
        # makes every later attribute read slower (four reads took 0.19 against 0.10 µs
        # on CPython 3.11, 2-core Xeon VM).
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def as_fraction(value) -> Fraction:
    """Coerce int / str / Fraction into an exact Fraction; nothing else is a rational.

    The one rational grammar: a Fraction, an int that is not a bool, or a
    string `_RATIONAL` matches whole ("-7", "3/4"; no sign on the
    denominator, no spaces, no decimal point, no exponent).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise PreconditionError(f"not an exact rational: {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:  # more digits than the interpreter converts
        raise PreconditionError(f"rational of {len(value)} characters: {exc}") from None


def _over_common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals as integer numerators over D, the lcm of their denominators.

    Numerator k is values[k] * D, with the sign of values[k]; the values sum
    to one exactly when the numerators sum to D.  The one common-denominator
    helper, behind `Decomposition`'s integer form, the augmented rhs,
    `in_span`, `measures` and `solve`'s split check and largest |value|.
    """
    ratios = [v.as_integer_ratio() for v in values]
    D = lcm(*(d for _, d in ratios))
    return [a * (D // d) for a, d in ratios], D


def _axis(axis, n: int) -> int:
    """The one axis rule: the axis itself, if it is an int in range(n) and not a bool."""
    if isinstance(axis, bool) or not isinstance(axis, int) or axis not in range(n):
        raise PreconditionError(f"axis {axis!r} is outside range({n})")
    return axis


def _coordinate(coord) -> Coordinate:
    """The one coordinate reader: an (axis, label) pair, its axis an int that is not a bool.

    The label must be hashable.  Whether the pair is a coordinate of a
    space is checked where it meets one (`Space.value_index`,
    `linalg._column`).
    """
    try:
        axis, label = coord
        hash(label)
    except (TypeError, ValueError):
        raise PreconditionError(f"coordinate {coord!r} is not an (axis, label) pair") from None
    if isinstance(axis, bool) or not isinstance(axis, int):
        raise PreconditionError(
            f"coordinate {coord!r} is not an (axis, label) pair: axis {axis!r} is not an int"
        )
    return axis, label


class Axis(_Frozen):
    """One factor of the product: a name and its ordered, distinct labels."""

    name: str
    values: tuple

    def __init__(self, name, values):
        values = tuple(values)
        if not values:
            raise PreconditionError(f"axis {name!r} has no values")
        try:
            if len(set(values)) != len(values):
                raise PreconditionError(f"axis {name!r} has duplicate values")
        except TypeError:
            raise PreconditionError(f"axis {name!r} has an unhashable value") from None
        super().__init__(name, values)


class Space(_Frozen):
    """An ordered list of n >= 2 axes.

    Canonical orders used throughout: axes in declaration order, values in
    declaration order, points lexicographic by their per-axis value indices.
    """

    axes: tuple[Axis, ...]
    _value_index: tuple[dict, ...]

    def __init__(self, axes):
        axes = tuple(axes)
        if len(axes) < 2:
            raise PreconditionError("a space needs at least two axes")
        if len({ax.name for ax in axes}) != len(axes):
            raise PreconditionError("axis names must be distinct")
        super().__init__(axes)
        object.__setattr__(
            self,
            "_value_index",
            tuple({v: k for k, v in enumerate(ax.values)} for ax in axes),
        )

    @cached_property
    def _columns(self) -> dict:
        """Each coordinate's index in `coordinates()`: the columns of the dependence scan's rows."""
        return {c: j for j, c in enumerate(self.coordinates())}

    @classmethod
    def of(cls, *axes: tuple[str, Iterable]) -> "Space":
        return cls(tuple(Axis(name, tuple(values)) for name, values in axes))

    @property
    def n(self) -> int:
        return len(self.axes)

    def value_index(self, axis: int, label) -> int:
        try:
            return self._value_index[_axis(axis, self.n)][label]
        except (KeyError, TypeError):
            raise PreconditionError(f"label {label!r} not on axis {axis}") from None

    def axis_index(self, name: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.name == name:
                return i
        raise PreconditionError(f"no axis named {name!r}")

    def _read(self, point) -> tuple[Point, tuple[int, ...]]:
        """The one point reader: (the point as a tuple, its canonical key), in one pass.

        A non-sequence, a wrong arity, or a label that is not on its axis
        (an unhashable one included) raises `PreconditionError`.
        """
        try:
            point = tuple(point)
        except TypeError:
            raise PreconditionError(f"point {point!r} is not a sequence of labels") from None
        if len(point) != len(self._value_index):
            raise PreconditionError(f"point {point!r} has arity {len(point)}, want {self.n}")
        try:
            return point, tuple(map(dict.__getitem__, self._value_index, point))
        except (KeyError, TypeError):  # the lookup again, label by label, to name the bad one
            return point, tuple(map(self.value_index, range(self.n), point))

    def validate_point(self, point) -> Point:
        """The point as a tuple of labels, read by `_read`."""
        return self._read(point)[0]

    def point_key(self, point) -> tuple[int, ...]:
        """Canonical sort key: per-axis value indices, axis-major; read by `_read`."""
        return self._read(point)[1]

    def coordinates(self) -> tuple[Coordinate, ...]:
        """All coordinates of the space in canonical (axis-major) order."""
        return tuple((i, v) for i, ax in enumerate(self.axes) for v in ax.values)

    def all_points(self) -> Iterator[Point]:
        """The whole product, lexicographic by value indices."""
        return itertools.product(*(ax.values for ax in self.axes))


def incidence_vector(space: Space, point: Point) -> dict:
    """Sparse 0/1 vector over the space's coordinates: 1 at each coordinate of the point.

    The evaluation functional of the decomposition equation: for a split u,
    sum_i u_i(p_i) is the pairing of u with this vector.
    """
    point = space.validate_point(point)
    return {(i, label): 1 for i, label in enumerate(point)}


class PointSet(_Frozen):
    """A finite set of distinct points, stored in canonical order.

    The projections and coordinates are computed once, on first use; the
    set is frozen, so they never go stale.
    """

    space: Space
    points: tuple[Point, ...]
    _members: frozenset

    def __init__(self, space, points):
        keys = dict(map(space._read, points))
        super().__init__(space, tuple(sorted(keys, key=keys.__getitem__)))
        object.__setattr__(self, "_members", frozenset(keys))

    @classmethod
    def of(cls, space: Space, points: Iterable) -> "PointSet":
        return cls(space, tuple(points))

    @classmethod
    def from_points(cls, points: Iterable, axis_names: Iterable[str] | None = None) -> "PointSet":
        """Build a space from the points themselves (axis values sorted).

        The shortest point sets the arity, and the points are then read
        against the space built, so a point of another arity is rejected.
        Axis names, when given, must number the arity.
        """
        pts = tuple(points)
        if not pts:
            raise PreconditionError("cannot infer a space from no points")
        try:
            columns = [sorted(set(column)) for column in zip(*pts)]
        except TypeError:
            raise PreconditionError(
                "points must be sequences of hashable labels that sort on each axis"
            ) from None
        names = [f"x{i+1}" for i in range(len(columns))] if axis_names is None else [*axis_names]
        if len(names) != len(columns):
            raise PreconditionError(f"{len(names)} axis names for points of arity {len(columns)}")
        return cls(Space(tuple(map(Axis, names, columns))), pts)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, point) -> bool:
        """Plain membership; a point not hashable as given, such as a list, is looked up as a tuple.

        Anything else that is no sequence of hashable labels is not a member.
        """
        try:
            return point in self._members
        except TypeError:
            pass
        try:
            return tuple(point) in self._members
        except TypeError:
            return False

    def require_nonempty(self, what: str = "operation"):
        if not self.points:
            raise PreconditionError(f"{what} needs a nonempty point set")

    def require_member(self, point) -> Point:
        """The one "read, then require membership" check: the point as read, if S holds it."""
        point = self.space.validate_point(point)
        if point not in self._members:
            raise PreconditionError(f"{point!r} is not a point of the set")
        return point

    @cached_property
    def _projections(self) -> tuple[tuple, ...]:
        """Per axis, the distinct values realised, in declaration order."""
        columns = zip(*self.points) if self.points else [()] * self.space.n
        return tuple(
            tuple(sorted(set(column), key=index.__getitem__))
            for column, index in zip(columns, self.space._value_index)
        )

    def projection(self, axis: int) -> tuple:
        """Distinct axis values realised by the set, in declaration order."""
        return self._projections[_axis(axis, self.space.n)]

    def projections(self) -> tuple[tuple, ...]:
        return self._projections

    @cached_property
    def _coordinates(self) -> tuple[Coordinate, ...]:
        return tuple((i, v) for i, values in enumerate(self._projections) for v in values)

    def coordinates(self) -> tuple[Coordinate, ...]:
        """Union of the projections as coordinates, axis-major canonical order."""
        return self._coordinates

    def coordinate_count(self) -> int:
        return len(self._coordinates)

    def deficiency(self) -> int:
        """sum_i |projection_i| - |S|; at least n-1 on good sets, = n-1 iff full."""
        self.require_nonempty("deficiency")
        return self.coordinate_count() - len(self.points)

    def subset(self, points: Iterable) -> "PointSet":
        return PointSet(self.space, tuple(map(self.require_member, points)))

    def _part(self, points: Iterable[Point]) -> "PointSet":
        """The subset of S's own points, given in S's order, with nothing read or sorted again.

        The caller vouches for both: each point is one S holds as read, and
        they come in S's canonical order.
        """
        part = object.__new__(PointSet)
        points = tuple(points)
        _Frozen.__init__(part, self.space, points)
        object.__setattr__(part, "_members", frozenset(points))
        return part

    def union(self, points: Iterable) -> "PointSet":
        return PointSet(self.space, self.points + tuple(points))

    def difference(self, points: Iterable) -> "PointSet":
        drop = set(map(self.space.validate_point, points))
        return PointSet(self.space, tuple(p for p in self.points if p not in drop))

    def product_points(self) -> Iterator[Point]:
        """The product of the projections, lexicographic by value indices."""
        return itertools.product(*self.projections())


class FunctionTable(_Frozen):
    """An exact rational function given by its value at every point of a set."""

    domain: PointSet
    values: Mapping[Point, Fraction]

    def __init__(self, domain, values):
        vals = {p: as_fraction(v) for p, v in values.items()}
        dom = domain._members
        if vals.keys() != dom:
            raise PreconditionError(
                f"function table must be total on its domain "
                f"(missing {len(dom - vals.keys())}, extraneous {len(vals.keys() - dom)})"
            )
        super().__init__(domain, vals)

    @classmethod
    def zero(cls, domain: PointSet) -> "FunctionTable":
        return cls(domain, {p: Fraction(0) for p in domain})

    @classmethod
    def indicator(cls, domain: PointSet, point) -> "FunctionTable":
        point = domain.require_member(point)
        return cls(domain, {p: Fraction(1 if p == point else 0) for p in domain})

    @classmethod
    def from_decomposition(cls, domain: PointSet, d: "Decomposition") -> "FunctionTable":
        return cls(domain, {p: d.evaluate(p) for p in domain})

    def __call__(self, point) -> Fraction:
        """f at a point of its domain; a point is read only when the plain lookup misses."""
        try:
            return self.values[point]
        except (KeyError, TypeError):
            return self.values[self.domain.require_member(point)]


class Decomposition(_Frozen):
    """Per-axis value tables u_1, ..., u_n with exact rational entries.

    Supports the linear-space operations the solution theory relies on, so
    tests can state linearity as actual arithmetic.  The `_integer` cache
    holds the values, in table order, as (numerators, D): computed by
    validation or handed over by the solve that built the split.
    """

    space: Space
    tables: tuple[Mapping, ...]
    _integer: tuple

    def __init__(self, space, tables):
        if len(tables) != space.n:
            raise PreconditionError("one table per axis required")
        frozen = []
        for i, table in enumerate(tables):
            clean = {}
            for label, v in table.items():
                space.value_index(i, label)
                clean[label] = as_fraction(v)
            frozen.append(clean)
        super().__init__(space, tuple(frozen))
        values = (v for table in frozen for v in table.values())
        object.__setattr__(self, "_integer", _over_common_denominator(values))

    @classmethod
    def _trusted(cls, space: Space, tables: tuple, numerators: list, D: int) -> "Decomposition":
        """The split of tables the caller vouches for, with nothing read or checked again.

        One dict per axis, keyed by labels of its axis; numerators[k] / D is
        the k-th value in table order.
        """
        d = object.__new__(cls)
        _Frozen.__init__(d, space, tables)
        object.__setattr__(d, "_integer", (numerators, D))
        return d

    @classmethod
    def zero(cls, space: Space) -> "Decomposition":
        return cls(space, tuple({} for _ in range(space.n)))

    def value(self, axis: int, label) -> Fraction:
        try:
            return self.tables[_axis(axis, self.space.n)][label]
        except (KeyError, TypeError):
            raise PreconditionError(
                f"decomposition has no value at axis {axis}, label {label!r}"
            ) from None

    def evaluate(self, point) -> Fraction:
        """sum_i u_i(p_i); error if any coordinate of the point is missing."""
        point = self.space.validate_point(point)
        return sum((self.value(i, label) for i, label in enumerate(point)), Fraction(0))

    def __add__(self, other: "Decomposition") -> "Decomposition":
        if not isinstance(other, Decomposition):
            return NotImplemented
        if other.space is not self.space and other.space != self.space:
            raise PreconditionError("decompositions live on different spaces")
        merged = []
        for a, b in zip(self.tables, other.tables):
            t = dict(a)
            for k, v in b.items():
                t[k] = t.get(k, Fraction(0)) + v
            merged.append(t)
        return Decomposition(self.space, tuple(merged))

    def scale(self, c) -> "Decomposition":
        c = as_fraction(c)
        return Decomposition(
            self.space,
            tuple({k: c * v for k, v in t.items()} for t in self.tables),
        )

    def __rmul__(self, c) -> "Decomposition":
        return self.scale(c)


class PinSet(_Frozen):
    """Prescribed values at distinct coordinates, e.g. u_1(x) = 0.

    Each coordinate is read by `_coordinate`: an (axis, label) pair, its
    axis an int that is not a bool and its label hashable.
    """

    pins: tuple[tuple[Coordinate, Fraction], ...]

    def __init__(self, pins):
        clean = {}
        for pin in pins:
            try:
                coord, v = pin
            except (TypeError, ValueError):
                raise PreconditionError(
                    f"pin {pin!r} is not an (axis, label) pair and a value"
                ) from None
            coord = _coordinate(coord)
            if coord in clean:
                raise PreconditionError(f"coordinate {coord!r} pinned twice")
            clean[coord] = as_fraction(v)
        super().__init__(tuple(clean.items()))

    @classmethod
    def of(cls, mapping: Mapping) -> "PinSet":
        return cls(tuple(mapping.items()))

    @classmethod
    def zeros(cls, coords: Iterable[Coordinate]) -> "PinSet":
        return cls(tuple((c, Fraction(0)) for c in coords))

    def __len__(self) -> int:
        return len(self.pins)

    def __iter__(self):
        return iter(self.pins)

    def coordinates(self) -> tuple[Coordinate, ...]:
        return tuple(c for c, _ in self.pins)
