"""Scalar fields, points and stacks of points.

A run computes over one of two scalar fields. FLOAT64 is IEEE double
precision: a point is a 1-d float64 numpy array and a stack an (N, d)
float64 array. RATIONAL is exact arithmetic over fractions.Fraction: a point
is a tuple of Fraction and a stack an (N, d) object array of them. Maps,
gauges and the corrector work on stacks; a call with one point is the one-row
case and answers in point form again.

Code that holds a point or a stack reads its field off it (field_of); code
that holds none takes a field. Each constant, zero and sample draw is written
once, as a call on the field, so one body of code serves both backends.
RATIONAL represents 2^beta only at beta = 1, and Field.beta is the one place
that refuses any other beta. Both fields draw sample points at a given scale:
RATIONAL points are dyadic grid points times the scale read decimally.

The v* helpers below act on single points and dispatch on the container
type, so callers never branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class Field:
    """A scalar backend: the type of every coordinate, constant and value of a run.

    name is the backend's config name, dtype the dtype of its stacks and
    scalar the type of its numbers. Each field is one instance, compared and
    hashed by identity.
    """

    name: str
    dtype: object
    scalar: type

    def const(self, p, q=1):
        """p/q as a scalar of the field; p and q must be exact in float64."""
        return self.scalar(p) if q == 1 else self.scalar(p) / q

    def zeros(self, shape) -> np.ndarray:
        """An array of zeros of the field."""
        return np.full(shape, self.const(0), dtype=self.dtype)

    def zero(self, dim: int):
        """The zero point of dimension dim."""
        return point_form(self.zeros(dim))


class _Float64(Field):
    def beta(self, beta) -> float:
        """beta as a float, the exponent of the field's powers."""
        return float(beta)

    def draw(self, rng, d: int, scale):
        """A sample point: d standard normal coordinates times scale."""
        return scale * rng.normal(size=d)


class _Rational(Field):
    def beta(self, beta) -> Fraction:
        """Fraction(1) at beta = 1; no other power 2^beta is rational."""
        if beta != 1:
            raise ConfigurationError(f"the exact-rational backend needs beta = 1, got {beta!r}")
        return Fraction(1)

    def draw(self, rng, d: int, scale):
        """A sample point: d grid points n/256 with |n| <= 4096, times scale.

        A float scale is read decimally (0.3 is 3/10), like a config scalar;
        the small denominators keep downstream Fractions small.
        """
        num = rng.integers(-4096, 4097, size=d)
        s = scale if isinstance(scale, Fraction) else Fraction(str(float(scale)))
        return tuple(Fraction(int(n), 256) * s for n in num)


FLOAT64 = _Float64("float64", np.float64, float)
RATIONAL = _Rational("exact-rational", object, Fraction)
_BY_NAME = {field.name: field for field in (FLOAT64, RATIONAL)}


def field_named(backend: str) -> Field:
    """The field of a backend name, "float64" or "exact-rational"."""
    return _BY_NAME[backend]


def field_of(x) -> Field:
    """RATIONAL for exact points and stacks (tuples, object arrays), else FLOAT64."""
    if isinstance(x, tuple) or (isinstance(x, np.ndarray) and x.dtype.kind == "O"):
        return RATIONAL
    return FLOAT64


def as_stack(x):
    """(stack, single): x as an (N, d) array, and whether x was one point.

    x is a point, a stack, or a sequence of points of one backend.
    """
    first = x[0] if isinstance(x, list) and x else x
    stack = np.asarray(x, dtype=field_of(first).dtype)
    if stack.ndim == 1:
        return stack[None, :], True
    return stack, False


def stack(points) -> np.ndarray:
    """A point, a stack or a sequence of points as an (N, d) array."""
    return as_stack(points)[0]


def point_form(row):
    """One row of a stack as a point: a tuple on the exact backend."""
    return tuple(row) if row.dtype.kind == "O" else row


def unstack(stack, single: bool):
    """The stack itself, or its only row in point form when single."""
    return point_form(stack[0]) if single else stack


def vadd(u, v):
    if isinstance(u, np.ndarray):
        return u + v
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    if isinstance(u, np.ndarray):
        return u - v
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(u):
    if isinstance(u, np.ndarray):
        return -u
    return tuple(-a for a in u)


def vscale(t, u):
    if isinstance(u, np.ndarray):
        return t * u
    return tuple(t * a for a in u)


def vdot(u, v):
    if isinstance(u, np.ndarray):
        return float(np.dot(u, v))
    s = Fraction(0)
    for a, b in zip(u, v, strict=True):
        s += a * b
    return s


def is_zero(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool(np.all(v == 0.0))
    return all(a == 0 for a in v)


def vlen(v) -> int:
    return len(v)
