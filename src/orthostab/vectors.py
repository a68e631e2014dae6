"""Points and stacks of points on both scalar backends.

A point is a 1-d float64 numpy array, or a tuple of fractions.Fraction on the
exact-rational backend. A stack is an (N, d) array of N points: float64, or an
object array of Fraction. Maps, gauges and the corrector work on stacks; a
call with one point is the one-row case and answers in point form again.

The v* helpers below act on single points and dispatch on the container
type, so callers never branch.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def is_exact(x) -> bool:
    """True for exact-rational points and stacks (tuples, object arrays)."""
    return isinstance(x, tuple) or (isinstance(x, np.ndarray) and x.dtype.kind == "O")


def as_stack(x):
    """(stack, single): x as an (N, d) array, and whether x was one point.

    x is a point, a stack, or a sequence of points of one backend.
    """
    if is_exact(x) or (isinstance(x, list) and x and is_exact(x[0])):
        stack = np.asarray(x, dtype=object)
    else:
        stack = np.asarray(x, dtype=np.float64)
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


def zeros(shape, exact: bool) -> np.ndarray:
    """An array of zeros: Fraction(0) entries on the exact backend."""
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


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


def vzero(dim: int, exact: bool):
    if exact:
        return tuple(Fraction(0) for _ in range(dim))
    return np.zeros(dim)


def is_zero(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool(np.all(v == 0.0))
    return all(a == 0 for a in v)


def vlen(v) -> int:
    return len(v)
