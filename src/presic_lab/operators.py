"""Arity-k operators f: X^k -> X and their diagonal companions F(x) = f(x,..,x).

Built-in kinds:

* averaging(k): f(x_1,..,x_k) = (x_1 + .. + x_k) / (2k), coordinatewise
* affine(weights, offset): f = sum_j a_j x_j + c, coordinatewise weights
* constant(c): affine with zero weights and offset c
* dsl: one expression per output coordinate, in variables x1..xk which
  refer to that coordinate of each window entry

`op.diagonal` is F as an operator of arity 1 (internal kind "diagonal"),
bit-identical to f on the repeated window: Picard iteration is its k-step
scheme, and a diagonal condition is a window condition on it.

A point u is a fixed point when f(u,..,u) = u; residual() measures the
distance d(u, f(u,..,u)) in a given space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, mul

import numpy as np

from . import dsl
from .bmetric import ValueEq, fold
from .errors import NumericEvalError, UsageError, as_int


@dataclass(frozen=True, eq=False)
class PresicOperator(ValueEq):
    kind: str
    arity: int
    dimension: int
    weights: np.ndarray | None = None  # affine and constant, shape (k,)
    offset: np.ndarray | None = None   # affine and constant, shape (m,)
    exprs: tuple | None = None         # dsl, one Expr per output coordinate
    base: PresicOperator | None = None  # diagonal, the operator f of F(x) = f(x,..,x)

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise UsageError(f"unknown operator kind {self.kind!r}")
        # window shapes must be ints
        object.__setattr__(self, "arity", as_int(self.arity, "operator arity", 1))
        object.__setattr__(self, "dimension", as_int(self.dimension, "operator dimension"))
        if self.dimension < 1:
            raise UsageError("operator dimension must be >= 1")

    @cached_property
    def diagonal(self):
        """F(x) = f(x,..,x) as an operator of arity 1."""
        return PresicOperator("diagonal", 1, self.dimension, base=self)

    def window(self, points):
        """`points` as a float (k, m) window of k points of dimension m. A
        number or flat list also reads as k points when m = 1, and as the one
        point when k = 1."""
        w = np.asarray(points, dtype=float)
        k, m = self.arity, self.dimension
        if w.ndim < 2 and 1 in (k, m):
            w = w.reshape((-1, 1) if m == 1 else (1, -1))
        if w.shape != (k, m):
            raise UsageError(f"start must supply {k} point(s) of dimension {m}, "
                             f"got shape {w.shape}")
        return w

    def apply(self, window):
        """Evaluate f on a window of k points (any form `window` reads); returns one point."""
        return self.apply_batch(self.window(window)[None])[0]

    def apply_batch(self, windows):
        """Evaluate f on (N, k, m) stacked windows; returns (N, m)."""
        w = np.asarray(windows, dtype=float)
        if w.ndim != 3 or w.shape[1] != self.arity or w.shape[2] != self.dimension:
            raise UsageError(f"batch shape {w.shape} does not match (N, {self.arity}, {self.dimension})")
        return check_finite(KERNELS[self.kind](self, w))

    def diagonal_apply(self, x):
        """F(x) = f(x,..,x); identical to apply on the k-fold repeated window."""
        return self.diagonal.apply(x)

    def diagonal_batch(self, xs):
        """Vectorized diagonal map on (N, m) points."""
        return self.diagonal.apply_batch(np.atleast_2d(np.asarray(xs, dtype=float))[:, None])


def _averaging(op, w):
    return fold(np.add, w, 1) / (2.0 * op.arity)


def _affine(op, w):
    # explicit fold keeps summation order independent of batch size,
    # so batched and single-window evaluation agree bit-for-bit
    out = w[:, 0, :] * op.weights[0]
    for j in range(1, op.arity):
        out = out + w[:, j, :] * op.weights[j]
    return out + op.offset


def _diagonal(op, w):  # the repeated window is a view, not a copy
    base = op.base
    return KERNELS[base.kind](base, np.broadcast_to(w, (len(w), base.arity, op.dimension)))


def _dsl(op, w):
    out = np.empty((op.dimension, len(w))).T  # coordinate-major, as the windows are
    for j, expr in enumerate(op.exprs):
        # w.T[j] holds coordinate j of each window slot: row i is w[:, i, j]
        out[:, j] = dsl.evaluate(expr, dict(zip(expr.variables, w.T[j])))
    return out


# kind -> kernel(op, windows) for float64 (N, k, m) windows already checked
# against the operator's shape; returns (N, m) before the non-finite check
KERNELS = {"averaging": _averaging, "affine": _affine, "constant": _affine, "dsl": _dsl,
           "diagonal": _diagonal}


# The kernels above on Python floats, for a lone run of the solver: each
# repeats its kernel's arithmetic in the same order, so its values are the
# kernel's bit for bit. A point of dimension 1 is a float, a longer one a
# list of floats, and a window is a list of k points.

def _coordinatewise(kernels):
    """The kernel on windows of points whose coordinate j is `kernels[j]`
    on the window's floats of that coordinate."""
    if len(kernels) == 1:
        return kernels[0]
    return lambda w: [g(col) for g, col in zip(kernels, zip(*w))]


def _float_averaging(op):
    if op.arity >= 8:  # `fold` reduces 8 or more terms pairwise
        return None
    div = 2.0 * op.arity
    # below 8 terms, add.reduce is a left fold from +0.0
    return _coordinatewise([lambda w: reduce(add, w, 0.0) / div] * op.dimension)


def _float_affine(op):
    weights = op.weights.tolist()
    return _coordinatewise([lambda w, c=c: reduce(add, map(mul, w, weights)) + c
                            for c in op.offset.tolist()])


def _float_diagonal(op):
    base = op.base
    make = FLOAT_KERNELS.get(base.kind)
    f = make and make(base)
    return f and (lambda w: f(w * base.arity))


# kind -> maker(op): the kernel(window) of `op` on Python floats, or None
# where its arithmetic is not repeated there
FLOAT_KERNELS = {"averaging": _float_averaging, "affine": _float_affine,
                 "constant": _float_affine, "diagonal": _float_diagonal}


def check_finite(out):
    """Return `out`, raising NumericEvalError at the first non-finite entry."""
    if not np.isfinite(out).all():
        n, j = np.argwhere(~np.isfinite(out))[0]
        raise NumericEvalError(f"non-finite operator output at coordinate {j} (window {{row}})", int(n))
    return out


def averaging(k, dimension=1):
    """Example operator f(x_1,..,x_k) = (x_1+..+x_k)/(2k); fixed point 0."""
    return PresicOperator("averaging", k, dimension)


def affine(weights, offset=0.0, dimension=1):
    """f = sum_j a_j x_j + c with scalar per-slot weights, coordinatewise."""
    a = np.atleast_1d(np.asarray(weights, dtype=float))
    c = np.broadcast_to(np.atleast_1d(np.asarray(offset, dtype=float)), (dimension,)).copy()
    return PresicOperator("affine", len(a), dimension, weights=a, offset=c)


def constant(value, k=1):
    """f identically equal to a fixed point value: zero weights, offset value."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return PresicOperator("constant", k, v.size, weights=np.zeros(k), offset=v)


def from_dsl(exprs, k, dimension=None):
    """Operator from one DSL source string per output coordinate."""
    if isinstance(exprs, str):
        exprs = [exprs]
    dimension = dimension if dimension is not None else len(exprs)
    if len(exprs) != dimension:
        raise UsageError("need one expression per output coordinate")
    names = dsl.operator_variables(as_int(k, "operator arity", 1))
    compiled = tuple(dsl.parse(src, names) for src in exprs)
    return PresicOperator("dsl", k, dimension, exprs=compiled)


def residual(op, space, u):
    """d(u, f(u,..,u)): zero exactly at fixed points."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return space.distance(u, op.diagonal_apply(u))
