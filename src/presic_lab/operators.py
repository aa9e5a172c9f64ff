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

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dsl
from .bmetric import fold
from .errors import NumericEvalError, UsageError


@dataclass(frozen=True)
class PresicOperator:
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
        arity = as_int(self.arity)
        if arity is None or arity < 1:
            raise UsageError(f"operator arity must be an integer >= 1, got {self.arity!r}")
        object.__setattr__(self, "arity", arity)  # window shapes must be ints
        if self.dimension < 1:
            raise UsageError("operator dimension must be >= 1")

    @cached_property
    def variables(self):
        """The names x1..xk a DSL body binds to its window's slots."""
        return dsl.operator_variables(self.arity)

    @cached_property
    def diagonal(self):
        """F(x) = f(x,..,x) as an operator of arity 1."""
        return PresicOperator("diagonal", 1, self.dimension, base=self)

    def apply(self, window):
        """Evaluate f on a window of k points; returns one point."""
        w = np.asarray(window, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.shape != (self.arity, self.dimension):
            raise UsageError(
                f"window shape {w.shape} does not match (k={self.arity}, m={self.dimension})")
        return self.apply_batch(w[None, ...])[0]

    def apply_batch(self, windows):
        """Evaluate f on (N, k, m) stacked windows; returns (N, m)."""
        w = np.asarray(windows, dtype=float)
        if w.ndim != 3 or w.shape[1] != self.arity or w.shape[2] != self.dimension:
            raise UsageError(f"batch shape {w.shape} does not match (N, {self.arity}, {self.dimension})")
        return check_finite(KERNELS[self.kind](self, w))

    def diagonal_apply(self, x):
        """F(x) = f(x,..,x); identical to apply on the k-fold repeated window."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.apply(np.tile(x, (self.arity, 1)))

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
    out = np.empty((len(w), op.dimension))
    for j, expr in enumerate(op.exprs):
        # w.T[j] holds coordinate j of each window slot: row i is w[:, i, j]
        out[:, j] = dsl.evaluate(expr, dict(zip(op.variables, w.T[j])))
    return out


# kind -> kernel(op, windows) for float64 (N, k, m) windows already checked
# against the operator's shape; returns (N, m) before the non-finite check
KERNELS = {"averaging": _averaging, "affine": _affine, "constant": _affine, "dsl": _dsl,
           "diagonal": _diagonal}


def as_int(value):
    """`value` as an int if it is an integer or an integral float (no bool), else None."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    return int(value) if whole and not isinstance(value, bool) else None


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
    names = dsl.operator_variables(k)
    compiled = tuple(dsl.parse(src, names) for src in exprs)
    return PresicOperator("dsl", k, dimension, exprs=compiled)


def residual(op, space, u):
    """d(u, f(u,..,u)): zero exactly at fixed points."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return space.distance(u, op.diagonal_apply(u))
