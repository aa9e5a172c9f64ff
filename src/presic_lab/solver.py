"""k-step iteration x_{n+k} = f(x_n,..,x_{n+k-1}), diagonal Picard iteration,
convergence detection, empirical rate fitting, and explicit error bounds.

`iterate` and `picard` check their seeds once, at entry; a bad seed is a
UsageError before any step. The trace of a run holds its points as one
float64 (n, m) array, seeds included, and its step distances as one
float64 (n-1,) array.

The bound machinery: with theta = eta^(1/k) and
K = max(alpha_1/theta, .., alpha_k/theta^k) built from the first k
consecutive-step distances alpha_n = d(x_n, x_{n+1}), every step obeys
alpha_n <= b^k K theta^n, and d(x_n, x_{n+p}) <= b^p K theta^n / (1-theta).
For the kannan-style scheme with lambda = a k b^k the tail bound is
(b lambda)^n / (1 - b lambda) * d(x_0, x_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bmetric, operators
from .bmetric import leq_tol
from .errors import DomainError, NumericEvalError, UsageError

DIVERGENCE_FACTOR = 1e12
_INITIAL_CAPACITY = 256  # points a run's buffers hold before their first doubling


@dataclass(frozen=True)
class StopRule:
    residual_tol: float = 1e-10
    step_tol: float = 1e-10
    max_iterations: int = 10 ** 6

    def __post_init__(self):
        if self.residual_tol <= 0 or self.step_tol <= 0:
            raise UsageError("tolerances must be positive")
        if self.max_iterations < 2:
            raise UsageError("max_iterations too small")


@dataclass
class IterationTrace:
    points: np.ndarray            # float64 (n, m), includes the seeds
    alphas: np.ndarray            # (n-1,), alphas[i] = d(points[i], points[i+1])
    stop_reason: str              # converged | max_iterations | diverged
    limit: np.ndarray | None = None
    final_residual: float | None = None
    fitted_rate: float | None = None
    out_of_domain: int = 0

    def __len__(self):
        return len(self.points)

    def to_dict(self):
        out = {
            "points": [[float(v) for v in row] for row in self.points],
            "alphas": [float(a) for a in self.alphas],
            "stop_reason": self.stop_reason,
            "limit": [float(v) for v in self.limit] if self.limit is not None else None,
            "final_residual": self.final_residual,
            "fitted_rate": self.fitted_rate,
        }
        return out

    def to_csv_rows(self):
        """Rows (n, x, alpha_n); coordinates are ';'-joined."""
        rows = [("n", "x", "alpha_n")]
        for i, pt in enumerate(self.points):
            alpha = repr(float(self.alphas[i])) if i < len(self.alphas) else ""
            rows.append((str(i + 1), ";".join(repr(float(v)) for v in pt), alpha))
        return rows


def _run(op, space, seeds, stop, strict_domain, diagonal):
    """Extend the (s, m) `seeds` one point a step until a stop rule fires.

    The seeds are checked here, once; the steps then run through the
    operator and metric kernels on views of float64 buffers that double up
    to max_iterations, with one finiteness check per point and per distance. The k-step scheme applies f to the last k points,
    the diagonal scheme to the last point repeated k times.
    """
    if space.dimension != op.dimension:
        raise UsageError(f"operator dimension {op.dimension} does not match "
                         f"space dimension {space.dimension}")
    if not np.all(np.isfinite(seeds)):
        raise UsageError("seed points have non-finite coordinates")
    k, m = op.arity, op.dimension
    limit = math.ceil(stop.max_iterations)  # buffer sizes must be ints; 1e6 is not
    f = operators.KERNELS[op.kind]
    d = bmetric.KERNELS[space.kind]
    inside = space.domain.contains
    n = len(seeds)
    cap = max(n, min(_INITIAL_CAPACITY, limit))
    points = np.empty((cap, m))
    alphas = np.empty(cap)
    points[:n] = seeds
    # checked, as every step distance is below
    alphas[:n - 1] = space.distance_batch(points[:n - 1], points[1:n])
    window = np.empty((1, k, m)) if diagonal else None
    out_of_domain = 0
    stop_reason = "max_iterations"
    while n < limit:
        if n == cap:
            cap = min(2 * cap, limit)
            points = np.concatenate([points, np.empty((cap - n, m))])
            alphas = np.concatenate([alphas, np.empty(cap - n)])
        if diagonal:
            window[0] = points[n - 1]
        else:
            window = points[n - k:n][None]
        nxt = operators.check_finite(f(op, window))
        if not inside(nxt)[0]:
            if strict_domain:
                raise DomainError("iterate left the domain in strict mode")
            out_of_domain += 1
        points[n] = nxt[0]
        alpha = float(d(space, points[n - 1:n], nxt)[0])
        if not math.isfinite(alpha):
            raise NumericEvalError(f"non-finite result in {space.distance_name} alpha_{n}")
        alphas[n - 1] = alpha
        n += 1
        if alpha > DIVERGENCE_FACTOR * (1.0 + alphas[0]):
            stop_reason = "diverged"
            break
        if alpha <= stop.step_tol:
            res = space.distance(nxt[0], op.diagonal_apply(nxt[0]))
            if res <= stop.residual_tol:
                stop_reason = "converged"
                break
    pts = points[:n].copy()
    trace = IterationTrace(pts, alphas[:n - 1].copy(), stop_reason,
                           out_of_domain=out_of_domain)
    if stop_reason == "converged":
        trace.limit = pts[-1]
        trace.final_residual = res
    trace.fitted_rate = estimate_rate(trace)
    return trace


def iterate(op, space, initial, stop=None, strict_domain=False):
    """Run the k-step scheme from k seed points."""
    stop = stop or StopRule()
    arr = np.asarray(initial, dtype=float)
    if arr.ndim == 1:
        if op.dimension == 1:
            arr = arr.reshape(-1, 1)
        elif op.arity == 1 and arr.size == op.dimension:
            arr = arr.reshape(1, -1)
    if arr.shape != (op.arity, op.dimension):
        raise UsageError(
            f"initial must supply k={op.arity} points of dimension {op.dimension}, got shape {arr.shape}")
    return _run(op, space, arr, stop, strict_domain, diagonal=False)


def picard(op, space, x0, stop=None, strict_domain=False):
    """Iterate the diagonal map F(x) = f(x,..,x) from a single start."""
    stop = stop or StopRule()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (op.dimension,):
        raise UsageError(f"x0 must be one point of dimension {op.dimension}, got shape {x0.shape}")
    return _run(op, space, x0[None], stop, strict_domain, diagonal=True)


@dataclass
class BoundReport:
    theta: float
    K: float
    b: float
    per_step_bounds: np.ndarray  # bound for alpha_n at n = 1..len(alphas)
    all_steps_within: bool

    def tail_bound(self, n, p):
        """Upper bound on d(x_n, x_{n+p}): b^p K theta^n / (1 - theta)."""
        if n < 1 or p < 1:
            raise UsageError("tail_bound needs n >= 1 and p >= 1")
        return self.b ** p * self.K * self.theta ** n / (1.0 - self.theta)

    def to_dict(self):
        return {
            "theta": self.theta,
            "K": self.K,
            "b": self.b,
            "per_step_bounds": [float(v) for v in self.per_step_bounds],
            "all_steps_within": self.all_steps_within,
        }


def presic_bounds(trace, eta, b, k):
    """Per-step and tail bounds for a trace of a ciric_max(eta) operator.

    theta = eta^(1/k); K = max over the first k alphas of alpha_i/theta^i;
    per-step bound b^k K theta^n; all_steps_within reports whether every
    observed alpha respects its bound (tolerance-aware).
    """
    if not 0 < eta < 1:
        raise UsageError("eta must lie in (0, 1)")
    alphas = np.asarray(trace.alphas, dtype=float)
    if len(alphas) < k:
        raise UsageError(f"trace too short: need at least k+1={k + 1} points")
    theta = eta ** (1.0 / k)
    K = float(max(alphas[i] / theta ** (i + 1) for i in range(k)))
    n = np.arange(1, len(alphas) + 1, dtype=float)
    per_step = b ** k * K * theta ** n
    within = bool(np.all(leq_tol(alphas, per_step)))
    return BoundReport(theta=theta, K=K, b=float(b),
                       per_step_bounds=per_step, all_steps_within=within)


def kannan_bounds(a, k, b, d01, n):
    """(b lambda)^n / (1 - b lambda) * d01 with lambda = a k b^k.

    Upper bound on d(x_n, x_m) for every m > n along the Picard scheme;
    requires a k b^(k+1) < 1.
    """
    if d01 < 0 or n < 0:
        raise UsageError("d01 and n must be nonnegative")
    lam = a * k * b ** k
    if not b * lam < 1:
        raise UsageError("requires a*k*b^(k+1) < 1")
    return (b * lam) ** n / (1.0 - b * lam) * d01


def kannan_report(trace, space, a, k):
    """The Kannan tail bounds along a Picard `trace` and whether every
    d(x_n, x_m), m > n, keeps within its n-th bound: the `bounds --a` payload."""
    b = space.b
    lam = a * k * b ** k
    pts = np.asarray(trace.points, dtype=float)
    d01 = float(trace.alphas[0]) if len(trace.alphas) else 0.0
    bounds = [kannan_bounds(a, k, b, d01, n) for n in range(len(pts))]
    within = all(np.all(leq_tol(space.distance_batch(pts[n][None], pts[n + 1:]), bounds[n]))
                 for n in range(len(pts) - 1))
    return {"a": a, "lambda": lam, "b_lambda": b * lam, "tail_bounds": bounds,
            "all_steps_within": within}


def estimate_rate(trace):
    """Geometric rate fitted to the tail of the step distances.

    Least-squares slope sum((n - mean n)(y - mean y)) / sum((n - mean n)^2)
    of y = log(alpha_n) over the trailing half of the nonzero alphas,
    exponentiated; None when fewer than 8 nonzero alphas.
    """
    alphas = np.asarray(trace.alphas, dtype=float)
    mask = alphas > 0
    if mask.sum() < 8:
        return None
    idx = np.nonzero(mask)[0]
    tail = idx[len(idx) // 2:]
    x = tail - tail.mean()
    y = np.log(alphas[tail])
    slope = np.dot(x, y - y.mean()) / np.dot(x, x)
    return float(np.exp(slope))


def cauchy_profile(trace, space, P):
    """s_n = max_{1<=p<=P} d(x_n, x_{n+p}) for every n with n+P in range."""
    if P < 1:
        raise UsageError("P must be >= 1")
    pts = np.asarray(trace.points, dtype=float)
    n_max = len(pts) - P
    if n_max <= 0:
        return np.empty(0)
    out = np.zeros(n_max)
    for p in range(1, P + 1):
        d = space.distance_batch(pts[:n_max], pts[p:p + n_max])
        out = np.maximum(out, d)
    return out
