"""k-step iteration x_{n+k} = f(x_n,..,x_{n+k-1}), diagonal Picard iteration,
convergence detection, empirical rate fitting, and explicit error bounds.

`iterate` runs one start; `iterate_many` runs S starts side by side, and
each of its traces is the one a single run would return. Picard iteration
is the k-step scheme of `op.diagonal`: `picard(op, ...)` runs it from one
start point, `iterate_many(op.diagonal, ...)` from many. All of them check
their seeds once, at entry; a bad seed is a UsageError before any step.
The trace of a run holds its points as one float64 (n, m) array, seeds
included, and its step distances as one float64 (n-1,) array.

The bound machinery: with theta = eta^(1/k) and
K = max(alpha_1/theta, .., alpha_k/theta^k) built from the first k
consecutive-step distances alpha_n = d(x_n, x_{n+1}), every step obeys
alpha_n <= b^k K theta^n, and d(x_n, x_{n+p}) <= b^p K theta^n / (1-theta).
For the kannan-style scheme with lambda = a k b^k the tail bound is
(b lambda)^n / (1 - b lambda) * d(x_0, x_1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import bmetric, contraction, dsl, operators
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
        for name in ("residual_tol", "step_tol"):
            tol = getattr(self, name)
            # `not tol > 0` also holds for NaN, which no step would ever meet
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
                raise UsageError(f"{name} must be a positive number, got {tol!r}")
        cap = operators.as_int(self.max_iterations)
        if cap is None:
            raise UsageError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        object.__setattr__(self, "max_iterations", cap)  # buffer sizes must be ints
        if cap < 2:
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


def _run(op, space, seeds, stop, strict_domain):
    """Extend each run of the (S, k, m) `seeds` one point a step until a stop
    rule fires; return the S traces in run order.

    The seeds are checked here, once. Each step then advances every live run
    with one call each of the operator kernel, the finiteness check,
    `contains` and the metric kernel, on views of float64 (S, cap, m) and
    (S, cap) buffers that double up to max_iterations. `op` is applied to a
    run's last k points; for Picard iteration `op` is `op.diagonal`, whose
    one-point window is the last point. The stop rules read the step
    distances as Python floats; the residuals d(x, F(x)) of the runs whose
    step met step_tol take one more operator and metric kernel call, for all
    of them.
    When a run stops, its trace is cut out and the buffers keep only the
    live rows.

    An error names its run. In a kernel error the window or row index is
    the run's; the other messages end in "in run r" when S > 1.
    """
    runs, n, m = seeds.shape
    if space.dimension != op.dimension:
        raise UsageError(f"operator dimension {op.dimension} does not match "
                         f"space dimension {space.dimension}")
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise UsageError(_in_run("seed points have non-finite coordinates",
                                 int(np.argwhere(bad)[0][0]), runs))
    k, limit = op.arity, stop.max_iterations
    f = operators.KERNELS[op.kind]
    d = bmetric.KERNELS[space.kind]
    inside = space.domain.contains
    cap = max(n, min(_INITIAL_CAPACITY, limit))
    points = np.empty((runs, cap, m))
    alphas = np.empty((runs, cap))
    # step-major views of the same buffers: at_step[n] is every row's point n,
    # and writes through them are the cheapest numpy indexing offers
    at_step, alphas_at_step = points.swapaxes(0, 1), alphas.T
    points[:, :n] = seeds
    try:  # checked, as every step distance is below
        alphas[:, :n - 1] = space.distance_batch(
            seeds[:, :-1].reshape(-1, m), seeds[:, 1:].reshape(-1, m)).reshape(runs, n - 1)
    except NumericEvalError as err:
        if err.row is None:
            raise
        run, pair = divmod(err.row, n - 1)
        raise NumericEvalError(_in_run(err.template, run, runs), pair) from None
    ids = list(range(runs))  # the run each buffer row holds
    out_of_domain = [0] * runs
    traces = [None] * runs
    blowup = None  # per row: the step distance past which its run diverged
    while n < limit:
        if n == cap:
            cap = min(2 * cap, limit)
            points = np.concatenate([points, np.empty((len(ids), cap - n, m))], axis=1)
            alphas = np.concatenate([alphas, np.empty((len(ids), cap - n))], axis=1)
            at_step, alphas_at_step = points.swapaxes(0, 1), alphas.T
        try:
            nxt = operators.check_finite(f(op, points[:, n - k:n]))
        except NumericEvalError as err:
            raise _renumbered(err, ids) from None
        inside_rows = inside(nxt).tolist()
        if not all(inside_rows):
            for r, ok in enumerate(inside_rows):
                if not ok:
                    if strict_domain:
                        raise DomainError(_in_run("iterate left the domain in strict mode",
                                                  ids[r], runs))
                    out_of_domain[ids[r]] += 1
        at_step[n] = nxt
        alpha = d(space, at_step[n - 1], nxt)
        alphas_at_step[n - 1] = alpha
        if blowup is None:  # alphas[:, 0] is set from here on
            blowup = [DIVERGENCE_FACTOR * (1.0 + a) for a in alphas[:, 0].tolist()]
        stopped, near = {}, []
        for r, a in enumerate(alpha.tolist()):
            if not math.isfinite(a):
                raise NumericEvalError(_in_run(
                    f"non-finite result in {space.distance_name} alpha_{n}", ids[r], runs))
            if a > blowup[r]:
                stopped[r] = ("diverged", None)
            elif a <= stop.step_tol:
                near.append(r)
        if near:
            x = nxt[near]
            try:
                fx = operators.check_finite(f(op, np.broadcast_to(x[:, None], (len(near), k, m))))
                residuals = dsl.require_finite(d(space, x, fx), space.distance_name).tolist()
            except NumericEvalError as err:
                raise _renumbered(err, [ids[r] for r in near]) from None
            for r, res in zip(near, residuals):
                if res <= stop.residual_tol:
                    stopped[r] = ("converged", res)
        n += 1
        if stopped:
            for r, (reason, res) in stopped.items():
                traces[ids[r]] = _trace(points[r], alphas[r], n, reason, res,
                                        out_of_domain[ids[r]])
            keep = [r for r in range(len(ids)) if r not in stopped]
            if not keep:
                return traces
            points, alphas = points[keep], alphas[keep]
            at_step, alphas_at_step = points.swapaxes(0, 1), alphas.T
            ids = [ids[r] for r in keep]
            blowup = [blowup[r] for r in keep]
    for r, run in enumerate(ids):
        traces[run] = _trace(points[r], alphas[r], n, "max_iterations", None, out_of_domain[run])
    return traces


def _in_run(message, run, runs):
    """`message`, naming its run when there is more than one."""
    return message if runs == 1 else f"{message} in run {run}"


def _renumbered(err, ids):
    """A kernel's NumericEvalError with its batch row replaced by the run
    that row holds."""
    return err if err.row is None else NumericEvalError(err.template, ids[err.row])


def _trace(points, alphas, n, stop_reason, residual, out_of_domain):
    """The trace of a run's first n buffered points."""
    pts = points[:n].copy()
    trace = IterationTrace(pts, alphas[:n - 1].copy(), stop_reason, out_of_domain=out_of_domain)
    if stop_reason == "converged":
        trace.limit = pts[-1]
        trace.final_residual = residual
    trace.fitted_rate = estimate_rate(trace)
    return trace


def _seed_window(op, points):
    """`points` as the float (k, m) seed window of one run of `op`. A number
    or flat list also reads as k points when m = 1, and as the one point
    when k = 1."""
    arr = np.asarray(points, dtype=float)
    k, m = op.arity, op.dimension
    if arr.ndim < 2 and 1 in (k, m):
        arr = arr.reshape((-1, 1) if m == 1 else (1, -1))
    if arr.shape != (k, m):
        raise UsageError(f"start must supply {k} point(s) of dimension {m}, "
                         f"got shape {arr.shape}")
    return arr


def iterate(op, space, initial, stop=None, strict_domain=False):
    """Run the k-step scheme from k seed points."""
    return _run(op, space, _seed_window(op, initial)[None], stop or StopRule(), strict_domain)[0]


def picard(op, space, x0, stop=None, strict_domain=False):
    """Iterate the diagonal map F(x) = f(x,..,x) from a single start."""
    op = op.diagonal
    return _run(op, space, _seed_window(op, x0)[None], stop or StopRule(), strict_domain)[0]


def iterate_many(op, space, starts, stop=None, strict_domain=False):
    """Run S iterations side by side from `starts` of shape (S, k, m), k seed
    points per run (pass `op.diagonal` and one start point per run for
    Picard iteration). Returns the S traces, each bit-identical to the trace
    `iterate` returns from that run's start. An error names its run."""
    stop = stop or StopRule()
    arr = np.asarray(starts, dtype=float)
    if arr.ndim != 3 or len(arr) < 1 or arr.shape[1:] != (op.arity, op.dimension):
        raise UsageError(f"starts must have shape (S, {op.arity}, {op.dimension}) with S >= 1, "
                         f"got shape {arr.shape}")
    return _run(op, space, arr, stop, strict_domain)


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
    contraction.ciric_max(eta).validate(k=k)
    k = int(k)  # validate also takes an integral float
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
    requires what contraction.kannan(a).validate(k=k, b=b) checks.
    """
    if d01 < 0 or n < 0:
        raise UsageError("d01 and n must be nonnegative")
    contraction.kannan(a).validate(k=k, b=b)
    lam = a * k * b ** k
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
