"""k-step iteration x_{n+k} = f(x_n,..,x_{n+k-1}), diagonal Picard iteration,
convergence detection, empirical rate fitting, and explicit error bounds.

`iterate` runs one start; `iterate_many` runs S starts side by side, and
each of its traces is the one a single run would return. Picard iteration
is the k-step scheme of `op.diagonal`: `picard(op, ...)` runs it from one
start point, `iterate_many(op.diagonal, ...)` from many. All of them check
their seeds once, at entry; a bad seed is a UsageError before any step.
The trace of a run holds its points as one float64 (n, m) array, seeds
included, and its step distances as one float64 (n-1,) array. The runs
advance in blocks of steps that are tested at once, up to BLOCK steps
while no run is predicted to stop; no result depends on the block size.

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

from . import bmetric, contraction, operators
from .bmetric import ValueEq, leq_tol, payload
from .errors import DomainError, NumericEvalError, UsageError, _renumber, require_finite

DIVERGENCE_FACTOR = 1e12
_INITIAL_CAPACITY = 256  # points a run's buffers hold before their first doubling
# The most steps a block of _run takes before its one test. A longer block
# spreads the test over more steps, but is predicted more rarely, as it ends
# before any predicted stop. No result depends on this size.
BLOCK = 16


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


@dataclass(eq=False)
class IterationTrace(ValueEq):
    __hash__ = None
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
        return payload(self, "out_of_domain")

    def to_csv_rows(self):
        """Rows (n, x, alpha_n); coordinates are ';'-joined."""
        rows = [("n", "x", "alpha_n")]
        alphas = [repr(a) for a in self.alphas.tolist()]
        for i, pt in enumerate(self.points.tolist()):
            rows.append((str(i + 1), ";".join(map(repr, pt)),
                         alphas[i] if i < len(alphas) else ""))
        return rows


def _run(op, space, seeds, stop, strict_domain):
    """Extend each run of the (S, k, m) `seeds` one point a step until a stop
    rule fires; return the S traces in run order.

    The seeds are checked here, once. The steps then advance every live run
    on views of float64 (S, cap, m) and (S, cap) buffers that double up to
    max_iterations. `op` is applied to a run's last k points; for Picard
    iteration `op` is `op.diagonal`, whose one-point window is the last
    point.

    The steps come in blocks, as many as `_horizon` predicts no run to stop
    in. A block costs one operator kernel call a step, and one box compare,
    one metric kernel call and one scan for stop events in all (`_block`).
    Its steps before the first event are kept; the step of an event runs
    alone, as below, so no trace or error depends on the block size. The
    block's kernels run with each floating-point condition numpy is not set
    to ignore raised: a block ends before a step whose operator kernel
    raises, and runs its steps alone if its metric kernel does. Such a step
    runs outside the block, under the caller's settings, so its warning,
    FloatingPointError or callback is the one a step alone gives, at the
    same step.

    A step alone calls the operator and metric kernels once each. Between
    them one compare against the box's widened bounds tests the domain and,
    as it fails at NaN and ±inf, finiteness too; a step that fails it runs
    `check_finite` first, so a non-finite point is a NumericEvalError
    before any DomainError. The stop rules read the step distances as
    Python floats; the residuals d(x, F(x)) of the runs whose step met
    step_tol take one more operator and metric kernel call, for all of them.
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
    step_tol = stop.step_tol
    cap = max(n, min(_INITIAL_CAPACITY, limit))
    points = np.empty((runs, cap, m))
    alphas = np.empty((runs, cap))
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
    # a block's kernels raise at each floating-point condition the caller
    # does not ignore, in place of its warning, callback or error
    raised = {condition: "ignore" if mode == "ignore" else "raise"
              for condition, mode in np.geterr().items()}
    # a kernel error names a buffer row: re-raise it naming the run that row
    # holds, through a lambda because `ids` is rebound as runs stop
    with _renumber(lambda row: ids[row]):
        while n < limit:
            if n == cap:
                cap = min(2 * cap, limit)
                points = np.concatenate([points, np.empty((len(ids), cap - n, m))], axis=1)
                alphas = np.concatenate([alphas, np.empty((len(ids), cap - n))], axis=1)
            nxt = f(op, points[:, n - k:n])
            b = 1 if blowup is None else min(_horizon(alphas, n, blowup, step_tol),
                                             limit - n, cap - n)
            if b > 1:
                points[:, n] = nxt
                done, outside = _block(op, space, points, alphas, n, b, blowup, step_tol,
                                       strict_domain, raised)
                if done:  # else step n has an event and runs alone, below
                    if outside is not None:
                        for r, count in enumerate(outside.tolist()):
                            out_of_domain[ids[r]] += count
                    n += done
                    continue
            # False at NaN and ±inf too
            inside = (nxt >= space.domain.lo_tol) & (nxt <= space.domain.hi_tol)
            if np.count_nonzero(inside) < inside.size:  # a fifth of inside.all()'s cost
                operators.check_finite(nxt)
                for r, ok in enumerate(inside.all(axis=1).tolist()):
                    if not ok:
                        if strict_domain:
                            raise DomainError(_in_run("iterate left the domain in strict mode",
                                                      ids[r], runs))
                        out_of_domain[ids[r]] += 1
            points[:, n] = nxt
            alpha = d(space, points[:, n - 1], nxt)
            alphas[:, n - 1] = alpha
            if blowup is None:  # alphas[:, 0] is set from here on; capped at the
                # largest float, which no finite distance exceeds
                blowup = np.minimum([DIVERGENCE_FACTOR * (1.0 + a) for a in alphas[:, 0].tolist()],
                                    np.finfo(float).max)
            stopped, near = {}, []
            for r, (a, top) in enumerate(zip(alpha.tolist(), blowup.tolist())):
                if not math.isfinite(a):
                    raise NumericEvalError(_in_run(
                        f"non-finite result in {space.distance_name} alpha_{n}", ids[r], runs))
                if a > top:
                    stopped[r] = ("diverged", None)
                elif a <= step_tol:
                    near.append(r)
            if near:
                x = nxt[near]
                with _renumber(near.__getitem__):  # a residual's row is a row of `near`
                    fx = operators.check_finite(
                        f(op, np.broadcast_to(x[:, None], (len(near), k, m))))
                    residuals = require_finite(d(space, x, fx), space.distance_name).tolist()
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
                ids = [ids[r] for r in keep]
                blowup = blowup[keep]
    for r, run in enumerate(ids):
        traces[run] = _trace(points[r], alphas[r], n, "max_iterations", None, out_of_domain[run])
    return traces


def _horizon(alphas, n, blowup, step_tol):
    """How many steps, at most BLOCK, the live runs are predicted to take
    before any of them stops: each run's last two step distances are
    extrapolated geometrically, a shrinking run's to step_tol and a growing
    run's to its blowup threshold. 1 when fewer than two step distances
    exist, a run's last one has met step_tol, or a ratio is 1 or not finite."""
    if n < 3:
        return 1
    if len(blowup) > 1:  # one numpy pass: a Python loop costs more past a few runs
        prev, last = alphas[:, n - 3], alphas[:, n - 2]
        with np.errstate(all="ignore"):
            rate = np.log(last) - np.log(prev)  # the log of the ratio
            # the step at which last * ratio^j crosses the run's threshold:
            # -inf at a ratio of 1, 0 at an infinite one
            steps = (np.log(np.where(rate <= 0, step_tol, blowup)) - np.log(last)) / rate
        least = steps.min() if (last > step_tol).all() else 0.0
    else:  # the same on Python floats, at 2 µs a call against the numpy pass's 18 µs
        prev, last = alphas[0, n - 3:n - 1].tolist()
        if not (last > step_tol and prev > 0):
            return 1
        rate = math.log(last) - math.log(prev)
        least = 0.0 if rate == 0 else (
            math.log(step_tol if rate < 0 else blowup[0]) - math.log(last)) / rate
    return math.ceil(min(least, BLOCK + 1)) - 1 if least > 2 else 1


def _block(op, space, points, alphas, n, b, blowup, step_tol, strict_domain, raised):
    """Take steps n+1 .. n+b-1 after step n, already in `points`, with the
    operator kernel alone, up to the first step whose kernel raises: a
    NumericEvalError, or a FloatingPointError at a condition that the
    errstate `raised` sets to "raise". Then test the steps before it with
    one box compare and one metric kernel call, whose step distances go to
    `alphas`.

    Returns how many leading steps no run has an event at (a non-finite
    point, a point outside the box in strict mode, a non-finite step
    distance, one past blowup, one at step_tol), 0 if the metric kernel
    raised; and per row the points outside the box in those steps, or None
    when every point is inside.
    """
    f, d, k = operators.KERNELS[op.kind], bmetric.KERNELS[space.kind], op.arity
    at_step = points.swapaxes(0, 1)  # a write to at_step[j] costs about half of one to points[:, j]
    with np.errstate(**raised):
        for j in range(n + 1, n + b):
            try:
                at_step[j] = f(op, points[:, j - k:j])
            except (NumericEvalError, FloatingPointError):
                b = j - n  # step j is the next block's first, where this shows
                break
        block = points[:, n:n + b]
        try:
            alpha = d(space, points[:, n - 1:n + b - 1], block)
        except (NumericEvalError, FloatingPointError):  # each step runs alone up to it
            return 0, None
    alphas[:, n - 1:n + b - 1] = alpha
    quiet = (alpha > step_tol) & (alpha <= blowup[:, None])  # False at NaN and inf
    inside = (block >= space.domain.lo_tol) & (block <= space.domain.hi_tol)
    outside = None
    if np.count_nonzero(inside) < inside.size:
        outside = ~inside.all(axis=2)
        quiet &= ~outside if strict_domain else np.isfinite(block).all(axis=2)
    each = quiet.all(axis=0)
    kept = b if each.all() else int(each.argmin())
    return kept, None if outside is None else np.count_nonzero(outside[:, :kept], axis=1)


def _in_run(message, run, runs):
    """`message`, naming its run when there is more than one."""
    return message if runs == 1 else f"{message} in run {run}"


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


@dataclass(eq=False)
class BoundReport(ValueEq):
    __hash__ = None
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
        return payload(self)


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
    K = float(max(a / theta ** i for i, a in enumerate(alphas[:k].tolist(), 1)))
    n = np.arange(1, len(alphas) + 1, dtype=float)
    per_step = b ** k * K * theta ** n
    within = bool(leq_tol(alphas, per_step).all())
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
    idx = np.nonzero(alphas > 0)[0]
    if len(idx) < 8:
        return None
    tail = idx[len(idx) // 2:]
    # the means as .mean() takes them, without its Python-level wrapper
    x = tail - np.add.reduce(tail, dtype=float) / len(tail)
    y = np.log(alphas[tail])
    slope = np.dot(x, y - np.add.reduce(y) / len(y)) / np.dot(x, x)
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
        np.maximum(out, space.distance_batch(pts[:n_max], pts[p:p + n_max]), out=out)
    return out
