"""b-metric spaces on box domains.

A b-metric relaxes the triangle inequality to d(x,y) <= b(d(x,z)+d(z,y))
for a constant b >= 1. This module provides the standard constructions
(p-th power of a metric with b = 2^(p-1), squared Euclidean with b = 2,
truncated l_p for 0 < p < 1 with b = 2^(1/p)), sampled axiom checking,
empirical estimation of the sharp relaxation constant, and the iterated
chain bound d(u_0,u_n) <= b d(u_0,u_1) + ... + b^(n-1) d(u_{n-1},u_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add

import numpy as np

from . import dsl
from .errors import DegenerateDomainError, UsageError, _renumber, as_int, as_real, require_finite

# Scale-aware slack: L <= R is judged violated when L > R + TOL_REL*(1+|R|).
TOL_REL = 1e-9


def leq_tol(lhs, rhs):
    """Tolerance-aware comparison lhs <= rhs (elementwise for arrays)."""
    return lhs <= rhs + TOL_REL * (1.0 + np.abs(rhs))


def fold(ufunc, a, axis):
    """`ufunc.reduce(a, axis)` as a left fold over the slices of a short axis.

    numpy reduces a short axis row by row, slowly on tall arrays. A fold of
    add is bit-identical to `.sum()` (which starts from +0.0) only below
    numpy's pairwise block of 8, so longer axes reduce, on a C-contiguous
    copy: numpy sums pairwise only along a contiguous axis, so the rounding
    would otherwise depend on the memory layout, not only on the values.
    Arrays of at most 512 rows reduce too, unless the fold is one copy: the
    fold's fixed cost of one ufunc call per slice made it slower than one
    reduce on every kernel shape timed at 8 rows or fewer, and faster on all
    but one at 512 rows. The solver's one-row steps take this path.
    """
    n = a.shape[axis]
    if n >= 8:
        return ufunc.reduce(np.ascontiguousarray(a), axis=axis)
    if n != 1 and a.size <= 512 * n:
        return ufunc.reduce(a, axis=axis)
    head = (slice(None),) * (axis % a.ndim)
    first = a[head + (0,)]
    out = first + 0.0 if ufunc is np.add else first.copy()
    for j in range(1, n):
        ufunc(out, a[head + (j,)], out=out)
    return out


def as_point(x, dimension=None):
    """Coerce to a finite 1-d float64 vector, optionally of a fixed dimension."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise UsageError(f"a point must be a 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise UsageError("point has non-finite coordinates")
    if dimension is not None and p.size != dimension:
        raise UsageError(f"dimension mismatch: expected {dimension}, got {p.size}")
    return p


class ValueEq:
    """`==` and `hash` by field values for a dataclass declared with
    eq=False: an ndarray field compares as its shape and its entries, as a
    tuple of floats does, so equal objects are equal at every dimension. A
    mutable dataclass sets `__hash__ = None`, and stays unhashable."""

    def _key(self):
        return tuple((v.shape, tuple(v.ravel().tolist())) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def payload(result, *omit):
    """The fields of the dataclass `result`, but those named in `omit`, in
    field order, as JSON data: an array, tuple or list becomes a list of
    floats, a dsl.Expr its source, and a nested spec or result its to_dict()."""
    def plain(v):
        if isinstance(v, (np.ndarray, tuple, list)):
            return np.asarray(v, dtype=float).tolist()
        return v.source if isinstance(v, dsl.Expr) else v.to_dict() if hasattr(v, "to_dict") else v

    return {f.name: plain(getattr(result, f.name)) for f in fields(result) if f.name not in omit}


@dataclass(frozen=True, eq=False)
class Box(ValueEq):
    """Axis-aligned sampling domain [lo_1,hi_1] x ... x [lo_m,hi_m]."""

    lo: np.ndarray
    hi: np.ndarray
    # the bounds widened by the tolerance rule with R = lo and R = hi, kept
    # finite so that no bound admits ±inf and a point inside is finite
    lo_tol: np.ndarray = field(init=False, repr=False, compare=False)
    hi_tol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise UsageError("box lo/hi must be 1-d vectors of equal length")
        with np.errstate(over="ignore", invalid="ignore"):
            width = hi - lo  # not finite when lo or hi is not, or when it overflows
        if not np.isfinite(width).all():
            raise UsageError("box bounds and widths hi[i] - lo[i] must be finite")
        if np.any(lo > hi):
            raise UsageError("box requires lo[i] <= hi[i]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        big = np.finfo(float).max
        with np.errstate(over="ignore"):  # the widening overflows next to ±big
            lo_tol = np.maximum(lo - TOL_REL * (1.0 + np.abs(lo)), -big)
            hi_tol = np.minimum(hi + TOL_REL * (1.0 + np.abs(hi)), big)
        object.__setattr__(self, "lo_tol", lo_tol)
        object.__setattr__(self, "hi_tol", hi_tol)

    @property
    def dimension(self):
        return self.lo.size

    def contains(self, points):
        """Per point of (N, m) `points`: inside the box up to the tolerance rule."""
        pts = np.atleast_2d(points)
        return fold(np.logical_and, (pts >= self.lo_tol) & (pts <= self.hi_tol), -1)

    def sample(self, rng, count):
        """Draw `count` uniform points, shape (count, m); the values of
        `rng.uniform(lo, hi, ...)`, which is slower with array bounds."""
        u = rng.random((count, self.dimension))
        u *= self.hi - self.lo
        u += self.lo
        return u


@dataclass(frozen=True)
class Violation:
    axiom: str  # b1 | b2 | b3
    points: tuple
    lhs: float
    rhs: float


@dataclass
class AxiomReport:
    checked_triples: int
    counts: dict[str, int]  # each of b1, b2 and b3 -> how many checks violated it
    first: dict[str, Violation]  # each violated axiom -> its first violation in sample order
    worst: dict[str, Violation]  # ... -> its largest |lhs - rhs|, the first of those on ties

    @property
    def ok(self):
        return not any(self.counts.values())


@dataclass(frozen=True, eq=False)
class BMetricSpace(ValueEq):
    """A distance on a box with its declared relaxation constant b >= 1."""

    kind: str
    domain: Box
    b: float
    p: float | None = None
    expr: object = None  # parsed dsl.Expr for custom_dsl

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise UsageError(f"unknown metric kind {self.kind!r}")
        if not 1.0 <= as_real(self.b, "relaxation constant b") < np.inf:  # NaN fails too
            raise UsageError("relaxation constant b must be a finite number >= 1")

    @property
    def dimension(self):
        return self.domain.dimension

    @property
    def distance_name(self):
        """How errors name this space's distance."""
        return "custom metric distance" if self.kind == "custom_dsl" else f"{self.kind} distance"

    def distance(self, x, y):
        x = as_point(x, self.dimension)
        y = as_point(y, self.dimension)
        return float(self.distance_batch(x[None, :], y[None, :])[0])

    def distance_batch(self, xs, ys):
        """Vectorized distance for (..., m) arrays; returns shape (...).
        A distance that overflows is a NumericEvalError naming its row."""
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        if xs.shape[-1] != self.dimension or ys.shape[-1] != self.dimension:
            raise UsageError("dimension mismatch in distance")
        return require_finite(KERNELS[self.kind](self, xs, ys), self.distance_name)


def _squared_euclidean(space, xs, ys):
    diff = xs - ys  # d*d is exact for either sign, so no abs
    return fold(np.add, diff * diff, -1)


def _euclidean(space, xs, ys):
    return np.sqrt(_squared_euclidean(space, xs, ys))


def _power(space, xs, ys):
    return np.sqrt(_squared_euclidean(space, xs, ys)) ** space.p


def _lp_truncated(space, xs, ys):
    # a sum of |.|^p is never -0.0, and pow(+0, y > 0) is +0, so d(x, x) is +0
    return fold(np.add, np.abs(xs - ys) ** space.p, -1) ** (1.0 / space.p)


def _custom_dsl(space, xs, ys):
    cols = range(space.dimension)  # u1..um bind the coordinates of xs, v1..vm those of ys
    env = dict(zip(space.expr.variables, [xs[..., i] for i in cols] + [ys[..., i] for i in cols]))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(dsl.evaluate(space.expr, env), dtype=float)
    return np.broadcast_to(out, xs.shape[:-1]).copy() if out.ndim == 0 else out


# kind -> kernel(space, xs, ys) for float (N, m) arrays already checked
# against the space's dimension; returns the (N,) distances
KERNELS = {"euclidean": _euclidean, "squared_euclidean": _squared_euclidean,
           "power": _power, "lp_truncated": _lp_truncated, "custom_dsl": _custom_dsl}


def _float_squared_euclidean(space):
    # a point of dimension 1 is a float, a longer one a list of floats
    if space.dimension == 1:  # `fold` adds +0.0 to one term
        return lambda x, y: (x - y) * (x - y) + 0.0
    if space.dimension >= 8:  # `fold` reduces 8 or more terms pairwise
        return None
    # below 8 terms add.reduce is a left fold from +0.0
    return lambda x, y: reduce(add, [(a - b) * (a - b) for a, b in zip(x, y)], 0.0)


def _float_euclidean(space):
    d = _float_squared_euclidean(space)
    return d and (lambda x, y: math.sqrt(d(x, y)))


# kind -> maker(space): the kernel(x, y) of `space` on two points of Python
# floats, bit-identical to its kernel above, or None where its arithmetic is
# not repeated there
FLOAT_KERNELS = {"euclidean": _float_euclidean, "squared_euclidean": _float_squared_euclidean}


def euclidean(domain):
    """The ordinary Euclidean metric (b = 1)."""
    return BMetricSpace("euclidean", domain, b=1.0)


def squared_euclidean(domain):
    """d(x,y) = ||x-y||^2, a b-metric with b = 2 but not a metric."""
    return BMetricSpace("squared_euclidean", domain, b=2.0)


def power(p, domain):
    """p-th power of the Euclidean metric, p > 1; b = 2^(p-1)."""
    if not 1 < as_real(p, "power p") < np.inf:  # NaN fails too
        raise UsageError("power construction requires a finite p > 1")
    return BMetricSpace("power", domain, b=2.0 ** (p - 1.0), p=float(p))


def lp_truncated(p, domain):
    """Finite-dimensional l_p distance for 0 < p < 1; b = 2^(1/p)."""
    if not 0 < as_real(p, "lp_truncated p") < 1:
        raise UsageError("lp_truncated requires 0 < p < 1")
    return BMetricSpace("lp_truncated", domain, b=2.0 ** (1.0 / p), p=float(p))


def custom(expr_source, domain, b):
    """Distance from a DSL expression in u1..um, v1..vm with declared b."""
    expr = dsl.parse(expr_source, dsl.metric_variables(domain.dimension))
    return BMetricSpace("custom_dsl", domain, b=as_real(b, "relaxation constant b"), expr=expr)


# --- sampling --------------------------------------------------------------

# Windows are drawn and checked CHUNK at a time, so each step's arrays stay
# in cache and peak memory does not grow with the sample count. The draws
# come in order from one Generator, so no result depends on this size.
CHUNK = 8_192


def _sample_windows(space, width, samples, seed, grid_points=None, budget=2_000_000):
    """Yield (offset, windows): the (N, width, m) sample, CHUNK windows at a time.

    Windows are uniform in the box; with grid_points they are the full grid
    of grid_points values per axis when it has at most `budget` windows,
    else `samples` windows drawn from that grid; a sample of none is a UsageError.
    grid_points, the samples that are drawn and a seed other than None must
    be integers (`errors.as_int`), the seed one >= 0; only a draw builds a
    Generator.

    Each chunk is coordinate-major: a C-contiguous (width, m, N) array seen
    through `transpose(2, 0, 1)`. A slot `windows[:, j]` or one coordinate
    is then contiguous along the windows, and numpy's elementwise ops keep
    that layout in the images and distances, so their inner loops run over
    N, not over m.
    """
    if grid_points is not None and as_int(grid_points, "grid_points") < 1:
        raise UsageError(f"grid_points must be >= 1, got {grid_points}")
    grid_points = None if grid_points is None else int(grid_points)  # 2.0 counts as 2
    seed = None if seed is None else as_int(seed, "seed", 0)
    box, m = space.domain, space.dimension
    axes = None if grid_points is None else np.linspace(box.lo, box.hi, grid_points)
    full = grid_points is not None and grid_points ** (width * m) <= budget
    total = grid_points ** (width * m) if full else as_int(samples, "samples")
    rng = None if full else np.random.default_rng(seed)  # a full grid draws nothing
    if total < 1:
        raise UsageError(f"samples must be >= 1 when no full grid is checked, got {samples}")
    for start in range(0, total, CHUNK):
        count = min(CHUNK, total - start)
        if grid_points is None:  # the stream of box.sample(rng, count * width)
            windows = np.empty((width, m, count))
            block = max(1, CHUNK // 8)  # in blocks: no whole raw draw is held
            for b in range(0, count, block):
                n = min(count - b, block)
                windows[..., b:b + n] = rng.random((n, width, m)).transpose(1, 2, 0)
            windows *= (box.hi - box.lo)[:, None]
            windows += box.lo[:, None]
        else:  # each coordinate's index on its axis, axes[:, i], as (width, m, count)
            idx = (np.stack(np.unravel_index(np.arange(start, start + count),
                                             (grid_points,) * (width * m)), axis=0)
                   if full else rng.integers(0, grid_points, size=(count, width * m)).T.copy())
            windows = axes[idx.reshape(width, m, count), np.arange(m)[:, None]]
            del idx  # not held beside the caller's chunk while the next one is made
        yield start, windows.transpose(2, 0, 1)


def sampled(evaluate, *sampling):
    """Yield `evaluate(windows)` for each chunk of `_sample_windows(*sampling)`;
    a NumericEvalError of `evaluate` names its window's sample index. A
    result the caller holds is still held while the next chunk is drawn and
    evaluated, so `evaluate` returns only what the caller needs of a chunk."""
    for offset, windows in _sample_windows(*sampling):
        with _renumber(offset.__add__):
            out = evaluate(windows)
        yield out


def max_ratio(chunks):
    """The first strict maximum of num/den over (items, num, den) chunks.

    Returns (ratio, (item, num, den)) at that row, or (-inf, None) when no
    row has den > 0; those rows, and empty chunks, are skipped.
    """
    best, at = -np.inf, None
    for items, num, den in chunks:
        ok = den > 0
        if not ok.any():
            continue
        ratio = np.where(ok, num / np.where(ok, den, 1.0), -np.inf)
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best, at = float(ratio[i]), (items[i].copy(), float(num[i]), float(den[i]))
    return best, at


def check_axioms(space, sample_count, seed, grid_points=None, max_triples=2_000_000):
    """Sampled check of identity, symmetry, and the relaxed triangle inequality.

    Identity is checked at sampled points (seed), symmetry and the relaxed
    triangle at sampled triples (seed + 1), both drawn CHUNK at a time. With
    grid_points set, the points and the ordered triples are every one the
    grid has when their count is within max_triples, else drawn from it.
    """
    counts, first, worst = dict.fromkeys(("b1", "b2", "b3"), 0), {}, {}

    def tally(axiom, bad, lhs, rhs, *points):  # folds one chunk's violations of `axiom`
        rows = np.flatnonzero(bad)
        if len(rows):
            gap = np.abs(lhs[rows] - rhs[rows])
            at = [Violation(axiom, tuple(tuple(p[i]) for p in points), float(lhs[i]), float(rhs[i]))
                  for i in (rows[0], rows[np.argmax(gap)])]  # the chunk's first and worst
            counts[axiom] += len(rows)
            first.setdefault(axiom, at[0])
            if axiom not in worst or gap.max() > abs(worst[axiom].lhs - worst[axiom].rhs):
                worst[axiom] = at[1]

    def identity(w):  # b1: d(x,x) = 0 for every sampled point
        self_d = space.distance_batch(w[:, 0], w[:, 0])
        tally("b1", ~leq_tol(self_d, 0.0), self_d, np.zeros_like(self_d), w[:, 0])

    def triangle(w):  # b2 and b3 on the sampled triples (x, y, z); returns how many
        xs, ys, zs = w[:, 0], w[:, 1], w[:, 2]
        d_xy = space.distance_batch(xs, ys)
        d_yx = space.distance_batch(ys, xs)
        d_xz = space.distance_batch(xs, zs)
        d_zy = space.distance_batch(zs, ys)
        # b2: symmetry on the (x, y) pairs
        tally("b2", np.abs(d_xy - d_yx) > TOL_REL * (1.0 + np.abs(d_xy)), d_xy, d_yx, xs, ys)
        # b3: relaxed triangle inequality against the declared b
        rhs = space.b * (d_xz + d_zy)
        tally("b3", ~leq_tol(d_xy, rhs), d_xy, rhs, xs, zs, ys)
        return len(w)

    for _ in sampled(identity, space, 1, sample_count, seed, grid_points, max_triples):
        pass
    seed = seed + 1 if seed is not None else None
    checked = sum(sampled(triangle, space, 3, sample_count, seed, grid_points, max_triples))
    return AxiomReport(checked, counts, first, worst)


def estimate_b(space, sample_count, seed, grid_points=None, max_triples=2_000_000):
    """Empirical sharp relaxation constant.

    Returns {'b_hat', 'witness'} where b_hat is the maximum of
    d(x,y)/(d(x,z)+d(z,y)) over sampled triples (x, z, y), drawn CHUNK at a
    time, and witness attains it. Triples with a zero denominator are skipped; if every triple is
    degenerate the domain has collapsed and DegenerateDomainError is raised.
    """
    def ratio(w):  # d(x,y) and d(x,z) + d(z,y) of each triple (x, z, y)
        x, z, y = w[:, 0], w[:, 1], w[:, 2]
        num = space.distance_batch(x, y)
        return w, num, space.distance_batch(x, z) + space.distance_batch(z, y)

    b_hat, at = max_ratio(sampled(ratio, space, 3, sample_count, seed, grid_points, max_triples))
    if at is None:
        raise DegenerateDomainError("all sampled triples have zero denominator")
    return {"b_hat": b_hat, "witness": tuple(at[0])}


def chain_bound(space, points):
    """Both sides of the iterated relaxed triangle inequality along a chain.

    For points u_0..u_n, lhs = d(u_0,u_n) and
    rhs = sum_{j=1}^{n-1} b^j d(u_{j-1},u_j) + b^(n-1) d(u_{n-1},u_n);
    the last two terms share the coefficient b^(n-1).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) < 2:
        raise UsageError("chain_bound needs at least 2 points")
    n = len(pts) - 1
    steps = space.distance_batch(pts[:-1], pts[1:])
    coeff = space.b ** np.arange(1, n + 1, dtype=float)
    coeff[-1] = space.b ** (n - 1)
    rhs = float(np.dot(coeff, steps))
    lhs = space.distance(pts[0], pts[-1])
    return {"lhs": lhs, "rhs": rhs, "holds": bool(leq_tol(lhs, rhs))}
