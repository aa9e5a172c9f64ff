"""Sampled verification, falsification, and sharp-constant estimation of
contraction conditions for arity-k operators on b-metric spaces.

Condition kinds, with window (x_1,..,x_{k+1}) and
lhs = d(f(x_1..x_k), f(x_2..x_{k+1})):

* presic_sum(r_1..r_k):  lhs <= sum_j r_j d(x_j, x_{j+1})
* ciric_max(kappa):      lhs <= kappa * max_j d(x_j, x_{j+1})
* lambda_max(lam):       same comparator with lam in [0,1)
* weak_phi(phi):         lhs <= M - phi(M), M = max_j d(x_j, x_{j+1})
* kannan(a):             lhs <= a * max_i d(x_i, f(x_i,..,x_i))

Diagonal conditions on pairs x != y with lhs = d(F(x), F(y)):

* banach(eta):           lhs <= eta * d(x,y)
* diagonal_strict:       lhs <  d(x,y)
* diagonal_phi(phi):     lhs <= d(x,y) - phi(d(x,y))

A diagonal condition is checked as a window condition on F = `op.diagonal`,
whose windows are the pairs (x, y); the pairs with x = y are dropped first.

Verification samples windows from the space's box (seeded, reproducible);
a pass is "passed on the samples drawn", a failure is a concrete witness
window that re-evaluates to a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import dsl
# re-exports CHUNK, and _sample_windows, whose budget default is verify's
from .bmetric import CHUNK, TOL_REL, ValueEq, _sample_windows, fold, max_ratio, payload, sampled
from .errors import (DegenerateDomainError, DomainError, NumericEvalError, UsageError,
                     _renumber, as_int, as_real, require_finite)

# kind -> the ConditionSpec field that holds its constant (diagonal_strict has none)
FIELDS = {"presic_sum": "r", "ciric_max": "kappa", "lambda_max": "lam", "weak_phi": "phi",
          "kannan": "a", "banach": "eta", "diagonal_strict": None, "diagonal_phi": "phi"}
# ConditionSpec field -> its key in payloads and problem files
KEYS = {"r": "r", "kappa": "kappa", "lam": "lambda", "a": "a", "eta": "eta", "phi": "phi"}
DIAGONAL_KINDS = ("banach", "diagonal_strict", "diagonal_phi")


# --- gauge functions -------------------------------------------------------

@dataclass(frozen=True)
class PhiFunction:
    """Nonnegative gauge with phi(0) = 0, used by the weak conditions."""

    kind: str  # linear | paper_piecewise | dsl
    c: float | None = None
    expr: object = None  # dsl, the parsed dsl.Expr in t

    def __post_init__(self):
        if self.kind not in GAUGES:
            raise UsageError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "linear" and not 0 < as_real(self.c, "linear gauge c") < 1:
            raise UsageError("linear gauge needs 0 < c < 1")
        try:
            zero = self(0.0)
        except NumericEvalError as exc:  # phi(0) undefined, as for 1/t
            raise UsageError("gauge must satisfy phi(0) = 0, "
                             f"but phi(0) is undefined: {exc}") from None
        if not np.isclose(zero, 0.0, atol=1e-15):
            raise UsageError("gauge must satisfy phi(0) = 0")

    def __call__(self, t):
        out = GAUGES[self.kind](self, np.asarray(t, dtype=float))
        return float(out) if out.ndim == 0 else out

    def to_dict(self):
        return {key: value for key, value in payload(self).items() if value is not None}

    @classmethod
    def from_dict(cls, d):
        """The gauge `d` describes; KeyError names a missing key."""
        if d["kind"] == "dsl":
            return dsl_phi(d["expr"])
        return cls(d["kind"], c=float(d["c"]) if d["kind"] == "linear" else None)


def _phi_piecewise(t):
    """Piecewise gauge: t/5 on [0, 5/2), then on bands
    [(2^(2n)+1)/2^n, (2^(2(n+1))+1)/2^(n+1)] the value
    2^(2n) (2^(n+1) t - 3) / (2^(2n+1) - 1). Adjacent bands share their
    endpoints and disagree there; the lower-n branch wins."""
    t = np.asarray(t, dtype=float)
    out = t / 5.0
    remaining = t >= 2.5
    n = 1
    while np.any(remaining):
        if n > 60:
            raise UsageError("gauge argument too large for the piecewise bands")
        hi = (2.0 ** (2 * (n + 1)) + 1.0) / 2.0 ** (n + 1)
        band = remaining & (t <= hi)
        val = 2.0 ** (2 * n) * (2.0 ** (n + 1) * t - 3.0) / (2.0 ** (2 * n + 1) - 1.0)
        out = np.where(band, val, out)
        remaining = remaining & ~band
        n += 1
    return out


# gauge kind -> phi(gauge, t) for a float array t
GAUGES = {"linear": lambda phi, t: phi.c * t,
          "paper_piecewise": lambda phi, t: _phi_piecewise(t),
          "dsl": lambda phi, t: require_finite(
              np.asarray(dsl.evaluate(phi.expr, {"t": t}), dtype=float), "gauge")}


def linear_phi(c):
    return PhiFunction("linear", c=c)


def piecewise_phi():
    return PhiFunction("paper_piecewise")


def dsl_phi(source):
    return PhiFunction("dsl", expr=dsl.parse(source, ["t"]))


# --- condition specs -------------------------------------------------------

@dataclass(frozen=True)
class ConditionSpec:
    kind: str
    r: tuple | None = None        # presic_sum
    kappa: float | None = None    # ciric_max
    lam: float | None = None      # lambda_max
    phi: PhiFunction | None = None
    a: float | None = None        # kannan
    eta: float | None = None      # banach

    def validate(self, k=None, b=None):
        """UsageError unless the kind is known, its constant given and in range,
        and the arity k, when given, an integer >= 1."""
        if self.kind not in FIELDS:
            raise UsageError(f"unknown condition kind {self.kind!r}")
        if k is not None:
            as_int(k, "k", 1)
        field = FIELDS[self.kind]
        value = None if field is None else getattr(self, field)
        if field is not None and value is None:
            raise UsageError(f"{self.kind} needs {KEYS[field]!r}")
        if field == "r":
            r = np.asarray(value, dtype=float)
            if k is not None and len(r) != k:
                raise UsageError("presic_sum needs one r_j per operator slot")
            if not (np.all(r >= 0) and r.sum() < 1):  # a NaN r_j fails too
                raise UsageError("presic_sum needs r_j >= 0 and sum r_j < 1")
        elif field == "a":
            if not 0 <= value < np.inf:  # NaN fails too
                raise UsageError("kannan needs a >= 0")
            if k is not None and b is not None and not value * k * b ** (k + 1) < 1:
                raise UsageError("kannan needs a*k*b^(k+1) < 1")
        elif field in ("kappa", "lam", "eta"):  # kappa > 0; lambda and eta may be 0
            if not (0 < value < 1 or value == 0 and field != "kappa"):
                low = "0 <" if field == "kappa" else "0 <="
                raise UsageError(f"{self.kind} needs {low} {KEYS[field]} < 1")

    def to_dict(self):
        return {KEYS.get(field, field): value for field, value in payload(self).items()
                if value is not None}

    @classmethod
    def from_dict(cls, d):
        """The spec a payload or problem-file block describes; KeyError names
        a missing key, ValueError or TypeError a constant that is no number."""
        if d["kind"] not in FIELDS:
            raise UsageError(f"unknown condition kind {d['kind']!r}")
        field = FIELDS[d["kind"]]
        if field is None:
            return cls(d["kind"])
        value = d[KEYS[field]]
        value = (PhiFunction.from_dict(value) if field == "phi" else
                 tuple(float(v) for v in value) if field == "r" else float(value))
        return cls(d["kind"], **{field: value})


def presic_sum(r):
    return ConditionSpec("presic_sum", r=tuple(as_real(v, "presic_sum r_j") for v in r))


def ciric_max(kappa):
    return ConditionSpec("ciric_max", kappa=as_real(kappa, "ciric_max kappa"))


def lambda_max(lam):
    return ConditionSpec("lambda_max", lam=as_real(lam, "lambda_max lambda"))


def weak_phi(phi):
    return ConditionSpec("weak_phi", phi=phi)


def kannan(a):
    return ConditionSpec("kannan", a=as_real(a, "kannan a"))


def banach(eta):
    return ConditionSpec("banach", eta=as_real(eta, "banach eta"))


def diagonal_strict():
    return ConditionSpec("diagonal_strict")


def diagonal_phi(phi):
    return ConditionSpec("diagonal_phi", phi=phi)


# --- certificates ----------------------------------------------------------

@dataclass(eq=False)
class Witness(ValueEq):
    __hash__ = None
    window: np.ndarray  # (k+1, m) or (2, m) for diagonal conditions
    lhs: float
    rhs: float
    tie: bool = False

    def to_dict(self):
        return payload(self, *(() if self.tie else ("tie",)))


@dataclass
class ContractionCertificate:
    condition: ConditionSpec
    samples: int
    seed: int
    verdict: str  # passed_on_samples | falsified
    slack_min: float
    witness: Witness | None = None
    estimated_constant: float | None = None
    out_of_domain: int = 0

    @property
    def passed(self):
        return self.verdict == "passed_on_samples"

    def to_dict(self):
        return payload(self, "out_of_domain")


def _count_outside(space, strict_domain, *outputs):
    """How many operator outputs left the domain; DomainError in strict mode."""
    count = sum(len(f) - int(np.count_nonzero(space.domain.contains(f))) for f in outputs)
    if strict_domain and count:
        raise DomainError("operator output left the domain in strict mode")
    return count


def _window_base(op, space, kind, windows):
    """What the right-hand side of `kind` is built from, per window:
    max_i d(x_i, F(x_i)) for kannan, the (N, k) steps d(x_j, x_{j+1}) for
    presic_sum, else their maximum, which is d(x, y) for a diagonal pair."""
    if kind == "kannan":
        try:  # slot by slot, on views that keep the chunk's layout
            return reduce(np.maximum, (space.distance_batch(x, op.diagonal_batch(x))
                                       for x in windows.transpose(1, 0, 2)))
        except NumericEvalError:  # the window-major pass names the first bad window
            n, width, m = windows.shape
            flat = windows.reshape(-1, m)
            with _renumber(lambda row: row // width):
                space.distance_batch(flat, op.diagonal_batch(flat))
            raise
    steps = space.distance_batch(windows[:, :-1], windows[:, 1:])  # on views of the windows
    return steps if kind == "presic_sum" else fold(np.maximum, steps, 1)


def _rhs(cond, base):
    """The right-hand side of `cond` from its `_window_base`."""
    field = FIELDS[cond.kind]
    if field == "r":
        # on a C-contiguous base, so BLAS rounds the same in every layout
        return np.ascontiguousarray(base) @ np.asarray(cond.r, dtype=float)
    if field == "phi":
        return base - cond.phi(base)
    return base if field is None else getattr(cond, field) * base


# --- verification ----------------------------------------------------------

def _evaluate(op, space, cond, windows, count_outside):
    """(windows, lhs, rhs, out_count) of one chunk of `cond`'s windows, with
    lhs the distance between the images f(x_1..x_k) and f(x_2..x_{k+1}) of
    each window of `op`. For a diagonal kind, `op` is F and the pairs with
    x = y are dropped first. out_count is `count_outside(*images)`, called
    before any distance of the images."""
    diagonal = cond.kind in DIAGONAL_KINDS
    if diagonal:
        base = _window_base(op, space, cond.kind, windows)
        keep = base > 0
        if not keep.any():
            return windows[:0], base[:0], base[:0], 0
        # np.compress on the window axis keeps the chunk coordinate-major
        windows = np.compress(keep, windows.transpose(1, 2, 0), axis=-1).transpose(2, 0, 1)
        base = base[keep]
    with _renumber(lambda row: np.flatnonzero(keep)[row] if diagonal else row):
        fa, fb = op.apply_batch(windows[:, :-1]), op.apply_batch(windows[:, 1:])
        out_count = count_outside(fa, fb)
        lhs = space.distance_batch(fa, fb)
        del fa, fb  # freed before the base is built
        if not diagonal:
            base = _window_base(op, space, cond.kind, windows)
        return windows, lhs, _rhs(cond, base), out_count


def verify(op, space, cond, samples, seed, grid_points=None, strict_domain=False):
    """Check `cond` on sampled (k+1)-windows, or on sampled pairs x != y for
    a diagonal condition, CHUNK windows at a time.

    Returns a certificate: falsified with the first violating witness
    (by sample index), else passed_on_samples; slack_min, the minimum
    rhs - lhs, and the out-of-domain count cover every chunk.
    diagonal_strict counts a tie as a violation. DegenerateDomainError when
    every pair of a diagonal condition has x = y.
    """
    cond.validate(k=op.arity, b=space.b)
    op = op.diagonal if cond.kind in DIAGONAL_KINDS else op  # F's windows are pairs
    strict = cond.kind == "diagonal_strict"
    count_outside = partial(_count_outside, space, strict_domain)

    def check(windows):  # a chunk's count, least slack, first violation and outside count
        windows, lhs, rhs, out_count = _evaluate(op, space, cond, windows, count_outside)
        tol = TOL_REL * (1.0 + np.abs(rhs))
        bad = lhs > rhs + tol
        if strict:
            tie = np.abs(lhs - rhs) <= tol
            bad |= tie
        first = None
        if bad.any():
            i = int(np.argmax(bad))
            first = Witness(windows[i].copy(), float(lhs[i]), float(rhs[i]),
                            tie=strict and bool(tie[i]))
        return len(windows), (rhs - lhs).min(initial=np.inf), first, out_count

    count, slack_min, witness, out_of_domain = 0, np.inf, None, 0
    for n, slack, first, out_count in sampled(check, space, op.arity + 1, samples, seed,
                                              grid_points):
        count += n
        slack_min = np.minimum(slack_min, slack)
        witness = first if witness is None else witness
        out_of_domain += out_count
    if count == 0:
        raise DegenerateDomainError("no sampled pair has x != y")
    verdict = "passed_on_samples" if witness is None else "falsified"
    # sampling has checked the seed: the certificate records it as an int
    return ContractionCertificate(cond, count, None if seed is None else int(seed), verdict,
                                  float(slack_min), witness=witness, out_of_domain=out_of_domain)


verify_diagonal = verify  # one check for every kind


def estimate_constant(op, space, kind, samples, seed, grid_points=None):
    """Empirical sharp constant for ciric_max, banach, or kannan.

    Returns {'constant_hat', 'witness'} with the supremum of lhs over the
    condition's comparator (its constant stripped) across sampled windows;
    windows whose comparator vanishes are skipped, and banach's x = y pairs
    are dropped before their images are evaluated, as verify does.
    """
    if kind not in ("ciric_max", "banach", "kannan"):
        raise UsageError(f"estimate_constant supports ciric_max|banach|kannan, got {kind!r}")
    unit = ConditionSpec(kind, **{FIELDS[kind]: 1.0})  # its rhs, 1.0 * comparator, is exact
    op = op.diagonal if kind in DIAGONAL_KINDS else op
    evaluate = partial(_evaluate, op, space, unit, count_outside=lambda *images: 0)
    best, at = max_ratio(out[:3] for out in sampled(evaluate, space, op.arity + 1, samples, seed,
                                                    grid_points))
    if at is None:
        raise DegenerateDomainError("every sampled window has a vanishing comparator")
    return {"constant_hat": best, "witness": Witness(*at)}
