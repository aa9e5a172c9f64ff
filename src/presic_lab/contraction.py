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

Verification samples windows from the space's box (seeded, reproducible);
a pass is "passed on the samples drawn", a failure is a concrete witness
window that re-evaluates to a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsl
from .bmetric import CHUNK, TOL_REL, _renumber, _sample_windows, fold, max_ratio  # re-exports CHUNK
from .errors import DegenerateDomainError, DomainError, UsageError

WINDOW_KINDS = ("presic_sum", "ciric_max", "lambda_max", "weak_phi", "kannan")
DIAGONAL_KINDS = ("banach", "diagonal_strict", "diagonal_phi")


# --- gauge functions -------------------------------------------------------

@dataclass(frozen=True)
class PhiFunction:
    """Nonnegative gauge with phi(0) = 0, used by the weak conditions."""

    kind: str  # linear | paper_piecewise | dsl
    c: float | None = None
    expr: object = None
    source: str | None = None

    def __post_init__(self):
        if self.kind == "linear" and not 0 < self.c < 1:
            raise UsageError("linear gauge needs 0 < c < 1")
        if not np.isclose(self(0.0), 0.0, atol=1e-15):
            raise UsageError("gauge must satisfy phi(0) = 0")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            out = self.c * t
        elif self.kind == "paper_piecewise":
            out = _phi_piecewise(t)
        elif self.kind == "dsl":
            out = np.asarray(dsl.evaluate(self.expr, {"t": t}), dtype=float)
        else:
            raise UsageError(f"unknown gauge kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out


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


def linear_phi(c):
    return PhiFunction("linear", c=c)


def piecewise_phi():
    return PhiFunction("paper_piecewise")


def dsl_phi(source):
    return PhiFunction("dsl", expr=dsl.parse(source, ["t"]), source=source)


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
        if self.kind == "presic_sum":
            r = np.asarray(self.r, dtype=float)
            if k is not None and len(r) != k:
                raise UsageError("presic_sum needs one r_j per operator slot")
            if np.any(r < 0) or r.sum() >= 1:
                raise UsageError("presic_sum needs r_j >= 0 and sum r_j < 1")
        elif self.kind == "ciric_max":
            if not 0 < self.kappa < 1:
                raise UsageError("ciric_max needs 0 < kappa < 1")
        elif self.kind == "lambda_max":
            if not 0 <= self.lam < 1:
                raise UsageError("lambda_max needs 0 <= lambda < 1")
        elif self.kind == "weak_phi" or self.kind == "diagonal_phi":
            if self.phi is None:
                raise UsageError(f"{self.kind} needs a gauge function")
        elif self.kind == "kannan":
            if self.a < 0:
                raise UsageError("kannan needs a >= 0")
            if k is not None and b is not None and not self.a * k * b ** (k + 1) < 1:
                raise UsageError("kannan needs a*k*b^(k+1) < 1")
        elif self.kind == "banach":
            if not 0 <= self.eta < 1:
                raise UsageError("banach needs 0 <= eta < 1")
        elif self.kind == "diagonal_strict":
            pass
        else:
            raise UsageError(f"unknown condition kind {self.kind!r}")

    def to_dict(self):
        out = {"kind": self.kind}
        if self.r is not None:
            out["r"] = [float(v) for v in self.r]
        if self.kappa is not None:
            out["kappa"] = self.kappa
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.a is not None:
            out["a"] = self.a
        if self.eta is not None:
            out["eta"] = self.eta
        if self.phi is not None:
            out["phi"] = {"kind": self.phi.kind}
            if self.phi.c is not None:
                out["phi"]["c"] = self.phi.c
            if self.phi.source is not None:
                out["phi"]["expr"] = self.phi.source
        return out


def presic_sum(r):
    return ConditionSpec("presic_sum", r=tuple(float(v) for v in r))


def ciric_max(kappa):
    return ConditionSpec("ciric_max", kappa=float(kappa))


def lambda_max(lam):
    return ConditionSpec("lambda_max", lam=float(lam))


def weak_phi(phi):
    return ConditionSpec("weak_phi", phi=phi)


def kannan(a):
    return ConditionSpec("kannan", a=float(a))


def banach(eta):
    return ConditionSpec("banach", eta=float(eta))


def diagonal_strict():
    return ConditionSpec("diagonal_strict")


def diagonal_phi(phi):
    return ConditionSpec("diagonal_phi", phi=phi)


# --- certificates ----------------------------------------------------------

@dataclass
class Witness:
    window: np.ndarray  # (k+1, m) or (2, m) for diagonal conditions
    lhs: float
    rhs: float
    tie: bool = False

    def to_dict(self):
        return {
            "window": [[float(v) for v in row] for row in np.atleast_2d(self.window)],
            "lhs": self.lhs,
            "rhs": self.rhs,
            **({"tie": True} if self.tie else {}),
        }


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
        return {
            "condition": self.condition.to_dict(),
            "verdict": self.verdict,
            "samples": self.samples,
            "seed": self.seed,
            "slack_min": self.slack_min,
            "estimated_constant": self.estimated_constant,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _diagonal_max(op, space, windows):
    """max_i d(x_i, F(x_i)) over the points of each window."""
    n, width, m = windows.shape
    flat = windows.reshape(-1, m)
    with _renumber(lambda row: row // width):
        diag = space.distance_batch(flat, op.diagonal_batch(flat)).reshape(n, width)
    return fold(np.maximum, diag, 1)


def _count_outside(space, strict_domain, *outputs):
    """How many operator outputs left the domain; DomainError in strict mode."""
    count = sum(len(f) - int(np.count_nonzero(space.domain.contains(f))) for f in outputs)
    if strict_domain and count:
        raise DomainError("operator output left the domain in strict mode")
    return count


def _window_lhs(op, space, windows, strict_domain):
    """d(f(head), f(tail)) for each window, plus out-of-domain count."""
    f_head = op.apply_batch(windows[:, :-1])
    f_tail = op.apply_batch(windows[:, 1:])
    out_count = _count_outside(space, strict_domain, f_head, f_tail)
    return space.distance_batch(f_head, f_tail), out_count


def _window_rhs(op, space, cond, windows):
    if cond.kind == "kannan":
        return cond.a * _diagonal_max(op, space, windows)
    # the steps d(x_j, x_{j+1}), on views of the windows
    steps = space.distance_batch(windows[:, :-1], windows[:, 1:])
    if cond.kind == "presic_sum":
        return steps @ np.asarray(cond.r, dtype=float)
    big = fold(np.maximum, steps, 1)
    if cond.kind == "weak_phi":
        return big - cond.phi(big)
    return (cond.kappa if cond.kind == "ciric_max" else cond.lam) * big


# --- verification ----------------------------------------------------------

def _certify(space, cond, width, evaluate, samples, seed, grid_points, strict=False):
    """Certificate over the sampled windows, drawn CHUNK at a time:
    `evaluate(windows)` gives the (windows, lhs, rhs, out_count) it keeps.
    The first violation in sample order is the witness; slack_min and the
    out-of-domain count cover every chunk. With strict, ties violate."""
    count, slack_min, witness, out_of_domain = 0, np.inf, None, 0
    for offset, windows in _sample_windows(space, width, samples, seed, grid_points):
        with _renumber(offset.__add__):
            windows, lhs, rhs, out_count = evaluate(windows)
        tol = TOL_REL * (1.0 + np.abs(rhs))
        bad = lhs > rhs + tol
        if strict:
            tie = np.abs(lhs - rhs) <= tol
            bad |= tie
        if witness is None and bad.any():
            i = int(np.argmax(bad))
            witness = Witness(windows[i].copy(), float(lhs[i]), float(rhs[i]),
                              tie=strict and bool(tie[i]))
        count += len(windows)
        slack_min = np.minimum(slack_min, (rhs - lhs).min(initial=np.inf))  # keeps a NaN
        out_of_domain += out_count
    verdict = "passed_on_samples" if witness is None else "falsified"
    return ContractionCertificate(cond, count, seed, verdict, float(slack_min), witness=witness,
                                  out_of_domain=out_of_domain)


def verify(op, space, cond, samples, seed, grid_points=None, strict_domain=False):
    """Check a window condition on sampled (k+1)-windows.

    Returns a certificate: falsified with the first violating witness
    (by sample index), else passed_on_samples with the minimum slack
    rhs - lhs observed.
    """
    if cond.kind not in WINDOW_KINDS:
        raise UsageError(f"verify expects a window condition, got {cond.kind!r}")
    cond.validate(k=op.arity, b=space.b)

    def evaluate(windows):
        lhs, out_count = _window_lhs(op, space, windows, strict_domain)
        return windows, lhs, _window_rhs(op, space, cond, windows), out_count

    cert = _certify(space, cond, op.arity + 1, evaluate, samples, seed, grid_points)
    if cert.samples == 0:
        raise UsageError("verify needs at least one sampled window")
    return cert


def verify_diagonal(op, space, cond, samples, seed, grid_points=None, strict_domain=False):
    """Check a diagonal condition on sampled pairs x != y."""
    if cond.kind not in DIAGONAL_KINDS:
        raise UsageError(f"verify_diagonal expects a diagonal condition, got {cond.kind!r}")
    cond.validate(k=op.arity, b=space.b)

    def evaluate(pairs):
        sep = space.distance_batch(pairs[:, 0], pairs[:, 1])
        keep = sep > 0
        if not keep.any():
            return pairs[:0], sep[:0], sep[:0], 0
        with _renumber(lambda row: np.flatnonzero(keep)[row]):
            pairs, sep = pairs[keep], sep[keep]
            fx = op.diagonal_batch(pairs[:, 0])
            fy = op.diagonal_batch(pairs[:, 1])
            out_count = _count_outside(space, strict_domain, fx, fy)
            lhs = space.distance_batch(fx, fy)
            if cond.kind == "banach":
                rhs = cond.eta * sep
            else:  # diagonal_strict compares with sep itself, a tie violating
                rhs = sep - cond.phi(sep) if cond.kind == "diagonal_phi" else sep
        return pairs, lhs, rhs, out_count

    cert = _certify(space, cond, 2, evaluate, samples, seed, grid_points,
                    strict=cond.kind == "diagonal_strict")
    if cert.samples == 0:
        raise DegenerateDomainError("no sampled pair has x != y")
    return cert


def estimate_constant(op, space, kind, samples, seed, grid_points=None):
    """Empirical sharp constant for ciric_max, banach, or kannan.

    Returns {'constant_hat', 'witness'} with the supremum of lhs over the
    condition's comparator (its constant stripped) across sampled windows;
    windows whose comparator vanishes are skipped.
    """
    if kind not in ("ciric_max", "banach", "kannan"):
        raise UsageError(f"estimate_constant supports ciric_max|banach|kannan, got {kind!r}")

    def chunks():
        width = 2 if kind == "banach" else op.arity + 1
        for offset, windows in _sample_windows(space, width, samples, seed, grid_points):
            with _renumber(offset.__add__):
                if kind == "banach":
                    x, y = windows[:, 0], windows[:, 1]
                    lhs = space.distance_batch(op.diagonal_batch(x), op.diagonal_batch(y))
                    base = space.distance_batch(x, y)
                else:
                    lhs, _ = _window_lhs(op, space, windows, strict_domain=False)
                    base = _window_rhs(op, space, ConditionSpec(kind, kappa=1.0, a=1.0), windows)
            yield windows, lhs, base

    best, at = max_ratio(chunks())
    if at is None:
        raise DegenerateDomainError("every sampled window has a vanishing comparator")
    return {"constant_hat": best, "witness": Witness(*at)}
