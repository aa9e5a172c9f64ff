"""Closed-form oracles and output checks, independent of the recorded bytes.

For an affine operator f = sum_j a_j x_j + c with d = ||.||^p:

* the sharp ciric_max constant is (sum_j |a_j|)^p, attained by equal-length
  steps with signs sign(a_j);
* presic_sum(r) with r_j = |a_j| (sum |a|)^(p-1) holds (Cauchy-Schwarz);
* the Banach constant of F(x) = f(x,..,x) is |sum_j a_j|^p;
* the sharp kannan constant is (sum_i |c_i| / |1 - sum_j a_j|)^p with
  c = (-a_1, a_1 - a_2, .., a_{k-1} - a_k, a_k): with y_i = x_i - x*,
  lhs = ||sum_i c_i y_i||^p and d(x_i, F x_i) = |1 - S|^p ||y_i||^p;
* the fixed point is c / (1 - sum_j a_j).

Every check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import numpy as np

TOL_REL = 1e-9  # the documented rule: L <= R fails only when L > R + 1e-9 (1 + |R|)


def leq(lhs, rhs):
    return lhs <= rhs + TOL_REL * (1.0 + abs(rhs))


def ciric_sharp(weights, p):
    return float(np.sum(np.abs(weights)) ** p)


def banach_sharp(weights, p):
    return float(abs(np.sum(weights)) ** p)


def kannan_sharp(weights, p):
    a = np.asarray(weights, dtype=float)
    c = np.concatenate(([-a[0]], a[:-1] - a[1:], [a[-1]]))
    return float((np.sum(np.abs(c)) / abs(1.0 - np.sum(a))) ** p)


def fixed_point(weights, offset):
    return np.asarray(offset, dtype=float) / (1.0 - float(np.sum(weights)))


def recheck_window(op, space, cond, window):
    """(lhs, rhs) of a window condition, recomputed one point at a time."""
    w = np.asarray(window, dtype=float)
    lhs = space.distance(op.apply(w[:-1]), op.apply(w[1:]))
    steps = [space.distance(w[j], w[j + 1]) for j in range(len(w) - 1)]
    if cond.kind == "presic_sum":
        rhs = float(np.dot(cond.r, steps))
    elif cond.kind in ("ciric_max", "lambda_max"):
        rhs = (cond.kappa if cond.kind == "ciric_max" else cond.lam) * max(steps)
    elif cond.kind == "weak_phi":
        rhs = max(steps) - cond.phi(max(steps))
    elif cond.kind == "kannan":
        rhs = cond.a * max(space.distance(x, op.diagonal_apply(x)) for x in w)
    else:
        raise ValueError(f"no recheck for {cond.kind}")
    return lhs, rhs


def check_certificate(cert, expect_pass, op, space, slack_floor):
    """Verdict as the oracle predicts; a witness that re-fails; slack >= -tol."""
    if cert.passed != expect_pass:
        return f"{cert.condition.kind}: verdict {cert.verdict}, oracle expects " \
               f"{'a pass' if expect_pass else 'a falsification'}"
    if cert.passed:
        if cert.slack_min < -slack_floor:
            return f"{cert.condition.kind}: passing slack_min {cert.slack_min} < -{slack_floor}"
        return None
    return check_witness(op, space, cert.condition, cert.witness.window)


def check_witness(op, space, cond, window):
    lhs, rhs = recheck_window(op, space, cond, window)
    if leq(lhs, rhs):
        return f"{cond.kind}: witness does not re-fail (lhs={lhs!r}, rhs={rhs!r})"
    return None


def slack_floor(space, p):
    """Tolerance on slack_min: the relative rule at the largest distance in the box."""
    diameter = float(np.linalg.norm(space.domain.hi - space.domain.lo))
    return TOL_REL * (1.0 + 2.0 * diameter ** p)
