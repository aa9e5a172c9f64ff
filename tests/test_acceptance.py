"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from presic_lab import (
    Box,
    StopRule,
    affine,
    averaging,
    chain_bound,
    ciric_max,
    diagonal_strict,
    estimate_b,
    estimate_constant,
    euclidean,
    iterate,
    iterate_many,
    kannan,
    kannan_bounds,
    lp_truncated,
    picard,
    piecewise_phi,
    power,
    presic_bounds,
    squared_euclidean,
    verify,
    verify_diagonal,
    weak_phi,
)
from conftest import builtin_spaces
from test_cli import PROBLEMS, run_cli, strip_timestamp

TIGHT = StopRule(residual_tol=1e-20, step_tol=1e-20)
DEEP = StopRule(residual_tol=1e-300, step_tol=1e-300)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_01_example_reproduction_all_arities():
    t0 = time.monotonic()
    box = Box(np.zeros(1), np.full(1, 2.0))
    space = squared_euclidean(box)
    for k in (1, 2, 3, 5):
        rng = np.random.default_rng(2026 + k)
        # the starts of 20 successive sample(rng, k) calls, run side by side
        for trace in iterate_many(averaging(k), space, box.sample(rng, 20 * k).reshape(20, k, 1),
                                  TIGHT):
            assert trace.stop_reason == "converged"
            assert abs(trace.limit[0]) <= 1e-8
            assert trace.final_residual < 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"averaging operator converges to 0 for k in {{1,2,3,5}}, 20 starts each ({elapsed:.2f}s)")


def test_02_sharp_contraction_constant():
    box = Box(np.zeros(1), np.full(1, 2.0))
    space = squared_euclidean(box)
    est1 = estimate_constant(averaging(1), space, "ciric_max", 5000, seed=1)
    assert est1["constant_hat"] == pytest.approx(0.25, abs=1e-6)
    est2 = estimate_constant(averaging(2), space, "ciric_max", 0, seed=0, grid_points=40)
    assert est2["constant_hat"] == pytest.approx(0.25, abs=5e-3)
    report(2, f"sharp constant 0.25: k=1 {est1['constant_hat']:.9f}, k=2 grid {est2['constant_hat']:.6f}")


def test_03_relaxation_constant_sharpness():
    box = Box(np.zeros(1), np.full(1, 2.0))
    hats = {}
    for p in (2.0, 3.0):
        b_hat = estimate_b(power(p, box), 0, seed=0, grid_points=100)["b_hat"]
        target = 2.0 ** (p - 1)
        assert target - 0.05 <= b_hat <= target + 1e-9
        hats[p] = b_hat
    box4 = Box(np.zeros(4), np.full(4, 2.0))
    lp_hat = estimate_b(lp_truncated(0.5, box4), 20000, seed=3)["b_hat"]
    assert lp_hat <= 4.0 + 1e-9
    report(3, f"b_hat: p=2 {hats[2.0]:.4f}, p=3 {hats[3.0]:.4f}, lp(1/2) {lp_hat:.4f} <= 4")


def test_04_chain_bound_property_suite():
    for space in builtin_spaces():
        rng = np.random.default_rng(77)
        for _ in range(1000):
            length = int(rng.integers(2, 21))
            pts = space.domain.sample(rng, length)
            assert chain_bound(space, pts)["holds"], space.kind
    report(4, "chain bound holds on 1000 random sequences in every built-in space")


def test_05_per_step_bounds_for_verified_operators():
    space = euclidean(Box(np.full(1, -2.0), np.full(1, 2.0)))
    stop = StopRule(residual_tol=1e-13, step_tol=1e-13, max_iterations=50_000)
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 4))
        a = rng.uniform(-0.4, 0.4, size=k)
        if abs(a).sum() >= 0.9:
            continue
        op = affine(a, offset=rng.uniform(-0.2, 0.2))
        eta = estimate_constant(op, space, "ciric_max", 0, seed=1,
                                grid_points=12)["constant_hat"] + 0.01
        if not 0 < eta < 1:
            continue
        assert verify(op, space, ciric_max(eta), 500, seed=2).passed
        trace = iterate(op, space, space.domain.sample(rng, k), stop)
        assert presic_bounds(trace, eta=eta, b=1.0, k=k).all_steps_within
        window_max = np.array([trace.alphas[i:i + k].max()
                               for i in range(len(trace.alphas) - k + 1)])
        assert np.all(np.diff(window_max) <= 1e-9 * (1 + window_max[:-1]))
        checked += 1
    report(5, "per-step bounds and window-max monotonicity on 100 verified affine operators")


def test_06_kannan_scheme():
    space = euclidean(Box(np.full(1, -2.0), np.full(1, 2.0)))
    op = affine([0.25])
    assert verify(op, space, kannan(2 / 3), 3000, seed=6).passed
    trace = picard(op, space, [1.0], DEEP)
    assert trace.stop_reason == "converged"
    assert abs(trace.limit[0]) <= 1e-12
    pts = trace.points
    assert len(pts) >= 51
    d01 = space.distance(pts[0], pts[1])
    assert d01 == 0.75
    for n in range(50):
        bound = kannan_bounds(2 / 3, 1, 1.0, d01, n)
        for m in range(n + 1, 51):
            assert space.distance(pts[n], pts[m]) <= bound + 1e-12
    report(6, "kannan condition verified; all trace distances within the tail bound")


def test_07_phi_anomaly_detection():
    box = Box(np.zeros(1), np.full(1, 2.0))
    space = squared_euclidean(box)
    cond = weak_phi(piecewise_phi())
    cert = verify(averaging(1), space, cond, 4000, seed=7)
    assert cert.verdict == "falsified"
    w = cert.witness
    big = space.distance(w.window[0], w.window[1])
    assert 2.5 <= big <= 4.0
    # reproducible: the same seed returns the same witness
    again = verify(averaging(1), space, cond, 4000, seed=7)
    np.testing.assert_array_equal(again.witness.window, w.window)
    # restricted to windows with M < 5/2 the condition holds
    sub = squared_euclidean(Box(np.zeros(1), np.full(1, 1.5)))
    assert verify(averaging(1), sub, cond, 4000, seed=7).passed
    report(7, f"piecewise gauge falsified on the full box (witness M={big:.3f}), passes below M=5/2")


def test_08_rate_estimation():
    # oracle: dominant root of t^2 = (t+1)/4 via its companion polynomial
    root = float(max(np.roots([1.0, -0.25, -0.25])))
    target = root ** 2
    assert target == pytest.approx(0.4101, abs=1e-4)
    box = Box(np.zeros(1), np.full(1, 2.0))
    space = squared_euclidean(box)
    trace = iterate(averaging(2), space, [2.0, 1.0], TIGHT)
    assert trace.fitted_rate == pytest.approx(target, abs=0.01)
    eta = 0.26
    assert verify(averaging(2), space, ciric_max(eta), 2000, seed=8).passed
    assert trace.fitted_rate <= eta ** 0.5 + 0.01
    report(8, f"fitted rate {trace.fitted_rate:.4f} matches eigenvalue oracle {target:.4f}")


def test_09_uniqueness_probe():
    sq_box = Box(np.zeros(1), np.full(1, 2.0))
    eu_box = Box(np.full(1, -2.0), np.full(1, 2.0))
    bundles = [
        (averaging(1), squared_euclidean(sq_box), TIGHT),
        (averaging(2), squared_euclidean(sq_box), TIGHT),
        (averaging(3), squared_euclidean(sq_box), TIGHT),
        (affine([0.25]), euclidean(eu_box), TIGHT),
        (affine([0.25, 0.25], offset=1.0), euclidean(eu_box),
         StopRule(residual_tol=1e-13, step_tol=1e-13)),
    ]
    for op, space, stop in bundles:
        assert verify_diagonal(op, space, diagonal_strict(), 2000, seed=9).passed
        rng = np.random.default_rng(909)
        starts = space.domain.sample(rng, 20 * op.arity).reshape(20, op.arity, op.dimension)
        limits = []
        for trace in iterate_many(op, space, starts, stop):
            assert trace.stop_reason == "converged"
            limits.append(trace.limit)
        for i in range(len(limits)):
            for j in range(i + 1, len(limits)):
                assert space.distance(limits[i], limits[j]) < 1e-6
    report(9, "20 multi-start runs agree pairwise (< 1e-6) for every strictly-diagonal operator")


def test_10_cli_determinism():
    for argv in (
        ["verify", str(PROBLEMS / "averaging_k1.json"), "--seed", "12", "--samples", "400"],
        ["solve", str(PROBLEMS / "averaging_k3.json"), "--seed", "12"],
    ):
        _, out1 = run_cli(*argv)
        _, out2 = run_cli(*argv)
        assert strip_timestamp(out1) == strip_timestamp(out2)
    report(10, "verify and solve outputs byte-identical across runs (timestamp excluded)")
