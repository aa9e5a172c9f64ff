import numpy as np
import pytest

import json
import tracemalloc

from presic_lab import (
    Box,
    DegenerateDomainError,
    DomainError,
    NumericEvalError,
    UsageError,
    affine,
    averaging,
    banach,
    check_axioms,
    ciric_max,
    constant,
    custom,
    diagonal_phi,
    diagonal_strict,
    estimate_b,
    estimate_constant,
    euclidean,
    from_dsl,
    kannan,
    lambda_max,
    linear_phi,
    lp_truncated,
    piecewise_phi,
    power,
    presic_sum,
    squared_euclidean,
    verify,
    verify_diagonal,
    weak_phi,
)
from presic_lab import problem
from presic_lab.bmetric import TOL_REL
from presic_lab.contraction import (
    CHUNK,
    DIAGONAL_KINDS,
    ContractionCertificate,
    ConditionSpec,
    Witness,
    dsl_phi,
)


class TestPhi:
    def test_linear(self):
        phi = linear_phi(0.2)
        assert phi(0.0) == 0.0
        assert phi(5.0) == 1.0

    def test_linear_requires_open_interval(self):
        with pytest.raises(UsageError):
            linear_phi(1.0)
        with pytest.raises(UsageError):
            linear_phi(0.0)

    def test_piecewise_low_band(self):
        phi = piecewise_phi()
        assert phi(0.0) == 0.0
        assert phi(1.0) == 0.2
        assert phi(2.4999) == pytest.approx(2.4999 / 5)

    def test_piecewise_band_values(self):
        phi = piecewise_phi()
        # first band edge and interior of the n=1 band
        assert phi(2.5) == pytest.approx(4.0)
        assert phi(4.0) == pytest.approx(52.0 / 7.0)
        # shared endpoint 17/4: lower band wins (8, not the n=2 value 16)
        assert phi(4.25) == pytest.approx(8.0)
        # strictly inside the n=2 band
        assert phi(5.0) == pytest.approx(16 * (8 * 5.0 - 3) / 31)

    def test_piecewise_nonnegative_sampled(self):
        phi = piecewise_phi()
        t = np.linspace(0, 40, 4001)
        assert np.all(phi(t) >= 0)

    def test_dsl_phi(self):
        phi = dsl_phi("t/5")
        assert phi(2.0) == pytest.approx(0.4)

    def test_dsl_phi_must_vanish_at_zero(self):
        with pytest.raises(UsageError):
            dsl_phi("t + 1")


class TestConditionValidation:
    def test_presic_sum_must_sum_below_one(self):
        with pytest.raises(UsageError):
            presic_sum([0.6, 0.5]).validate(k=2)

    def test_ciric_bounds(self):
        with pytest.raises(UsageError):
            ciric_max(1.0).validate()
        with pytest.raises(UsageError):
            ciric_max(0.0).validate()

    def test_lambda_accepts_zero(self):
        lambda_max(0.0).validate()

    def test_kannan_needs_small_akb(self):
        # a k b^(k+1) = (2/3)*1*2^2 = 8/3 >= 1
        with pytest.raises(UsageError):
            kannan(2 / 3).validate(k=1, b=2.0)
        kannan(2 / 3).validate(k=1, b=1.0)

    def test_banach_bounds(self):
        with pytest.raises(UsageError):
            banach(1.0).validate()


class TestVerify:
    def test_ciric_exact_quarter_passes(self, sq_space):
        cert = verify(averaging(1), sq_space, ciric_max(0.25), 2000, seed=7)
        assert cert.passed
        assert cert.slack_min >= -1e-12

    def test_ciric_below_sharp_falsifies(self, sq_space):
        cert = verify(averaging(1), sq_space, ciric_max(0.2), 2000, seed=7)
        assert cert.verdict == "falsified"
        assert cert.witness is not None

    def test_constant_operator_passes_everything(self, sq_space):
        op = constant([1.0], k=2)
        for cond in (ciric_max(0.5), lambda_max(0.3), presic_sum([0.2, 0.2]),
                     kannan(0.05), weak_phi(linear_phi(0.5))):
            cert = verify(op, sq_space, cond, 500, seed=1)
            assert cert.passed, cond.kind

    def test_presic_sum_averaging(self, sq_space):
        cert = verify(averaging(2), sq_space, presic_sum([0.25, 0.25]), 2000, seed=2)
        assert cert.passed

    def test_weak_phi_piecewise_small_box_passes(self):
        # with M < 5/2 the gauge is M/5, so rhs = 4M/5 >= lhs = M/4
        space = squared_euclidean(Box(np.zeros(1), np.full(1, 1.5)))
        for k in (1, 2):
            cert = verify(averaging(k), space, weak_phi(piecewise_phi()), 2000, seed=3)
            assert cert.passed, k

    def test_weak_phi_piecewise_full_box_falsified(self, sq_space):
        cert = verify(averaging(1), sq_space, weak_phi(piecewise_phi()), 3000, seed=3)
        assert cert.verdict == "falsified"
        w = cert.witness
        big = sq_space.distance(w.window[0], w.window[1])
        assert 2.5 <= big <= 4.0
        assert w.rhs < 0.0 < w.lhs

    def test_weak_phi_window_zero_two(self, sq_space):
        # direct evaluation of the documented witness window (0, 2)
        phi = piecewise_phi()
        lhs = sq_space.distance(averaging(1).apply([[0.0]]), averaging(1).apply([[2.0]]))
        big = sq_space.distance([0.0], [2.0])
        rhs = big - phi(big)
        assert lhs == 1.0
        assert phi(4.0) == pytest.approx(52 / 7)
        assert rhs < 0.0

    def test_kannan_quarter_map(self, eu_space):
        cert = verify(affine([0.25]), eu_space, kannan(2 / 3), 2000, seed=5)
        assert cert.passed

    def test_witness_reproduces(self, sq_space):
        cert = verify(averaging(1), sq_space, ciric_max(0.2), 2000, seed=7)
        w = cert.witness
        op = averaging(1)
        lhs = sq_space.distance(op.apply(w.window[:1]), op.apply(w.window[1:]))
        rhs = 0.2 * sq_space.distance(w.window[0], w.window[1])
        assert lhs == pytest.approx(w.lhs)
        assert rhs == pytest.approx(w.rhs)
        assert lhs > rhs + 1e-9 * (1 + abs(rhs))

    def test_monotone_in_the_constant(self, sq_space):
        op = averaging(2)
        for c in (0.26, 0.4, 0.7, 0.99):
            assert verify(op, sq_space, ciric_max(c), 1000, seed=9).passed

    def test_grid_mode(self, sq_space):
        cert = verify(averaging(1), sq_space, ciric_max(0.25), 0, seed=0, grid_points=40)
        assert cert.passed


class TestVerifyDiagonal:
    def test_banach_quarter(self, sq_space):
        cert = verify_diagonal(averaging(1), sq_space, banach(0.25), 2000, seed=1)
        assert cert.passed

    def test_identity_strict_falsified_with_tie(self, sq_space):
        ident = from_dsl(["x1"], k=1)
        cert = verify_diagonal(ident, sq_space, diagonal_strict(), 500, seed=2)
        assert cert.verdict == "falsified"
        assert cert.witness.tie

    def test_averaging_strict_passes(self, sq_space):
        cert = verify_diagonal(averaging(3), sq_space, diagonal_strict(), 2000, seed=3)
        assert cert.passed

    def test_diagonal_phi_example(self, sq_space):
        # d(Fx, Fy) = d(x,y)/4 <= 4 d(x,y)/5
        for k in (1, 2, 3):
            cert = verify_diagonal(averaging(k), sq_space, diagonal_phi(linear_phi(0.2)),
                                   2000, seed=4)
            assert cert.passed, k


class TestEstimateConstant:
    def test_averaging_k1_closed_form(self, sq_space):
        est = estimate_constant(averaging(1), sq_space, "ciric_max", 3000, seed=1)
        assert est["constant_hat"] == pytest.approx(0.25, abs=1e-9)

    def test_averaging_k2_grid(self, sq_space):
        est = estimate_constant(averaging(2), sq_space, "ciric_max", 0, seed=0,
                                grid_points=40)
        assert est["constant_hat"] == pytest.approx(0.25, abs=5e-3)

    def test_constant_operator_is_zero(self, sq_space):
        est = estimate_constant(constant([1.0], k=2), sq_space, "ciric_max", 500, seed=2)
        assert est["constant_hat"] == 0.0

    def test_banach_kind(self, sq_space):
        est = estimate_constant(averaging(1), sq_space, "banach", 2000, seed=3)
        assert est["constant_hat"] == pytest.approx(0.25, abs=1e-9)

    def test_kannan_kind_below_admissible(self, eu_space):
        est = estimate_constant(affine([0.25]), eu_space, "kannan", 3000, seed=4)
        assert est["constant_hat"] <= 2 / 3 + 1e-9

    def test_consistency_with_verify(self, sq_space):
        op = averaging(2)
        est = estimate_constant(op, sq_space, "ciric_max", 2000, seed=5)
        cert = verify(op, sq_space, ciric_max(est["constant_hat"] + 1e-6), 2000, seed=5)
        assert cert.passed

    def test_more_samples_never_decrease(self, sq_space):
        op = averaging(2)
        prev = -np.inf
        for n in (100, 500, 2500):
            est = estimate_constant(op, sq_space, "ciric_max", n, seed=6)
            assert est["constant_hat"] >= prev - 1e-15
            prev = est["constant_hat"]

    def test_degenerate_domain(self):
        space = squared_euclidean(Box(np.ones(1), np.ones(1)))
        with pytest.raises(DegenerateDomainError):
            estimate_constant(averaging(1), space, "ciric_max", 100, seed=0)

    def test_degenerate_domain_banach(self):
        # every pair has x = y, so every chunk is dropped whole
        space = squared_euclidean(Box(np.ones(1), np.ones(1)))
        with pytest.raises(DegenerateDomainError):
            estimate_constant(averaging(1), space, "banach", CHUNK + 1, seed=0)

    def test_unknown_kind(self, sq_space):
        with pytest.raises(UsageError):
            estimate_constant(averaging(1), sq_space, "weak_phi", 100, seed=0)


class TestCertificateSerialization:
    def test_schema_fields(self, sq_space):
        cert = verify(averaging(1), sq_space, ciric_max(0.2), 1000, seed=7)
        d = cert.to_dict()
        assert d["verdict"] == "falsified"
        assert d["samples"] == 1000
        assert d["seed"] == 7
        assert isinstance(d["witness"]["window"], list)
        assert set(d) == {"condition", "verdict", "samples", "seed", "slack_min",
                          "estimated_constant", "witness"}

    def test_condition_dict(self):
        spec = ConditionSpec("weak_phi", phi=piecewise_phi())
        assert spec.to_dict() == {"kind": "weak_phi", "phi": {"kind": "paper_piecewise"}}


# --- the reference pipeline --------------------------------------------------
# verify, verify_diagonal and estimate_constant as they were before windows
# were streamed in chunks: the whole sample drawn at once by rng.uniform (or
# the whole grid), one batch call per layer, short axes reduced by numpy.
# The chunked pipeline must reproduce their results bit for bit.

def _reference_sample_windows(space, width, samples, seed, grid_points=None, budget=2_000_000):
    m = space.dimension
    if grid_points is not None:
        total = grid_points ** (width * m)
        if total <= budget:
            axes = []
            for _ in range(width):
                for i in range(m):
                    axes.append(np.linspace(space.domain.lo[i], space.domain.hi[i], grid_points))
            mesh = np.meshgrid(*axes, indexing="ij")
            flat = np.stack([g.ravel() for g in mesh], axis=-1)
            return flat.reshape(-1, width, m)
        rng = np.random.default_rng(seed)
        per_axis = [np.linspace(space.domain.lo[i], space.domain.hi[i], grid_points)
                    for i in range(m)]
        idx = rng.integers(0, grid_points, size=(samples, width, m))
        cols = [per_axis[i][idx[:, :, i]] for i in range(m)]
        return np.stack(cols, axis=-1)
    rng = np.random.default_rng(seed)
    return rng.uniform(space.domain.lo, space.domain.hi, size=(samples, width, m))


def _reference_diagonal(op, xs):
    return op.apply_batch(np.repeat(xs[:, None, :], op.arity, axis=1))


def _reference_consecutive_distances(space, windows):
    n, width, m = windows.shape
    left = windows[:, :-1, :].reshape(-1, m)
    right = windows[:, 1:, :].reshape(-1, m)
    return space.distance_batch(left, right).reshape(n, width - 1)


def _reference_outside(space, points):
    pts = np.atleast_2d(points)
    return int(np.sum(~((pts >= space.domain.lo_tol) & (pts <= space.domain.hi_tol)).all(axis=-1)))


def _reference_window_lhs(op, space, windows, strict_domain):
    f_head = op.apply_batch(windows[:, :-1, :])
    f_tail = op.apply_batch(windows[:, 1:, :])
    out_count = _reference_outside(space, f_head) + _reference_outside(space, f_tail)
    if strict_domain and out_count:
        raise DomainError("operator output left the domain in strict mode")
    return space.distance_batch(f_head, f_tail), out_count


def _reference_window_rhs(op, space, cond, windows):
    steps = _reference_consecutive_distances(space, windows)
    if cond.kind == "presic_sum":
        return steps @ np.asarray(cond.r, dtype=float)
    if cond.kind in ("ciric_max", "lambda_max"):
        const = cond.kappa if cond.kind == "ciric_max" else cond.lam
        return const * steps.max(axis=1)
    if cond.kind == "weak_phi":
        big = steps.max(axis=1)
        return big - cond.phi(big)
    n, width, m = windows.shape
    flat = windows.reshape(-1, m)
    diag = space.distance_batch(flat, _reference_diagonal(op, flat)).reshape(n, width)
    return cond.a * diag.max(axis=1)


def _reference_certify(cond, windows, lhs, rhs, n_samples, seed, out_count, strict=False):
    slack = rhs - lhs
    tol = TOL_REL * (1.0 + np.abs(rhs))
    if strict:
        tie = np.abs(lhs - rhs) <= tol
        bad = (lhs > rhs + tol) | tie
    else:
        bad = lhs > rhs + tol
        tie = np.zeros_like(bad)
    witness = None
    if np.any(bad):
        i = int(np.argmax(bad))
        witness = Witness(windows[i], float(lhs[i]), float(rhs[i]), tie=bool(tie[i]))
    verdict = "passed_on_samples" if witness is None else "falsified"
    return ContractionCertificate(cond, n_samples, seed, verdict, float(slack.min()),
                                  witness=witness, out_of_domain=out_count)


def _reference_verify(op, space, cond, samples, seed, grid_points=None, strict_domain=False):
    windows = _reference_sample_windows(space, op.arity + 1, samples, seed, grid_points)
    lhs, out_count = _reference_window_lhs(op, space, windows, strict_domain)
    rhs = _reference_window_rhs(op, space, cond, windows)
    return _reference_certify(cond, windows, lhs, rhs, len(windows), seed, out_count)


def _reference_verify_diagonal(op, space, cond, samples, seed, grid_points=None,
                               strict_domain=False):
    pairs = _reference_sample_windows(space, 2, samples, seed, grid_points)
    sep = space.distance_batch(pairs[:, 0, :], pairs[:, 1, :])
    keep = sep > 0
    pairs, sep = pairs[keep], sep[keep]
    if len(pairs) == 0:
        raise DegenerateDomainError("no sampled pair has x != y")
    fx = _reference_diagonal(op, pairs[:, 0, :])
    fy = _reference_diagonal(op, pairs[:, 1, :])
    out_count = _reference_outside(space, fx) + _reference_outside(space, fy)
    if strict_domain and out_count:
        raise DomainError("operator output left the domain in strict mode")
    lhs = space.distance_batch(fx, fy)
    if cond.kind == "banach":
        rhs = cond.eta * sep
    elif cond.kind == "diagonal_phi":
        rhs = sep - cond.phi(sep)
    else:
        rhs = sep
    return _reference_certify(cond, pairs, lhs, rhs, len(pairs), seed, out_count,
                              strict=cond.kind == "diagonal_strict")


def _reference_estimate_constant(op, space, kind, samples, seed, grid_points=None):
    width = 2 if kind == "banach" else op.arity + 1
    windows = _reference_sample_windows(space, width, samples, seed, grid_points)
    if kind == "banach":
        lhs = space.distance_batch(_reference_diagonal(op, windows[:, 0, :]),
                                   _reference_diagonal(op, windows[:, 1, :]))
        base = space.distance_batch(windows[:, 0, :], windows[:, 1, :])
    else:
        lhs, _ = _reference_window_lhs(op, space, windows, strict_domain=False)
        if kind == "ciric_max":
            base = _reference_consecutive_distances(space, windows).max(axis=1)
        else:
            n, w, m = windows.shape
            flat = windows.reshape(-1, m)
            base = (space.distance_batch(flat, _reference_diagonal(op, flat))
                    .reshape(n, w).max(axis=1))
    ok = base > 0
    if not np.any(ok):
        raise DegenerateDomainError("every sampled window has a vanishing comparator")
    ratio = np.where(ok, lhs / np.where(ok, base, 1.0), -np.inf)
    best = int(np.argmax(ratio))
    return {"constant_hat": float(ratio[best]),
            "witness": Witness(windows[best], float(lhs[best]), float(base[best]))}


def _assert_same_certificate(got, want):
    assert got.to_dict() == want.to_dict()
    assert got.out_of_domain == want.out_of_domain
    assert np.signbit(got.slack_min) == np.signbit(want.slack_min)
    if want.witness is not None:
        np.testing.assert_array_equal(got.witness.window, want.witness.window)


def _assert_same_estimate(got, want):
    assert got["constant_hat"] == want["constant_hat"]
    np.testing.assert_array_equal(got["witness"].window, want["witness"].window)
    assert (got["witness"].lhs, got["witness"].rhs) == (want["witness"].lhs, want["witness"].rhs)


BOX2 = Box(np.full(2, -1.0), np.full(2, 1.0))
SPACES2 = {
    "euclidean": euclidean(BOX2),
    "squared_euclidean": squared_euclidean(BOX2),
    "power": power(3.0, BOX2),
    "lp_truncated": lp_truncated(0.5, BOX2),
    "custom_dsl": custom("max(abs(u1 - v1), abs(u2 - v2))^2", BOX2, b=2.0),
}
OPERATORS2 = {
    "averaging": averaging(2, dimension=2),
    "affine": affine([0.45, -0.3], offset=[0.2, -0.1], dimension=2),
    "constant": constant([0.25, -0.5], k=2),
    "dsl": from_dsl(["(x1 - x2)/3 + 0.1", "x1*x2/2"], k=2, dimension=2),
}
WINDOW_CONDITIONS = {
    "presic_sum": presic_sum([0.3, 0.3]),
    "ciric_max": ciric_max(0.3),
    "lambda_max": lambda_max(0.2),
    "weak_phi": weak_phi(piecewise_phi()),
    "kannan": kannan(0.005),
}
DIAGONAL_CONDITIONS = {
    "banach": banach(0.3),
    "diagonal_strict": diagonal_strict(),
    "diagonal_phi": diagonal_phi(linear_phi(0.5)),
}
SAMPLE_COUNTS = (1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 7)


class TestChunkedMatchesReference:
    """Streaming the windows in chunks changes no result."""

    @pytest.mark.parametrize("op_kind", OPERATORS2)
    @pytest.mark.parametrize("metric", SPACES2)
    @pytest.mark.parametrize("cond", WINDOW_CONDITIONS)
    def test_verify_every_kind(self, cond, metric, op_kind):
        args = (OPERATORS2[op_kind], SPACES2[metric], WINDOW_CONDITIONS[cond], CHUNK + 1, 5)
        _assert_same_certificate(verify(*args), _reference_verify(*args))

    @pytest.mark.parametrize("op_kind", OPERATORS2)
    @pytest.mark.parametrize("metric", SPACES2)
    @pytest.mark.parametrize("cond", DIAGONAL_CONDITIONS)
    def test_verify_diagonal_every_kind(self, cond, metric, op_kind):
        args = (OPERATORS2[op_kind], SPACES2[metric], DIAGONAL_CONDITIONS[cond], CHUNK + 1, 6)
        _assert_same_certificate(verify_diagonal(*args), _reference_verify_diagonal(*args))

    @pytest.mark.parametrize("op_kind", OPERATORS2)
    @pytest.mark.parametrize("metric", SPACES2)
    @pytest.mark.parametrize("kind", ["ciric_max", "banach", "kannan"])
    def test_estimate_constant_every_kind(self, kind, metric, op_kind):
        args = (OPERATORS2[op_kind], SPACES2[metric], kind, CHUNK + 1, 7)
        _assert_same_estimate(estimate_constant(*args), _reference_estimate_constant(*args))

    @pytest.mark.parametrize("samples", SAMPLE_COUNTS)
    def test_sample_counts(self, sq_space, samples):
        op = averaging(2)
        for cond in (ciric_max(0.26), presic_sum([0.1, 0.1]), weak_phi(piecewise_phi())):
            _assert_same_certificate(verify(op, sq_space, cond, samples, 8),
                                     _reference_verify(op, sq_space, cond, samples, 8))
        _assert_same_certificate(verify_diagonal(op, sq_space, banach(0.2), samples, 9),
                                 _reference_verify_diagonal(op, sq_space, banach(0.2), samples, 9))
        _assert_same_estimate(estimate_constant(op, sq_space, "kannan", samples, 10),
                              _reference_estimate_constant(op, sq_space, "kannan", samples, 10))

    @pytest.mark.parametrize("grid_points, samples", [(30, 0), (200, 3 * CHUNK + 7)])
    def test_grid_paths(self, eu_space, grid_points, samples):
        # 30^3 windows enumerate the full grid over 4 chunks; 200^3 is over
        # the budget, so windows are drawn from the grid
        op = affine([0.5, -0.3])
        for cond in (ciric_max(0.85), kannan(0.3)):
            _assert_same_certificate(
                verify(op, eu_space, cond, samples, 11, grid_points=grid_points),
                _reference_verify(op, eu_space, cond, samples, 11, grid_points=grid_points))
        _assert_same_certificate(
            verify_diagonal(op, eu_space, diagonal_strict(), samples, 12, grid_points=grid_points),
            _reference_verify_diagonal(op, eu_space, diagonal_strict(), samples, 12,
                                       grid_points=grid_points))
        for kind in ("ciric_max", "banach"):
            _assert_same_estimate(
                estimate_constant(op, eu_space, kind, samples, 13, grid_points=grid_points),
                _reference_estimate_constant(op, eu_space, kind, samples, 13,
                                             grid_points=grid_points))

    def test_first_violation_in_a_later_chunk(self, sq_space):
        # contracts everywhere except near x = 2, which the grid (200^2
        # windows, head coordinate most significant) reaches only after
        # four chunks
        op = from_dsl("x1/4 + 8*max(x1 - 1.99, 0)", k=1)
        cond = ciric_max(0.3)
        got = verify(op, sq_space, cond, 0, 0, grid_points=200)
        want = _reference_verify(op, sq_space, cond, 0, 0, grid_points=200)
        _assert_same_certificate(got, want)
        windows = _reference_sample_windows(sq_space, 2, 0, 0, grid_points=200)
        first = np.flatnonzero((windows == got.witness.window).all(axis=(1, 2)))[0]
        assert first > 4 * CHUNK
        assert got.samples == len(windows)

    def test_slack_min_over_every_chunk(self, sq_space):
        # falsified in the first chunk; the smallest slack lies in the third
        op = averaging(2)
        got = verify(op, sq_space, ciric_max(0.2), 3 * CHUNK + 7, 14)
        want = _reference_verify(op, sq_space, ciric_max(0.2), 3 * CHUNK + 7, 14)
        _assert_same_certificate(got, want)
        assert got.verdict == "falsified"

    def test_strict_domain(self, sq_space):
        op = from_dsl("x1 + 10*max(x1 - 1.99, 0)", k=1)  # leaves [0, 2] near 2
        for strict in (False, True):
            for run, ref in ((verify, _reference_verify),
                             (verify_diagonal, _reference_verify_diagonal)):
                cond = ciric_max(0.9) if ref is _reference_verify else banach(0.9)
                if strict:
                    with pytest.raises(DomainError):
                        ref(op, sq_space, cond, 3 * CHUNK + 7, 15, strict_domain=True)
                    with pytest.raises(DomainError):
                        run(op, sq_space, cond, 3 * CHUNK + 7, 15, strict_domain=True)
                else:
                    got = run(op, sq_space, cond, 3 * CHUNK + 7, 15)
                    _assert_same_certificate(got, ref(op, sq_space, cond, 3 * CHUNK + 7, 15))
                    assert got.out_of_domain > 0

    def test_fold_falls_back_to_sum_on_long_axes(self):
        # averaging k=8 sums over 8 window slots, and m=8 metrics over 8
        # coordinates: numpy's pairwise summation, not the short-axis fold
        box8 = Box(np.full(8, -1.0), np.full(8, 1.0))
        box1 = Box(np.full(1, -1.0), np.full(1, 1.0))
        rng = np.random.default_rng(16)
        w = rng.uniform(-1.0, 1.0, size=(CHUNK + 1, 9, 1))
        np.testing.assert_array_equal(averaging(8).apply_batch(w[:, 1:]),
                                      w[:, 1:].sum(axis=1) / 16.0)
        np.testing.assert_array_equal(averaging(8).diagonal_batch(w[:, 0]),
                                      np.repeat(w[:, :1], 8, axis=1).sum(axis=1) / 16.0)
        xs, ys = rng.uniform(-1.0, 1.0, size=(2, CHUNK + 1, 8))
        np.testing.assert_array_equal(squared_euclidean(box8).distance_batch(xs, ys),
                                      ((xs - ys) * (xs - ys)).sum(axis=-1))
        s = (np.abs(xs - ys) ** 0.5).sum(axis=-1)
        np.testing.assert_array_equal(lp_truncated(0.5, box8).distance_batch(xs, ys), s ** 2.0)
        cases = [(averaging(8), squared_euclidean(box1)),
                 (averaging(8, dimension=8), squared_euclidean(box8)),
                 (affine(np.full(2, 0.3), dimension=8), lp_truncated(0.5, box8))]
        for op, space in cases:
            for cond in (ciric_max(0.3), kannan(1e-4)):
                _assert_same_certificate(verify(op, space, cond, CHUNK + 1, 16),
                                         _reference_verify(op, space, cond, CHUNK + 1, 16))
            _assert_same_certificate(
                verify_diagonal(op, space, banach(0.3), CHUNK + 1, 17),
                _reference_verify_diagonal(op, space, banach(0.3), CHUNK + 1, 17))
            _assert_same_estimate(estimate_constant(op, space, "kannan", CHUNK + 1, 18),
                                  _reference_estimate_constant(op, space, "kannan", CHUNK + 1, 18))

    def test_overflowing_distances_give_nan_as_the_reference_does(self, sq_space):
        # squared distances past 1e154 are inf, so the reference's slacks and
        # ratios of two such distances are NaN: over [0, 1e200] in every
        # window; on the [0, 2] grid wherever one point of a window is 2, where
        # the operator jumps to 1e198. No verdict or constant may rest on them:
        # the first distance that overflows, between the images of a window,
        # is a NumericEvalError naming that window
        huge = squared_euclidean(Box(np.zeros(1), np.full(1, 1e200)))
        jump = from_dsl("1e200*max(x1 - 1.99, 0)", k=1)
        runs = [(averaging(2), huge, presic_sum([0.3, 0.3]), CHUNK - 1, {}),
                (averaging(2), huge, ciric_max(0.3), 3 * CHUNK + 7, {}),
                (jump, sq_space, kannan(0.1), 0, {"grid_points": 200})]

        def first_overflow(op, space, samples, seed, grid):
            w = _reference_sample_windows(space, op.arity + 1, samples, seed, **grid)
            d = ((op.apply_batch(w[:, :-1]) - op.apply_batch(w[:, 1:])) ** 2).sum(axis=-1)
            return int(np.flatnonzero(~np.isfinite(d))[0])

        with np.errstate(over="ignore", invalid="ignore"):
            for op, space, cond, samples, grid in runs:
                row = first_overflow(op, space, samples, 20, grid)
                match = rf"non-finite result in squared_euclidean distance \(row {row}\)"
                with pytest.raises(NumericEvalError, match=match):
                    verify(op, space, cond, samples, 20, **grid)
                if cond.kind == "presic_sum":
                    continue
                row = first_overflow(op, space, samples, 21, grid)
                match = rf"non-finite result in squared_euclidean distance \(row {row}\)"
                with pytest.raises(NumericEvalError, match=match):
                    estimate_constant(op, space, cond.kind, samples, 21, **grid)


class TestErrorsNameTheGlobalWindow:
    """A NumericEvalError names the window by its sample index, not its
    index in the chunk it was found in."""

    SAMPLES = 3 * CHUNK + 7
    SEED = 10  # every bad window below falls in a chunk after the first, alone there

    def _first_bad(self, space, width, bad_point):
        windows = _reference_sample_windows(space, width, self.SAMPLES, self.SEED)
        bad = np.flatnonzero(bad_point(windows[:, :, 0]).any(axis=1))
        in_chunk = bad[bad // CHUNK == bad[0] // CHUNK]
        assert bad[0] >= CHUNK and len(in_chunk) == 1
        return bad[0]

    def test_dsl_error_in_operator(self, sq_space):
        op = from_dsl("sqrt(x1 - 1e-4)", k=1)
        row = self._first_bad(sq_space, 2, lambda x: x < 1e-4)
        with pytest.raises(NumericEvalError, match=rf"sqrt of a negative value \(row {row}\)"):
            verify(op, sq_space, ciric_max(0.3), self.SAMPLES, self.SEED)

    def test_non_finite_operator_output(self, sq_space):
        op = from_dsl("max(x1 - 1.9999, 0)*1e308*1e5", k=1)
        with np.errstate(over="ignore"):
            row = self._first_bad(sq_space, 2,
                                  lambda x: np.isinf(np.maximum(x - 1.9999, 0) * 1e308 * 1e5))
            with pytest.raises(NumericEvalError, match=rf"coordinate 0 \(window {row}\)"):
                verify(op, sq_space, ciric_max(0.3), self.SAMPLES, self.SEED)

    def test_kannan_diagonal(self, sq_space):
        # f(x1, x2) is defined on the windows' heads and tails; its
        # diagonal F(x) = f(x, x) is not, near 0
        op = from_dsl("sqrt(x1 + x2 - 2e-4)/10", k=2)
        row = self._first_bad(sq_space, 3, lambda x: x < 1e-4)
        with pytest.raises(NumericEvalError, match=rf"\(row {row}\)"):
            verify(op, sq_space, kannan(0.01), self.SAMPLES, self.SEED)


class TestEveryCheckNamesTheSampledWindow:
    """Images, comparator and gauge of a window are evaluated under the
    chunk's offset and, for a diagonal pair, the map from kept pairs back to
    sampled ones, so an error names the window by its sample index."""

    CHECKS = [(verify, weak_phi), (verify_diagonal, diagonal_phi)]

    @pytest.mark.parametrize("check, cond", CHECKS, ids=["verify", "verify_diagonal"])
    def test_gauge_error_names_the_window(self, sq_space, check, cond):
        # the gauge is undefined where the comparator d(x_1, x_2) exceeds 3.9
        phi = dsl_phi("sqrt(3.9 - t) - sqrt(3.9)")
        windows = _reference_sample_windows(sq_space, 2, 5 * CHUNK, 1)
        row = np.flatnonzero((windows[:, 0, 0] - windows[:, 1, 0]) ** 2 > 3.9)[0]
        assert row >= CHUNK
        with pytest.raises(NumericEvalError, match=rf"sqrt of a negative value \(row {row}\)"):
            check(averaging(1), sq_space, cond(phi), 5 * CHUNK, 1)

    def test_gauge_error_skips_the_dropped_pairs(self, sq_space):
        # on the 5-point grid the pairs with x = y are dropped; the first
        # pair past 3.9 apart is (0, 2), whose index counts them
        windows = _reference_sample_windows(sq_space, 2, 0, 0, grid_points=5)
        row = np.flatnonzero((windows[:, 0, 0] - windows[:, 1, 0]) ** 2 > 3.9)[0]
        assert row > np.flatnonzero(windows[:, 0, 0] == windows[:, 1, 0])[0]
        with pytest.raises(NumericEvalError, match=rf"sqrt of a negative value \(row {row}\)"):
            verify_diagonal(averaging(1), sq_space,
                            diagonal_phi(dsl_phi("sqrt(3.9 - t) - sqrt(3.9)")), 0, 0,
                            grid_points=5)

    @pytest.mark.parametrize("check, cond", CHECKS, ids=["verify", "verify_diagonal"])
    def test_non_finite_gauge_is_an_error_not_a_verdict(self, sq_space, check, cond):
        # inf * 0 is NaN wherever t > 0; the gauge is 0 only at t = 0
        phi = dsl_phi("t*1e300*1e300*0")
        windows = _reference_sample_windows(sq_space, 2, 2000, 1)
        row = np.flatnonzero(windows[:, 0, 0] != windows[:, 1, 0])[0]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericEvalError,
                               match=rf"non-finite result in gauge \(row {row}\)"):
                check(averaging(1), sq_space, cond(phi), 2000, 1)

    @pytest.mark.parametrize("kind, cond", [("ciric_max", ciric_max(0.5)),
                                            ("kannan", kannan(0.1)),
                                            ("banach", banach(0.5))])
    def test_estimate_constant_names_the_window_verify_names(self, kind, cond):
        # f = 0.1/x1 is undefined at 0; banach drops the pair (0, 0) first
        op, space = from_dsl("0.1/x1", 1), euclidean(Box(np.zeros(1), np.full(1, 2.0)))
        windows = _reference_sample_windows(space, 2, 0, 1, grid_points=5)
        evaluated = windows[:, 0, 0] != windows[:, 1, 0] if kind == "banach" else True
        row = np.flatnonzero(evaluated & (windows[:, 0, 0] == 0))[0]
        check = verify_diagonal if kind == "banach" else verify
        match = rf"division by zero \(row {row}\)"
        with pytest.raises(NumericEvalError, match=match):
            estimate_constant(op, space, kind, 0, 1, grid_points=5)
        with pytest.raises(NumericEvalError, match=match):
            check(op, space, cond, 0, 1, grid_points=5)


def test_verify_memory_does_not_grow_with_samples(sq_space):
    op, cond = averaging(2), ciric_max(0.3)

    def peak(samples):
        tracemalloc.start()
        try:
            verify(op, sq_space, cond, samples, 19)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2_000_000) <= 1.5 * peak(200_000)


def test_verify_needs_a_window(sq_space):
    with pytest.raises(UsageError):
        verify(averaging(1), sq_space, ciric_max(0.5), 0, seed=0)


# Every sampled check at m = 1, with a grid too large to run in full: 200^3
# windows or triples and 2000^2 pairs exceed the 2e6 budget.
ZERO_SAMPLE_CHECKS = {
    "verify": (lambda space, n, grid: verify(averaging(2), space, ciric_max(0.5), n, 0,
                                             grid_points=grid), 200),
    "verify_diagonal": (lambda space, n, grid: verify_diagonal(averaging(1), space, banach(0.5),
                                                               n, 0, grid_points=grid), 2000),
    "estimate_constant": (lambda space, n, grid: estimate_constant(averaging(1), space, "banach",
                                                                   n, 0, grid_points=grid), 2000),
    "estimate_b": (lambda space, n, grid: estimate_b(space, n, 0, grid_points=grid), 200),
    "check_axioms": (lambda space, n, grid: check_axioms(space, n, 0, grid_points=grid), 200),
}


@pytest.mark.parametrize("over_budget", [False, True], ids=["no-grid", "grid-over-budget"])
@pytest.mark.parametrize("name", ZERO_SAMPLE_CHECKS)
def test_zero_samples_is_a_usage_error(sq_space, name, over_budget):
    check, grid_points = ZERO_SAMPLE_CHECKS[name]
    with pytest.raises(UsageError, match="samples must be >= 1"):
        check(sq_space, 0, grid_points if over_budget else None)


@pytest.mark.parametrize("samples", [0, 100])
def test_diagonal_pairs_drawn_but_all_degenerate(sq_space, samples):
    # a one-point grid draws pairs, each with x = y
    with pytest.raises(DegenerateDomainError, match="no sampled pair has x != y"):
        verify_diagonal(averaging(1), sq_space, banach(0.5), samples, 0, grid_points=1)


# --- one kind table: payloads, problem files, validation ----------------------

GAUGES = {"linear": linear_phi(0.5), "paper_piecewise": piecewise_phi(),
          "dsl": dsl_phi("t*t/8")}
SPECS = {
    "presic_sum": presic_sum([0.3, 0.3]),
    "ciric_max": ciric_max(0.3),
    "lambda_max": lambda_max(0.2),
    "kannan": kannan(0.005),
    "banach": banach(0.3),
    "diagonal_strict": diagonal_strict(),
    **{f"weak_phi-{g}": weak_phi(phi) for g, phi in GAUGES.items()},
    **{f"diagonal_phi-{g}": diagonal_phi(phi) for g, phi in GAUGES.items()},
}


@pytest.mark.parametrize("name", SPECS)
def test_condition_round_trips_through_its_dict(name):
    spec = SPECS[name]
    assert ConditionSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("name", SPECS)
def test_problem_file_condition_verifies_as_the_spec(name):
    spec = SPECS[name]
    prob = problem.loads(json.dumps({
        "space": {"kind": "squared_euclidean", "dim": 1, "box": {"lo": [0.0], "hi": [2.0]}},
        "operator": {"kind": "averaging", "k": 2},
        "condition": spec.to_dict()}))
    assert prob.condition == spec
    check = verify_diagonal if spec.kind in DIAGONAL_KINDS else verify
    args = (prob.operator, prob.space)
    _assert_same_certificate(check(*args, prob.condition, 3000, 4), check(*args, spec, 3000, 4))


@pytest.mark.parametrize("kind, key", [
    ("presic_sum", "'r'"), ("ciric_max", "'kappa'"), ("lambda_max", "'lambda'"),
    ("weak_phi", "'phi'"), ("kannan", "'a'"), ("banach", "'eta'"), ("diagonal_phi", "'phi'"),
])
def test_validate_names_a_missing_constant(kind, key):
    with pytest.raises(UsageError, match=f"{kind} needs {key}"):
        ConditionSpec(kind).validate(k=2, b=2.0)


def test_validate_unknown_kind():
    with pytest.raises(UsageError, match="unknown condition kind 'ciric'"):
        ConditionSpec("ciric").validate()
    with pytest.raises(UsageError, match="unknown condition kind 'ciric'"):
        ConditionSpec.from_dict({"kind": "ciric", "kappa": 0.5})


@pytest.mark.parametrize("spec", [presic_sum([float("nan"), 0.1]), ciric_max(float("nan")),
                                  lambda_max(float("nan")), banach(float("nan"))],
                         ids=lambda spec: spec.kind)
def test_validate_rejects_a_nan_constant(spec):
    with pytest.raises(UsageError, match=f"{spec.kind} needs"):
        spec.validate(k=2, b=2.0)
