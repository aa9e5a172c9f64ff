import json
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from presic_lab import (
    Box,
    DomainError,
    NumericEvalError,
    StopRule,
    UsageError,
    affine,
    averaging,
    cauchy_profile,
    chain_bound,
    ciric_max,
    constant,
    custom,
    estimate_constant,
    estimate_rate,
    euclidean,
    from_dsl,
    iterate,
    iterate_many,
    kannan_bounds,
    kannan_report,
    lp_truncated,
    picard,
    power,
    presic_bounds,
    squared_euclidean,
    verify,
)
from presic_lab import bmetric, operators, problem, solver
from presic_lab.bmetric import TOL_REL, leq_tol
from presic_lab.solver import _INITIAL_CAPACITY, DIVERGENCE_FACTOR, IterationTrace

TIGHT = StopRule(residual_tol=1e-20, step_tol=1e-20)
# for maps whose fixed point is not exactly representable the step size
# floors at ~1 ulp of the limit, so cap tolerances above that floor
MODERATE = StopRule(residual_tol=1e-13, step_tol=1e-13, max_iterations=50_000)


class TestIterate:
    def test_averaging_k2_converges_to_zero(self, sq_space):
        trace = iterate(averaging(2), sq_space, [2.0, 2.0], TIGHT)
        assert trace.stop_reason == "converged"
        assert abs(trace.limit[0]) < 1e-8
        assert trace.final_residual < 1e-10

    def test_start_at_fixed_point(self, sq_space):
        op = averaging(3)
        trace = iterate(op, sq_space, [0.0, 0.0, 0.0])
        assert trace.stop_reason == "converged"
        assert len(trace) <= op.arity + 1
        np.testing.assert_array_equal(trace.limit, [0.0])

    def test_affine_closed_form_limit(self, eu_space):
        # u* = c/(1 - sum a) = 1/(1/2) = 2
        trace = iterate(affine([0.25, 0.25], offset=1.0), eu_space, [0.0, 0.0], MODERATE)
        assert trace.stop_reason == "converged"
        assert trace.limit[0] == pytest.approx(2.0, abs=1e-9)

    def test_wrong_seed_count(self, sq_space):
        with pytest.raises(UsageError):
            iterate(averaging(2), sq_space, [1.0])

    def test_divergence_flagged(self, eu_space):
        doubling = from_dsl(["2*x1"], k=1)
        trace = iterate(doubling, eu_space, [1.0], StopRule(max_iterations=500))
        assert trace.stop_reason == "diverged"
        assert trace.limit is None

    def test_alphas_match_points(self, sq_space):
        trace = iterate(averaging(2), sq_space, [2.0, 1.3], TIGHT)
        recomputed = sq_space.distance_batch(trace.points[:-1], trace.points[1:])
        np.testing.assert_array_equal(trace.alphas, recomputed)

    def test_determinism(self, sq_space):
        t1 = iterate(averaging(2), sq_space, [1.7, 0.4], TIGHT)
        t2 = iterate(averaging(2), sq_space, [1.7, 0.4], TIGHT)
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(t1.alphas, t2.alphas)
        assert t1.stop_reason == t2.stop_reason

    def test_csv_rows(self, sq_space):
        trace = iterate(averaging(2), sq_space, [1.7, 0.4], TIGHT)
        rows = trace.to_csv_rows()
        assert rows[0] == ("n", "x", "alpha_n")
        assert len(rows) == len(trace.points) + 1 and {len(r) for r in rows} == {3}
        assert rows[2] == ("2", repr(0.4), repr(float(trace.alphas[1])))
        assert rows[-1][2] == ""  # the last point has no step after it

    def test_payloads_hold_each_element_as_a_float(self, sq_space):
        pts = np.array([[0.1 + 0.2, -0.0], [5e-324, 1e308], [1 / 3, -2.5]])
        trace = IterationTrace(pts, np.array([0.1, 7e-310]), "converged", limit=pts[-1])
        bounds = presic_bounds(iterate(averaging(2), sq_space, [1.7, 0.4], TIGHT), 0.25, 2.0, 2)
        assert json.dumps(trace.to_dict()) == json.dumps({
            "points": [[float(v) for v in row] for row in pts],
            "alphas": [float(a) for a in trace.alphas], "stop_reason": "converged",
            "limit": [float(v) for v in pts[-1]], "final_residual": None, "fitted_rate": None})
        assert trace.to_csv_rows()[1:] == [
            (str(i + 1), ";".join(repr(float(v)) for v in pt),
             repr(float(trace.alphas[i])) if i < 2 else "") for i, pt in enumerate(pts)]
        assert json.dumps(bounds.to_dict()["per_step_bounds"]) == json.dumps(
            [float(v) for v in bounds.per_step_bounds])

    def test_chain_bound_on_trace_subsequences(self, sq_space):
        trace = iterate(averaging(2), sq_space, [2.0, 0.5], TIGHT)
        rng = np.random.default_rng(0)
        for _ in range(30):
            i = int(rng.integers(0, len(trace) - 2))
            j = int(rng.integers(i + 2, len(trace) + 1))
            assert chain_bound(sq_space, trace.points[i:j])["holds"]


class TestPicard:
    def test_quarter_map(self, eu_space):
        trace = picard(affine([0.25]), eu_space, [1.0], TIGHT)
        assert trace.stop_reason == "converged"
        assert abs(trace.limit[0]) < 1e-12
        # x_n = 4^-n exactly
        np.testing.assert_allclose(trace.points[:6, 0], 4.0 ** -np.arange(6), rtol=0)

    def test_start_at_fixed_point(self, sq_space):
        trace = picard(constant([1.0], k=2), sq_space, [1.0])
        assert trace.stop_reason == "converged"
        assert len(trace) == 2

    def test_averaging_k3_diagonal_halves(self, sq_space):
        # F(x) = x/2, alphas are (x_n/2)^2 falling by 1/4 each step
        trace = picard(averaging(3), sq_space, [2.0], TIGHT)
        assert trace.stop_reason == "converged"
        ratios = trace.alphas[1:8] / trace.alphas[:7]
        np.testing.assert_allclose(ratios, 0.25, rtol=1e-12)


def test_traces_and_bound_reports_compare_by_value(sq_space):
    a, b = (iterate(averaging(2), sq_space, [2.0, 1.0]) for _ in range(2))
    other = iterate(averaging(2), sq_space, [2.0, 1.5])
    assert len(a.alphas) >= 2 and a.limit is not None
    assert (a == b) is True and (a != b) is False
    assert (a == other) is False and (a != other) is True
    b.points[-1, 0] = np.nextafter(b.points[-1, 0], 1.0)  # one ulp
    assert (a == b) is False
    report = presic_bounds(a, 0.5, 2.0, 2)
    assert (report == presic_bounds(a, 0.5, 2.0, 2)) is True
    assert (report == presic_bounds(a, 0.6, 2.0, 2)) is False
    for unhashable in (a, report):
        with pytest.raises(TypeError, match="unhashable"):
            hash(unhashable)


class TestPresicBounds:
    def test_closed_form_k1(self, sq_space):
        # f(x)=x/2 under (x-y)^2: eta=1/4, theta=1/4, alpha_n = 4*4^-n, K=4
        trace = picard(averaging(1), sq_space, [2.0], TIGHT)
        report = presic_bounds(trace, eta=0.25, b=2.0, k=1)
        assert report.theta == 0.25
        assert report.K == pytest.approx(4.0)
        n = np.arange(1, len(trace.alphas) + 1)
        np.testing.assert_allclose(report.per_step_bounds, 2.0 * 4.0 * 0.25 ** n)
        assert report.all_steps_within

    def test_trace_at_fixed_point(self, sq_space):
        trace = iterate(averaging(2), sq_space, [0.0, 0.0])
        report = presic_bounds(trace, eta=0.25, b=2.0, k=2)
        assert report.K == 0.0
        assert np.all(report.per_step_bounds == 0.0)
        assert report.all_steps_within

    def test_tail_bound_formula(self, sq_space):
        trace = picard(averaging(1), sq_space, [2.0], TIGHT)
        report = presic_bounds(trace, eta=0.25, b=2.0, k=1)
        assert report.tail_bound(3, 2) == pytest.approx(
            2.0 ** 2 * report.K * 0.25 ** 3 / (1 - 0.25))

    def test_eta_out_of_range(self, sq_space):
        trace = picard(averaging(1), sq_space, [2.0])
        for eta in (0.0, 1.0, 1.5):
            with pytest.raises(UsageError):
                presic_bounds(trace, eta=eta, b=2.0, k=1)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True, "2"])
    def test_k_must_be_a_positive_integer(self, sq_space, k):
        trace = picard(averaging(1), sq_space, [2.0])
        with pytest.raises(UsageError, match="k must be an integer >= 1"):
            presic_bounds(trace, eta=0.5, b=2.0, k=k)

    def test_integral_float_k_is_that_integer(self, sq_space):
        # the rule of an operator arity and of a problem file's "k"
        trace = iterate(averaging(2), sq_space, [2.0, 1.3], TIGHT)
        assert (presic_bounds(trace, eta=0.25, b=2.0, k=2.0).to_dict()
                == presic_bounds(trace, eta=0.25, b=2.0, k=2).to_dict())
        assert kannan_bounds(0.05, 2.0, 2.0, 0.75, 3) == kannan_bounds(0.05, 2, 2.0, 0.75, 3)

    def test_random_verified_affine_operators(self, eu_space):
        # property: a sampled ciric_max certificate implies the per-step bounds
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(100):
            k = int(rng.integers(1, 4))
            a = rng.uniform(-0.4, 0.4, size=k)
            if abs(a).sum() >= 0.9:
                continue
            op = affine(a, offset=rng.uniform(-0.2, 0.2))
            est = estimate_constant(op, eu_space, "ciric_max", 0, seed=1, grid_points=12)
            eta = est["constant_hat"] + 0.01
            if not 0 < eta < 1:
                continue
            assert verify(op, eu_space, ciric_max(eta), 500, seed=2).passed
            start = eu_space.domain.sample(rng, k)
            trace = iterate(op, eu_space, start, MODERATE)
            report = presic_bounds(trace, eta=eta, b=1.0, k=k)
            assert report.all_steps_within
            checked += 1
        assert checked >= 60



# --- exact oracles for the bound formulas --------------------------------------
# Each formula is evaluated again at 50 significant digits from the same float
# inputs. A float result and its exact value must meet the README tolerance
# rule in both directions.

def _agrees(got, exact):
    with mpmath.workdps(50):
        got = mpmath.mpf(float(got))
        return (got <= exact + TOL_REL * (1 + abs(exact))
                and exact <= got + TOL_REL * (1 + abs(got)))


def _exact_within(alphas, bounds):
    """Every alpha within its bound under the tolerance rule, in 50 digits."""
    with mpmath.workdps(50):
        return all(mpmath.mpf(float(a)) <= r + TOL_REL * (1 + abs(r))
                   for a, r in zip(alphas, bounds))


_ALPHAS = st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e2)), min_size=6, max_size=60)


class TestExactBoundOracles:
    @given(eta=st.floats(0.01, 0.99), b=st.floats(1.0, 8.0), k=st.integers(1, 6),
           alphas=_ALPHAS, scale=st.floats(0.5, 3.0))
    def test_presic_bounds(self, eta, b, k, alphas, scale):
        class Trace:  # all presic_bounds reads of a trace
            pass
        Trace.alphas = np.array(alphas)
        report = presic_bounds(Trace, eta=eta, b=b, k=k)
        with mpmath.workdps(50):
            theta = mpmath.mpf(eta) ** (mpmath.mpf(1) / k)
            K = max(mpmath.mpf(a) / theta ** (i + 1) for i, a in enumerate(alphas[:k]))
            per_step = [mpmath.mpf(b) ** k * K * theta ** n for n in range(1, len(alphas) + 1)]
            tail = mpmath.mpf(b) ** 2 * K * theta ** 3 / (1 - theta)
        assert _agrees(report.theta, theta) and _agrees(report.K, K)
        assert all(_agrees(got, want) for got, want in zip(report.per_step_bounds, per_step))
        assert _agrees(report.tail_bound(3, 2), tail)
        assert report.all_steps_within == _exact_within(alphas, per_step)
        # the same first k steps, so the same bounds, and later steps scaled
        # around their bounds
        Trace.alphas = np.array(alphas[:k] + [float(r) * scale for r in per_step[k:]])
        scaled = presic_bounds(Trace, eta=eta, b=b, k=k)
        assert scaled.all_steps_within == _exact_within(Trace.alphas, per_step)

    # bλ at most 0.999 and n at most 200 keep 1/(1 - bλ) and (bλ)^n within
    # what double precision resolves to the 1e-9 of the rule
    @given(share=st.floats(0.0, 0.999), b=st.floats(1.0, 4.0), k=st.integers(1, 5),
           d01=st.floats(0.0, 1e3), n=st.integers(0, 200))
    def test_kannan_bounds(self, share, b, k, d01, n):
        a = share / (k * b ** (k + 1))
        with mpmath.workdps(50):
            b_lambda = mpmath.mpf(a) * k * mpmath.mpf(b) ** (k + 1)
            if not b_lambda < 1:  # a*k*b^(k+1) rounded up to 1
                return
            exact = b_lambda ** n / (1 - b_lambda) * mpmath.mpf(d01)
        assert _agrees(kannan_bounds(a, k, b, d01, n), exact)

    @given(data=st.data(), metric=st.sampled_from(["euclidean", "squared_euclidean",
                                                    "power", "lp_truncated"]),
           m=st.integers(1, 3), length=st.integers(2, 20))
    def test_chain_bound(self, data, metric, m, length):
        box = Box(np.full(m, -2.0), np.full(m, 2.0))
        p = data.draw(st.floats(1.1, 4.0) if metric == "power" else st.floats(0.2, 0.9))
        space = {"euclidean": lambda: euclidean(box), "squared_euclidean": lambda: squared_euclidean(box),
                 "power": lambda: power(p, box), "lp_truncated": lambda: lp_truncated(p, box)}[metric]()
        pts = np.array(data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m),
                                          min_size=length, max_size=length)))
        with mpmath.workdps(50):
            P = mpmath.mpf(p)

            def dist(x, y):
                diffs = [mpmath.mpf(u) - mpmath.mpf(v) for u, v in zip(x, y)]
                if metric == "lp_truncated":
                    total = sum(abs(t) ** P for t in diffs)
                    return total ** (1 / P) if total else mpmath.mpf(0)
                sq = sum(t * t for t in diffs)
                return {"euclidean": mpmath.sqrt(sq), "squared_euclidean": sq,
                        "power": mpmath.sqrt(sq) ** P}[metric]

            b, n = mpmath.mpf(space.b), length - 1
            steps = [dist(pts[j - 1], pts[j]) for j in range(1, n + 1)]
            rhs = sum(b ** j * steps[j - 1] for j in range(1, n)) + b ** (n - 1) * steps[-1]
            lhs = dist(pts[0], pts[-1])
        got = chain_bound(space, pts)
        assert _agrees(got["lhs"], lhs) and _agrees(got["rhs"], rhs)
        assert got["holds"] == _exact_within([got["lhs"]], [rhs])


# (k, m, start, whether it is a window of averaging(k, m)): a nested list
# of k points, or a number or flat list read as k numbers when m = 1 and
# as the one point when k = 1
START_FORMS = [
    (1, 1, [[2.0]], True), (1, 1, [2.0], True), (1, 1, 2.0, True),
    (2, 1, [[1.0], [2.0]], True), (2, 1, [1.0, 2.0], True),
    (1, 2, [[0.5, 0.5]], True), (1, 2, [0.5, 0.5], True),
    (2, 2, [[0.5, 0.5], [0.1, 0.1]], True),
    (2, 1, [1.0], False), (2, 1, 1.0, False), (2, 1, [[1.0, 2.0]], False),
    (1, 2, [0.5], False), (1, 2, 0.5, False), (1, 2, [[0.5], [0.5]], False),
    (2, 2, [0.5, 0.5], False), (2, 2, [0.5, 0.5, 0.1, 0.1], False),
    (2, 2, [[0.5, 0.5]], False),
    (3, 1, [[0.1], [0.2], [0.3]], True), (3, 1, [0.1, 0.2, 0.3], True),
    (1, 3, [[0.1, 0.2, 0.3]], True), (1, 3, [0.1, 0.2, 0.3], True),
    (3, 1, [0.1, 0.2], False), (3, 1, 0.1, False), (3, 1, [[0.1, 0.2, 0.3]], False),
    (1, 3, [0.1, 0.2], False), (1, 3, 0.1, False), (1, 3, [[0.1], [0.2], [0.3]], False)]


def _solve_problem(m, k, solve):
    return json.dumps({"space": {"kind": "euclidean", "box": {"lo": [-1.0] * m, "hi": [1.0] * m}},
                       "operator": {"kind": "averaging", "k": k}, "solve": solve})


@pytest.mark.parametrize("k, m, start, ok", START_FORMS)
def test_loader_iterate_and_picard_take_the_same_starts(k, m, start, ok):
    # apply and diagonal_apply read their windows by the same rule too
    op, space = averaging(k, m), euclidean(Box([-1.0] * m, [1.0] * m))
    windows = [lambda: problem.loads(_solve_problem(m, k, {"start": start})).solve["start"],
               lambda: iterate(op, space, start).points[:k]]
    maps = [op.apply]
    if k == 1:  # F reads one point, the window of its arity-1 operator
        windows.append(lambda: picard(op, space, start).points[:1])
        maps.append(averaging(2, m).diagonal_apply)
    if not ok:
        for read in windows + [lambda f=f: f(start) for f in maps]:
            with pytest.raises(UsageError, match=f"start must supply {k} point"):
                read()
        return
    loaded, *others = [window() for window in windows]
    assert loaded.shape == (k, m)
    for window in others:
        np.testing.assert_array_equal(window, loaded)
    for f in maps:
        np.testing.assert_array_equal(f(start), f(loaded))


def test_stop_block_takes_the_stop_rule_defaults():
    solve = problem.loads(_solve_problem(1, 1, {"stop": {"max_iterations": 50}})).solve
    assert solve["stop"] == StopRule(max_iterations=50)
    assert solve["seed"] is None and solve["start"] == "random"


class TestKannanBounds:
    def test_formula_instantiation(self):
        assert kannan_bounds(2 / 3, 1, 1.0, 0.75, 2) == pytest.approx(1.0)

    def test_n_zero(self):
        assert kannan_bounds(2 / 3, 1, 1.0, 0.75, 0) == pytest.approx(0.75 / (1 - 2 / 3))

    def test_zero_a(self):
        assert kannan_bounds(0.0, 2, 2.0, 1.0, 3) == 0.0

    def test_hypothesis_violated(self):
        with pytest.raises(UsageError):
            kannan_bounds(2 / 3, 1, 2.0, 1.0, 1)  # a k b^(k+1) = 8/3

    @pytest.mark.parametrize("a, k, named", [
        (-0.5, 1, "a >= 0"), (0.1, 0, "k must be"), (0.1, -1, "k must be"),
        (0.1, 1.5, "k must be")])
    def test_a_and_k_out_of_range(self, a, k, named):
        # each returned a number before: k = -1 a negative "bound"
        with pytest.raises(UsageError, match=named):
            kannan_bounds(a, k, 2.0, 1.0, 3)

    def test_bounds_actual_trace_distances(self, eu_space):
        trace = picard(affine([0.25]), eu_space, [1.0], TIGHT)
        pts = trace.points
        d01 = eu_space.distance(pts[0], pts[1])
        assert d01 == 0.75
        for n in range(min(len(pts), 50)):
            bound = kannan_bounds(2 / 3, 1, 1.0, d01, n)
            for m in range(n + 1, min(len(pts), 51)):
                assert eu_space.distance(pts[n], pts[m]) <= bound + 1e-12



def _reference_kannan_report(trace, space, a, k):
    # the loop `bounds --a` ran in the CLI, each point repeated per pair
    b = space.b
    lam = a * k * b ** k
    pts = np.asarray(trace.points)
    d01 = float(trace.alphas[0]) if len(trace.alphas) else 0.0
    bounds = [kannan_bounds(a, k, b, d01, n) for n in range(len(pts))]
    within = True
    for n in range(len(pts)):
        d = space.distance_batch(np.repeat(pts[n][None, :], len(pts) - n - 1, axis=0), pts[n + 1:])
        if len(d) and not bool(np.all(leq_tol(d, bounds[n]))):
            within = False
    return {"a": a, "lambda": lam, "b_lambda": b * lam, "tail_bounds": bounds,
            "all_steps_within": within}


class TestKannanReport:
    BOX2 = Box(np.full(2, -2.0), np.full(2, 2.0))

    @pytest.mark.parametrize("space", [
        euclidean(BOX2), lp_truncated(0.5, BOX2),
        custom("abs(u1 - v1) + abs(u2 - v2)", BOX2, b=1.0)], ids=lambda s: s.kind)
    @pytest.mark.parametrize("share", [0.1, 0.9])  # of the largest admissible a
    def test_matches_the_pairwise_loop(self, space, share):
        op = affine([0.25, 0.1], offset=[0.1, -0.2], dimension=2)
        trace = picard(op, space, [1.0, -1.5], MODERATE)
        k = op.arity
        a = share / (k * space.b ** (k + 1))
        assert kannan_report(trace, space, a, k) == _reference_kannan_report(trace, space, a, k)

    def test_reports_a_step_beyond_its_bound(self, eu_space):
        # the k-step trace of this k=2 map breaks the Picard-scheme bound
        op = affine([0.05, 0.05])
        trace = iterate(op, eu_space, [[1.0], [1.0]], MODERATE)
        report = kannan_report(trace, eu_space, 0.2, 2)
        assert report == _reference_kannan_report(trace, eu_space, 0.2, 2)
        assert not report["all_steps_within"]


class TestEstimateRate:
    def test_exact_geometric(self):
        class Fake:
            alphas = 4.0 ** -np.arange(1, 30)
        assert estimate_rate(Fake()) == pytest.approx(0.25, abs=1e-6)

    def test_averaging_k2_dominant_root(self, sq_space):
        # oracle: dominant eigenvalue of the companion matrix of t^2 = (t+1)/4
        root = max(np.roots([1.0, -0.25, -0.25]))
        assert root == pytest.approx(0.6403882032022076)
        trace = iterate(averaging(2), sq_space, [2.0, 1.0], TIGHT)
        assert trace.fitted_rate == pytest.approx(root ** 2, abs=0.01)

    def test_constant_trace_undefined(self, sq_space):
        trace = iterate(averaging(2), sq_space, [0.0, 0.0])
        assert estimate_rate(trace) is None
        assert trace.fitted_rate is None

    def test_too_few_nonzero(self):
        class Fake:
            alphas = np.array([0.5, 0.25, 0.0, 0.0])
        assert estimate_rate(Fake()) is None

    def test_matches_the_mean_formula_bit_for_bit(self):
        def reference(alphas):  # the means as .mean() takes them
            mask = alphas > 0
            if mask.sum() < 8:
                return None
            idx = np.nonzero(mask)[0]
            tail = idx[len(idx) // 2:]
            x = tail - tail.mean()
            y = np.log(alphas[tail])
            return float(np.exp(np.dot(x, y - y.mean()) / np.dot(x, x)))

        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(7, 501))
            alphas = np.exp(np.cumsum(rng.normal(-0.3, 0.5, n)))
            alphas[rng.random(n) < rng.uniform(0.0, 0.5)] = 0.0
            assert estimate_rate(SimpleNamespace(alphas=alphas)) == reference(alphas)


class TestCauchyProfile:
    def test_constant_trace(self, sq_space):
        trace = iterate(averaging(2), sq_space, [0.0, 0.0])
        prof = cauchy_profile(trace, sq_space, 1)
        assert np.all(prof == 0.0)

    def test_contractive_profile_decreases_to_zero(self, sq_space):
        trace = picard(averaging(1), sq_space, [2.0], TIGHT)
        prof = cauchy_profile(trace, sq_space, 4)
        assert prof[-1] < 1e-12
        assert np.all(np.diff(prof) <= 1e-15)

    def test_divergent_profile_increases(self, eu_space):
        doubling = from_dsl(["2*x1"], k=1)
        trace = iterate(doubling, eu_space, [1.0], StopRule(max_iterations=50))
        assert trace.stop_reason == "diverged"
        prof = cauchy_profile(trace, eu_space, 3)
        assert np.all(np.diff(prof) > 0)

    def test_matches_direct_maximum(self, sq_space):
        trace = iterate(averaging(2), sq_space, [2.0, 0.3], TIGHT)
        P = 5
        prof = cauchy_profile(trace, sq_space, P)
        for n in range(len(prof)):
            direct = max(sq_space.distance(trace.points[n], trace.points[n + p])
                         for p in range(1, P + 1))
            assert prof[n] == direct

    @pytest.mark.parametrize("P", [1, 2, 5])
    def test_is_one_call_per_p(self, P):
        # bit for bit, with the sign of a zero: "v1 - u1" is negative and
        # (u1 - v1)*0 is -0.0 on half the pairs
        spaces = list(SPACES2.values()) + [
            custom("(u1 - v1)*0 + (u2 - v2)*0", BOX2, b=1.0),
            custom("v1 - u1", BOX2, b=1.0)]
        rng = np.random.default_rng(5)
        for op in OPERATORS2.values():
            trace = iterate(op, SPACES2["euclidean"], BOX2.sample(rng, op.arity),
                            StopRule(max_iterations=40))
            for space in spaces:
                got, want = cauchy_profile(trace, space, P), _reference_profile(trace, space, P)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_a_non_finite_pair_names_its_n(self):
        # infinite only at (x_2, x_5): n = 2 at p = 3, row 12 of the one call
        space = custom("abs(u1 - v1) + max(0, 1 - abs(u1 - 2) - abs(v1 - 5))*1e300*1e300",
                       Box([0.0], [7.0]), b=1.0)
        trace = IterationTrace(np.arange(8.0)[:, None], np.ones(7), "max_iterations")
        for profile in (cauchy_profile, _reference_profile):
            with pytest.raises(NumericEvalError, match=r"custom metric distance \(row 2\)$"):
                profile(trace, space, 3)


def _reference_profile(trace, space, P):
    """cauchy_profile as one checked distance call per p."""
    pts = np.asarray(trace.points, dtype=float)
    n_max = len(pts) - P
    out = np.zeros(max(n_max, 0))
    for p in range(1, P + 1 if n_max > 0 else 1):
        np.maximum(out, space.distance_batch(pts[:n_max], pts[p:p + n_max]), out=out)
    return out


class TestWindowMaxMonotonicity:
    def test_ciric_verified_operators(self, sq_space):
        # along any trace of a ciric_max operator the k-window maximum of
        # consecutive distances never increases (within tolerance)
        for k in (1, 2, 3):
            op = averaging(k)
            trace = iterate(op, sq_space, [2.0] + [1.0] * (k - 1), TIGHT)
            alphas = trace.alphas
            window_max = np.array([alphas[i:i + k].max()
                                   for i in range(len(alphas) - k + 1)])
            assert np.all(np.diff(window_max) <= 1e-9 * (1 + window_max[:-1]))


# --- the reference loop ------------------------------------------------------
# The step loop as it was before it moved onto preallocated buffers: one
# validated public call per operator and metric evaluation, points kept in
# a Python list. The buffered loop must reproduce its traces bit for bit.

def _reference_run(step_fn, op, space, seeds, stop, strict_domain):
    points = [np.atleast_1d(np.asarray(p, dtype=float)) for p in seeds]
    alphas = [space.distance(points[i], points[i + 1]) for i in range(len(points) - 1)]
    out_of_domain = 0
    stop_reason = "max_iterations"
    while len(points) < stop.max_iterations:
        nxt = step_fn(points)
        if not np.all(np.isfinite(nxt)):
            raise NumericEvalError("iteration produced a non-finite point")
        if not space.domain.contains(nxt)[0]:
            if strict_domain:
                raise DomainError("iterate left the domain in strict mode")
            out_of_domain += 1
        alpha = space.distance(points[-1], nxt)
        points.append(nxt)
        alphas.append(alpha)
        if alphas and alpha > DIVERGENCE_FACTOR * (1.0 + alphas[0]):
            stop_reason = "diverged"
            break
        if alpha <= stop.step_tol:
            res = space.distance(nxt, op.diagonal_apply(nxt))
            if res <= stop.residual_tol:
                stop_reason = "converged"
                break
    pts = np.asarray(points)
    trace = IterationTrace(pts, np.asarray(alphas), stop_reason,
                           out_of_domain=out_of_domain)
    if stop_reason == "converged":
        trace.limit = pts[-1]
        trace.final_residual = space.distance(trace.limit, op.diagonal_apply(trace.limit))
    trace.fitted_rate = estimate_rate(trace)
    return trace


def _reference_iterate(op, space, initial, stop):
    arr = np.asarray(initial, dtype=float).reshape(op.arity, op.dimension)
    step = lambda pts: op.apply(np.stack(pts[-op.arity:]))
    return _reference_run(step, op, space, [arr[i] for i in range(op.arity)], stop, False)


def _reference_picard(op, space, x0, stop):
    step = lambda pts: op.diagonal_apply(pts[-1])
    return _reference_run(step, op, space, [np.asarray(x0, dtype=float)], stop, False)


def _assert_same_trace(got, want):
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.alphas, want.alphas)
    assert got.points.dtype == np.float64 and got.alphas.dtype == np.float64
    assert got.stop_reason == want.stop_reason
    if want.limit is None:
        assert got.limit is None
    else:
        np.testing.assert_array_equal(got.limit, want.limit)
    assert got.final_residual == want.final_residual
    assert got.fitted_rate == want.fitted_rate
    assert got.out_of_domain == want.out_of_domain


BOX2 = Box(np.full(2, -1.0), np.full(2, 1.0))
SPACES2 = {
    "euclidean": euclidean(BOX2),
    "squared_euclidean": squared_euclidean(BOX2),
    "power": power(3.0, BOX2),
    "lp_truncated": lp_truncated(0.5, BOX2),
    "custom_dsl": custom("abs(u1 - v1) + abs(u2 - v2)", BOX2, b=1.0),
}
OPERATORS2 = {
    "averaging": averaging(3, dimension=2),
    "affine": affine([0.45, -0.3], offset=[0.2, -0.1], dimension=2),
    "constant": constant([0.25, -0.5], k=2),
    # the k-step run leaves the box and diverges; the diagonal map converges
    "dsl": from_dsl(["0.9*x1 - 0.5*x2 + 0.3", "x1*x2 - 0.2"], k=2),
}
REFERENCE_STOP = StopRule(residual_tol=1e-13, step_tol=1e-13, max_iterations=1500)


class TestReferenceLoop:
    @pytest.mark.parametrize("metric", sorted(SPACES2))
    @pytest.mark.parametrize("kind", sorted(OPERATORS2))
    def test_iterate_and_picard_match_reference(self, kind, metric):
        op, space = OPERATORS2[kind], SPACES2[metric]
        rng = np.random.default_rng(7)
        for _ in range(3):
            start = BOX2.sample(rng, op.arity)
            _assert_same_trace(iterate(op, space, start, REFERENCE_STOP),
                               _reference_iterate(op, space, start, REFERENCE_STOP))
            _assert_same_trace(picard(op, space, start[0], REFERENCE_STOP),
                               _reference_picard(op, space, start[0], REFERENCE_STOP))

    def test_run_that_grows_past_initial_capacity(self, eu_space):
        # rate 0.999 never meets the tolerance: the cap fires after the
        # buffers have doubled twice
        op = affine([0.999])
        stop = StopRule(max_iterations=3 * _INITIAL_CAPACITY + 7)
        got = iterate(op, eu_space, [1.5], stop)
        _assert_same_trace(got, _reference_iterate(op, eu_space, [1.5], stop))
        assert got.stop_reason == "max_iterations"
        assert len(got.points) == stop.max_iterations

    def test_converged_and_diverged_runs_match_reference(self, sq_space, eu_space):
        for op, space, start in [(averaging(2), sq_space, [2.0, 1.3]),
                                 (averaging(5), sq_space, [2.0, 0.1, 1.0, 0.7, 1.9]),
                                 (from_dsl("2*x1", 1), eu_space, [1.0])]:
            stop = TIGHT if space is sq_space else StopRule(max_iterations=500)
            _assert_same_trace(iterate(op, space, start, stop),
                               _reference_iterate(op, space, start, stop))



def _assert_matches_single_runs(op, space, starts, stop, diagonal=False, strict_domain=False):
    """iterate_many against one iterate/picard call and one reference run per start;
    with `diagonal`, iterate_many runs op.diagonal."""
    got = iterate_many(op.diagonal if diagonal else op, space, starts, stop,
                       strict_domain=strict_domain)
    assert len(got) == len(starts)
    for trace, start in zip(got, starts):
        if diagonal:
            _assert_same_trace(trace, picard(op, space, start[0], stop, strict_domain))
            _assert_same_trace(trace, _reference_picard(op, space, start[0], stop))
        else:
            _assert_same_trace(trace, iterate(op, space, start, stop, strict_domain))
            _assert_same_trace(trace, _reference_iterate(op, space, start, stop))
    return got


class TestIterateMany:
    @pytest.mark.parametrize("metric", sorted(SPACES2))
    @pytest.mark.parametrize("kind", sorted(OPERATORS2))
    def test_each_trace_is_its_single_run(self, kind, metric):
        op, space = OPERATORS2[kind], SPACES2[metric]
        rng = np.random.default_rng(8)
        starts = BOX2.sample(rng, 6 * op.arity).reshape(6, op.arity, 2)
        _assert_matches_single_runs(op, space, starts, REFERENCE_STOP)
        _assert_matches_single_runs(op, space, starts[:, :1], REFERENCE_STOP, diagonal=True)

    @pytest.mark.parametrize("k", [1, 2])
    def test_runs_that_stop_at_different_steps(self, k):
        # x -> x^2 (k=1) or x1*x2 (k=2): below 1 the runs converge, above 1
        # they diverge, and just below 1 they are still moving at the cap
        op = from_dsl("x1*x1" if k == 1 else "x1*x2", k)
        space = euclidean(Box([-4.0], [4.0]))
        firsts = [0.5, 0.9, 1.0, 1.5, 1.1, 1 - 1e-15, -0.3, 0.0]
        starts = np.repeat(np.array(firsts)[:, None, None], k, axis=1)
        stop = StopRule(residual_tol=1e-20, step_tol=1e-20, max_iterations=40)
        got = _assert_matches_single_runs(op, space, starts, stop)
        assert {t.stop_reason for t in got} == {"converged", "diverged", "max_iterations"}
        assert len({len(t) for t in got}) >= 5
        if k == 1:
            _assert_matches_single_runs(op, space, starts, stop, diagonal=True)

    def test_growth_past_initial_capacity(self, eu_space):
        # the run from 0 stops at once, so the buffers drop a row before they
        # double; the other two run to the cap
        op = affine([0.999])
        stop = StopRule(max_iterations=3 * _INITIAL_CAPACITY + 7)
        got = _assert_matches_single_runs(op, eu_space, np.array([[[1.5]], [[0.0]], [[-1.2]]]), stop)
        assert [len(t) for t in got] == [stop.max_iterations, 2, stop.max_iterations]

    def test_one_run_is_iterate(self, sq_space):
        for op, start in [(averaging(2), [[2.0], [1.3]]), (averaging(1), [[2.0]])]:
            got, = iterate_many(op, sq_space, [start], TIGHT)
            _assert_same_trace(got, iterate(op, sq_space, start, TIGHT))

    def test_out_of_domain_counted_per_run(self, eu_space):
        op = affine([0.5], offset=1.9)  # leaves [-2, 2] on its way to 3.8
        starts = np.array([[[0.0]], [[3.8]], [[-2.0]]])
        got = _assert_matches_single_runs(op, eu_space, starts, MODERATE)
        assert got[0].out_of_domain > 0 and got[2].out_of_domain > 0

    def test_wrongly_shaped_starts_are_usage_errors(self, eu_space):
        op = averaging(2)
        for bad in (np.zeros((3, 2)), np.zeros((3, 1, 1)), np.zeros((3, 2, 2)),
                    np.zeros((0, 2, 1)), np.zeros((2, 3, 2, 1))):
            with pytest.raises(UsageError):
                iterate_many(op, eu_space, bad)
        with pytest.raises(UsageError):
            iterate_many(op.diagonal, eu_space, np.zeros((3, 2, 1)))

    def test_non_finite_seed_names_its_run(self, eu_space):
        starts = np.zeros((4, 2, 1))
        starts[3, 1, 0] = np.nan
        with pytest.raises(UsageError, match=r"non-finite coordinates in run 3$"):
            iterate_many(averaging(2), eu_space, starts)

    def test_seed_distance_error_names_its_run_and_pair(self):
        huge = squared_euclidean(Box([0.0], [1e200]))
        starts = np.zeros((3, 3, 1))
        starts[2, 2, 0] = 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"distance \(row 1\) in run 2$"):
                iterate_many(averaging(3), huge, starts)

    def test_non_finite_operator_output_names_its_run(self):
        # run 0 stops at once and run 1 diverges, so run 2 sits in row 0
        # when 10*x2 overflows: the divergence rule never fires for it, as
        # its seed distance of 1e300 puts the threshold at inf
        op = from_dsl("10*x2", 2)
        space = custom("abs(u1-v1)", Box([-2.0], [2.0]), b=1)
        starts = np.array([[[0.0], [0.0]], [[0.5], [0.25]], [[1e300], [1.0]]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 2\)$"):
                iterate_many(op, space, starts)
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 0\)$"):
                iterate(op, space, starts[2])

    def test_residual_errors_name_their_run(self):
        # only run 2 barely moves at the first step, so its residual is the
        # only one computed: F(x) = f(x, x) is 0*inf, and d(0.25, .) is 0*inf
        op = from_dsl("0.5*x2 + 0*(1/(abs(x1-x2) + 1e-310))", 2)
        starts = np.array([[[1.0], [2.0]], [[0.5], [1.0]], [[1.0], [0.0]]])
        space = custom("abs(u1-v1)*(1 + 0*(1/(abs(u1 - 0.25) + 1e-310)))", Box([-2.0], [2.0]), b=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 2\)$"):
                iterate_many(op, euclidean(Box([-2.0], [2.0])), starts)
            with pytest.raises(NumericEvalError, match=r"custom metric distance \(row 2\)$"):
                iterate_many(constant(0.25), space, np.array([[[1.0]], [[0.5]], [[0.25 + 1e-12]]]))
            with pytest.raises(NumericEvalError, match=r"custom metric distance \(row 0\)$"):
                iterate(constant(0.25), space, [[0.25 + 1e-12]])

    def test_step_distance_errors_name_their_run(self):
        # run 0 converges at its second step; run 1 lands on 0.5 at its
        # tenth, where the metric takes sqrt of a negative value, from row 0
        space = custom("abs(u1-v1) + 0*sqrt((v1-0.3)*(v1-0.7))", Box([-1.0], [11.0]), b=1)
        op = from_dsl("max(x1 - 1, 0)", 1)
        with pytest.raises(NumericEvalError, match=r"negative value \(row 1\)$"):
            iterate_many(op, space, np.array([[[1.0]], [[10.5]]]))
        with pytest.raises(NumericEvalError, match=r"negative value \(row 0\)$"):
            iterate(op, space, [[10.5]])

    def test_several_rows_that_barely_move_in_one_step(self, eu_space):
        # F(x) = 1.001 x: at the first step the first four runs barely move;
        # two of them sit at the fixed point 0, and two are far from it
        op = from_dsl("x2 + 1e-3*x2/(1 + 1e12*(x1-x2)^2)", 2)
        starts = np.array([[[0.0], [0.0]], [[1.0], [0.0]], [[0.0], [1.0]], [[0.5], [1.5]],
                           [[1.5], [1.5]]])
        got = _assert_matches_single_runs(op, eu_space, starts, StopRule(max_iterations=60))
        assert [t.stop_reason for t in got] == ["converged"] * 2 + ["max_iterations"] * 3
        assert [t.final_residual for t in got[:2]] == [0.0, 0.0]

    def test_nan_step_distance_names_its_run(self):
        # the distance turns NaN once u1 > 1.5: run 2 gets there at its
        # fifth step, after run 0 has stopped and while run 1 goes on
        space = custom("abs(u1-v1) + max(u1-1.5, 0)*1e300*1e300 - max(u1-1.5, 0)*1e300*1e300",
                       Box([-2.0], [2.0]), b=1)
        op = from_dsl("2*x1", 1)
        starts = np.array([[[0.0]], [[-0.1]], [[0.1]]])
        with pytest.raises(NumericEvalError, match=r"custom metric distance alpha_5 in run 2$"):
            iterate_many(op, space, starts)
        with pytest.raises(NumericEvalError, match=r"custom metric distance alpha_5$"):
            iterate(op, space, starts[2])

    @pytest.mark.parametrize("cancel", [True, False], ids=["nan", "inf"])
    def test_non_finite_output_is_an_error_before_leaving_the_domain(self, eu_space, cancel):
        # in the first step run 0 lands on 3 outside [-2, 2], and run 1,
        # past 1.5, on NaN (inf - inf) or on inf
        blowup = "max(x1 - 1.5, 0)*1e300*1e300"
        op = from_dsl(f"3*x1 + {blowup}" + (f" - {blowup}" if cancel else ""), 1)
        starts = np.array([[[1.0]], [[1.8]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 1\)$"):
                iterate_many(op, eu_space, starts, strict_domain=True)
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 0\)$"):
                iterate(op, eu_space, starts[1], strict_domain=True)

    def test_runs_leaving_by_different_coordinates_in_one_step(self):
        # fixed point (1.8, -1.8) outside [-1, 1]^2: at the first step run 1
        # is outside by coordinate 0, run 2 by coordinate 1, run 3 by both,
        # and run 0 is inside
        op = affine([0.5], offset=[0.9, -0.9], dimension=2)
        starts = np.array([[[0.0, 0.0]], [[1.8, 0.0]], [[-1.0, -1.8]], [[1.8, -1.8]]])
        space = euclidean(BOX2)
        first = space.domain.contains(op.apply_batch(starts))
        np.testing.assert_array_equal(first, [True, False, False, False])
        got = _assert_matches_single_runs(op, space, starts, MODERATE)
        assert len({t.out_of_domain for t in got}) > 1

    def test_strict_domain_names_its_run(self, eu_space):
        # run 0 converges at once; run 2 leaves [-2, 2] at its second step
        op = from_dsl("x1*x1", 1)
        starts = np.array([[[0.0]], [[0.5]], [[1.2]]])
        with pytest.raises(DomainError, match=r"strict mode in run 2$"):
            iterate_many(op, eu_space, starts, MODERATE, strict_domain=True)
        with pytest.raises(DomainError, match=r"strict mode$"):
            iterate(op, eu_space, starts[2], MODERATE, strict_domain=True)


def _polyfit_rate(trace):
    """estimate_rate as it was, through np.polyfit."""
    alphas = np.asarray(trace.alphas, dtype=float)
    idx = np.nonzero(alphas > 0)[0]
    if len(idx) < 8:
        return None
    tail = idx[len(idx) // 2:]
    return float(np.exp(np.polyfit(tail.astype(float), np.log(alphas[tail]), 1)[0]))


def test_closed_form_rate_matches_polyfit(sq_space, eu_space):
    # every seeded trace of the reference-loop sweep, plus a converged, a
    # capped and a slowly converging run; measured worst ratio 1.4e-15
    traces = [iterate(averaging(2), sq_space, [2.0, 1.0], TIGHT),
              iterate(affine([0.999]), eu_space, [1.5], REFERENCE_STOP),
              iterate(affine([0.25, 0.25], offset=1.0), eu_space, [0.0, 0.0], MODERATE)]
    for op in OPERATORS2.values():
        for space in SPACES2.values():
            rng = np.random.default_rng(7)
            for _ in range(3):
                start = BOX2.sample(rng, op.arity)
                traces += [iterate(op, space, start, REFERENCE_STOP),
                           picard(op, space, start[0], REFERENCE_STOP)]
    fitted = 0
    for trace in traces:
        want = _polyfit_rate(trace)
        if want is None:
            assert estimate_rate(trace) is None
            continue
        assert estimate_rate(trace) == pytest.approx(want, rel=1e-12, abs=0)
        fitted += 1
    assert fitted >= 80


def _count_metric_calls(monkeypatch, space, calls):
    """Append "distance" to `calls` at each call of `space`'s metric kernel."""
    kernel = bmetric.KERNELS[space.kind]
    monkeypatch.setitem(bmetric.KERNELS, space.kind,
                        lambda *args: calls.append("distance") or kernel(*args))


class TestLoopChecks:
    def test_seeds_whose_distance_overflows_are_an_error(self):
        # with an inf first step the divergence rule could never fire
        huge = squared_euclidean(Box([0.0], [1e200]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"squared_euclidean distance \(row 1\)"):
                iterate(averaging(3), huge, [0.0, 0.0, 1e200])

    def test_a_step_distance_that_turns_nan_is_an_error(self):
        # finite while u1 = 0, inf - inf = nan from the step that leaves 0
        space = custom("abs(u1-v1) + u1*1e300*1e300 - u1*1e300*1e300", Box([-1.0], [1.0]), b=1)
        with pytest.raises(NumericEvalError, match=r"custom metric distance alpha_3$"):
            iterate(constant([0.5], k=2), space, [0.0, 0.0])

    def test_an_inf_first_step_is_an_error_under_k1_and_picard(self):
        # alphas[0] is then inf itself, so the divergence rule cannot fire,
        # and the steps would shrink on until they read 0 and "converge"
        space = custom("abs(u1-v1)*1e300*1e300", Box([-1.0], [1.0]), b=1)
        with pytest.raises(NumericEvalError, match=r"custom metric distance alpha_1$"):
            picard(averaging(1), space, [0.5])
        with pytest.raises(NumericEvalError, match=r"custom metric distance alpha_1$"):
            iterate(averaging(1), space, [0.5])
        huge = squared_euclidean(Box([0.0], [1e200]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"squared_euclidean distance alpha_1$"):
                picard(constant([1e200], k=2), huge, [0.0])

    def test_a_seed_distance_error_without_a_row_names_no_run(self):
        # a literal zero divisor fails on the expression, not on a row, so
        # the error has no row to turn into a run and is raised as it is
        space = custom("abs(u1 - v1) / 0", Box([0.0], [1.0]), b=1)
        for call in (lambda: iterate(averaging(2), space, [0.5, 0.25]),
                     lambda: iterate_many(averaging(2), space, np.full((3, 2, 1), 0.5))):
            with pytest.raises(NumericEvalError) as info:
                call()
            assert str(info.value) == "division by zero" and info.value.row is None

    def test_cap_fires_at_max_iterations(self, eu_space):
        for max_iterations in (2, 3, 50, 1e2):
            trace = iterate(affine([0.999, 0.0005]), eu_space, [1.0, 0.5],
                            StopRule(max_iterations=max_iterations))
            assert trace.stop_reason == "max_iterations"
            assert len(trace.points) == max_iterations
            assert len(trace.alphas) == max_iterations - 1

    def test_strict_domain_raises(self, eu_space):
        with pytest.raises(DomainError):
            iterate(constant([3.0], k=2), eu_space, [0.0, 0.0], strict_domain=True)
        with pytest.raises(DomainError):
            picard(affine([0.5], offset=1.5), eu_space, [1.0], strict_domain=True)

    def test_strict_domain_raises_at_a_later_step(self, eu_space):
        # x -> x/2 + 1.1 from -2 leaves [-2, 2] at its fifth step and is
        # capped at its eighth, before any step meets a stop rule
        op, stop = affine([0.5], offset=1.1), StopRule(max_iterations=8)
        with pytest.raises(DomainError, match=r"strict mode$"):
            picard(op, eu_space, [-2.0], stop, strict_domain=True)
        assert picard(op, eu_space, [-2.0], stop).out_of_domain == 3

    @pytest.mark.parametrize("undefined_in", ["operator", "metric"])
    def test_no_error_past_a_stop(self, undefined_in):
        # x -> x^2 from 1.5 diverges at 3.4e22; the point after it, 1.2e45,
        # is past 1e30, where the operator or the metric takes sqrt of a
        # negative value
        guard = " + 0*sqrt(1e30 - {})"
        op = from_dsl("x1*x1" + guard.format("x1") * (undefined_in == "operator"), 1)
        space = custom("abs(u1 - v1)" + guard.format("v1") * (undefined_in == "metric"),
                       Box([-2.0], [2.0]), b=1)
        trace = iterate(op, space, [1.5])
        assert trace.stop_reason == "diverged" and trace.points[-1, 0] > 1e22
        _assert_same_trace(trace, _reference_iterate(op, space, [1.5], StopRule()))

    def test_out_of_domain_counted(self, eu_space):
        # x -> x/2 + 1.9 leaves [-2, 2] on its way to the fixed point 3.8
        trace = iterate(affine([0.5], offset=1.9), eu_space, [0.0], MODERATE)
        assert trace.stop_reason == "converged"
        outside = ~eu_space.domain.contains(trace.points[1:])
        assert trace.out_of_domain == int(outside.sum()) > 0

    def test_speculation_past_an_overflow_is_silent(self, eu_space):
        # x -> 1e10 x from 1 diverges at step 3, long before it could
        # overflow: no warning (an error here) may come from a later step
        op = affine([1e10])
        trace, _ = iterate_many(op, eu_space, [[[1.0]]] * 2)
        assert trace.stop_reason == "diverged" and len(trace.points) == 4
        _assert_same_trace(trace, _reference_iterate(op, eu_space, [1.0], StopRule()))

    @pytest.mark.parametrize("mode", ["warn", "call", "raise"])
    @pytest.mark.parametrize("condition_in", ["operator", "metric"])
    def test_floating_point_conditions_show_at_their_steps(self, condition_in, mode):
        # each condition shows as a warning, a callback or a FloatingPointError
        # at its step, alike in a lone run and in two runs side by side
        box = Box([-2.0], [2.0])
        if condition_in == "operator":
            # x -> x/2 from 1 reaches 1/16 at step 4, where a square of
            # 1e100/(x - 1/16 + 1e-200) overflows once in the next step, and
            # 1/(1 + inf) leaves the point finite
            ratio = "(1e100/(x1 - 0.0625 + 1e-200))"
            op, space, stop = from_dsl(f"x1/2 + 1/(1 + {ratio}*{ratio})", 1), euclidean(box), StopRule()
            condition = {"over": mode}
        else:
            # the squared step distances of x -> 0.3 x from 1 underflow in
            # the 16 steps from step 295 on, the last one's to 0, where the run
            # stops, as its residual underflows too
            op, space = affine([0.3]), squared_euclidean(box)
            stop = StopRule(residual_tol=5e-324, step_tol=5e-324)
            condition = {"under": mode}

        def outcome(call):
            seen = []
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with np.errstate(call=lambda kind, flag: seen.append(kind), **condition):
                        trace = call()
            except FloatingPointError as err:
                return None, str(err)
            return trace, seen + [str(w.message) for w in caught]

        trace, seen = outcome(lambda: iterate(op, space, [1.0], stop))
        pair, seen_pair = outcome(lambda: iterate_many(op, space, [[[1.0]]] * 2, stop)[0])
        assert seen == seen_pair
        if mode == "raise":
            assert trace is pair is None
        else:
            assert len(seen) == (1 if condition_in == "operator" else 17)
            _assert_same_trace(trace, pair)
            with np.errstate(all="ignore"):
                _assert_same_trace(trace, _reference_iterate(op, space, [1.0], stop))

    def test_every_step_keeps_the_callers_error_callback(self, eu_space, monkeypatch):
        # the kernels of every step see the callback the caller set, never
        # one of the solver's own
        seen = []
        kernel = operators.KERNELS["affine"]
        monkeypatch.setitem(operators.KERNELS, "affine",
                            lambda *args: seen.append(np.geterrcall()) or kernel(*args))
        callback = lambda condition, flag: None  # noqa: E731
        with np.errstate(call=callback, over="call"):
            trace, _ = iterate_many(affine([0.5]), eu_space, [[[1.5]]] * 2)
        assert trace.stop_reason == "converged" and len(seen) >= len(trace) - 1
        assert all(each is callback for each in seen)

    def test_minus_inf_output_in_a_box_down_to_minus_the_largest_float(self):
        space = euclidean(Box([-np.finfo(float).max], [0.0]))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 0\)$"):
                iterate(from_dsl("x1*1e300*1e300", 1), space, [-1.0])

    def test_in_domain_run_counts_nothing(self, sq_space):
        assert iterate(averaging(2), sq_space, [2.0, 1.0], TIGHT).out_of_domain == 0

    def test_overflowing_dsl_operator(self, eu_space):
        blowup = from_dsl("x1*1e200", 1)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 0\)"):
                iterate(blowup, eu_space, [1e150])
            with pytest.raises(NumericEvalError, match=r"coordinate 0 \(window 0\)"):
                picard(blowup, eu_space, [1e150])


def _outcome(call):
    """The trace `call()` returns, or the type and message of its error; a
    message of iterate_many's first run drops the run it names."""
    try:
        out = call()
    except (DomainError, NumericEvalError, FloatingPointError) as err:
        return type(err).__name__, str(err).removesuffix(" in run 0")
    return out[0] if isinstance(out, list) else out


def _count_kernel_calls(monkeypatch, op, space, calls):
    """Append the kind of each operator and metric kernel call to `calls`."""
    for table, kind in ((operators.KERNELS, op.kind), (operators.KERNELS, "diagonal"),
                        (bmetric.KERNELS, space.kind)):
        kernel = table[kind]
        monkeypatch.setitem(table, kind,
                            lambda *args, kind=kind, kernel=kernel: calls.append(kind) or kernel(*args))


FLOATS = st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 5e-324, -1e-170, 1e-300])


# metric kind -> its space on a box; the custom distance is bounded, so it
# stays finite at an infinite point, which only the point's own check finds
FLOAT_RUN_METRICS = {
    "euclidean": euclidean, "squared_euclidean": squared_euclidean,
    "power": lambda box: power(3, box), "lp_truncated": lambda box: lp_truncated(0.5, box),
    "custom_dsl": lambda box: custom(
        "min({}, 4)".format(" + ".join(f"abs(u{i} - v{i})" for i in range(1, box.dimension + 1))),
        box, b=1)}
# a term a DSL operator adds to its linear part in x1..xk
DSL_TERMS = ["", " + 0.1*x1*x1", " - 0.2*abs(x{k})", " + 0.01*exp(x1)", " + 0.1*sqrt(abs(x1))"]


class TestFloatRun:
    """A lone run steps on Python floats, on the float kernels of averaging
    (k < 8), affine and constant maps or their diagonals and of euclidean
    and squared_euclidean spaces (m < 8), and on the array kernel of any
    other kind; its trace is the array loop's bit for bit."""

    @settings(max_examples=200)
    @given(data=st.data(), kind=st.sampled_from(["averaging", "affine", "constant", "dsl"]),
           k=st.integers(1, 9), m=st.integers(1, 8), diagonal=st.booleans(),
           metric=st.sampled_from(sorted(FLOAT_RUN_METRICS)), strict=st.booleans())
    def test_a_lone_run_is_the_array_loops(self, data, kind, k, m, diagonal, metric, strict):
        values = lambda size: st.lists(FLOATS, min_size=size, max_size=size)  # noqa: E731
        if kind == "averaging":
            op = averaging(k, dimension=m)
        elif kind == "affine":
            weights = data.draw(values(k) | st.lists(st.sampled_from([1e200, -4.0, -0.5, 0.0]),
                                                     min_size=k, max_size=k))
            op = affine(weights, data.draw(values(m)), dimension=m)
        elif kind == "constant":
            op = constant(data.draw(values(m)), k=k)
        else:
            linear = lambda: " + ".join(  # noqa: E731
                f"({w!r})*x{i}" for i, w in enumerate(data.draw(values(k)), 1))
            op = from_dsl([linear() + f" + ({data.draw(FLOATS)!r})"
                           + data.draw(st.sampled_from(DSL_TERMS)).format(k=k)
                           for _ in range(m)], k)
        # a box the run may leave: around 0, or away from the start
        half = data.draw(st.floats(0.0, 3.0))
        space = FLOAT_RUN_METRICS[metric](Box(np.full(m, -half), np.full(m, half)))
        start = np.array(data.draw(values(k * m))).reshape(k, m)
        stop = StopRule(residual_tol=data.draw(st.sampled_from([1e-300, 1e-12, 1e-3])),
                        step_tol=data.draw(st.sampled_from([1e-300, 1e-12, 1e-3])),
                        max_iterations=data.draw(st.integers(2, 80)))
        if diagonal:
            run, seeds = op.diagonal, start[:1]
            reference = lambda: _reference_picard(op, space, seeds[0], stop)  # noqa: E731
        else:
            run, seeds = op, start
            reference = lambda: _reference_iterate(op, space, seeds, stop)  # noqa: E731
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(lambda: iterate(run, space, seeds, stop, strict))
            pair = _outcome(lambda: iterate_many(run, space, [seeds, seeds], stop, strict))
            want = _outcome(reference)
        if isinstance(got, tuple):  # an error: the reference loop words its own
            assert pair == got
            assert strict or want[0] == got[0]
        else:
            _assert_same_trace(got, pair)
            _assert_same_trace(got, want)  # in strict mode, a run that never left

    @pytest.mark.parametrize("mode", ["warn", "raise", "call"])
    @pytest.mark.parametrize("metric, seeds", [
        # x_{n+2} = 1e200 x_{n+1} overflows at step 4, 1e150 -> 1e350; the
        # first seed distance keeps the divergence rule from firing before
        (euclidean, [-1e150, 1e-250]),
        # the square of the step 1e100 -> 1e300 overflows, at step 4
        (squared_euclidean, [-1e150, 1e-300])])
    def test_an_overflow_shows_at_its_step(self, metric, seeds, mode):
        op = affine([0.0, 1e200])
        space = metric(Box([-1.0], [1.0]))

        def outcome(call):
            events = []
            with warnings.catch_warnings(record=True) as caught, np.errstate(
                    over=mode, call=lambda condition, flag: events.append(condition)):
                warnings.simplefilter("always")
                out = _outcome(call)
            return out, events + [str(w.message) for w in caught]

        got, events = outcome(lambda: iterate(op, space, seeds))
        pair = np.repeat(np.reshape(seeds, (1, 2, 1)), 2, axis=0)
        assert (got, events) == outcome(lambda: iterate_many(op, space, pair))
        assert events == {"warn": ["overflow encountered in multiply"], "call": ["overflow"],
                          "raise": []}[mode]
        if mode == "raise":
            assert got == ("FloatingPointError", "overflow encountered in multiply")
        elif metric is euclidean:
            assert got == ("NumericEvalError",
                           "non-finite operator output at coordinate 0 (window 0)")
        else:
            assert got == ("NumericEvalError",
                           "non-finite result in squared_euclidean distance alpha_4")

    def test_a_lone_run_calls_no_kernel(self, eu_space, monkeypatch):
        calls = []
        _count_kernel_calls(monkeypatch, averaging(3), eu_space, calls)
        trace = iterate(averaging(3), eu_space, [1.0, -0.5, 2.0])
        assert trace.stop_reason == "converged" and calls == []
        picard(affine([0.2, 0.15, 0.1], offset=0.1), eu_space, [1.0])
        assert calls == []

    @pytest.mark.parametrize("case", ["under=warn", "m=8", "averaging(8)", "power(3)", "dsl"])
    def test_a_kind_without_a_float_kernel_runs_its_array_kernel(self, case, monkeypatch):
        # a lone run calls the array kernel of such a kind once a step on one
        # row, and once more at each residual; only a non-default underflow
        # mode hands the run to the array loop
        op, space, seeds = averaging(2), euclidean(Box([-2.0], [2.0])), [1.0, 0.5]
        if case == "m=8":
            op, space = averaging(2, dimension=8), euclidean(Box(np.full(8, -2.0), np.full(8, 2.0)))
            seeds = np.linspace(-1.0, 1.0, 16).reshape(2, 8)
        elif case == "averaging(8)":
            op, seeds = averaging(8), np.linspace(-1.0, 1.0, 8)
        elif case == "power(3)":
            space = power(3, Box([-2.0], [2.0]))
        elif case == "dsl":
            op = from_dsl("(x1 + x2)/4", 2)
        calls, runs = [], []
        _count_kernel_calls(monkeypatch, op, space, calls)
        float_run = solver._float_run
        monkeypatch.setattr(solver, "_float_run",
                            lambda *args: runs.append(float_run(*args)) or runs[-1])
        with np.errstate(under="warn" if case == "under=warn" else "ignore"):
            trace = iterate(op, space, seeds)
        assert trace.stop_reason == "converged" and len(runs) == 1
        if case == "under=warn":
            assert runs == [None] and op.kind in calls and space.kind in calls
        else:
            _assert_same_trace(runs[0], trace)
            k, steps = op.arity, len(trace) - op.arity
            residuals = int(np.count_nonzero(trace.alphas[k - 1:] <= StopRule().step_tol))
            wrapped = {"m=8": space.kind, "power(3)": space.kind}.get(case, op.kind)
            assert set(calls) == {wrapped}
            assert len(calls) == steps + residuals + (k - 1) * (wrapped == space.kind)
        monkeypatch.undo()
        with np.errstate(under="ignore"):
            _assert_same_trace(trace, _reference_iterate(op, space, seeds, StopRule()))

    @pytest.mark.parametrize("start, step_tol", [
        # the one step 1e200 -> inf; a step from 1 to 1e200 whose residual
        # 1e200 -> inf is taken, as every step meets step_tol
        (1e200, 1e-10), (1.0, 1e9)])
    def test_a_bounded_metric_hides_no_infinite_point(self, start, step_tol):
        op, space = affine([1e200]), custom("min(abs(u1 - v1), 4)", Box([-2.0], [2.0]), b=1)
        stop = StopRule(step_tol=step_tol, max_iterations=2)
        with np.errstate(over="ignore"):
            got = _outcome(lambda: iterate(op, space, [start], stop))
            pair = _outcome(lambda: iterate_many(op, space, [[[start]]] * 2, stop))
        assert got == pair == ("NumericEvalError",
                               "non-finite operator output at coordinate 0 (window 0)")

    @pytest.mark.parametrize("mode", ["warn", "call", "raise"])
    @pytest.mark.parametrize("case, outcome", [
        ("log", ("NumericEvalError", "log of a non-positive value (row 0)")),
        ("pole", ("converged", 213, 8)),
        ("sqrt-metric", ("NumericEvalError", "sqrt of a negative value (row 0)")),
        ("power-overflow", ("NumericEvalError", "non-finite result in power distance alpha_1"))])
    def test_a_wrapped_kernel_keeps_each_outcome(self, case, outcome, mode):
        # the traces, errors and floating-point events of lone runs on array
        # kernels, as the array loop alone gave them
        box = Box([-2.0], [2.0])
        op, space, seeds = {
            "log": (from_dsl("log(x1 + 0.3) - 0.5", 1), euclidean(box), [1.0]),
            "pole": (from_dsl("1/(x2 - 0.25) + x1/4", 2), euclidean(box), [0.0, 0.5]),
            "sqrt-metric": (affine([0.5]), custom("sqrt(abs(u1-v1) - 0.01)", box, b=1), [1.0]),
            "power-overflow": (affine([1e200]), power(3, box), [1.0])}[case]

        def run(call):
            events = []
            with warnings.catch_warnings(record=True) as caught, np.errstate(
                    all=mode, under="ignore", call=lambda kind, flag: events.append(kind)):
                warnings.simplefilter("always")
                out = _outcome(call)
            if not isinstance(out, tuple):
                out = (out.stop_reason, len(out), out.out_of_domain)
            return out, events + [str(w.message) for w in caught]

        got, events = run(lambda: iterate(op, space, seeds))
        pair = np.reshape(seeds * 2, (2, -1, 1))
        assert (got, events) == run(lambda: iterate_many(op, space, pair))
        if case == "power-overflow":
            assert events == {"warn": ["overflow encountered in multiply"], "call": ["overflow"],
                              "raise": []}[mode]
            if mode == "raise":
                outcome = ("FloatingPointError", "overflow encountered in multiply")
        else:
            assert events == []
        assert got == outcome
        if case == "pole":
            _assert_same_trace(iterate(op, space, seeds),
                               _reference_iterate(op, space, seeds, StopRule()))


class TestStopRule:
    @pytest.mark.parametrize("fields", [
        {"residual_tol": np.nan}, {"step_tol": np.nan}, {"residual_tol": 0.0},
        {"step_tol": -1e-3}, {"residual_tol": True}, {"step_tol": "1e-10"},
        {"max_iterations": np.inf}, {"max_iterations": -np.inf},
        {"max_iterations": np.nan}, {"max_iterations": 100.5}, {"max_iterations": True},
        {"max_iterations": "100"}, {"max_iterations": 1}])
    def test_rejects_what_no_run_could_meet_or_count(self, fields):
        with pytest.raises(UsageError):
            StopRule(**fields)

    @pytest.mark.parametrize("cap", [1e6, 1e2, np.float64(50.0), np.int64(50), 7])
    def test_integral_caps_become_ints(self, cap):
        rule = StopRule(max_iterations=cap)
        assert rule.max_iterations == int(cap) and type(rule.max_iterations) is int


SEED_OPERATORS = {
    "averaging": averaging(2),
    "affine": affine([0.25, 0.25], offset=1.0),
    "constant": constant([1.0], k=2),
    "dsl": from_dsl("(x1+x2)/4", 2),
}


class TestSeedValidation:
    @pytest.mark.parametrize("kind", sorted(SEED_OPERATORS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_seed_is_usage_error(self, kind, bad, eu_space):
        op = SEED_OPERATORS[kind]
        with pytest.raises(UsageError):
            iterate(op, eu_space, [1.0, bad])
        with pytest.raises(UsageError):
            iterate(op, eu_space, [bad, 1.0])
        with pytest.raises(UsageError):
            picard(op, eu_space, [bad])

    @pytest.mark.parametrize("kind", sorted(SEED_OPERATORS))
    def test_wrong_dimension_seed_is_usage_error(self, kind, eu_space):
        op = SEED_OPERATORS[kind]
        with pytest.raises(UsageError):
            iterate(op, eu_space, [[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(UsageError):
            picard(op, eu_space, [1.0, 0.0])

    def test_space_dimension_mismatch_is_usage_error(self, eu_space):
        with pytest.raises(UsageError):
            iterate(averaging(1, dimension=2), eu_space, [[1.0, 0.5]])


@pytest.fixture(params=["array-loop", "array-operators", "array-metrics"])
def forced_path(request, monkeypatch):
    """Every lone run on the array loop; or on the float loop with no float
    kernel of an operator, or of a metric, so it runs the kind's array one."""
    if request.param == "array-loop":
        monkeypatch.setattr(solver, "_float_run", lambda *args: None)
    else:
        module = operators if request.param == "array-operators" else bmetric
        monkeypatch.setattr(module, "FLOAT_KERNELS", {})


# The path a lone run takes cannot change a result: each case of these
# classes, with its traces, out_of_domain counts, error types, messages and
# floating-point events, holds on every forced path.

@pytest.mark.usefixtures("forced_path")
class TestReferenceLoopOnEveryPath(TestReferenceLoop):
    pass


@pytest.mark.usefixtures("forced_path")
class TestIterateManyOnEveryPath(TestIterateMany):
    pass


@pytest.mark.usefixtures("forced_path")
class TestLoopChecksOnEveryPath(TestLoopChecks):
    pass


def _short_trace():
    return IterationTrace(np.array([[1.0], [0.5]]), np.array([0.25]), "max_iterations")


@pytest.mark.parametrize("call, message", [
    (lambda: presic_bounds(_short_trace(), 0.5, 2.0, 1).tail_bound(0, 1),
     "tail_bound needs n >= 1 and p >= 1"),
    (lambda: presic_bounds(_short_trace(), 0.5, 2.0, 1).tail_bound(1, 0),
     "tail_bound needs n >= 1 and p >= 1"),
    (lambda: presic_bounds(_short_trace(), 0.5, 2.0, 2),
     "trace too short: need at least k+1=3 points"),
    (lambda: kannan_bounds(0.1, 1, 1.0, -1.0, 3), "d01 and n must be nonnegative"),
    (lambda: kannan_bounds(0.1, 1, 1.0, 1.0, -1), "d01 and n must be nonnegative"),
    (lambda: kannan_bounds(0.1, 1, 1.0, math.nan, 3), "d01 and n must be nonnegative"),
    (lambda: kannan_bounds(0.1, 1, 1.0, math.inf, 3), "d01 and n must be nonnegative"),
    (lambda: cauchy_profile(_short_trace(), euclidean(Box(np.zeros(1), np.ones(1))), 0),
     "P must be >= 1"),
], ids=["tail-n-below-one", "tail-p-below-one", "trace-too-short", "negative-d01",
        "negative-n", "nan-d01", "infinite-d01", "profile-window-below-one"])
def test_input_checks(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


def test_cauchy_profile_of_a_trace_shorter_than_its_window_is_empty():
    profile = cauchy_profile(_short_trace(), euclidean(Box(np.zeros(1), np.ones(1))), 2)
    assert profile.shape == (0,)
