import pickle
import tracemalloc

import numpy as np
import pytest

from presic_lab import (
    BMetricSpace,
    Box,
    DegenerateDomainError,
    NumericEvalError,
    UsageError,
    averaging,
    chain_bound,
    check_axioms,
    ciric_max,
    custom,
    estimate_b,
    euclidean,
    lp_truncated,
    power,
    squared_euclidean,
    verify,
)

from presic_lab.bmetric import (CHUNK, TOL_REL, Violation, _sample_windows, as_point, fold,
                                leq_tol, max_ratio)

from conftest import builtin_spaces, coordinate_major


class TestDistance:
    def test_squared_euclidean_example(self, sq_space):
        assert sq_space.distance([0.0], [2.0]) == 4.0

    def test_identity_is_exactly_zero(self):
        # +0, not -0: lp_truncated(1/3) raises its sum to 1/p = 3, an odd
        # power, which would keep the sign of a -0 sum
        spaces = builtin_spaces() + [lp_truncated(1 / 3, Box(np.full(3, -1.0), np.ones(3)))]
        for space in spaces:
            x = (space.domain.lo + space.domain.hi) / 2
            d = space.distance(x, x)
            assert d == 0.0 and not np.signbit(d)
            xs = space.domain.sample(np.random.default_rng(0), 5)
            assert not np.signbit(space.distance_batch(xs, xs)).any()

    def test_lp_single_coordinate(self):
        space = lp_truncated(0.5, Box(np.zeros(2), np.ones(2)))
        # (1^(1/2))^2 = 1 for a single nonzero coordinate
        assert space.distance([1.0, 0.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for space in builtin_spaces():
            xs = space.domain.sample(rng, 50)
            ys = space.domain.sample(rng, 50)
            np.testing.assert_array_equal(space.distance_batch(xs, ys),
                                          space.distance_batch(ys, xs))

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for space in builtin_spaces():
            xs = space.domain.sample(rng, 100)
            ys = space.domain.sample(rng, 100)
            assert np.all(space.distance_batch(xs, ys) >= 0)

    def test_dimension_mismatch(self, sq_space):
        with pytest.raises(UsageError):
            sq_space.distance([0.0, 1.0], [1.0, 0.0])

    def test_nonfinite_point_rejected(self, sq_space):
        with pytest.raises(UsageError):
            sq_space.distance([np.nan], [0.0])

    def test_custom_dsl_metric(self, unit_box):
        space = custom("abs(u1 - v1)^2", unit_box, b=2.0)
        assert space.distance([0.0], [2.0]) == 4.0

    def test_custom_dsl_overflow_is_an_error(self):
        space = custom("abs(u1-v1)*1e300*1e300", Box([0], [1]), b=1)
        with pytest.raises(NumericEvalError, match=r"custom metric distance \(row 0\)"):
            space.distance([0], [1])

    def test_custom_dsl_names_the_first_non_finite_pair(self, unit_box):
        space = custom("abs(u1-v1)*1e300*1e300", unit_box, b=1)
        xs = np.array([[0.0], [0.5], [0.0], [1.0]])
        ys = np.array([[0.0], [0.5], [1.0], [0.0]])
        with pytest.raises(NumericEvalError, match=r"\(row 2\)"):
            space.distance_batch(xs, ys)

    def test_batches_of_any_leading_shape(self):
        rng = np.random.default_rng(2)
        for space in builtin_spaces():
            xs = space.domain.sample(rng, 12).reshape(4, 3, -1)
            ys = space.domain.sample(rng, 12).reshape(4, 3, -1)
            flat = space.distance_batch(xs.reshape(12, -1), ys.reshape(12, -1))
            np.testing.assert_array_equal(space.distance_batch(xs, ys), flat.reshape(4, 3))


class TestFold:
    """The short-axis fold is bit-identical to numpy's reductions."""

    VALUES = [0.0, -0.0, 1e-300, -1e-300, 0.1, -2.25, 1e16, -1e16, 3.0000001]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sum_max_all_along_any_axis(self, n):
        rng = np.random.default_rng(n)
        a = rng.choice(self.VALUES, size=(4000, n, 3))
        b = rng.choice(self.VALUES, size=(4000, 3, n))
        for arr, axis in ((a, 1), (b, -1), (b, 2)):
            for ufunc, reduce in ((np.add, arr.sum), (np.maximum, arr.max)):
                got, want = fold(ufunc, arr, axis), reduce(axis=axis)
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
            mask = arr > 0
            np.testing.assert_array_equal(fold(np.logical_and, mask, axis), mask.all(axis=axis))

    def test_long_axes_round_the_same_in_every_memory_layout(self):
        # numpy sums an axis of 8 or more pairwise only where it is contiguous
        rng = np.random.default_rng(9)

        def layouts(a):
            return [a, np.asfortranarray(a), coordinate_major(a)]

        xs, ys = rng.uniform(-1.0, 1.0, size=(2, 5000, 9))
        space = squared_euclidean(Box(np.full(9, -1.0), np.full(9, 1.0)))
        want = space.distance_batch(xs, ys)
        for x, y in zip(layouts(xs), layouts(ys)):
            np.testing.assert_array_equal(space.distance_batch(x, y), want)
        windows = rng.uniform(-1.0, 1.0, size=(5000, 9, 1))
        want = averaging(9).apply_batch(windows)
        for w in layouts(windows):
            np.testing.assert_array_equal(averaging(9).apply_batch(w), want)

    def test_does_not_write_to_its_input(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        fold(np.add, a, 1)
        fold(np.maximum, a[:, :1], 1)[...] = 0.0
        np.testing.assert_array_equal(a, [[1.0, 2.0], [3.0, 4.0]])


class TestConstructors:
    def test_declared_constants(self, unit_box):
        assert euclidean(unit_box).b == 1.0
        assert squared_euclidean(unit_box).b == 2.0
        assert power(3.0, unit_box).b == 4.0
        assert lp_truncated(0.5, unit_box).b == 4.0

    def test_power_requires_p_above_one(self, unit_box):
        with pytest.raises(UsageError):
            power(1.0, unit_box)

    def test_lp_requires_p_below_one(self, unit_box):
        with pytest.raises(UsageError):
            lp_truncated(1.5, unit_box)

    def test_b_below_one_rejected(self, unit_box):
        with pytest.raises(UsageError):
            BMetricSpace("euclidean", unit_box, b=0.5)

    def test_box_ordering(self):
        with pytest.raises(UsageError):
            Box(np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("lo, hi", [([-1e308], [1e308]), ([0.0], [np.inf]),
                                        ([-np.inf], [0.0]), ([np.nan], [1.0])])
    def test_box_bounds_and_widths_must_be_finite(self, lo, hi):
        # a width hi - lo that overflows would make every sampled point inf
        with pytest.raises(UsageError, match="finite"):
            Box(np.asarray(lo), np.asarray(hi))


@pytest.mark.parametrize("m", [1, 3])
def test_boxes_and_spaces_compare_by_value(m):
    box = Box(np.zeros(m), np.ones(m))
    same = Box([-0.0] * m, [1] * m)  # -0.0 == 0.0 and 1 == 1.0, so equal
    other = Box(np.zeros(m), np.r_[np.ones(m - 1), 2.0])
    space = custom("abs(u1 - v1)", box, 2.0)
    for a, b, c in [(box, same, other),
                    (euclidean(box), euclidean(same), euclidean(other)),
                    (space, pickle.loads(pickle.dumps(space)), custom("abs(u1 - v1)", other, 2.0)),
                    (power(3.0, box), power(3.0, same), power(2.5, box))]:
        assert (a == b) is True and hash(a) == hash(b)
        assert (a == c) is False and (a != c) is True
    assert len({box, same, other}) == 2 and box != (box.lo, box.hi)


class TestBoxContains:
    def test_tolerance_is_relative_to_the_bound(self):
        # slack at hi = 1e12 is 1e-9 (1 + 1e12), about 1e3
        box = Box(np.zeros(1), np.full(1, 1e12))
        np.testing.assert_array_equal(
            box.contains([[1e12 + 1e-4], [1e12 + 500.0], [-1e-9], [5e11]]), [True] * 4)
        np.testing.assert_array_equal(
            box.contains([[1e12 + 1e4], [-1e-8], [2e12]]), [False] * 3)

    @pytest.mark.parametrize("lo, hi", [(-np.finfo(float).max, 0.0), (0.0, np.finfo(float).max)])
    def test_bounds_at_the_largest_float_stay_finite(self, lo, hi):
        # widening -max or max overflows: a bound of ±inf would admit ±inf,
        # and the overflow warning is an error here
        box = Box([lo], [hi])
        assert np.isfinite(box.lo_tol).all() and np.isfinite(box.hi_tol).all()
        np.testing.assert_array_equal(
            box.contains([[lo], [hi], [-np.inf], [np.inf], [np.nan]]),
            [True, True, False, False, False])

    def test_unit_box_edges(self, unit_box):
        np.testing.assert_array_equal(
            unit_box.contains([[0.0], [2.0], [2.0 + 2e-9], [-0.5e-9]]), [True] * 4)
        np.testing.assert_array_equal(
            unit_box.contains([[2.0 + 4e-9], [-2e-9], [3.0]]), [False] * 3)

    def test_sample_is_rng_uniform(self):
        box = Box(np.array([-1.0, 0.3, 5.0]), np.array([2.0, 0.31, 1e6]))
        got = box.sample(np.random.default_rng(3), 1001)
        want = np.random.default_rng(3).uniform(box.lo, box.hi, size=(1001, 3))
        np.testing.assert_array_equal(got, want)

    def test_every_coordinate_must_be_inside(self):
        box = Box(np.full(2, -1.0), np.full(2, 1.0))
        np.testing.assert_array_equal(
            box.contains([[0.0, 0.0], [0.0, 1.5], [-1.5, 0.0]]), [True, False, False])


class TestCheckAxioms:
    def test_squared_euclidean_with_declared_b(self, sq_space):
        report = check_axioms(sq_space, 2000, seed=3)
        assert report.ok
        assert report.counts == {"b1": 0, "b2": 0, "b3": 0}
        assert report.first == report.worst == {}
        assert report.checked_triples == 2000

    def test_squared_euclidean_with_b_one_fails(self, unit_box):
        wrong = BMetricSpace("squared_euclidean", unit_box, b=1.0)
        report = check_axioms(wrong, 0, seed=3, grid_points=3)  # grid {0, 1, 2}
        assert not report.ok
        # the triples (0, 1, 2) and (2, 1, 0): lhs 4 > rhs 2
        assert report.counts == {"b1": 0, "b2": 0, "b3": 2}
        assert report.first["b3"] == Violation("b3", ((0.0,), (1.0,), (2.0,)), 4.0, 2.0)
        assert report.worst["b3"] == report.first["b3"]  # a tie keeps the first
        # every reported violation reproduces on re-evaluation
        for v in (report.first["b3"], report.worst["b3"]):
            x, z, y = (np.asarray(p) for p in v.points)
            lhs = wrong.distance(x, y)
            rhs = wrong.b * (wrong.distance(x, z) + wrong.distance(z, y))
            assert lhs > rhs + 1e-9 * (1 + abs(rhs))

    def test_euclidean_is_a_metric(self, eu_space):
        report = check_axioms(eu_space, 2000, seed=5)
        assert report.ok

    def test_all_builtins_satisfy_declared_b(self):
        for space in builtin_spaces():
            report = check_axioms(space, 1500, seed=7)
            assert report.ok, space.kind


class TestEstimateB:
    def test_squared_euclidean_grid(self, sq_space):
        result = estimate_b(sq_space, 0, seed=0, grid_points=60)
        assert result["b_hat"] == pytest.approx(2.0, abs=1e-6)
        x, z, y = result["witness"]
        # witness is (near-)equispaced collinear
        assert abs((z - x) - (y - z)) < 0.2

    def test_euclidean_at_most_one(self, eu_space):
        result = estimate_b(eu_space, 5000, seed=1)
        assert result["b_hat"] <= 1.0 + 1e-9

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_power_metric_sharpness(self, p, unit_box):
        result = estimate_b(power(p, unit_box), 0, seed=0, grid_points=100)
        target = 2.0 ** (p - 1)
        assert result["b_hat"] <= target + 1e-9
        assert result["b_hat"] >= target - 0.05

    def test_refining_grids_never_decrease(self, unit_box):
        space = power(3.0, unit_box)
        coarse = estimate_b(space, 0, seed=0, grid_points=11)["b_hat"]
        fine = estimate_b(space, 0, seed=0, grid_points=101)["b_hat"]
        assert fine >= coarse - 1e-12

    def test_degenerate_box(self):
        space = squared_euclidean(Box(np.ones(1), np.ones(1)))
        with pytest.raises(DegenerateDomainError):
            estimate_b(space, 100, seed=0)


class TestChainBound:
    def test_worked_example(self, sq_space):
        # b=2, chain 0,1,2: rhs = 2*1 + 2*1 (last coefficient repeats b^(n-1))
        result = chain_bound(sq_space, [[0.0], [1.0], [2.0]])
        assert result["lhs"] == 4.0
        assert result["rhs"] == 4.0
        assert result["holds"]

    def test_constant_chain(self, sq_space):
        result = chain_bound(sq_space, [[1.0]] * 5)
        assert result == {"lhs": 0.0, "rhs": 0.0, "holds": True}

    def test_two_points(self, sq_space):
        result = chain_bound(sq_space, [[0.0], [2.0]])
        assert result["lhs"] == result["rhs"] == 4.0

    def test_needs_two_points(self, sq_space):
        with pytest.raises(UsageError):
            chain_bound(sq_space, [[0.0]])

    def test_rhs_matches_direct_summation(self, sq_space):
        rng = np.random.default_rng(9)
        pts = sq_space.domain.sample(rng, 10)
        result = chain_bound(sq_space, pts)
        n = len(pts) - 1
        rhs = sum(sq_space.b ** j * sq_space.distance(pts[j - 1], pts[j])
                  for j in range(1, n)) \
            + sq_space.b ** (n - 1) * sq_space.distance(pts[n - 1], pts[n])
        assert result["rhs"] == pytest.approx(rhs, rel=1e-12)

    def test_holds_on_random_sequences_everywhere(self):
        rng = np.random.default_rng(21)
        for space in builtin_spaces():
            for _ in range(50):
                length = int(rng.integers(2, 20))
                pts = space.domain.sample(rng, length)
                assert chain_bound(space, pts)["holds"], space.kind


# --- the reference checks ------------------------------------------------------
# check_axioms and estimate_b as they were before their triples were streamed
# through the window sampler: the points of a meshgrid (or one uniform draw),
# every ordered triple of grid points as one index array, one batch call per
# distance. On a full grid the streamed checks must reproduce them bit for bit.

def _reference_grid(box, points_per_axis):
    axes = [np.linspace(box.lo[i], box.hi[i], points_per_axis) for i in range(box.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _reference_check_axioms(space, sample_count, seed, grid_points=None, max_triples=2_000_000):
    if grid_points is not None:
        pts = _reference_grid(space.domain, grid_points)
    else:
        pts = space.domain.sample(np.random.default_rng(seed), sample_count)
    n = len(pts)
    violations = []
    self_d = space.distance_batch(pts, pts)
    for i in np.nonzero(~leq_tol(self_d, 0.0))[0]:
        violations.append(Violation("b1", (tuple(pts[i]),), float(self_d[i]), 0.0))
    rng = np.random.default_rng(seed + 1 if seed is not None else None)
    if grid_points is not None and n ** 3 <= max_triples:
        ia, ib, ic = np.indices((n, n, n)).reshape(3, -1)
    else:
        count = max(sample_count, 1)
        ia = rng.integers(0, n, size=count)
        ib = rng.integers(0, n, size=count)
        ic = rng.integers(0, n, size=count)
    xs, ys, zs = pts[ia], pts[ib], pts[ic]
    d_xy = space.distance_batch(xs, ys)
    d_yx = space.distance_batch(ys, xs)
    d_xz = space.distance_batch(xs, zs)
    d_zy = space.distance_batch(zs, ys)
    asym = np.abs(d_xy - d_yx) > TOL_REL * (1.0 + np.abs(d_xy))
    for i in np.nonzero(asym)[0]:
        violations.append(Violation("b2", (tuple(xs[i]), tuple(ys[i])),
                                    float(d_xy[i]), float(d_yx[i])))
    rhs = space.b * (d_xz + d_zy)
    for i in np.nonzero(~leq_tol(d_xy, rhs))[0]:
        violations.append(Violation("b3", (tuple(xs[i]), tuple(zs[i]), tuple(ys[i])),
                                    float(d_xy[i]), float(rhs[i])))
    return len(ia), violations


def _summary(violations, axiom):
    """(count, first, worst) of the reference's `axiom` violations: the
    worst has the largest |lhs - rhs|, the first of those on ties."""
    found = [v for v in violations if v.axiom == axiom]
    worst = max(found, key=lambda v: abs(v.lhs - v.rhs)) if found else None
    return len(found), found[0] if found else None, worst


def _assert_matches_reference(report, violations, axioms=("b1", "b2", "b3")):
    for axiom in axioms:
        count, first, worst = _summary(violations, axiom)
        assert report.counts[axiom] == count, axiom
        assert report.first.get(axiom) == first, axiom
        assert report.worst.get(axiom) == worst, axiom


def _reference_estimate_b(space, sample_count, seed, grid_points=None, max_triples=2_000_000):
    if grid_points is not None:
        pts = _reference_grid(space.domain, grid_points)
        n = len(pts)
        if n ** 3 <= max_triples:
            idx = np.indices((n, n, n)).reshape(3, -1)
            xs, zs, ys = pts[idx[0]], pts[idx[1]], pts[idx[2]]
        else:
            sel = np.random.default_rng(seed).integers(0, n, size=(sample_count, 3))
            xs, zs, ys = pts[sel[:, 0]], pts[sel[:, 1]], pts[sel[:, 2]]
    else:
        rng = np.random.default_rng(seed)
        xs = space.domain.sample(rng, sample_count)
        zs = space.domain.sample(rng, sample_count)
        ys = space.domain.sample(rng, sample_count)
    num = space.distance_batch(xs, ys)
    den = space.distance_batch(xs, zs) + space.distance_batch(zs, ys)
    ok = den > 0
    if not np.any(ok):
        raise DegenerateDomainError("all sampled triples have zero denominator")
    ratio = np.where(ok, num / np.where(ok, den, 1.0), -np.inf)
    best = int(np.argmax(ratio))
    return {"b_hat": float(ratio[best]),
            "witness": (as_point(xs[best]), as_point(zs[best]), as_point(ys[best]))}


def _spaces_of_every_kind(m):
    """Each metric kind on [0, 2]^m, declared with b = 1 so that the
    non-metrics violate b3; the custom metric also breaks b1 and b2."""
    box = Box(np.zeros(m), np.full(m, 2.0))
    custom_src = "(u1-v1)^2 + 0.5*u1" + (" + (u2-v2)^2" if m == 2 else "")
    return [BMetricSpace("euclidean", box, b=1.0),
            BMetricSpace("squared_euclidean", box, b=1.0),
            BMetricSpace("power", box, b=1.0, p=3.0),
            BMetricSpace("lp_truncated", box, b=1.0, p=0.5),
            custom(custom_src, box, b=1.0)]


# 30^3 triples at m=1 and 7^6 at m=2: both span several chunks
@pytest.mark.parametrize("m, grid_points", [(1, 30), (2, 7)])
@pytest.mark.parametrize("kind", range(5), ids=["euclidean", "squared_euclidean", "power",
                                                "lp_truncated", "custom_dsl"])
class TestFullGridMatchesTheReference:
    def test_estimate_b(self, m, grid_points, kind):
        space = _spaces_of_every_kind(m)[kind]
        got = estimate_b(space, 0, 4, grid_points=grid_points)
        want = _reference_estimate_b(space, 0, 4, grid_points=grid_points)
        np.testing.assert_equal(got["b_hat"], want["b_hat"])
        np.testing.assert_array_equal(np.stack(got["witness"]), np.stack(want["witness"]))

    def test_check_axioms(self, m, grid_points, kind):
        space = _spaces_of_every_kind(m)[kind]
        got = check_axioms(space, 0, 4, grid_points=grid_points)
        checked, violations = _reference_check_axioms(space, 0, 4, grid_points=grid_points)
        assert got.checked_triples == checked == grid_points ** (3 * m)
        _assert_matches_reference(got, violations)
        assert got.ok == (not violations)
        if kind == 4:
            assert all(got.counts.values())


class TestStreamedAxiomChecks:
    def test_identity_is_checked_at_the_same_random_points(self):
        space = _spaces_of_every_kind(1)[4]
        got = check_axioms(space, 3 * CHUNK + 7, 8)
        _, violations = _reference_check_axioms(space, 3 * CHUNK + 7, 8)
        assert got.counts["b1"] > 0
        _assert_matches_reference(got, violations, axioms=("b1",))

    @pytest.mark.parametrize("grid_points", [3, 200])  # 200^3 triples exceed max_triples
    def test_each_grid_point_reports_its_b1_violation_once(self, unit_box, grid_points):
        space = custom("abs(u1-v1) + 1", unit_box, b=2.0)
        report = check_axioms(space, 1000, 0, grid_points=grid_points)
        assert report.counts["b1"] == grid_points
        # every point's self-distance is 1, so the worst is the first, at 0
        assert report.first["b1"] == report.worst["b1"] == Violation("b1", ((0.0,),), 1.0, 0.0)

    def test_random_triples_are_counted(self, sq_space):
        assert check_axioms(sq_space, 3 * CHUNK + 7, 1).checked_triples == 3 * CHUNK + 7

    def test_estimate_b_memory_does_not_grow_with_samples(self, sq_space):
        def peak(samples):
            tracemalloc.start()
            try:
                estimate_b(sq_space, samples, 19)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        estimate_b(sq_space, 1000, 19)  # so that one-time allocations fall outside both peaks
        assert peak(2_000_000) <= 1.5 * peak(200_000)

    def test_check_axioms_memory_does_not_grow_with_violations(self, unit_box):
        wrong = BMetricSpace("squared_euclidean", unit_box, b=1.0)  # a third of triples violate b3

        def peak(samples):
            tracemalloc.start()
            try:
                report = check_axioms(wrong, samples, 1)
                return tracemalloc.get_traced_memory()[1], report.counts["b3"]
            finally:
                tracemalloc.stop()

        check_axioms(wrong, 1000, 1)  # so that one-time allocations fall outside both peaks
        small, large = peak(20_000), peak(200_000)
        assert large[1] > 60_000
        assert large[0] <= 1.5 * small[0]


@pytest.mark.parametrize("grid_points, chunks", [(None, 2.25), (3, 3.05)],
                         ids=["random", "random-grid"])  # 3^16 windows exceed the grid budget
def test_sampler_peak_in_chunks(grid_points, chunks):
    # the caller's loop variable holds one chunk while the next is made; the
    # random path draws the next in blocks into its buffer, and the grid path
    # drops its index array before the yield
    space = euclidean(Box(np.zeros(4), np.ones(4)))
    chunk_bytes = CHUNK * 4 * 4 * 8  # width 4 and m = 4 in float64: 1 MiB
    list(_sample_windows(space, 4, 10, 0, grid_points))  # one-time allocations
    tracemalloc.start()
    try:
        for _ in _sample_windows(space, 4, 250_000, 0, grid_points):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunks * chunk_bytes


def test_max_ratio_skips_empty_and_degenerate_chunks():
    empty = (np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    degenerate = (np.ones((2, 2)), np.ones(2), np.zeros(2))
    assert max_ratio([empty, degenerate]) == (-np.inf, None)
    ratio, (item, num, den) = max_ratio([empty, (np.eye(2), np.array([1.0, 3.0]),
                                                 np.array([2.0, 2.0])), empty])
    assert (ratio, num, den) == (1.5, 3.0, 2.0) and item.tolist() == [0.0, 1.0]

class TestErrorsNameTheGlobalTriple:
    """A custom metric that fails names the triple by its sample index,
    not by its index in the chunk it was drawn in."""

    SAMPLES = 3 * CHUNK + 7
    SEED = 7  # the first bad triple of each check falls after the first chunk, alone there
    SPACE = custom("abs(u1-v1) + 0*sqrt(u1 - v1 + 1.99)", Box([0.0], [2.0]), b=2.0)

    def _first_bad(self, seed, pairs):
        """The first triple with a pair (u, v) where the metric is undefined;
        `pairs` picks the metric's (u, v) pairs from the triple's columns."""
        cols = np.random.default_rng(seed).uniform(0.0, 2.0, size=(self.SAMPLES, 3)).T
        bad = np.flatnonzero(np.any([cols[i] - cols[j] < -1.99 for i, j in pairs], axis=0))
        in_chunk = bad[bad // CHUNK == bad[0] // CHUNK]
        assert bad[0] >= CHUNK and len(in_chunk) == 1
        return bad[0]

    def test_estimate_b(self):
        row = self._first_bad(self.SEED, [(0, 2), (0, 1), (1, 2)])  # (x, z, y)
        with pytest.raises(NumericEvalError, match=rf"sqrt of a negative value \(row {row}\)"):
            estimate_b(self.SPACE, self.SAMPLES, self.SEED)

    def test_check_axioms(self):
        row = self._first_bad(self.SEED + 1, [(0, 1), (1, 0), (0, 2), (2, 1)])  # (x, y, z)
        with pytest.raises(NumericEvalError, match=rf"sqrt of a negative value \(row {row}\)"):
            check_axioms(self.SPACE, self.SAMPLES, self.SEED)


class TestNonFiniteDistances:
    """A distance that overflows between finite points is a NumericEvalError
    naming its row, for every metric kind: no check may rest on an inf."""

    BIG = Box(np.zeros(2), np.full(2, 1e200))

    @pytest.mark.parametrize("space", [
        euclidean(BIG), squared_euclidean(BIG), power(3.0, BIG),
        lp_truncated(0.5, Box(np.zeros(2), np.full(2, 1e308)))], ids=lambda s: s.kind)
    def test_names_the_first_overflowing_row(self, space):
        hi = space.domain.hi
        xs = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], hi])
        ys = np.array([[0.0, 0.0], [1.0, 2.0], hi, [0.0, 0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(NumericEvalError,
                               match=rf"non-finite result in {space.kind} distance \(row 2\)"):
                space.distance_batch(xs, ys)
            with pytest.raises(NumericEvalError, match=r"\(row 0\)"):
                space.distance(xs[3], ys[3])

    def test_sampled_checks_raise_instead_of_reading_nan(self):
        huge = squared_euclidean(Box([0.0], [1e200]))
        with np.errstate(over="ignore"):
            for check in (lambda: estimate_b(huge, 1000, 1),
                          lambda: check_axioms(huge, 1000, 1),
                          lambda: verify(averaging(2), huge, ciric_max(0.3), 1000, 1)):
                with pytest.raises(NumericEvalError, match=r"squared_euclidean distance \(row 0\)"):
                    check()


@pytest.mark.parametrize("call, message", [
    (lambda: as_point(np.zeros((2, 2))), "a point must be a 1-d vector, got shape (2, 2)"),
    (lambda: Box(np.zeros(2), np.ones(3)), "box lo/hi must be 1-d vectors of equal length"),
    (lambda: BMetricSpace("chebyshev", Box(np.zeros(1), np.ones(1)), 1.0),
     "unknown metric kind 'chebyshev'"),
    (lambda: euclidean(Box(np.zeros(2), np.ones(2))).distance_batch(np.zeros((3, 1)),
                                                                  np.zeros((3, 1))),
     "dimension mismatch in distance"),
], ids=["point-not-1d", "box-shapes-differ", "unknown-kind", "batch-dimension"])
def test_input_checks(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message
