import itertools

import numpy as np
import pytest

from presic_lab import (
    NumericEvalError,
    UsageError,
    affine,
    averaging,
    constant,
    from_dsl,
    residual,
)
from presic_lab.bmetric import CHUNK


class TestApply:
    def test_averaging_k2(self):
        op = averaging(2)
        assert op.apply([[1.0], [3.0]]) == np.array([1.0])

    def test_constant_ignores_window(self):
        op = constant([0.7], k=3)
        np.testing.assert_array_equal(op.apply([[0.0], [1.0], [2.0]]), [0.7])

    def test_affine_offset_only(self):
        op = affine([0.25, 0.25], offset=1.0)
        assert op.apply([[0.0], [0.0]]) == np.array([1.0])

    def test_wrong_window_length(self):
        with pytest.raises(UsageError):
            averaging(2).apply([[1.0]])

    def test_nonfinite_output_names_coordinate(self):
        op = from_dsl(["1/x1"], k=1)
        with pytest.raises(NumericEvalError):
            op.apply([[0.0]])

    def test_batch_matches_scalar(self):
        op = affine([0.3, 0.2], offset=0.5)
        rng = np.random.default_rng(4)
        windows = rng.uniform(-1, 1, size=(40, 2, 1))
        batch = op.apply_batch(windows)
        for i in range(40):
            np.testing.assert_array_equal(batch[i], op.apply(windows[i]))

    def test_vector_valued_coordinatewise(self):
        op = averaging(2, dimension=3)
        out = op.apply([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        np.testing.assert_array_equal(out, [1.0, 1.0, 1.0])

    def test_constant_is_its_value_on_every_window(self):
        # constant is affine with zero weights, under its own kind
        op = constant([0.7, -1e300], k=3)
        windows = np.random.default_rng(5).uniform(-1e300, 1e300, size=(CHUNK + 1, 3, 2))
        assert op.kind == "constant"
        np.testing.assert_array_equal(op.apply_batch(windows),
                                      np.tile([0.7, -1e300], (CHUNK + 1, 1)))


class TestDiagonal:
    def test_averaging_k3(self):
        # F(x) = 3x/6 = x/2
        assert averaging(3).diagonal_apply([2.0]) == np.array([1.0])

    def test_constant(self):
        np.testing.assert_array_equal(constant([0.3], k=2).diagonal_apply([1.0]), [0.3])

    def test_dsl_halving(self):
        op = from_dsl(["(x1+x2)/4"], k=2)
        assert op.diagonal_apply([2.0]) == np.array([1.0])

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("kind", ["averaging", "affine", "constant", "dsl"])
    def test_bit_for_bit_equal_to_repeated_window(self, kind, m):
        op = {"averaging": averaging(3, m),
              "affine": affine([0.1, 0.2, 0.3], 0.4, m),
              "constant": constant(np.linspace(0.3, 0.7, m), k=3),
              "dsl": from_dsl(["(x1+x2+x3)/6", "x1*x2 - x3/7"][:m], k=3)}[kind]
        xs = np.random.default_rng(11).uniform(-2, 2, size=(100, m))
        repeated = np.array([op.apply(np.tile(x, (3, 1))) for x in xs])
        np.testing.assert_array_equal(op.diagonal.apply_batch(xs[:, None]), repeated)
        np.testing.assert_array_equal(op.diagonal_batch(xs), repeated)
        np.testing.assert_array_equal([op.diagonal_apply(x) for x in xs], repeated)
        assert op.diagonal.arity == 1 and op.diagonal.base is op
        assert op.diagonal is op.diagonal


class TestResidual:
    def test_averaging_fixed_point_zero(self, sq_space):
        assert residual(averaging(2), sq_space, [0.0]) == 0.0

    def test_averaging_k1_off_fixed_point(self, sq_space):
        # F(x) = x/2, so d(2, 1) = 1
        assert residual(averaging(1), sq_space, [2.0]) == 1.0

    def test_constant_at_its_value(self, sq_space):
        assert residual(constant([0.8], k=2), sq_space, [0.8]) == 0.0

    def test_affine_closed_form_fixed_point(self, eu_space):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(-0.3, 0.3, size=2)
            c = rng.uniform(-0.5, 0.5)
            if abs(a).sum() >= 0.95:
                continue
            op = affine(a, c)
            u_star = c / (1.0 - a.sum())
            assert residual(op, eu_space, [u_star]) <= 1e-12 * (1 + abs(c))


class TestPermutationInvariance:
    def test_averaging_window_permutations(self):
        op = averaging(3)
        window = np.array([[0.3], [1.1], [1.9]])
        base = op.apply(window)
        for perm in itertools.permutations(range(3)):
            np.testing.assert_allclose(op.apply(window[list(perm)]), base, rtol=1e-15)


class TestArity:
    @pytest.mark.parametrize("k", [1.5, 0, -1, 0.0, True, "2", float("nan"), float("inf")])
    def test_arity_must_be_an_integer_at_least_one(self, k):
        # averaging(1.5) used to construct, and every later call failed on its shape
        with pytest.raises(UsageError, match="operator arity must be an integer >= 1"):
            averaging(k)

    def test_integral_float_arity_is_an_int(self):
        op = averaging(2.0)
        assert op.arity == 2 and type(op.arity) is int
        np.testing.assert_array_equal(op.apply([[1.0], [3.0]]), [1.0])
