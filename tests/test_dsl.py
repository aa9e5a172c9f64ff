import numpy as np
import pytest

from presic_lab import NumericEvalError, UsageError
from presic_lab.dsl import (
    DslSyntaxError,
    evaluate,
    format_expr,
    metric_variables,
    operator_variables,
    parse,
)


def ev(source, variables, **env):
    return evaluate(parse(source, variables), env)


class TestParseEval:
    def test_averaging_expression(self):
        assert ev("(x1 + x2)/4", ["x1", "x2"], x1=1.0, x2=3.0) == 1.0

    def test_abs_power(self):
        assert ev("abs(x1 - x2)^2", ["x1", "x2"], x1=0.0, x2=2.0) == 4.0

    def test_literal(self):
        assert ev("3.5", []) == 3.5

    def test_min_clamps(self):
        assert ev("min(x1, 2)", ["x1"], x1=5.0) == 2.0

    def test_three_slot_average(self):
        assert ev("(x1+x2+x3)/6", operator_variables(3), x1=1.0, x2=2.0, x3=3.0) == 1.0

    def test_power_right_associative(self):
        assert ev("2^3^2", []) == 2.0 ** 9

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2", []) == -4.0

    def test_scientific_notation(self):
        assert ev("1.5e-3", []) == 1.5e-3

    def test_metric_variables(self):
        names = metric_variables(2)
        assert names == ["u1", "u2", "v1", "v2"]
        assert ev("abs(u1-v1) + abs(u2-v2)", names, u1=1.0, u2=0.0, v1=0.0, v2=2.0) == 3.0

    def test_vectorized_env(self):
        expr = parse("(x1 + x2)/4", ["x1", "x2"])
        out = evaluate(expr, {"x1": np.array([1.0, 2.0]), "x2": np.array([3.0, 2.0])})
        np.testing.assert_array_equal(out, [1.0, 1.0])


class TestErrors:
    def test_dangling_operator(self):
        with pytest.raises(DslSyntaxError):
            parse("x1 +", ["x1"])

    def test_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("x1 + $", ["x1"])
        assert exc.value.line == 1
        assert exc.value.column == 6

    def test_unknown_identifier(self):
        with pytest.raises(DslSyntaxError):
            parse("x3", ["x1", "x2"])

    def test_empty_source(self):
        with pytest.raises(UsageError):
            parse("   ", ["x1"])

    def test_unbalanced_paren(self):
        with pytest.raises(DslSyntaxError):
            parse("(x1 + 1", ["x1"])

    def test_division_by_zero(self):
        with pytest.raises(NumericEvalError):
            ev("1/x1", ["x1"], x1=0.0)

    def test_log_nonpositive(self):
        with pytest.raises(NumericEvalError):
            ev("log(x1)", ["x1"], x1=0.0)

    def test_sqrt_negative(self):
        with pytest.raises(NumericEvalError):
            ev("sqrt(x1)", ["x1"], x1=-1.0)

    @pytest.mark.parametrize("source, bad", [
        ("1/x1", [1.0, 2.0, 0.0, 0.0]),
        ("log(x1)", [1.0, 2.0, -1.0, 0.0]),
        ("sqrt(x1)", [1.0, 2.0, -1.0, -2.0]),
        ("exp(x1)", [1.0, 2.0, 1e4, 1e4]),
    ])
    def test_batch_errors_name_the_first_bad_row(self, source, bad):
        with pytest.raises(NumericEvalError, match=r"\(row 2\)$"):
            evaluate(parse(source, ["x1"]), {"x1": np.array(bad)})
        # rows are the first axis of a 2-d batch
        with pytest.raises(NumericEvalError, match=r"\(row 1\)$"):
            evaluate(parse(source, ["x1"]), {"x1": np.array(bad).reshape(2, 2)})

    def test_no_nan_propagation(self):
        # structured error, not a silent NaN
        with pytest.raises(NumericEvalError):
            ev("(-1)^0.5", [])


class TestFormat:
    def test_precedence_rendering(self):
        assert format_expr(parse("x1+x2*x3", operator_variables(3))) == "(x1 + (x2 * x3))"

    def test_unary_minus_vs_power(self):
        assert format_expr(parse("-x1^2", ["x1"])) == "-(x1^2)"

    def test_roundtrip_is_fixpoint(self):
        sources = ["(x1 + x2)/4", "-x1^2", "min(x1, max(x2, 0.5))",
                   "abs(x1 - x2)^2 + sqrt(x2)", "x1*x2 - x2/x1 + 1.5e2"]
        for src in sources:
            e1 = parse(src, ["x1", "x2"])
            e2 = parse(format_expr(e1), ["x1", "x2"])
            assert format_expr(e2) == format_expr(e1)

    def test_roundtrip_evaluates_identically(self):
        # exact double equality on 1000 random environments
        rng = np.random.default_rng(42)
        sources = ["(x1 + x2)/4", "-x1^2 + x2^3", "min(x1, max(x2, 0.5)) * exp(-x1)",
                   "abs(x1 - x2)^2 + sqrt(abs(x2))"]
        for src in sources:
            e1 = parse(src, ["x1", "x2"])
            e2 = parse(format_expr(e1), ["x1", "x2"])
            for _ in range(1000):
                env = {"x1": rng.uniform(0.1, 3), "x2": rng.uniform(0.1, 3)}
                assert evaluate(e1, env) == evaluate(e2, env)

    def test_eval_matches_hand_coded_averaging(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 5):
            src = "(" + "+".join(f"x{i}" for i in range(1, k + 1)) + f")/{2 * k}"
            expr = parse(src, operator_variables(k))
            for _ in range(200):
                xs = rng.uniform(0, 2, size=k)
                env = {f"x{i + 1}": xs[i] for i in range(k)}
                acc = xs[0]  # same left-to-right fold as the expression
                for v in xs[1:]:
                    acc = acc + v
                assert evaluate(expr, env) == acc / (2 * k)
