import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from presic_lab import (
    Box,
    NumericEvalError,
    UsageError,
    custom,
    from_dsl,
    verify,
    weak_phi,
)
from presic_lab.contraction import dsl_phi
from presic_lab.dsl import (
    DslSyntaxError,
    evaluate,
    metric_variables,
    operator_variables,
    parse,
)
from presic_lab.errors import _fail, require_finite
from presic_lab.operators import KERNELS


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

    # (source, message) as the character-by-character tokenizer raised them
    @pytest.mark.parametrize("source, message", [
        ("x1 +\n  $", "unexpected character '$' (line 2, column 3)"),
        ("x1\t+\t@", "unexpected character '@' (line 1, column 6)"),
        ("x1 +\f#", "unexpected character '#' (line 1, column 6)"),
        ("x1 +\r\n x2 )", "trailing input ')' (line 2, column 5)"),
        ("x1\n\n  * (x2 ,", "expected ')' (line 3, column 9)"),
        ("x1 \u00a0 $", "unexpected character '$' (line 1, column 6)"),
        ("\u00e9 + x1", "unknown identifier '\u00e9' (line 1, column 1)"),
        ("x\u0661", "unknown identifier 'x\u0661' (line 1, column 1)"),
        ("x1 + \u00b2", "unexpected character '\u00b2' (line 1, column 6)"),
        ("x1 + \u00b2x1", "unexpected character '\u00b2' (line 1, column 6)"),
        ("x1 +\n  ", "unexpected end of input (line 2, column 3)"),
        ("(x1 + 1", "expected ')' (line 1, column 8)"),
        ("x1 + 1 x2", "trailing input 'x2' (line 1, column 8)"),
        ("x1 1.5e3", "trailing input '1.5e3' (line 1, column 4)"),
        ("1.5e", "trailing input 'e' (line 1, column 4)"),
        ("x1 ^ ^ 2", "unexpected token '^' (line 1, column 6)"),
        ("3 + ,", "unexpected token ',' (line 1, column 5)"),
        ("\tmin(x1)", "min takes at least 2 arguments (line 1, column 2)"),
        ("abs", "function 'abs' requires arguments (line 1, column 4)"),
        ("abs(x1, x2)", "abs takes 1 argument(s), got 2 (line 1, column 1)"),
        ("x1 ) $", "unexpected character '$' (line 1, column 6)"),  # before the parse
    ])
    def test_syntax_errors_are_pinned(self, source, message):
        with pytest.raises(DslSyntaxError) as exc:
            parse(source, ["x1", "x2"])
        assert str(exc.value) == message
        assert message.endswith(f"(line {exc.value.line}, column {exc.value.column})")

    def test_unicode_identifier_and_digits(self):
        assert ev("\u03bb1 * x1 + \u0661", ["\u03bb1", "x1"], **{"\u03bb1": 2.0, "x1": 3.0}) == 7.0

    def test_no_nan_propagation(self):
        # structured error, not a silent NaN
        with pytest.raises(NumericEvalError):
            ev("(-1)^0.5", [])


class TestPrecedence:
    def test_product_binds_tighter_than_sum(self):
        assert ev("x1+x2*x3", operator_variables(3), x1=1.0, x2=2.0, x3=3.0) == 7.0

    def test_unary_minus_applies_after_the_power(self):
        assert ev("-x1^2", ["x1"], x1=3.0) == -9.0

    def test_sum_and_product_are_left_associative(self):
        assert ev("x1-x2-x3", operator_variables(3), x1=1.0, x2=2.0, x3=3.0) == -4.0
        assert ev("x1/x2/x3", operator_variables(3), x1=12.0, x2=2.0, x3=3.0) == 2.0


# --- the closures against a walk over the tree ---------------------------------

# A tree is ("num", value), ("var", name), ("neg", operand),
# ("bin", op, left, right) or ("call", func, args); the oracle walks it, and
# the parser reads it back from its fully parenthesised source.

def _num(value):
    return ("num", value)


def _var(name):
    return ("var", name)


def _bin(op, left, right):
    return ("bin", op, left, right)


def _call(func, *args):
    return ("call", func, args)


def _render(tree):
    """Fully parenthesised source of `tree`; inf is written 1e999."""
    kind = tree[0]
    if kind == "num":
        return "1e999" if tree[1] == np.inf else repr(tree[1])
    if kind == "var":
        return tree[1]
    if kind == "neg":
        return f"(-{_render(tree[1])})"
    if kind == "bin":
        return f"({_render(tree[2])}{tree[1]}{_render(tree[3])})"
    return f"{tree[1]}({', '.join(_render(a) for a in tree[2])})"


def _reference_evaluate(tree, env):
    """The tree walker that evaluated every node on every call, kept as the oracle."""
    kind = tree[0]
    if kind == "num":
        return tree[1]
    if kind == "var":
        try:
            return env[tree[1]]
        except KeyError:
            raise UsageError(f"variable {tree[1]!r} missing from environment") from None
    if kind == "neg":
        return -_reference_evaluate(tree[1], env)
    if kind == "bin":
        op = tree[1]
        left = _reference_evaluate(tree[2], env)
        right = _reference_evaluate(tree[3], env)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            zero = right == 0
            if np.any(zero):
                _fail("division by zero", zero)
            return left / right
        if op == "^":
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                out = np.power(np.asarray(left, dtype=float), np.asarray(right, dtype=float))
            require_finite(out, "power")
            return float(out) if out.ndim == 0 else out
        raise AssertionError(op)
    func = tree[1]
    args = [_reference_evaluate(a, env) for a in tree[2]]
    if func == "abs":
        return np.abs(args[0])
    if func == "sqrt":
        negative = np.asarray(args[0]) < 0
        if np.any(negative):
            _fail("sqrt of a negative value", negative)
        return np.sqrt(args[0])
    if func == "exp":
        with np.errstate(over="ignore"):
            return require_finite(np.exp(args[0]), "exp")
    if func == "log":
        nonpositive = np.asarray(args[0]) <= 0
        if np.any(nonpositive):
            _fail("log of a non-positive value", nonpositive)
        return np.log(args[0])
    out = args[0]
    for a in args[1:]:
        out = (np.minimum if func == "min" else np.maximum)(out, a)
    return out


NAMES = ["x1", "x2", "x3"]
# 0 exercises the division test on a literal; 1e200 and 1e999 (inf) overflow
_literals = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-300, 1e200, 1e999]).map(_num)
_leaves = st.one_of(_literals, st.sampled_from(NAMES).map(_var))


def _extend(children):
    return st.one_of(
        children.map(lambda a: ("neg", a)),
        st.builds(_bin, st.sampled_from("+-*/^"), children, children),
        st.builds(_call, st.sampled_from(["abs", "sqrt", "exp", "log"]), children),
        st.builds(lambda f, args: _call(f, *args), st.sampled_from(["min", "max"]),
                  st.lists(children, min_size=2, max_size=4)))


TREES = st.recursive(_leaves, _extend, max_leaves=12)
_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e200, -1e-300]),
                    st.floats(-10.0, 10.0))
X1, X2, X3 = map(_var, NAMES)
# where both operands, or two arguments, fail or tie, only the order tells
ORDERED = [(_bin("+", _call("log", X1), _call("sqrt", X2)), {"x1": 0.0, "x2": -1.0}),
           (_bin("/", X1, _bin("^", X2, _call("log", X1))), {"x1": 0.0, "x2": 0.0}),
           (_bin("*", _call("sqrt", X1), X3), {"x1": np.array([1.0, -1.0]), "x2": 0.0}),
           (_bin("-", X3, _call("sqrt", X1)), {"x1": -1.0}),
           (_call("max", X1, _call("sqrt", X2), _call("log", X3)),
            {"x1": 0.0, "x2": -1.0, "x3": 0.0}),
           (_bin("+", _call("min", X1, X2, X3), _call("max", X2, X1)),
            {"x1": np.array([0.0, -0.0]), "x2": np.array([-0.0, 0.0]), "x3": 0.0})]


@st.composite
def environments(draw):
    """Each name present or not, bound to a float or to a 1-row or N-row array."""
    rows = draw(st.sampled_from([None, 1, 4]))
    env = {}
    for name in NAMES:
        if draw(st.integers(0, 4)) == 0:
            continue  # a missing variable is an error once its node runs
        if rows is None:
            env[name] = draw(_values)
        else:
            env[name] = np.array(draw(st.lists(_values, min_size=rows, max_size=rows)))
    return env


def _outcome(run, expr, env):
    try:
        with np.errstate(all="ignore"):
            value = run(expr, env)
    except (NumericEvalError, UsageError) as err:
        return type(err), str(err), getattr(err, "row", None)
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, arr.tobytes()


class TestClosuresMatchTheWalker:
    @given(TREES, environments())
    @settings(max_examples=300)
    def test_values_and_errors_are_identical(self, tree, env):
        expr = parse(_render(tree), NAMES)
        assert _outcome(evaluate, expr, env) == _outcome(_reference_evaluate, tree, env)

    @given(TREES, st.lists(environments(), min_size=2, max_size=3))
    def test_a_reused_closure_matches_on_every_environment(self, tree, envs):
        expr = parse(_render(tree), NAMES)
        for env in envs:
            assert _outcome(evaluate, expr, env) == _outcome(_reference_evaluate, tree, env)

    @pytest.mark.parametrize("tree, env", ORDERED)
    def test_operands_run_left_to_right(self, tree, env):
        expr = parse(_render(tree), NAMES)
        assert _outcome(evaluate, expr, env) == _outcome(_reference_evaluate, tree, env)

    def test_literal_zero_divisor_still_raises_after_the_left_operand(self):
        with pytest.raises(NumericEvalError, match="sqrt"):
            ev("sqrt(x1)/0", ["x1"], x1=-1.0)
        with pytest.raises(NumericEvalError, match="division by zero"):
            ev("x1/0", ["x1"], x1=1.0)

    def test_an_evaluated_expression_pickles(self):
        expr = parse("min(x1, 2, 3)/2 - x1^2", ["x1"])
        before = evaluate(expr, {"x1": 1.5})
        again = pickle.loads(pickle.dumps(expr))
        assert again == expr and evaluate(again, {"x1": 1.5}) == before

    def test_expressions_are_equal_by_source_and_variables(self):
        assert parse("x1+x2", ["x1", "x2"]) == parse("x1+x2", ["x1", "x2"])
        assert hash(parse("x1+x2", ["x1", "x2"])) == hash(parse("x1+x2", ["x1", "x2"]))
        assert parse("x1+x2", ["x1", "x2"]) != parse("x1 + x2", ["x1", "x2"])
        assert parse("x1", ["x1"]) != parse("x1", ["x1", "x2"])


def test_dsl_objects_pickle_to_equal_objects_with_identical_outputs():
    op = from_dsl("min(x1, x2)/2 + x1*x2/8", k=2)
    space = custom("abs(u1 - v1)^2", Box([0.0], [1.0]), b=2.0)
    cond = weak_phi(dsl_phi("t*t/8"))
    again = pickle.loads(pickle.dumps((op, space, cond)))
    assert again == (op, space, cond)
    w = np.random.default_rng(3).uniform(0.0, 1.0, size=(7, 2, 1))
    t = np.linspace(0.0, 2.0, 9)
    assert again[0].apply_batch(w).tobytes() == op.apply_batch(w).tobytes()
    assert again[1].distance_batch(w[:, 0], w[:, 1]).tobytes() == \
        space.distance_batch(w[:, 0], w[:, 1]).tobytes()
    assert again[2].phi(t).tobytes() == cond.phi(t).tobytes()
    assert verify(*again, 500, 5).to_dict() == verify(op, space, cond, 500, 5).to_dict()


def _reference_dsl(trees, k, w):
    """operators._dsl as it was: one dict of f-string names, broadcast and stack."""
    cols = []
    for j, tree in enumerate(trees):
        env = {f"x{i + 1}": w[:, i, j] for i in range(k)}
        col = np.asarray(_reference_evaluate(tree, env), dtype=float)
        cols.append(np.broadcast_to(col, (len(w),)))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("trees, k", [
    ([_num(0.5)], 1),
    ([_num(0.5), _bin("-", X1, _bin("/", X2, _num(3.0)))], 2),
    ([_call("min", X1, X2, X3), _bin("^", _call("max", X1, _num(0.25), X3), _num(2.0))], 3),
    ([_num(2.0)], 4)])
@pytest.mark.parametrize("rows", [1, 5])
def test_dsl_kernel_fills_a_writable_float_array_as_before(trees, k, rows):
    op = from_dsl([_render(tree) for tree in trees], k)
    w = np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, k, len(trees)))
    got = KERNELS["dsl"](op, w)
    want = _reference_dsl(trees, k, w)
    assert got.dtype == np.float64 and got.shape == (rows, len(trees)) and got.flags.writeable
    assert got.tobytes() == want.tobytes()


def test_non_decimal_digit_is_a_syntax_error():
    with pytest.raises(DslSyntaxError) as exc:
        parse("x1 + ²", ["x1"])
    assert exc.value.column == 6
