"""errors.as_int and errors.as_real, the rules for integer and real inputs,
at every site that reads one."""

import json

import numpy as np
import pytest

from presic_lab import (
    BMetricSpace,
    Box,
    PhiFunction,
    StopRule,
    UsageError,
    averaging,
    banach,
    cauchy_profile,
    check_axioms,
    ciric_max,
    custom,
    estimate_b,
    estimate_constant,
    euclidean,
    from_dsl,
    iterate,
    kannan,
    lambda_max,
    lp_truncated,
    power,
    presic_sum,
    verify,
)
from presic_lab import problem
from presic_lab.errors import as_int, as_real

SPACE = euclidean(Box(np.zeros(1), np.full(1, 2.0)))
TRACE = iterate(averaging(1), SPACE, [2.0], StopRule(max_iterations=12))
# 2000^3 triples are over estimate_b's budget, so its windows are drawn from the grid
BIG_GRID = 2000

# site -> (call(value), what the message names, least): each call reads
# `value` through as_int; a seed site runs on random draws or a full grid
SITES = {
    "operator-arity": (lambda v: averaging(v).arity, "operator arity", 1),
    "from-dsl-arity": (lambda v: from_dsl("x1", v).arity, "operator arity", 1),
    "operator-dimension": (lambda v: averaging(1, v).dimension, "operator dimension", None),
    "condition-k": (lambda v: ciric_max(0.5).validate(k=v), "k", 1),
    "operator-block-k": (lambda v: problem._load_operator({"kind": "averaging", "k": v}, 1).arity,
                         "operator block field 'k'", None),
    "solve-block-seed": (lambda v: problem._load_solve({"seed": v}, averaging(1))["seed"],
                         "solve block field 'seed'", None),
    "max-iterations": (lambda v: StopRule(max_iterations=v).max_iterations, "max_iterations",
                       None),
    "verify-seed": (lambda v: verify(averaging(1), SPACE, ciric_max(0.6), 50, v).to_dict(),
                    "seed", 0),
    "verify-grid-seed": (lambda v: verify(averaging(1), SPACE, banach(0.6), 0, v,
                                          grid_points=5).to_dict(), "seed", 0),
    "estimate-constant-seed": (lambda v: estimate_constant(averaging(1), SPACE, "ciric_max", 50,
                                                           v)["constant_hat"], "seed", 0),
    "estimate-constant-grid-seed": (lambda v: estimate_constant(averaging(1), SPACE, "banach", 0,
                                                                v, grid_points=5)["constant_hat"],
                                    "seed", 0),
    "estimate-b-seed": (lambda v: estimate_b(SPACE, 50, v)["b_hat"], "seed", 0),
    "estimate-b-grid-seed": (lambda v: estimate_b(SPACE, 0, v, grid_points=5)["b_hat"], "seed", 0),
    "check-axioms-seed": (lambda v: check_axioms(SPACE, 50, v), "seed", 0),
    "check-axioms-grid-seed": (lambda v: check_axioms(SPACE, 0, v, grid_points=5), "seed", 0),
    "samples": (lambda v: verify(averaging(1), SPACE, ciric_max(0.6), v, 0).to_dict(), "samples",
                None),
    "grid-samples": (lambda v: estimate_b(SPACE, v, 0, grid_points=BIG_GRID)["b_hat"], "samples",
                     None),
    "grid-points": (lambda v: verify(averaging(1), SPACE, ciric_max(0.6), 0, 0,
                                     grid_points=v).to_dict(), "grid_points", None),
    "profile-window": (lambda v: cauchy_profile(TRACE, SPACE, v).tolist(), "P", None),
}


def _rejected(site):
    """The values `site` must reject: never an integer, and one below its least."""
    least = SITES[site][2]
    return [2.5, 1.5, True, "3"] + ([] if least is None else [least - 1])


@pytest.mark.parametrize("site, value", [(site, value) for site in SITES
                                         for value in _rejected(site)])
def test_a_site_rejects_a_value_that_is_no_integer_in_range(site, value):
    call, what, least = SITES[site]
    with pytest.raises(UsageError) as info:
        call(value)
    bound = "" if least is None else f" >= {least}"
    assert str(info.value) == f"{what} must be an integer{bound}, got {value!r}"


@pytest.mark.parametrize("value", [2.0, np.int64(2), np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_site_reads_an_integral_value_as_that_int(site, value):
    call = SITES[site][0]
    assert call(value) == call(2)


def test_a_seed_the_certificate_records_is_an_int():
    cert = verify(averaging(1), SPACE, ciric_max(0.6), 50, np.int64(3))
    assert type(cert.seed) is int
    assert json.loads(json.dumps(cert.to_dict()))["seed"] == 3
    assert cert.to_dict() == verify(averaging(1), SPACE, ciric_max(0.6), 50, 3).to_dict()


def test_a_seed_of_none_still_draws_fresh_windows():
    assert verify(averaging(1), SPACE, ciric_max(0.6), 50, None).seed is None


@pytest.mark.parametrize("value, expected", [(3, 3), (np.int64(3), 3), (3.0, 3),
                                             (np.float64(-4.0), -4)], ids=repr)
def test_as_int_returns_a_python_int(value, expected):
    got = as_int(value, "n")
    assert type(got) is int and got == expected


@pytest.mark.parametrize("value", [np.bool_(True), False, float("nan"), float("inf"), None,
                                   [2], np.array([2])], ids=repr)
def test_as_int_rejects_what_is_no_integer(value):
    with pytest.raises(UsageError, match=r"^n must be an integer, got "):
        as_int(value, "n")


def test_as_int_takes_least_itself_and_names_it():
    assert as_int(0, "n", 0) == 0
    with pytest.raises(UsageError) as info:
        as_int(-1.0, "n", 0)
    assert str(info.value) == "n must be an integer >= 0, got -1.0"


# site -> (call(value), what the message names, a value in range): each call
# reads `value` through as_real before its range check
REAL_SITES = {
    "linear-gauge-c": (lambda v: PhiFunction("linear", c=v), "linear gauge c", 0.5),
    "power-p": (lambda v: power(v, SPACE.domain), "power p", 3),
    "lp-truncated-p": (lambda v: lp_truncated(v, SPACE.domain), "lp_truncated p", 0.5),
    "space-b": (lambda v: BMetricSpace("euclidean", SPACE.domain, v), "relaxation constant b", 2),
    "custom-b": (lambda v: custom("abs(u1 - v1)", SPACE.domain, v), "relaxation constant b", 2),
    "kannan-a": (kannan, "kannan a", 0.25),
    "ciric-max-kappa": (ciric_max, "ciric_max kappa", 0.5),
    "lambda-max-lambda": (lambda_max, "lambda_max lambda", 0.5),
    "banach-eta": (banach, "banach eta", 0.5),
    "presic-sum-r": (lambda v: presic_sum([v]), "presic_sum r_j", 0.5),
    "residual-tol": (lambda v: StopRule(residual_tol=v), "residual_tol", 0.5),
    "step-tol": (lambda v: StopRule(step_tol=v), "step_tol", 0.5),
}


@pytest.mark.parametrize("value", ["3", "x", None, True, np.bool_(False), [0.5]], ids=repr)
@pytest.mark.parametrize("site", REAL_SITES)
def test_a_site_rejects_a_value_that_is_no_real_number(site, value):
    call, what, _ = REAL_SITES[site]
    with pytest.raises(UsageError) as info:
        call(value)
    assert str(info.value) == f"{what} must be a real number, got {value!r}"


def test_a_missing_linear_gauge_constant_is_a_usage_error():
    with pytest.raises(UsageError, match=r"^linear gauge c must be a real number, got None$"):
        PhiFunction("linear")


@pytest.mark.parametrize("site", REAL_SITES)
def test_a_site_reads_a_real_number_of_any_type_alike(site):
    call, _, value = REAL_SITES[site]
    casts = [np.float64, np.float32] + ([int, np.int64] if value == int(value) else [])
    for cast in casts:
        assert call(cast(value)) == call(float(value))


@pytest.mark.parametrize("call, message", [
    (lambda: PhiFunction("linear", c=1.0), "linear gauge needs 0 < c < 1"),
    (lambda: power(1, SPACE.domain), "power construction requires a finite p > 1"),
    (lambda: lp_truncated(1.0, SPACE.domain), "lp_truncated requires 0 < p < 1"),
    (lambda: BMetricSpace("euclidean", SPACE.domain, 0.5),
     "relaxation constant b must be a finite number >= 1"),
    (lambda: kannan(-1).validate(), "kannan needs a >= 0")])
def test_a_real_out_of_range_keeps_its_message(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [np.nan, -np.inf, 0.25, np.float32(0.5)], ids=repr)
def test_as_real_returns_a_python_float(value):
    got = as_real(value, "x")
    assert type(got) is float and (got == value or np.isnan(value))
