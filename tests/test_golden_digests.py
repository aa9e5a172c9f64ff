"""The library's results, by sha256 digest, against tests/golden/digests.json.

The golden file holds one digest per named result: `verify` for every
condition kind x metric kind x operator kind, on random samples and on a
small grid; `estimate_constant` for its three kinds; `estimate_b` and
`check_axioms` for each metric; `iterate`, `picard` and `iterate_many`
traces for each operator x metric; `presic_bounds` at several (eta, k);
`kannan_report`; and `iterate` and `iterate_many` runs that meet an
overflow, an invalid value or an underflow mid-run, under numpy's error
modes "warn", "raise" and "call", each with the warnings or callback calls
numpy gave, in order. A call that raises a PresicLabError, or a
FloatingPointError under "raise", is recorded by its exception type and
message. A few results are also kept whole, under "payloads", so that a
mismatch there reads as a diff. The header names the numpy version and the
platform that wrote the file. Run this file as a script to rewrite it from
the package on the import path:

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from presic_lab import PresicLabError, bmetric, contraction, dsl, operators, solver

from test_golden_cli import _header

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
# the results kept whole beside their digests
PAYLOADS = ("verify/presic_sum/power/affine/random", "verify/weak_phi/squared_euclidean/dsl/grid",
            "check_axioms/lp_truncated/random", "iterate/affine/custom_dsl",
            "presic_bounds/eta=0.75/k=2", "kannan_report/affine/a=0.2",
            "iterate/errstate=warn/invalid")

BOX = bmetric.Box(np.array([-1.0, 0.0]), np.array([2.0, 1.5]))
METRICS = {"euclidean": bmetric.euclidean(BOX),
           "squared_euclidean": bmetric.squared_euclidean(BOX),
           "power": bmetric.power(3.0, BOX),
           "lp_truncated": bmetric.lp_truncated(0.5, BOX),
           "custom_dsl": bmetric.custom("abs(u1 - v1) + 2*abs(u2 - v2)", BOX, 1.0)}
# arity 3, so that the order of a fold over the window shows in the bits
OPERATORS = {"averaging": operators.averaging(3, 2),
             "affine": operators.affine([0.1, 0.2, 0.3], [0.05, -0.1], 2),
             "constant": operators.constant([0.5, 0.25], k=3),
             "dsl": operators.from_dsl(["(x1 + x2 + x3) / 7", "0.3*x1 - 0.2*x3 + 0.1"], 3, 2)}
CONDITIONS = {"presic_sum": contraction.presic_sum([0.1, 0.2, 0.3]),
              "ciric_max": contraction.ciric_max(0.5),
              "lambda_max": contraction.lambda_max(0.5),
              "weak_phi": contraction.weak_phi(contraction.piecewise_phi()),
              "kannan": contraction.kannan(0.001),
              "banach": contraction.banach(0.5),
              "diagonal_strict": contraction.diagonal_strict(),
              "diagonal_phi": contraction.diagonal_phi(contraction.linear_phi(0.5))}
# sampling -> its grid_points; every sampled check takes 64 samples
GRIDS = {"random": None, "grid": 3}
STOP = solver.StopRule(max_iterations=60)
STARTS = np.random.default_rng(11).uniform(-1.0, 1.5, size=(3, 3, 2))


def _plain(value):
    """`value` as JSON data: arrays, tuples and dataclasses as lists and dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dsl.Expr):
        return value.source
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _cases():
    """Yield (name, thunk) for each recorded result."""
    for (cname, cond), (mname, space), (oname, op), (how, grid) in (
            (c, s, o, g) for c in CONDITIONS.items() for s in METRICS.items()
            for o in OPERATORS.items() for g in GRIDS.items()):
        yield (f"verify/{cname}/{mname}/{oname}/{how}",
               lambda c=cond, s=space, o=op, g=grid: contraction.verify(o, s, c, 64, 5, g))
    for oname, op in OPERATORS.items():
        yield (f"verify/ciric_max/euclidean/{oname}/strict_domain",
               lambda o=op: contraction.verify(o, METRICS["euclidean"], CONDITIONS["ciric_max"],
                                               64, 5, strict_domain=True))
    for kind in ("ciric_max", "banach", "kannan"):
        for (mname, space), (oname, op) in ((s, o) for s in METRICS.items()
                                            for o in OPERATORS.items()):
            yield (f"estimate_constant/{kind}/{mname}/{oname}",
                   lambda k=kind, s=space, o=op: contraction.estimate_constant(o, s, k, 64, 7))
    for (mname, space), (how, grid) in ((s, g) for s in METRICS.items() for g in GRIDS.items()):
        yield (f"estimate_b/{mname}/{how}",
               lambda s=space, g=grid: bmetric.estimate_b(s, 64, 3, g))
        yield (f"check_axioms/{mname}/{how}",
               lambda s=space, g=grid: bmetric.check_axioms(s, 64, 3, g))
    for oname, op in OPERATORS.items():
        for mname, space in METRICS.items():
            yield (f"iterate/{oname}/{mname}",
                   lambda o=op, s=space: solver.iterate(o, s, STARTS[0], STOP))
            yield (f"picard/{oname}/{mname}",
                   lambda o=op, s=space: solver.picard(o, s, STARTS[1, 0], STOP))
            yield (f"iterate_many/{oname}/{mname}",
                   lambda o=op, s=space: solver.iterate_many(o, s, STARTS, STOP))
    line = bmetric.squared_euclidean(bmetric.Box(np.array([-2.0]), np.array([2.0])))
    yield ("iterate/affine/strict_domain",
           lambda: solver.iterate(operators.affine([0.5], 1.1), line, [-2.0],
                                  strict_domain=True))
    for k in (1, 2, 3, 5):
        trace = solver.iterate(operators.averaging(k), line, np.linspace(2.0, 1.0, k))
        for eta in (0.1, 0.25, 0.5, 0.6, 0.75):
            yield f"presic_bounds/eta={eta}/k={k}", lambda t=trace, e=eta, k=k: _bounds(t, e, k)
    euclid = bmetric.euclidean(bmetric.Box(np.array([-2.0]), np.array([2.0])))
    for oname, op, space, a in (("affine", operators.affine([0.25]), euclid, 0.1),
                                ("affine", operators.affine([0.25]), euclid, 0.2),
                                ("averaging", operators.averaging(2), line, 0.001)):
        yield (f"kannan_report/{oname}/a={a}",
               lambda o=op, s=space, a=a: solver.kannan_report(
                   solver.picard(o, s, [1.0]), s, a, o.arity))
    # runs that meet a floating-point condition mid-run: r squared overflows
    # at x1 = 0.0625, which the runs from 1 and 0.5 reach inside a block and
    # those from 0.75 and 2 never reach; the square of the last step, 1e-160,
    # underflows
    r = "(1e100/(x1 - 0.0625 + 1e-200))"
    wide = bmetric.Box(np.array([-1.0]), np.array([2.0]))
    for cname, op, space, starts, stop in (
            ("overflow", operators.from_dsl(f"x1/2 + 1/(1 + {r}*{r})", 1),
             bmetric.euclidean(wide), [1.0, 0.5, 2.0], solver.StopRule()),
            ("invalid", operators.from_dsl(f"x1/2 + ({r}*{r} - {r}*{r})", 1),
             bmetric.euclidean(wide), [1.0, 0.5, 0.75], solver.StopRule()),
            ("underflow", operators.affine([1e-10]), bmetric.squared_euclidean(wide),
             [1.0, 0.5, -1.0], solver.StopRule(residual_tol=1e-310, step_tol=1e-310))):
        for mode in ("warn", "raise", "call"):
            yield (f"iterate/errstate={mode}/{cname}",
                   lambda o=op, s=space, x=starts, t=stop, m=mode: _under(
                       m, lambda: solver.iterate(o, s, x[:1], t)))
            yield (f"iterate_many/errstate={mode}/{cname}",
                   lambda o=op, s=space, x=starts, t=stop, m=mode: _under(
                       m, lambda: solver.iterate_many(o, s, np.reshape(x, (-1, 1, 1)), t)))


def _under(mode, call):
    """What `call()` returns or raises under np.errstate(all=mode), with each
    warning or callback call numpy gave, in order. Warnings are recorded, not
    filtered, so that pytest's filterwarnings = error and a script run see
    the same ones."""
    calls = []
    with warnings.catch_warnings(record=True) as caught, np.errstate(
            all=mode, call=lambda condition, flag: calls.append(["call", condition, flag])):
        warnings.simplefilter("always")
        try:
            result = call()
        except (PresicLabError, FloatingPointError) as exc:
            result = {"raises": type(exc).__name__, "message": str(exc)}
    events = [["warn", w.category.__name__, str(w.message)] for w in caught] + calls
    return {"result": result, "events": events}


def _bounds(trace, eta, k):
    report = solver.presic_bounds(trace, eta, 2.0, k)
    return report, report.tail_bound(3, 2)


def _results():
    """name -> the JSON data of its result, or of the exception it raised."""
    out = {}
    for name, thunk in _cases():
        try:
            out[name] = _plain(thunk())
        except PresicLabError as exc:  # a raise is a result too
            out[name] = {"raises": type(exc).__name__, "message": str(exc)}
    return out


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def test_library_results_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, value in _header().items():
        assert golden[key] == value, (
            f"{GOLDEN.name} was written under {key} {golden[key]}, this is {value}: "
            f"rewrite it with `PYTHONPATH=src python tests/{Path(__file__).name}` "
            f"from a checkout whose outputs are known good")
    results = _results()
    assert list(results) == list(golden["digests"])
    for name, payload in golden["payloads"].items():
        assert json.loads(json.dumps(results[name])) == payload, name
    changed = [name for name, value in results.items() if _digest(value) != golden["digests"][name]]
    assert not changed, f"{len(changed)} of {len(results)} results changed: {changed}"


if __name__ == "__main__":
    results = _results()
    corpus = dict(_header(), digests={name: _digest(value) for name, value in results.items()},
                  payloads={name: results[name] for name in PAYLOADS})
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} digests to {GOLDEN}")
