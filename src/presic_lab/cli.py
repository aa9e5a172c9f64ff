"""Command-line front-end.

Subcommands: verify, solve, bounds, estimate-b, demo. Exit codes are a
stable contract: 0 = success/verified, 1 = falsified or non-converged,
2 = usage error. The seed is --seed, else (solve and bounds) the file's
solve.seed, else PRESIC_LAB_SEED, else 0. Outputs are reproducible for a
fixed (problem, seed) up to the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import bmetric, contraction, operators, problem as problem_mod, solver
from .errors import PresicLabError, UsageError


def _write(text, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args):
    payload = dict(payload, timestamp=datetime.now(timezone.utc).isoformat())
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args)


def _seed(args, prob=None):
    if args.seed is not None:
        return args.seed
    if prob is not None and prob.solve and prob.solve["seed"] is not None:
        return prob.solve["seed"]
    env = os.environ.get("PRESIC_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError("PRESIC_LAB_SEED must be an integer") from None
    return 0


def cmd_verify(args):
    prob = problem_mod.load(args.problem)
    if prob.condition is None:
        raise UsageError("problem file has no 'condition' block")
    seed = _seed(args)
    grid = args.grid_points if args.grid else None
    cert = contraction.verify(prob.operator, prob.space, prob.condition, args.samples, seed,
                              grid_points=grid, strict_domain=args.strict_domain)
    _emit(cert.to_dict(), args)
    return 0 if cert.passed else 1


def _solve_trace(prob, args, seed):
    if prob.solve is None:
        raise UsageError("problem file has no 'solve' block")
    op = prob.operator.diagonal if args.picard else prob.operator
    start = prob.solve["start"]
    if isinstance(start, str):  # "random": one point for Picard, else k
        start = prob.space.domain.sample(np.random.default_rng(seed), op.arity)
    # Picard iteration is the k-step scheme of F, from the first seed point
    return solver.iterate(op, prob.space, start[:op.arity], prob.solve["stop"],
                          strict_domain=args.strict_domain)


def cmd_solve(args):
    prob = problem_mod.load(args.problem)
    seed = _seed(args, prob)
    trace = _solve_trace(prob, args, seed)
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(trace.to_csv_rows())
        _write(buf.getvalue(), args)
    else:
        payload = trace.to_dict()
        payload["seed"] = seed
        _emit(payload, args)
    return 0 if trace.stop_reason == "converged" else 1


def cmd_bounds(args):
    prob = problem_mod.load(args.problem)
    if args.eta is None and args.a is None:
        raise UsageError("bounds requires --eta or --a")
    k, b = prob.operator.arity, prob.space.b
    if args.eta is not None:
        option, value, cond = "--eta", args.eta, contraction.ciric_max(args.eta)
    else:
        option, value, cond = "--a", args.a, contraction.kannan(args.a)
    try:  # the message names the option the value came from
        cond.validate(k=k, b=b)
    except UsageError as exc:
        raise UsageError(f"{option} {value}: {exc}") from None
    if args.eta is None and not args.picard:
        raise UsageError("--a bounds hold along the Picard scheme: add --picard")
    trace = _solve_trace(prob, args, _seed(args, prob))
    if args.eta is not None:
        payload = solver.presic_bounds(trace, args.eta, b, k).to_dict()
        payload["alphas"] = [float(v) for v in trace.alphas]
    else:
        payload = solver.kannan_report(trace, prob.space, args.a, k)
    _emit(payload, args)
    return 0


def cmd_estimate_b(args):
    prob = problem_mod.load(args.problem)
    seed = _seed(args)
    grid = args.grid_points if args.grid else None
    result = bmetric.estimate_b(prob.space, args.samples, seed, grid_points=grid)
    payload = {
        "b_hat": result["b_hat"],
        "declared_b": prob.space.b,
        "witness": [[float(v) for v in pt] for pt in result["witness"]],
    }
    _emit(payload, args)
    return 0


def _demo_iteration_example(args):
    rows = []
    ok_all = True
    box = bmetric.Box(np.zeros(1), np.full(1, 2.0))
    space = bmetric.squared_euclidean(box)
    stop = solver.StopRule(residual_tol=1e-20, step_tol=1e-20)
    for k in (1, 2, 3, 5):
        rng = np.random.default_rng(_seed(args))
        # the draws of 20 successive sample(rng, k) calls, in one call
        starts = box.sample(rng, 20 * k).reshape(20, k, 1)
        traces = solver.iterate_many(operators.averaging(k), space, starts, stop)
        worst = max(float(np.abs(t.limit).max()) if t.limit is not None else np.inf
                    for t in traces)
        ok_all = ok_all and all(t.stop_reason == "converged" for t in traces)
        ok = worst < 1e-8
        ok_all = ok_all and ok
        rows.append((f"k={k}", "pass" if ok else "FAIL", f"max |limit| = {worst:.3e}"))
    return rows, ok_all


def _demo_bmetric_constants(args):
    rows = []
    ok_all = True
    box = bmetric.Box(np.zeros(1), np.full(1, 2.0))
    for p in (2.0, 3.0):
        est = bmetric.estimate_b(bmetric.power(p, box), 0, _seed(args), grid_points=100)
        target = 2.0 ** (p - 1.0)
        ok = target - 0.05 <= est["b_hat"] <= target + 1e-9
        ok_all = ok_all and ok
        rows.append((f"power p={p:g}", "pass" if ok else "FAIL",
                     f"b_hat = {est['b_hat']:.6f}, declared {target:g}"))
    box4 = bmetric.Box(np.zeros(4), np.full(4, 2.0))
    est = bmetric.estimate_b(bmetric.lp_truncated(0.5, box4), 20000, _seed(args))
    ok = est["b_hat"] <= 4.0 + 1e-9
    ok_all = ok_all and ok
    rows.append(("lp p=1/2 dim=4", "pass" if ok else "FAIL",
                 f"b_hat = {est['b_hat']:.6f} <= 4"))
    est = bmetric.estimate_b(bmetric.squared_euclidean(box), 0, _seed(args), grid_points=100)
    ok = est["b_hat"] <= 2.0 + 1e-9 and est["b_hat"] > 1.9
    ok_all = ok_all and ok
    rows.append(("squared_euclidean", "pass" if ok else "FAIL",
                 f"b_hat = {est['b_hat']:.6f}, declared 2"))
    return rows, ok_all


def _demo_phi_anomaly(args):
    box = bmetric.Box(np.zeros(1), np.full(1, 2.0))
    space = bmetric.squared_euclidean(box)
    op = operators.averaging(1)
    cond = contraction.weak_phi(contraction.piecewise_phi())
    cert = contraction.verify(op, space, cond, max(args.samples, 2000), _seed(args))
    rows = []
    if cert.verdict == "falsified":
        w = cert.witness
        rows.append(("full box [0,2]", "falsified",
                     f"window {np.asarray(w.window).ravel().tolist()} "
                     f"lhs={w.lhs:.6f} rhs={w.rhs:.6f}"))
        ok = w.rhs < w.lhs
    else:
        rows.append(("full box [0,2]", "passed (unexpected)", ""))
        ok = False
    sub = bmetric.squared_euclidean(bmetric.Box(np.zeros(1), np.full(1, 1.5)))
    cert2 = contraction.verify(op, sub, cond, max(args.samples, 2000), _seed(args))
    rows.append(("sub-box [0,1.5]", cert2.verdict,
                 f"slack_min = {cert2.slack_min:.6f}"))
    ok = ok and cert2.passed
    return rows, ok


DEMOS = {"paper-example-2-1-2": _demo_iteration_example,
         "paper-bmetric-examples": _demo_bmetric_constants,
         "paper-phi-anomaly": _demo_phi_anomaly}
DEMO_NAMES = tuple(DEMOS)


def cmd_demo(args):
    if args.name not in DEMOS:
        raise UsageError(f"unknown demo {args.name!r}; choose from {', '.join(DEMO_NAMES)}")
    rows, ok = DEMOS[args.name](args)
    width = max(len(r[0]) for r in rows)
    print(f"demo: {args.name}")
    for label, status, detail in rows:
        print(f"  {label.ljust(width)}  {status:10}  {detail}")
    print("overall:", "pass" if ok else "FAIL")
    return 0 if ok else 1


# option -> its add_argument keywords
OPTIONS = {
    "--seed": dict(type=int, default=None),
    "--samples": dict(type=int, default=1000),
    "--out": dict(type=str, default=None),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--grid": dict(action="store_true", help="deterministic grid sampling instead of random"),
    "--grid-points": dict(type=int, default=25),
    "--picard": dict(action="store_true",
                     help="iterate the diagonal map instead of the k-step scheme"),
    "--strict-domain": dict(action="store_true"),
    "--eta": dict(type=float, default=None),
    "--a": dict(type=float, default=None),
}
# subcommand -> (handler, help, positional, the options it reads)
COMMANDS = {
    "verify": (cmd_verify, "check a contraction condition", "problem",
               ("--seed", "--samples", "--out", "--grid", "--grid-points", "--strict-domain")),
    "solve": (cmd_solve, "run the iteration", "problem",
              ("--seed", "--out", "--format", "--picard", "--strict-domain")),
    "bounds": (cmd_bounds, "per-step and tail error bounds", "problem",
               ("--seed", "--out", "--picard", "--strict-domain", "--eta", "--a")),
    "estimate-b": (cmd_estimate_b, "empirical relaxation constant", "problem",
                   ("--seed", "--samples", "--out", "--grid", "--grid-points")),
    "demo": (cmd_demo, "bundled reproductions", "name", ("--seed", "--samples")),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="presic-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, positional, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PresicLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
