"""Command-line front-end.

Subcommands: verify, solve, bounds, estimate-b, demo. Exit codes are a
stable contract: 0 = success/verified, 1 = falsified, non-converged or
(bounds) a step outside its bound, 2 = usage error. The seed is --seed, else (solve and bounds) the file's
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
from .errors import PresicLabError, UsageError, as_int


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
    """--seed, else the problem file's solve.seed, else PRESIC_LAB_SEED, else
    0; a UsageError naming its source unless it is an integer >= 0."""
    file_seed = prob.solve["seed"] if prob is not None and prob.solve else None
    for source, seed in (("--seed", args.seed), ("solve.seed", file_seed),
                         ("PRESIC_LAB_SEED", os.environ.get("PRESIC_LAB_SEED"))):
        if seed is not None:
            break
    else:
        return 0
    try:
        return as_int(int(seed), source, 0)  # int() reads the environment's string
    except ValueError:
        raise UsageError(f"{source} must be an integer") from None


def _grid_points(args):
    """--grid-points, which implies --grid, else 25 with --grid, else None."""
    return 25 if args.grid_points is None and args.grid else args.grid_points


def cmd_verify(args):
    prob = problem_mod.load(args.problem)
    if prob.condition is None:
        raise UsageError("problem file has no 'condition' block")
    cert = contraction.verify(prob.operator, prob.space, prob.condition, args.samples, _seed(args),
                              grid_points=_grid_points(args), strict_domain=args.strict_domain)
    _emit(cert.to_dict(), args)
    return 0 if cert.passed else 1


def _solve_trace(prob, args, seed, picard):
    if prob.solve is None:
        raise UsageError("problem file has no 'solve' block")
    op = prob.operator.diagonal if picard else prob.operator
    start = prob.solve["start"]
    if isinstance(start, str):  # "random": one point for Picard, else k
        start = prob.space.domain.sample(np.random.default_rng(seed), op.arity)
    # Picard iteration is the k-step scheme of F, from the first seed point
    return solver.iterate(op, prob.space, start[:op.arity], prob.solve["stop"],
                          strict_domain=args.strict_domain)


def cmd_solve(args):
    prob = problem_mod.load(args.problem)
    seed = _seed(args, prob)
    trace = _solve_trace(prob, args, seed, args.picard)
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
    if (args.eta is None) == (args.a is None):
        raise UsageError("bounds requires one of --eta and --a")
    k, b = prob.operator.arity, prob.space.b
    if args.eta is not None:
        option, value, cond = "--eta", args.eta, contraction.ciric_max(args.eta)
    else:
        option, value, cond = "--a", args.a, contraction.kannan(args.a)
    try:  # the message names the option the value came from
        cond.validate(k=k, b=b)
    except UsageError as exc:
        raise UsageError(f"{option} {value}: {exc}") from None
    # --a's tail bounds hold along the Picard scheme, so --a implies --picard
    trace = _solve_trace(prob, args, _seed(args, prob), args.picard or args.a is not None)
    if args.eta is not None:
        payload = solver.presic_bounds(trace, args.eta, b, k).to_dict()
        payload["alphas"] = [float(v) for v in trace.alphas]
    else:
        payload = solver.kannan_report(trace, prob.space, args.a, k)
    _emit(payload, args)
    return 0 if payload["all_steps_within"] else 1


def cmd_estimate_b(args):
    prob = problem_mod.load(args.problem)
    result = bmetric.estimate_b(prob.space, args.samples, _seed(args),
                                grid_points=_grid_points(args))
    payload = {
        "b_hat": result["b_hat"],
        "declared_b": prob.space.b,
        "witness": [[float(v) for v in pt] for pt in result["witness"]],
    }
    _emit(payload, args)
    return 0


def _check(label, ok, detail):
    """A demo row: its label, status, detail and whether it passed."""
    return label, "pass" if ok else "FAIL", detail, ok


def _demo_iteration_example(args):
    box = bmetric.Box(np.zeros(1), np.full(1, 2.0))
    space = bmetric.squared_euclidean(box)
    stop = solver.StopRule(residual_tol=1e-20, step_tol=1e-20)
    rows = []
    for k in (1, 2, 3, 5):
        # the draws of 20 successive sample(rng, k) calls, in one call
        starts = box.sample(np.random.default_rng(_seed(args)), 20 * k).reshape(20, k, 1)
        traces = solver.iterate_many(operators.averaging(k), space, starts, stop)
        # a run that did not converge has no limit, and fails its row
        worst = max(float(np.abs(t.limit).max()) if t.limit is not None else np.inf
                    for t in traces)
        rows.append(_check(f"k={k}", worst < 1e-8, f"max |limit| = {worst:.3e}"))
    return rows


def _demo_bmetric_constants(args):
    line, box4 = (bmetric.Box(np.zeros(m), np.full(m, 2.0)) for m in (1, 4))
    # label, space, samples, grid points, the range [lo, hi] of b_hat, detail;
    # the squared-Euclidean b_hat must exceed 1.9, so its lo is the next float
    checks = (("power p=2", bmetric.power(2.0, line), 0, 100, 2.0 - 0.05, 2.0, ", declared 2"),
              ("power p=3", bmetric.power(3.0, line), 0, 100, 4.0 - 0.05, 4.0, ", declared 4"),
              ("lp p=1/2 dim=4", bmetric.lp_truncated(0.5, box4), 20000, None, -np.inf, 4.0,
               " <= 4"),
              ("squared_euclidean", bmetric.squared_euclidean(line), 0, 100,
               np.nextafter(1.9, 2.0), 2.0, ", declared 2"))
    rows = []
    for label, space, samples, grid_points, lo, hi, detail in checks:
        b_hat = bmetric.estimate_b(space, samples, _seed(args), grid_points=grid_points)["b_hat"]
        rows.append(_check(label, lo <= b_hat and bmetric.leq_tol(b_hat, hi),
                           f"b_hat = {b_hat:.6f}{detail}"))
    return rows


def _demo_phi_anomaly(args):
    op = operators.averaging(1)
    cond = contraction.weak_phi(contraction.piecewise_phi())
    full, sub = (contraction.verify(op, bmetric.squared_euclidean(bmetric.Box(np.zeros(1), [hi])),
                                    cond, max(args.samples, 2000), _seed(args)) for hi in (2.0, 1.5))
    w = full.witness  # a witness of weak_phi has lhs > rhs + tol: the anomaly
    found = w is not None
    seen = (f"window {np.asarray(w.window).ravel().tolist()} lhs={w.lhs:.6f} rhs={w.rhs:.6f}"
            if found else "")
    return [("full box [0,2]", "falsified" if found else "passed (unexpected)", seen, found),
            ("sub-box [0,1.5]", sub.verdict, f"slack_min = {sub.slack_min:.6f}", sub.passed)]


DEMOS = {"paper-example-2-1-2": _demo_iteration_example,
         "paper-bmetric-examples": _demo_bmetric_constants,
         "paper-phi-anomaly": _demo_phi_anomaly}
DEMO_NAMES = tuple(DEMOS)


def cmd_demo(args):
    if args.name not in DEMOS:
        raise UsageError(f"unknown demo {args.name!r}; choose from {', '.join(DEMO_NAMES)}")
    rows = DEMOS[args.name](args)
    ok = all(passed for *_, passed in rows)
    width = max(len(r[0]) for r in rows)
    print(f"demo: {args.name}")
    for label, status, detail, _ in rows:
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
    "--grid-points": dict(type=int, default=None, help="implies --grid; 25 if unset"),
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
    except (UsageError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PresicLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
