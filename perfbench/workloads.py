"""One benchmark workload in one fresh process.

    python perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports presic_lab, builds every input from --seed, prints
"ready" and, unless --setup-only, runs whole passes over its operations
until --seconds have gone by. After each operation (outside its timing) the
output is checked against an oracle and against the same operation in the
first pass. With --trace 0 it asks run.py for set-up probes between passes
(see SetupProbes). The last stdout line is a JSON report that run.py turns
into metrics.

Workloads (why each was chosen is in BENCHMARK.json):

* verify-bulk: in-process verify / verify_diagonal / estimate_constant /
  estimate_b calls of 2.5e5 to 5.1e5 sampled items each.
* solve-multistart: 225 seeded starts per pass through iterate or picard to
  a stated tolerance, each followed by presic_bounds, cauchy_profile and
  estimate_rate.
* cli-cold: fresh `python -m presic_lab.cli` processes over the bundled and
  generated problem files, round-robin over the commands and demos.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"


class Op:
    """One timed operation: run() is timed, the rest is not."""

    def __init__(self, label, run, check, key, items=lambda out: 1, spans=None):
        self.label = label
        self.run = run
        self.check = check
        self.items = items
        self.key = key
        self.spans = spans  # where a traced CLI child writes its spans


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _cert_key(cert):
    return json.dumps(cert.to_dict(), sort_keys=True)


# --- verify-bulk -------------------------------------------------------------

N_BULK = 400_000


def _signed_weights(rng, k, total):
    """k weights with sum |a_j| = total and random signs."""
    return rng.dirichlet(np.ones(k)) * total * rng.choice([-1.0, 1.0], size=k)


def verify_bulk_ops(ctx):
    from presic_lab import bmetric, contraction, operators

    rng = np.random.default_rng(ctx.seed)
    seeds = rng.integers(0, 2 ** 31, size=16).tolist()

    def box(m, lo, hi):
        return bmetric.Box(np.full(m, lo), np.full(m, hi))

    ops = []

    def verify_op(label, op, space, cond, p, expect_pass, samples, case_seed, grid=None):
        floor = oracles.slack_floor(space, p)
        ops.append(Op(
            label,
            lambda: contraction.verify(op, space, cond, samples, case_seed, grid_points=grid),
            lambda cert: oracles.check_certificate(cert, expect_pass, op, space, floor),
            items=lambda cert: cert.samples, key=_cert_key))

    # averaging(2) on d = |x-y|^2: sharp ciric constant (1/2)^2
    sq = bmetric.squared_euclidean(box(1, 0.0, 2.0))
    kappa = 0.25 * rng.uniform(1.02, 1.2)
    verify_op("verify averaging k=2 ciric_max", operators.averaging(2), sq,
              contraction.ciric_max(kappa), 2, True, N_BULK, seeds[0])

    a5 = _signed_weights(rng, 5, rng.uniform(0.4, 0.8))
    eu = bmetric.euclidean(box(1, -2.0, 2.0))
    verify_op("verify affine k=5 presic_sum",
              operators.affine(a5, rng.uniform(-0.5, 0.5)), eu,
              contraction.presic_sum(np.abs(a5) * 1.01), 1, True, N_BULK, seeds[1])

    # DSL twin of an affine map, same weights on every coordinate
    a3 = _signed_weights(rng, 3, rng.uniform(0.5, 0.9))
    offsets = rng.uniform(-0.2, 0.2, size=4)
    exprs = [" + ".join(f"({float(w)!r})*x{j + 1}" for j, w in enumerate(a3)) + f" + ({float(c)!r})"
             for c in offsets]
    verify_op("verify dsl k=3 m=4 ciric_max", operators.from_dsl(exprs, 3, 4),
              bmetric.squared_euclidean(box(4, -1.0, 1.0)),
              contraction.ciric_max(oracles.ciric_sharp(a3, 2) * rng.uniform(1.02, 1.1)),
              2, True, 250_000, seeds[2])

    # the paper's phi anomaly: falsified on [0, 2]
    verify_op("verify phi_anomaly weak_phi", operators.averaging(1), sq,
              contraction.weak_phi(contraction.piecewise_phi()), 2, False, N_BULK, seeds[3])

    a2 = _signed_weights(rng, 2, rng.uniform(0.08, 0.15))
    verify_op("verify affine k=2 kannan", operators.affine(a2, rng.uniform(-0.5, 0.5)), eu,
              contraction.kannan(oracles.kannan_sharp(a2, 1) * rng.uniform(1.02, 1.2)),
              1, True, N_BULK, seeds[4])

    ag = _signed_weights(rng, 2, rng.uniform(0.5, 0.9))
    sq_sym = bmetric.squared_euclidean(box(1, -1.0, 1.0))
    verify_op("verify --grid affine k=2 ciric_max", operators.affine(ag), sq_sym,
              contraction.ciric_max(oracles.ciric_sharp(ag, 2) * rng.uniform(1.02, 1.2)),
              2, True, 0, seeds[5], grid=80)

    verify_op("verify constant k=2 lambda_max(0)",
              operators.constant([rng.uniform(0.5, 1.5)], k=2), sq,
              contraction.lambda_max(0.0), 2, True, 250_000, seeds[6])

    ad = rng.dirichlet(np.ones(3)) * rng.uniform(0.3, 0.9)
    cube = bmetric.power(3, box(2, -1.0, 1.0))
    op_d = operators.affine(ad, rng.uniform(-0.2, 0.2), dimension=2)
    eta = oracles.banach_sharp(ad, 3) * rng.uniform(1.02, 1.2)
    floor_d = oracles.slack_floor(cube, 3)
    ops.append(Op(
        "verify_diagonal banach power(3)",
        lambda: contraction.verify_diagonal(op_d, cube, contraction.banach(eta), N_BULK, seeds[7]),
        lambda cert: oracles.check_certificate(cert, True, op_d, cube, floor_d),
        items=lambda cert: N_BULK, key=_cert_key))

    ae = _signed_weights(rng, 2, rng.uniform(0.5, 0.9))
    op_e = operators.affine(ae)
    sharp_e = oracles.ciric_sharp(ae, 2)

    def check_constant(res):
        # the grid holds equal-length steps with every sign pattern, so the
        # estimate reaches the oracle as well as staying below it
        if not (oracles.leq(res["constant_hat"], sharp_e)
                and oracles.leq(sharp_e, res["constant_hat"])):
            return f"estimate_constant {res['constant_hat']!r}, oracle {sharp_e!r}"
        return None

    ops.append(Op(
        "estimate_constant --grid ciric_max",
        lambda: contraction.estimate_constant(op_e, sq_sym, "ciric_max", 0, seeds[8], grid_points=72),
        check_constant, items=lambda res: 72 ** 3,
        key=lambda res: (res["constant_hat"], _digest(res["witness"].window))))

    def estimate_b_op(label, space, case_seed):
        def check(res):
            if not oracles.leq(res["b_hat"], space.b):
                return f"{label}: b_hat {res['b_hat']!r} above declared b {space.b!r}"
            return None
        ops.append(Op(
            label, lambda: bmetric.estimate_b(space, N_BULK, case_seed), check,
            items=lambda res: N_BULK, key=lambda res: (res["b_hat"], _digest(*res["witness"]))))

    estimate_b_op("estimate_b lp_truncated(0.5) m=4",
                  bmetric.lp_truncated(0.5, box(4, 0.0, 2.0)), seeds[9])
    estimate_b_op("estimate_b custom_dsl m=2", bmetric.custom(
        "max(abs(u1 - v1), abs(u2 - v2))^2", box(2, -1.0, 1.0), 2.0), seeds[10])
    return ops


def bulk_peak_bytes_per_window(ops):
    """tracemalloc peak of the first verify call, per window."""
    import tracemalloc

    tracemalloc.start()
    try:
        cert = ops[0].run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / cert.samples


# --- solve-multistart --------------------------------------------------------

STARTS_PER_CASE = 25


def solve_multistart_ops(ctx):
    from presic_lab import bmetric, operators, solver

    rng = np.random.default_rng(ctx.seed)
    tight = solver.StopRule(residual_tol=1e-20, step_tol=1e-20)
    fine = solver.StopRule(residual_tol=1e-12, step_tol=1e-12)
    sq = bmetric.squared_euclidean(bmetric.Box(np.zeros(1), np.full(1, 2.0)))
    eu = bmetric.euclidean(bmetric.Box(np.full(1, -2.0), np.full(1, 2.0)))
    eu2 = bmetric.euclidean(bmetric.Box(np.full(2, -2.0), np.full(2, 2.0)))

    # (label, op, space, stop, picard?, eta for presic_bounds, fixed point, limit tol)
    cases = []
    for k in (1, 2, 3, 5):
        cases.append((f"averaging k={k}", operators.averaging(k), sq, tight, False,
                      0.25, np.zeros(1), 1e-8))
    for k in (3, 5):
        expr = "(" + " + ".join(f"x{j}" for j in range(1, k + 1)) + f")/{2 * k}"
        cases.append((f"dsl averaging k={k}", operators.from_dsl(expr, k), sq, tight, False,
                      0.25, np.zeros(1), 1e-8))
    w2, c2 = np.array([0.35, -0.2]), rng.uniform(-0.5, 0.5, size=2)
    cases.append(("affine k=2 m=2", operators.affine(w2, c2, dimension=2), eu2, fine, False,
                  oracles.ciric_sharp(w2, 1), oracles.fixed_point(w2, c2), 1e-8))
    w3, c3 = np.array([0.2, 0.15, 0.1]), rng.uniform(-0.5, 0.5, size=1)
    cases.append(("picard affine k=3", operators.affine(w3, c3), eu, fine, True,
                  oracles.banach_sharp(w3, 1), oracles.fixed_point(w3, c3), 1e-8))
    cases.append(("divergent 2*x1", operators.from_dsl("2*x1", 1), eu, solver.StopRule(), False,
                  None, None, None))

    ops = []
    for label, op, space, stop, use_picard, eta, x_star, tol in cases:
        seeds = 1 if use_picard else op.arity
        for _ in range(STARTS_PER_CASE):
            start = space.domain.sample(rng, seeds)
            if eta is None:  # keep the divergent start away from its fixed point 0
                start = np.where(np.abs(start) < 0.05, 0.05, start)
            ops.append(_solve_op(label, solver, op, space, stop, use_picard, start,
                                 eta, x_star, tol))
    return ops


def _solve_op(label, solver, op, space, stop, use_picard, start, eta, x_star, tol):
    k = 1 if use_picard else op.arity  # seed points, and the k of the bounds

    def run():
        if use_picard:
            trace = solver.picard(op, space, start[0], stop)
        else:
            trace = solver.iterate(op, space, start, stop)
        bounds = solver.presic_bounds(trace, eta, space.b, k) if eta else None
        profile = solver.cauchy_profile(trace, space, k)
        return trace, bounds, profile, solver.estimate_rate(trace)

    def check(out):
        trace, bounds, profile, rate = out
        if eta is None:
            return None if trace.stop_reason == "diverged" else \
                f"{label}: stop_reason {trace.stop_reason}, expected diverged"
        if trace.stop_reason != "converged":
            return f"{label}: stop_reason {trace.stop_reason}"
        err = float(np.max(np.abs(trace.limit - x_star)))
        if err > tol:
            return f"{label}: limit {trace.limit.tolist()} is {err:.3g} from {x_star.tolist()}"
        if not bounds.all_steps_within:
            return f"{label}: presic_bounds(eta={eta!r}) not within"
        if len(profile) != len(trace.points) - k or not np.all(
                profile + oracles.TOL_REL * (1.0 + profile) >= trace.alphas[:len(profile)]):
            return f"{label}: cauchy_profile below the step distances"
        if rate != trace.fitted_rate:
            return f"{label}: estimate_rate {rate!r} != fitted_rate {trace.fitted_rate!r}"
        return None

    def key(out):
        trace, bounds, profile, rate = out
        return (trace.stop_reason, _digest(trace.points, trace.alphas, profile), rate,
                bounds.K if bounds else None)

    return Op(label, run, check, items=lambda out: len(out[0].points) - k, key=key)


# --- cli-cold ----------------------------------------------------------------

def _write(tmp, name, cfg):
    path = Path(tmp) / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _payload(stdout):
    payload = json.loads(stdout)
    payload.pop("timestamp", None)
    return payload


VERIFY_KEYS = {"condition", "verdict", "samples", "seed", "slack_min", "estimated_constant",
               "witness", "timestamp"}
SOLVE_KEYS = {"points", "alphas", "stop_reason", "limit", "final_residual", "fitted_rate",
              "seed", "timestamp"}
ETA_KEYS = {"theta", "K", "b", "per_step_bounds", "all_steps_within", "alphas", "timestamp"}
KANNAN_KEYS = {"a", "lambda", "b_lambda", "tail_bounds", "all_steps_within", "timestamp"}
ESTIMATE_B_KEYS = {"b_hat", "declared_b", "witness", "timestamp"}

# bounds --a without --picard checks the Picard-scheme Kannan tail bound
# against the k-step trace (ROADMAP open item 4). The reproduction runs on
# every pass; its check returns this marker, which is counted apart from
# `failed` while the defect stands.
KNOWN_DEFECT = "known defect"


def cli_cold_ops(ctx):
    from presic_lab import problem

    rng = np.random.default_rng(ctx.seed)
    tmp = ctx.tmp
    problems = ROOT / "problems"
    cli_seeds = [str(s) for s in rng.integers(0, 2 ** 31, size=4)]

    # seeded affine k=2 ciric_max problem: passes or fails per the oracle;
    # sum |a| <= 0.8 keeps kappa = sharp * 1.3 below 1, as ciric_max requires
    a_c = _signed_weights(rng, 2, rng.uniform(0.5, 0.8))
    sharp = oracles.ciric_sharp(a_c, 2)
    expect_pass = bool(rng.integers(0, 2))
    kappa = sharp * (rng.uniform(1.05, 1.3) if expect_pass else rng.uniform(0.3, 0.5))
    ciric_k2 = _write(tmp, "ciric_k2.json", {
        "space": {"kind": "squared_euclidean", "dim": 1, "box": {"lo": [-2.0], "hi": [2.0]}},
        "operator": {"kind": "affine", "k": 2, "weights": a_c.tolist(),
                     "offset": [rng.uniform(-0.5, 0.5)]},
        "condition": {"kind": "ciric_max", "kappa": kappa}})
    w_m2 = _signed_weights(rng, 2, rng.uniform(0.3, 0.7))
    c_m2 = rng.uniform(-0.5, 0.5, size=2)
    affine_m2 = _write(tmp, "affine_m2.json", {
        "space": {"kind": "euclidean", "dim": 2, "box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}},
        "operator": {"kind": "affine", "k": 2, "weights": w_m2.tolist(), "offset": c_m2.tolist()},
        "solve": {"start": "random", "seed": int(rng.integers(0, 2 ** 31)),
                  "stop": {"residual_tol": 1e-12, "step_tol": 1e-12}}})
    p_pow = float(rng.uniform(1.5, 3.0))
    power_p = _write(tmp, "power.json", {
        "space": {"kind": "power", "p": p_pow, "dim": 1, "box": {"lo": [0.0], "hi": [2.0]}},
        "operator": {"kind": "averaging", "k": 1}})
    # the ROADMAP item 4 reproduction, verbatim
    kannan_k2 = _write(tmp, "kannan_k2.json", {
        "space": {"kind": "euclidean", "dim": 1, "box": {"lo": [-2.0], "hi": [2.0]}},
        "operator": {"kind": "affine", "k": 2, "weights": [0.05, 0.05], "offset": [0.0]},
        "condition": {"kind": "kannan", "a": 0.2},
        "solve": {"start": [[1.0], [1.0]], "seed": 0}})

    def verify_check(path, expect_pass):
        prob = problem.load(path)
        floor = oracles.slack_floor(prob.space, 2)

        def check(code, payload):
            if set(payload) != VERIFY_KEYS - {"timestamp"}:
                return f"verify payload keys {sorted(payload)}"
            if code != (0 if expect_pass else 1):
                return f"verify exit {code}, oracle expects {'pass' if expect_pass else 'fail'}"
            if expect_pass:
                return None if payload["slack_min"] >= -floor else "passing slack_min below -tol"
            return oracles.check_witness(prob.operator, prob.space, prob.condition,
                                         payload["witness"]["window"])
        return check

    def solve_check(expect, x_star=None):
        def check(code, payload):
            if set(payload) != SOLVE_KEYS - {"timestamp"}:
                return f"solve payload keys {sorted(payload)}"
            if payload["stop_reason"] != expect or code != (0 if expect == "converged" else 1):
                return f"solve exit {code} stop_reason {payload['stop_reason']}, expected {expect}"
            if x_star is not None and np.max(np.abs(np.subtract(payload["limit"], x_star))) > 1e-8:
                return f"solve limit {payload['limit']} far from {list(x_star)}"
            return None
        return check

    def bounds_check(keys):
        def check(code, payload):
            if set(payload) != keys - {"timestamp"}:
                return f"bounds payload keys {sorted(payload)}"
            if code != 0 or not payload["all_steps_within"]:
                return f"bounds exit {code}, all_steps_within {payload['all_steps_within']}"
            return None
        return check

    def estimate_b_check(declared):
        def check(code, payload):
            if set(payload) != ESTIMATE_B_KEYS - {"timestamp"}:
                return f"estimate-b payload keys {sorted(payload)}"
            if code != 0 or payload["declared_b"] != declared or \
                    not oracles.leq(payload["b_hat"], declared):
                return f"estimate-b exit {code}, b_hat {payload['b_hat']} vs declared {declared}"
            return None
        return check

    def defect_check(code, payload):
        # fixed means: --a implies --picard (the bound then holds) or it is a usage error
        if code == 2 or (code == 0 and payload.get("all_steps_within") is True):
            return None
        if code == 0 and payload.get("all_steps_within") is False:
            return KNOWN_DEFECT
        return f"bounds --a exit {code}"

    def demo_check(code, stdout):
        return None if code == 0 and stdout.rstrip().endswith("overall: pass") else \
            f"demo exit {code}"

    k1 = str(problems / "averaging_k1.json")
    quarter = str(problems / "quarter_kannan.json")
    calls = [
        (["verify", k1, "--seed", cli_seeds[0]], verify_check(k1, True)),
        (["solve", str(problems / "averaging_k3.json")], solve_check("converged", [0.0])),
        (["bounds", k1, "--eta", "0.25"], bounds_check(ETA_KEYS)),
        (["estimate-b", k1, "--grid"], estimate_b_check(2.0)),
        (["demo", "paper-example-2-1-2"], demo_check),
        (["verify", ciric_k2, "--seed", cli_seeds[1]], verify_check(ciric_k2, expect_pass)),
        (["solve", affine_m2], solve_check("converged", oracles.fixed_point(w_m2, c_m2))),
        (["bounds", affine_m2, "--eta", repr(oracles.ciric_sharp(w_m2, 1))],
         bounds_check(ETA_KEYS)),
        (["estimate-b", power_p, "--grid", "--seed", cli_seeds[2]],
         estimate_b_check(2.0 ** (p_pow - 1.0))),
        (["demo", "paper-bmetric-examples"], demo_check),
        (["verify", str(problems / "phi_anomaly.json"), "--seed", cli_seeds[3]],
         verify_check(str(problems / "phi_anomaly.json"), False)),
        (["solve", str(problems / "divergent_double.json")], solve_check("diverged")),
        (["bounds", kannan_k2, "--a", "0.2"], defect_check),
        (["verify", kannan_k2], verify_check(kannan_k2, True)),
        (["demo", "paper-phi-anomaly"], demo_check),
        (["bounds", quarter, "--a", "0.6666666666666666", "--picard"], bounds_check(KANNAN_KEYS)),
    ]
    return [_cli_op(ctx, argv, check, i) for i, (argv, check) in enumerate(calls)]


def _cli_op(ctx, argv, check, index):
    spans = str(Path(ctx.tmp) / f"spans-{index}.npz")
    is_demo = argv[0] == "demo"

    def run():
        if ctx.traced:
            cmd = [sys.executable, str(HERE / "cli_boot.py"), spans, *argv]
        else:
            cmd = [sys.executable, "-m", "presic_lab.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=ctx.env, timeout=120)

    def checked(proc):
        if proc.returncode not in (0, 1, 2):
            return f"{argv[0]}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        if is_demo:
            return check(proc.returncode, proc.stdout)
        try:
            payload = _payload(proc.stdout) if proc.stdout.strip() else {}
        except json.JSONDecodeError:
            return f"{argv[0]}: stdout is not JSON"
        return check(proc.returncode, payload)

    def key(proc):
        if is_demo or not proc.stdout.strip():
            return proc.returncode, proc.stdout
        return proc.returncode, json.dumps(_payload(proc.stdout), sort_keys=True)

    return Op(" ".join(Path(a).name if "/" in a else a for a in argv), run, checked, key=key,
              spans=spans)


# --- measurement -------------------------------------------------------------

WORKLOADS = {
    "verify-bulk": verify_bulk_ops,
    "solve-multistart": solve_multistart_ops,
    "cli-cold": cli_cold_ops,
}


class Context:
    """What a workload's ops share: seed, scratch dir, child env, trace mode."""

    def __init__(self, seed, tmp, env):
        self.seed = seed
        self.tmp = tmp
        self.env = env
        self.traced = False


class Run:
    """Whole passes over the ops, with per-op timings and output checks.

    Every pass repeats the same inputs, so each output must equal the one
    from the first pass.
    """

    def __init__(self, ops):
        self.ops = ops
        self.keys = None
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.errors = []
        self.tracer = None
        self.child_meta = []

    def one_pass(self):
        """[(ns, items)] for each op."""
        times = []
        keys = []
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op_id = i
                self.tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
                err = None
            except Exception as exc:  # a raising op is a failed op, not a crashed run
                out, err = None, f"{op.label}: {type(exc).__name__}: {exc}"
            ns = time.perf_counter_ns() - t0
            items = 0
            key = None
            if self.tracer is not None:
                self.tracer.active = False
                if op.spans and os.path.isfile(op.spans):
                    self.child_meta.append(self.tracer.merge(op.spans, i))
                    os.unlink(op.spans)
            if err is None:
                try:
                    err = op.check(out)
                    items = op.items(out)
                    key = op.key(out)
                except Exception as exc:  # an output the checks cannot read is a wrong output
                    err = f"{op.label}: unreadable output: {type(exc).__name__}: {exc}"
                if self.keys is not None and err is None and key != self.keys[i]:
                    err = f"{op.label}: output differs from the first pass with the same seed"
            keys.append(key)
            self.attempted += 1
            if err is KNOWN_DEFECT:
                self.known_defect += 1
            elif err is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(err)
            times.append((ns, items))
        if self.keys is None:
            self.keys = keys
        return times

    def passes(self, seconds, between=None):
        """Whole passes, at least one, until they have run for `seconds`.

        between(seconds run so far), if given, runs after each pass and is
        not counted.
        """
        out = []
        measured = 0.0
        while not out or measured < seconds:
            t0 = time.perf_counter()
            out.append(self.one_pass())
            measured += time.perf_counter() - t0
            if between is not None:
                between(measured)
        return out


SETUP_PROBE_EVERY_S = 2.0


class SetupProbes:
    """Asks run.py for one set-up probe per SETUP_PROBE_EVERY_S of passes.

    A probe is a fresh process timed from spawn to "ready". Spreading the
    probes over the run, rather than taking them back to back, samples the
    machine's speed at the same moments as the passes. The request is a
    "probe" line on stdout; this process then waits for a line on stdin,
    so the probe runs alone. With stdin at end of file it does not wait.
    """

    def __init__(self):
        self.done = 0

    def __call__(self, measured_s):
        while self.done < measured_s / SETUP_PROBE_EVERY_S:
            print("probe", flush=True)
            sys.stdin.readline()
            self.done += 1


def _upper_quartile(xs):
    xs = list(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]


def _steady_op_ms(passes):
    return [_upper_quartile(p[i][0] for p in passes) / 1e6 for i in range(len(passes[0]))]


def end_to_end(passes):
    """items_per_s and op_ms percentiles from each op's upper-quartile time.

    Every pass repeats the same inputs, so each op has one time per pass. On
    a shared machine the passes split into a steady state and bursts that
    run faster; the upper quartile of an op's times reads the steady state,
    where the median flips with the share of bursts in a run.
    """
    per_op_ms = _steady_op_ms(passes)
    items = sum(n for _, n in passes[0])
    q = statistics.quantiles(per_op_ms, n=10, method="inclusive")
    return {"items_per_s": items / sum(per_op_ms) * 1e3,
            "op_ms_p50": statistics.median(per_op_ms), "op_ms_p90": q[8]}


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def interpreter_floor_ms(env, runs=5):
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def traced_layers(args, ctx, ops, run):
    """Untraced passes, then traced passes; per-layer metrics from the spans."""
    untraced = run.passes(args.seconds / 3.0)
    tracer = tracing.Tracer()
    run.tracer = tracer
    ctx.traced = True
    if args.workload != "cli-cold":
        tracer.install()
    traced = run.passes(args.seconds * 2.0 / 3.0)
    wall_ns = sum(ns for p in traced for ns, _ in p)
    out = tracing.summarize(tracer, wall_ns, len(traced))
    out["trace.overhead_pct"] = 100.0 * (
        sum(_steady_op_ms(traced)) / sum(_steady_op_ms(untraced)) - 1.0)
    out["contraction.verify.peak_bytes_per_window"] = (
        bulk_peak_bytes_per_window(ops) if args.workload == "verify-bulk" else 0.0)
    imports = [m["import_ns"] / 1e6 for m in run.child_meta]
    out["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    out["cli.interpreter_ms"] = (interpreter_floor_ms(ctx.env)
                                 if args.workload == "cli-cold" else 0.0)
    out["cli.known_defect_failures"] = run.known_defect / (1 + len(untraced) + len(traced))
    for msg in tracer.errors:
        run.failed += 1
        run.errors.append(f"trace: {msg}")
    tracer.dump(OUT / f"spans-{args.workload}.npz",
                workload=args.workload, seed=args.seed)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import presic_lab

    src = ROOT / "src"
    if not Path(presic_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"presic_lab imported from {presic_lab.__file__}, not from {src}")
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ctx = Context(args.seed, tmp, dict(os.environ))
        ops = WORKLOADS[args.workload](ctx)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        run = Run(ops)
        run.one_pass()  # warm-up, and the reference outputs for the repeat check
        report = {"numpy": np.__version__, "python": sys.version.split()[0]}
        if args.trace:
            report["metrics"] = traced_layers(args, ctx, ops, run)
        else:
            report["metrics"] = end_to_end(run.passes(args.seconds, SetupProbes()))
            report["metrics"]["peak_rss_mb"] = peak_rss_mb(args.workload)
        report.update(attempted=run.attempted, failed=run.failed,
                      known_defect=run.known_defect, errors=run.errors)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
