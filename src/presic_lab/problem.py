"""JSON problem files: a space, an operator, and optional condition/solve blocks.

Schema::

    {
      "space": {"kind": "euclidean"|"squared_euclidean"|"power"|
                        "lp_truncated"|"custom_dsl",
                "p": <real, power/lp only>, "dim": <int>,
                "box": {"lo": [...], "hi": [...]},
                "b": <real, optional override>, "expr": "<dsl, custom only>"},
      "operator": {"kind": "averaging"|"affine"|"constant"|"dsl", "k": <int>,
                   "weights": [...], "offset": [...], "value": [...],
                   "exprs": ["..."]},
      "condition": {"kind": ..., "r": [...], "kappa": r, "lambda": r, "a": r,
                    "eta": r, "phi": {"kind": "linear"|"paper_piecewise"|"dsl",
                                      "c": r, "expr": "..."}},
      "solve": {"start": [[...], ...] | "random", "seed": <int>,
                "stop": {"residual_tol": r, "step_tol": r, "max_iterations": n}}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import bmetric, contraction, operators
from .errors import UsageError
from .solver import StopRule


@dataclass
class ProblemFile:
    space: bmetric.BMetricSpace
    operator: operators.PresicOperator
    condition: contraction.ConditionSpec | None = None
    solve: dict | None = None  # {"start": (k, m) array | "random", "seed", "stop"}


def _load_space(cfg):
    try:
        kind = cfg["kind"]
        box = bmetric.Box(np.asarray(cfg["box"]["lo"], dtype=float),
                          np.asarray(cfg["box"]["hi"], dtype=float))
    except KeyError as exc:
        raise UsageError(f"space block missing field {exc}") from None
    dim = cfg.get("dim")
    if dim is not None and dim != box.dimension:
        raise UsageError("space dim does not match box dimension")
    if kind == "euclidean":
        space = bmetric.euclidean(box)
    elif kind == "squared_euclidean":
        space = bmetric.squared_euclidean(box)
    elif kind == "power":
        space = bmetric.power(cfg["p"], box)
    elif kind == "lp_truncated":
        space = bmetric.lp_truncated(cfg["p"], box)
    elif kind == "custom_dsl":
        if "b" not in cfg:
            raise UsageError("custom_dsl space requires a declared b")
        return bmetric.custom(cfg["expr"], box, cfg["b"])
    else:
        raise UsageError(f"unknown space kind {kind!r}")
    if "b" in cfg:
        space = bmetric.BMetricSpace(space.kind, space.domain, float(cfg["b"]),
                                     p=space.p, expr=space.expr)
    return space


def _load_operator(cfg, dimension):
    try:
        kind = cfg["kind"]
    except KeyError:
        raise UsageError("operator block missing 'kind'") from None
    k = int(cfg.get("k", 1))
    if kind == "averaging":
        return operators.averaging(k, dimension)
    if kind == "affine":
        return operators.affine(cfg["weights"], cfg.get("offset", 0.0), dimension)
    if kind == "constant":
        return operators.constant(cfg["value"], k)
    if kind == "dsl":
        return operators.from_dsl(cfg["exprs"], k, dimension)
    raise UsageError(f"unknown operator kind {kind!r}")


def _load_phi(cfg):
    kind = cfg.get("kind")
    if kind == "linear":
        return contraction.linear_phi(cfg["c"])
    if kind == "paper_piecewise":
        return contraction.piecewise_phi()
    if kind == "dsl":
        return contraction.dsl_phi(cfg["expr"])
    raise UsageError(f"unknown phi kind {kind!r}")


def _load_condition(cfg):
    kind = cfg.get("kind")
    if kind == "presic_sum":
        return contraction.presic_sum(cfg["r"])
    if kind == "ciric_max":
        return contraction.ciric_max(cfg["kappa"])
    if kind == "lambda_max":
        return contraction.lambda_max(cfg["lambda"])
    if kind == "weak_phi":
        return contraction.weak_phi(_load_phi(cfg["phi"]))
    if kind == "kannan":
        return contraction.kannan(cfg["a"])
    if kind == "banach":
        return contraction.banach(cfg["eta"])
    if kind == "diagonal_strict":
        return contraction.diagonal_strict()
    if kind == "diagonal_phi":
        return contraction.diagonal_phi(_load_phi(cfg["phi"]))
    raise UsageError(f"unknown condition kind {kind!r}")


def _load_solve(cfg, op):
    out = {"start": cfg.get("start", "random"), "seed": int(cfg.get("seed", 0))}
    stop_cfg = cfg.get("stop", {})
    out["stop"] = StopRule(
        residual_tol=float(stop_cfg.get("residual_tol", 1e-10)),
        step_tol=float(stop_cfg.get("step_tol", 1e-10)),
        max_iterations=int(stop_cfg.get("max_iterations", 10 ** 6)),
    )
    if out["start"] != "random":
        start = np.asarray(out["start"], dtype=float)
        if start.ndim == 1 and op.dimension == 1:
            start = start.reshape(-1, 1)
        if start.shape != (op.arity, op.dimension):
            raise UsageError("solve.start must supply k in-domain points")
        out["start"] = start
    return out


def loads(text):
    """Parse a problem from JSON text."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed problem file: {exc}") from None
    if "space" not in cfg or "operator" not in cfg:
        raise UsageError("problem file needs 'space' and 'operator' blocks")
    space = _load_space(cfg["space"])
    op = _load_operator(cfg["operator"], space.dimension)
    condition = _load_condition(cfg["condition"]) if "condition" in cfg else None
    solve = _load_solve(cfg["solve"], op) if "solve" in cfg else None
    return ProblemFile(space=space, operator=op, condition=condition, solve=solve)


def load(path):
    """Load a problem file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def random_starts(problem, count, seed):
    """`count` seeded random (k, m) start windows inside the domain box."""
    rng = np.random.default_rng(seed)
    op, box = problem.operator, problem.space.domain
    return [box.sample(rng, op.arity) for _ in range(count)]
