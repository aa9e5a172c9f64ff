"""JSON problem files: a space, an operator, and optional condition/solve blocks.

Schema::

    {
      "space": {"kind": "euclidean"|"squared_euclidean"|"power"|
                        "lp_truncated"|"custom_dsl",
                "p": <real, power/lp only>, "dim": <int>,
                "box": {"lo": [...], "hi": [...]},
                "b": <real, optional override>, "expr": "<dsl, custom only>"},
      "operator": {"kind": "averaging"|"affine"|"constant"|"dsl",
                   "k": <int, default 1; affine's default is its weights' count>,
                   "weights": [...], "offset": [...], "value": [...],
                   "exprs": ["..."]},
      "condition": {"kind": ..., and the kind's one key (contraction.FIELDS and
                    KEYS): "r": [...] | "kappa": r | "lambda": r | "a": r |
                    "eta": r | "phi": {"kind": "linear"|"paper_piecewise"|"dsl",
                                       "c": r, "expr": "..."}},
      "solve": {"start": <k points, as PresicOperator.window reads them> | "random",
                "seed": <int >= 0, optional>,
                "stop": {"residual_tol": r, "step_tol": r, "max_iterations": n}}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import bmetric, contraction, operators, solver
from .errors import UsageError, as_int


@dataclass(eq=False)  # `==` is identity: no caller compares problems
class ProblemFile:
    space: bmetric.BMetricSpace
    operator: operators.PresicOperator
    condition: contraction.ConditionSpec | None = None
    solve: dict | None = None  # {"start": (k, m) array | "random", "seed": int | None, "stop"}


# kind -> builder(cfg, box) of the space a block describes
SPACES = {
    "euclidean": lambda cfg, box: bmetric.euclidean(box),
    "squared_euclidean": lambda cfg, box: bmetric.squared_euclidean(box),
    "power": lambda cfg, box: bmetric.power(float(cfg["p"]), box),
    "lp_truncated": lambda cfg, box: bmetric.lp_truncated(float(cfg["p"]), box),
    "custom_dsl": lambda cfg, box: bmetric.custom(cfg["expr"], box, float(cfg["b"]))}
# kind -> builder(cfg, k, dimension) of the operator a block describes
OPERATORS = {
    "averaging": lambda cfg, k, m: operators.averaging(k, m),
    "affine": lambda cfg, k, m: operators.affine(cfg["weights"], cfg.get("offset", 0.0), m),
    "constant": lambda cfg, k, m: operators.constant(cfg["value"], k),
    "dsl": lambda cfg, k, m: operators.from_dsl(cfg["exprs"], k, m)}


def _load_operator(cfg, m):
    k = as_int(cfg.get("k", 1), "operator block field 'k'")
    op = _build(OPERATORS, "operator", cfg, k, m)
    if "k" in cfg and op.arity != k:  # affine takes its arity from its weights
        raise UsageError(f"operator block field 'k' is {k}, "
                         f"but the operator it describes has arity {op.arity}")
    if op.dimension != m:  # the other builders take the space's dimension
        raise UsageError(f"operator block field 'value' has {op.dimension} "
                         f"coordinates, the space has dimension {m}")
    return op


def _build(table, what, cfg, *args):
    if cfg["kind"] not in table:
        raise UsageError(f"unknown {what} kind {cfg['kind']!r}")
    return table[cfg["kind"]](cfg, *args)


def _load_space(cfg):
    box = bmetric.Box(np.asarray(cfg["box"]["lo"], dtype=float),
                      np.asarray(cfg["box"]["hi"], dtype=float))
    if cfg.get("dim") is not None and cfg["dim"] != box.dimension:
        raise UsageError("space dim does not match box dimension")
    space = _build(SPACES, "space", cfg, box)
    return replace(space, b=float(cfg["b"])) if "b" in cfg else space


def _load_solve(cfg, op):
    start = cfg.get("start", "random")
    stop = {key: value for key, value in cfg.get("stop", {}).items()
            if key in solver.StopRule.__dataclass_fields__}  # other keys are ignored
    return {"seed": as_int(cfg["seed"], "solve block field 'seed'") if "seed" in cfg else None,
            "start": start if start == "random" else op.window(start),
            "stop": solver.StopRule(**stop)}  # which checks the values' types and ranges


# block -> loader(cfg, the blocks loaded before it), in load order
LOADERS = {"space": lambda cfg, got: _load_space(cfg),
           "operator": lambda cfg, got: _load_operator(cfg, got["space"].dimension),
           "condition": lambda cfg, got: contraction.ConditionSpec.from_dict(cfg),
           "solve": lambda cfg, got: _load_solve(cfg, got["operator"])}


def loads(text):
    """Parse a problem from JSON text, a str or bytes. Text that does not
    decode or parse is a UsageError, as is a block with a missing field, a
    value of the wrong type, or one that is not an object, naming the block
    and the field or value."""
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise UsageError(f"malformed problem file: {exc}") from None
    if not isinstance(cfg, dict) or "space" not in cfg or "operator" not in cfg:
        raise UsageError("problem file needs 'space' and 'operator' blocks")
    got = {}
    for name, loader in LOADERS.items():
        try:
            got[name] = loader(cfg[name], got) if name in cfg else None
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            why = f" missing field {exc}" if isinstance(exc, KeyError) else f": {exc}"
            raise UsageError(f"{name} block{why}") from None
    return ProblemFile(**got)


def load(path):
    """Load a problem file from disk."""
    with open(path, "rb") as fh:  # loads decodes, so a decode error is a UsageError
        return loads(fh.read())
