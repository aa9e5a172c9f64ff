"""Spans around the public callables of presic_lab, recorded from outside.

`Tracer.install()` replaces each public callable listed in `_TARGETS` with a
wrapper that records one span per call: its name, start and end
(perf_counter_ns), the index of the enclosing span, the operation id the
harness set, and how many rows (windows, pairs, triples, points) the call
handled. Spans live in flat in-memory columns and are written out once, at
the end of a run (`dump`). `summarize` derives self time, call counts, rows
and per-layer shares from the columns. A call whose rows or counters the
tracer cannot work out from the library's signatures is recorded in
`errors`; the harness counts each as a failed check, so a layer that changed
shape under the tracer does not read as a silent 0.

A layer is the presic_lab module a span belongs to: the first component of
its name.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array

import numpy as np

LAYERS = ("bmetric", "operators", "contraction", "solver", "dsl", "problem", "cli")


def _default(func, param):
    """The library's default for one parameter, or None when it has none."""
    try:
        p = inspect.signature(func).parameters[param]
    except (KeyError, TypeError, ValueError):
        return None
    return None if p.default is inspect.Parameter.empty else p.default


def _rows_grid_or_samples(tracer, grid_points, samples, points_per_item, budget):
    """Items a sampler enumerates: the full grid when it fits the budget."""
    if grid_points is None:
        return samples
    if budget is None:
        tracer.error("no grid budget to count the rows of a grid call by")
        return samples
    total = grid_points ** points_per_item
    return total if total <= budget else samples


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# Each rows function takes (tracer, args, kwargs, result) and returns how
# many items the call handled; some also bump a counter on the tracer.

def _rows_verify_diagonal(tracer, args, kwargs, out):
    tracer.count("contraction.verify_diagonal.kept", out.samples)
    return _rows_grid_or_samples(tracer, _arg(args, kwargs, 5, "grid_points"),
                                 _arg(args, kwargs, 3, "samples"), 2 * args[1].dimension,
                                 tracer.window_budget)


def _rows_estimate_constant(tracer, args, kwargs, out):
    op, space, kind = args[0], args[1], args[2]
    width = 2 if kind == "banach" else op.arity + 1
    return _rows_grid_or_samples(tracer, _arg(args, kwargs, 5, "grid_points"),
                                 _arg(args, kwargs, 3, "samples"), width * space.dimension,
                                 tracer.window_budget)


def _rows_estimate_b(tracer, args, kwargs, out):
    budget = _arg(args, kwargs, 4, "max_triples", tracer.triple_budget)
    return _rows_grid_or_samples(tracer, _arg(args, kwargs, 3, "grid_points"),
                                 _arg(args, kwargs, 1, "sample_count"),
                                 3 * args[0].dimension, budget)


def _rows_run(seeds):
    def rows(tracer, args, kwargs, out):
        tracer.count("solver.runs")
        tracer.count("solver.converged", int(out.stop_reason == "converged"))
        return len(out.points) - seeds(args[0])
    return rows


def _rows_first_len(tracer, args, kwargs, out):
    return len(args[1])


def _rows_env(tracer, args, kwargs, out):
    return max((np.size(v) for v in args[1].values()), default=1)


def _rows_size(tracer, args, kwargs, out):
    return np.size(args[1])


def _one(tracer, args, kwargs, out):
    return 1


# (module, owner, attribute, span name, rows function). A name ending in "."
# gets the kind of args[0] appended. Owners that are classes are patched on
# the class so every call site sees the wrapper.
_TARGETS = (
    ("operators", "PresicOperator", "apply", "operators.apply", _one),
    ("operators", "PresicOperator", "apply_batch", "operators.apply_batch.", _rows_first_len),
    ("operators", "PresicOperator", "diagonal_apply", "operators.diagonal_apply", _one),
    ("operators", "PresicOperator", "diagonal_batch", "operators.diagonal_batch", _rows_first_len),
    ("bmetric", "BMetricSpace", "distance", "bmetric.distance", _one),
    ("bmetric", "BMetricSpace", "distance_batch", "bmetric.distance_batch.", _rows_first_len),
    ("bmetric", "Box", "contains", "bmetric.contains", _one),
    ("bmetric", None, "estimate_b", "bmetric.estimate_b", _rows_estimate_b),
    ("dsl", None, "evaluate", "dsl.evaluate", _rows_env),
    ("contraction", "PhiFunction", "__call__", "contraction.gauge", _rows_size),
    ("contraction", None, "verify", "contraction.verify",
     lambda tracer, args, kwargs, out: out.samples),
    ("contraction", None, "verify_diagonal", "contraction.verify_diagonal",
     _rows_verify_diagonal),
    ("contraction", None, "estimate_constant", "contraction.estimate_constant",
     _rows_estimate_constant),
    ("solver", None, "iterate", "solver.iterate", _rows_run(lambda op: op.arity)),
    ("solver", None, "picard", "solver.picard", _rows_run(lambda op: 1)),
    ("solver", None, "presic_bounds", "solver.presic_bounds", _one),
    ("solver", None, "estimate_rate", "solver.estimate_rate", _one),
    ("solver", None, "cauchy_profile", "solver.cauchy_profile", _one),
    ("problem", None, "load", "problem.load", _one),
    ("cli", None, "main", "cli.main", _one),
)


_FIELDS = ("idx", "name", "parent", "op", "t0", "t1", "rows")


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    A span is appended when it closes, as one record of `_FIELDS`; `idx`
    numbers spans in the order they opened and `parent` refers to it.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self._records = array("q")
        self._opened = 0
        self.counts = {}
        self.op_id = 0
        self.active = True
        self._stack = []       # idx of the open spans
        self._stack_ids = []   # their name ids
        self._captured = []
        self.errors = []       # spans the tracer could not read; each fails the run
        self.window_budget = None
        self.triple_budget = None

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def error(self, msg):
        if msg not in self.errors:
            self.errors.append(msg)

    def _wrap(self, func, span, rows_fn):
        per_kind = span.endswith(".")
        fixed = None if per_kind else self._id(span)
        evaluate_id = self._id("dsl.evaluate")
        estimate_b_id = self._id("bmetric.estimate_b")
        captures = span == "bmetric.distance_batch."
        stack, stack_ids, records = self._stack, self._stack_ids, self._records
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            nid = self._id(span + args[0].kind) if per_kind else fixed
            parent_id = stack_ids[-1] if stack_ids else -1
            # dsl.evaluate recurses through the module global: one span per
            # outermost call, so its self time covers the whole tree
            if nid == evaluate_id == parent_id:
                return func(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = self._opened
            self._opened = idx + 1
            stack.append(idx)
            stack_ids.append(nid)
            t0 = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stack_ids.pop()
            rows = rows_fn(self, args, kwargs, out)
            records.extend((idx, nid, parent, self.op_id, t0, t1, rows))
            if nid == estimate_b_id:
                self._count_estimate_b_kept()
            elif captures and parent_id == estimate_b_id:
                self._captured.append(out)
            return out

        wrapper.__wrapped__ = func
        return wrapper

    def _count_estimate_b_kept(self):
        # estimate_b computes d(x,y), then d(x,z) + d(z,y), for each block of
        # triples: a triple is kept when that denominator is nonzero
        captured, self._captured = self._captured, []
        if not captured or len(captured) % 3:
            self.error(f"estimate_b made {len(captured)} distance_batch calls, "
                       "not groups of 3 (d(x,y), d(x,z), d(z,y)): kept triples not counted")
            return
        kept = sum(int(np.count_nonzero(captured[i + 1] + captured[i + 2] > 0))
                   for i in range(0, len(captured), 3))
        self.count("bmetric.estimate_b.kept", kept)

    def install(self):
        """Wrap every target in the imported presic_lab package."""
        import importlib

        package = importlib.import_module("presic_lab")
        contraction = importlib.import_module("presic_lab.contraction")
        self.window_budget = _default(getattr(contraction, "_sample_windows", None), "budget")
        self.triple_budget = _default(importlib.import_module("presic_lab.bmetric").estimate_b,
                                      "max_triples")
        for module_name, owner_name, attr, span, rows_fn in _TARGETS:
            module = importlib.import_module(f"presic_lab.{module_name}")
            owner = getattr(module, owner_name) if owner_name else module
            wrapped = self._wrap(owner.__dict__[attr], span, rows_fn)
            setattr(owner, attr, wrapped)
            if owner_name is None and getattr(package, attr, None) is wrapped.__wrapped__:
                setattr(package, attr, wrapped)

    # --- storage ----------------------------------------------------------

    def columns(self):
        """The closed spans as int64 columns, in the order they opened."""
        rec = np.frombuffer(self._records, dtype=np.int64).reshape(-1, len(_FIELDS))
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        return {field: rec[:, i].copy() for i, field in enumerate(_FIELDS)}

    def dump(self, path, **extra):
        """Write the spans, the name table and the counters to one .npz file."""
        meta = {"names": self.names, "counts": self.counts, "errors": self.errors, **extra}
        np.savez_compressed(path, meta=np.array(json.dumps(meta)), **self.columns())

    def merge(self, path, op_id):
        """Append the spans of a dumped child tracer under one operation id."""
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            cols = {field: data[field] for field in _FIELDS}
        remap = np.array([self._id(n) for n in meta["names"]], dtype=np.int64)
        base = self._opened
        rec = np.stack([cols["idx"] + base, remap[cols["name"]],
                        np.where(cols["parent"] >= 0, cols["parent"] + base, -1),
                        np.full_like(cols["idx"], op_id), cols["t0"], cols["t1"],
                        cols["rows"]], axis=1)
        self._records.frombytes(np.ascontiguousarray(rec, dtype=np.int64).tobytes())
        self._opened += len(rec)
        for key, n in meta["counts"].items():
            self.count(key, n)
        for msg in meta["errors"]:
            self.error(msg)
        return meta


def _per_name(tracer):
    """name -> (calls, total ns, self ns, rows)."""
    c = tracer.columns()
    if len(c["idx"]) == 0:
        return {}
    dur = (c["t1"] - c["t0"]).astype(np.float64)
    child = np.zeros_like(dur)
    # a call that raised left no record, so find each parent's row by its idx
    row = np.searchsorted(c["idx"], c["parent"])
    row = np.minimum(row, len(dur) - 1)
    has_parent = (c["parent"] >= 0) & (c["idx"][row] == c["parent"])
    np.add.at(child, row[has_parent], dur[has_parent])
    self_ns = dur - child
    n = len(tracer.names)
    calls = np.bincount(c["name"], minlength=n)
    total = np.bincount(c["name"], weights=dur, minlength=n)
    own = np.bincount(c["name"], weights=self_ns, minlength=n)
    rows = np.bincount(c["name"], weights=c["rows"].astype(np.float64), minlength=n)
    return {name: (int(calls[i]), float(total[i]), float(own[i]), float(rows[i]))
            for i, name in enumerate(tracer.names)}


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(tracer, wall_ns, passes):
    """Per-layer metrics (name -> value) from the recorded spans.

    Counts are per pass over the workload's input set, so they repeat
    exactly for a seed. A layer a workload never calls reads 0.
    """
    stats = _per_name(tracer)
    zero = (0, 0.0, 0.0, 0.0)

    def get(name):
        return stats.get(name, zero)

    def group(prefix):
        picked = [v for k, v in stats.items() if k.startswith(prefix)]
        return tuple(sum(v[i] for v in picked) for i in range(4)) if picked else zero

    def per_row(name, field=1):  # field 1 = total time, 2 = self time
        s = get(name)
        return _ratio(s[field], s[3])

    def per_call(name, scale):
        s = get(name)
        return _ratio(s[1], s[0]) / scale

    out = {
        "contraction.verify.ns_per_window": per_row("contraction.verify"),
        "contraction.verify.self_ns_per_window": per_row("contraction.verify", 2),
        "contraction.verify_diagonal.ns_per_pair": per_row("contraction.verify_diagonal"),
        "contraction.estimate_constant.ns_per_window": per_row("contraction.estimate_constant"),
        "contraction.gauge.ns_per_eval": per_row("contraction.gauge"),
        "operators.apply.us_per_call": per_call("operators.apply", 1e3),
        "operators.diagonal_apply.us_per_call": per_call("operators.diagonal_apply", 1e3),
        "bmetric.estimate_b.self_ns_per_triple": per_row("bmetric.estimate_b", 2),
        "bmetric.distance.us_per_call": per_call("bmetric.distance", 1e3),
        "bmetric.contains.us_per_call": per_call("bmetric.contains", 1e3),
        "dsl.evaluate.self_ns_per_row": per_row("dsl.evaluate", 2),
        "solver.iterate.self_us_per_step": per_row("solver.iterate", 2) / 1e3,
        "solver.picard.self_us_per_step": per_row("solver.picard", 2) / 1e3,
        "problem.load.us_per_call": per_call("problem.load", 1e3),
        "cli.main.ms_per_call": per_call("cli.main", 1e6),
    }
    for kind in ("averaging", "affine", "constant", "dsl"):
        out[f"operators.apply_batch.{kind}.ns_per_row"] = per_row(f"operators.apply_batch.{kind}")
    for kind in ("euclidean", "squared_euclidean", "power", "lp_truncated", "custom_dsl"):
        out[f"bmetric.distance_batch.{kind}.ns_per_pair"] = per_row(
            f"bmetric.distance_batch.{kind}")
    for name in ("presic_bounds", "estimate_rate", "cauchy_profile"):
        out[f"solver.{name}.us_per_call"] = per_call(f"solver.{name}", 1e3)

    counts = tracer.counts
    out["solver.steps"] = (get("solver.iterate")[3] + get("solver.picard")[3]) / passes
    out["solver.converged_ratio"] = _ratio(counts.get("solver.converged", 0),
                                           counts.get("solver.runs", 0))
    out["operators.apply_batch.calls"] = group("operators.apply_batch.")[0] / passes
    out["bmetric.distance.calls"] = get("bmetric.distance")[0] / passes
    out["dsl.evaluate.calls"] = get("dsl.evaluate")[0] / passes
    out["contraction.verify_diagonal.kept_ratio"] = _ratio(
        counts.get("contraction.verify_diagonal.kept", 0), get("contraction.verify_diagonal")[3])
    out["bmetric.estimate_b.kept_ratio"] = _ratio(
        counts.get("bmetric.estimate_b.kept", 0), get("bmetric.estimate_b")[3])
    for layer in LAYERS:
        out[f"{layer}.share"] = _ratio(group(layer + ".")[2], wall_ns)
    return out
