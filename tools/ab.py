"""Paired in-process timing of one benchmark workload on two checkouts.

    python tools/ab.py ROOT_A ROOT_B --workload solve-multistart [--passes 20] [--seed 7]

Each checkout's src/presic_lab is copied to a temporary directory under its
own package name (its modules import one another relatively) and both are
imported into this one process. The workload's ops are built once per side
by this checkout's perfbench/workloads.py, with `presic_lab` standing for
that side's package while they are built. A warm-up pass per side gives
every op's output key, which must be equal on both sides. Then the sides
take turns, one whole pass each, alternating which side goes first, and
the report gives items_per_s, op_ms_p50 and op_ms_p90 per side as
workloads.end_to_end computes them, with the ratio B/A. Its last line is
the same report as JSON.

The tool sees neither interpreter start nor imports, so cli-cold and
set-up times stay with perfbench/run.py. Both sides share one allocator
and numpy's caches.
"""

import argparse
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("verify-bulk", "solve-multistart")
METRICS = ("items_per_s", "op_ms_p50", "op_ms_p90")
PREFIX = "presic_lab_ab_"  # the package name of a side, before "a" or "b"


def load_side(root, name, tmp):
    """Import `root`'s src/presic_lab as the package `name`, copied under `tmp`."""
    shutil.copytree(Path(root) / "src" / "presic_lab", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def build_ops(workloads, package, workload, seed, tmp):
    """The workload's ops, built with `presic_lab` standing for `package`."""
    saved = sys.modules.get("presic_lab")
    sys.modules["presic_lab"] = package
    try:
        return workloads.WORKLOADS[workload](workloads.Context(seed, tmp, {}))
    finally:
        if saved is None:
            del sys.modules["presic_lab"]
        else:
            sys.modules["presic_lab"] = saved


def compare(root_a, root_b, workload, passes, seed):
    """The report: each side's metrics over `passes` timed passes, and B/A."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sys.path.insert(0, tmp)
        try:
            runs = {}
            for side, root in (("A", root_a), ("B", root_b)):
                package = load_side(root, PREFIX + side.lower(), tmp)
                runs[side] = workloads.Run(build_ops(workloads, package, workload, seed, tmp))
                runs[side].one_pass()  # warm-up, and the keys every later pass must repeat
            if runs["A"].keys != runs["B"].keys:
                bad = [op.label for op, a, b in zip(runs["A"].ops, runs["A"].keys, runs["B"].keys)
                       if a != b]
                raise SystemExit(f"outputs differ between A and B in {len(bad)} ops, "
                                 f"first {bad[0]!r}")
            timed = {"A": [], "B": []}
            for i in range(passes):
                for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                    timed[side].append(runs[side].one_pass())
        finally:
            sys.path.remove(tmp)
            for name in [name for name in sys.modules if name.startswith(PREFIX)]:
                del sys.modules[name]  # so that a later call loads its own trees
    report = {"workload": workload, "seed": seed, "passes": passes, "ops": len(runs["A"].ops)}
    for side in ("A", "B"):
        report[side] = dict(workloads.end_to_end(timed[side]), failed=runs[side].failed,
                            errors=runs[side].errors)
    report["B/A"] = {m: report["B"][m] / report["A"][m] for m in METRICS}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    report = compare(args.root_a, args.root_b, args.workload, args.passes, args.seed)
    print(f"{args.workload}: seed {args.seed}, {report['ops']} ops, {args.passes} timed passes "
          f"a side, outputs equal; failed ops A {report['A']['failed']}, B {report['B']['failed']}")
    print(f"{'metric':<14}{'A':>14}{'B':>14}{'B/A':>8}")
    for m in METRICS:
        print(f"{m:<14}{report['A'][m]:>14.6g}{report['B'][m]:>14.6g}{report['B/A'][m]:>8.3f}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
