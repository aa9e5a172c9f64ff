"""presic-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/presic_lab. Each workload
runs in a fresh single process (perfbench/workloads.py) with the BLAS and
OpenMP thread counts pinned to 1. With --trace 0 the last stdout line holds
the end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, taken from spans that perfbench/tracing.py records
around the library's public callables. Reports, with the machine and
version fingerprint, and the spans of the last traced run of each workload
go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0    # the whole run ends within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PRESIC_LAB_SEED"}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, env, deadline, on_probe=None):
    """Start a workload process; returns (seconds until it printed "ready", stdout lines).

    Each "probe" line the process prints calls on_probe() while the process
    waits, then lets it go on. The process leads its own process group. The
    group (with any CLI child still running) is killed if it outlives the
    deadline, and always reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *argv],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill_group, (proc,))
    watchdog.start()
    rest = []
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        for line in proc.stdout:
            if line == "probe\n" and on_probe is not None:
                on_probe()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                rest.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stdin.close()
        proc.wait()
        _kill_group(proc)
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return ready, rest


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "presic_lab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(report):
    return {
        "python": report["python"],
        "numpy": report["numpy"],
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "presic_lab" / "__init__.py").is_file():
        print(f"error: no presic_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    OUT.mkdir(exist_ok=True)
    # bytecode is compiled once here, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import presic_lab.cli"], env=env, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def probe():
        setups.append(spawn([*common, "--seconds", "0", "--setup-only"], env, deadline)[0])

    ready, lines = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                         env, deadline, on_probe=probe)
    setups.append(ready)
    report = json.loads(lines[-1])
    measured = dict(report["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    info = fingerprint(report)
    print(f"presic-lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint: " + json.dumps(info, sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name.ljust(width)}  {m['value']:.6g} {m['unit']}")
    print(f"checks: {report['attempted']} operations, {report['failed']} failed "
          f"(fail_ratio {report['failed'] / report['attempted']:.4g})")
    for err in report["errors"]:
        print(f"  failed: {err}")
    if report["known_defect"]:
        print(f"known defect reproduced {report['known_defect']} times: "
              "bounds --a without --picard (ROADMAP open item 4)")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"fingerprint": info, "known_defect": report["known_defect"],
                    "setups_s": setups, "errors": report["errors"], **result},
                   indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
