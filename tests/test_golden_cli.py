"""The CLI's outputs, byte for byte, against tests/golden/cli.json.

The golden file holds, for `solve` (json, csv, --picard), `bounds --eta 0.5`,
`bounds --a 0.1`, `verify` (plain, --grid, --strict-domain) and `estimate-b`
(plain, --grid) on each problems/*.json and for each demo name, the exit
code, the stderr and the stdout with its timestamp stripped, under a
header naming the numpy version and the platform that wrote it. Run this
file as a script to rewrite it from the package on the import path:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

from presic_lab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
# (command, options) run on each problem file
VARIANTS = (("solve",), ("solve", "--format", "csv"), ("solve", "--picard"),
            ("bounds", "--eta", "0.5"), ("bounds", "--a", "0.1"),
            ("verify",), ("verify", "--grid"), ("verify", "--strict-domain"),
            ("estimate-b",), ("estimate-b", "--grid"))


def _header():
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def _argvs():
    problems = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "problems").glob("*.json"))
    return ([[command, path, *options] for path in problems for command, *options in VARIANTS]
            + [["demo", name] for name in cli.DEMO_NAMES])


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _run(argv):
    """One in-process CLI call, run from the repository root. A JSON stdout
    must parse without NaN or Infinity, and no stderr may hold a traceback,
    so neither the test nor a rewrite of the golden file can pin either."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', out.getvalue())
    if stdout and argv[0] != "demo" and "csv" not in argv:
        json.loads(stdout, parse_constant=_not_json)
    assert "Traceback" not in err.getvalue(), " ".join(argv)
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()}


def test_cli_outputs_match_the_golden_file(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, value in _header().items():
        assert golden[key] == value, (
            f"{GOLDEN.name} was written under {key} {golden[key]}, this is {value}: "
            f"rewrite it with `PYTHONPATH=src python tests/{Path(__file__).name}` "
            f"from a checkout whose outputs are known good")
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("PRESIC_LAB_SEED", raising=False)
    assert [case["argv"] for case in golden["cases"]] == _argvs()
    for case in golden["cases"]:
        assert _run(case["argv"]) == case, " ".join(case["argv"])


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("PRESIC_LAB_SEED", None)
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus = dict(_header(), cases=[_run(argv) for argv in _argvs()])
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus['cases'])} cases to {GOLDEN}")
