"""tools/src_lines.py, whose code-line count the ROADMAP's line numbers use, and
tools/ab.py, the paired in-process timing of a workload on two checkouts."""

import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# code lines: 4, 9, 11, 12, 13 and 14; the rest are docstrings, comments or blank
SNIPPET = '''"""A module docstring
on two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """A function docstring."""
    y = x + os.sep
    """A string expression after code is code,
    on each of its lines."""
    return y
'''


def test_count_separates_code_from_docstrings_comments_and_blanks():
    assert src_lines.count(SNIPPET) == (14, 6)


ROOT = TOOL.parent.parent
_ab_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_ab_spec)
_ab_spec.loader.exec_module(ab)


def test_ab_reports_each_side_of_two_copies_of_one_tree():
    report = ab.compare(ROOT, ROOT, "solve-multistart", passes=2, seed=3)
    assert set(report) == {"workload", "seed", "passes", "ops", "A", "B", "B/A"}
    assert report["ops"] == 225 and report["passes"] == 2
    for side in ("A", "B"):
        assert set(report[side]) == set(ab.METRICS) | {"failed", "errors"}
        assert report[side]["failed"] == 0
    assert set(report["B/A"]) == set(ab.METRICS)


def test_ab_stops_at_outputs_that_differ(tmp_path):
    # a divergence factor of 1e11 ends the divergent runs a step earlier
    other = tmp_path / "src" / "presic_lab"
    shutil.copytree(ROOT / "src" / "presic_lab", other,
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = other / "solver.py"
    solver.write_text(solver.read_text().replace("DIVERGENCE_FACTOR = 1e12",
                                                 "DIVERGENCE_FACTOR = 1e11"))
    with pytest.raises(SystemExit, match=r"^outputs differ between A and B in 25 ops, "
                                         r"first 'divergent 2\*x1'$"):
        ab.compare(ROOT, tmp_path, "solve-multistart", passes=1, seed=3)
