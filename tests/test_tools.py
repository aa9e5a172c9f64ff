"""tools/src_lines.py, whose code-line count the ROADMAP's line numbers use."""

import importlib.util
from pathlib import Path

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
