"""Print the total and code lines of each module of a Python package.

A code line holds at least one token that is neither a comment nor part of
a docstring (a string statement first in a module, class or function body);
blank lines, comment lines and docstring lines are not code. A token that
spans lines, such as a multi-line string, makes each of its lines code.

    python tools/src_lines.py                  # src/presic_lab of this checkout
    python tools/src_lines.py path/to/package  # any other package directory
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "presic_lab"
# token types that are never code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree):
    """The (line, column) at which each docstring of `tree` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source):
    """(total lines, code lines) of Python `source`."""
    docstrings = _docstrings(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv):
    package = Path(argv[0]) if argv else PACKAGE
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        lines = count(path.read_text(encoding="utf-8"))
        totals = [t + n for t, n in zip(totals, lines)]
        print(f"{path.name:<16}{lines[0]:>7}{lines[1]:>7}")
    print(f"{'all':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
