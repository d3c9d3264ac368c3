"""Count the code lines of the dpbox package: the non-blank lines outside
docstrings and comments, per module and in total.

    python tests/code_lines.py              # count src/dpbox of this checkout
    python tests/code_lines.py <package>    # count another package directory

A line counts when some token other than a comment starts, ends or runs
through it and it is not blank, so each line of a multi-line string or call
counts, and a line that holds only a comment does not. A docstring is the
string statement that opens a module, class or function body; its lines
never count.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dpbox")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    text = source.splitlines()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in lines - docstrings if text[n - 1].strip())


def count(package: str) -> dict:
    """module file name -> code lines, for every .py file of package."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=PACKAGE,
                        help="the package directory to count (default: src/dpbox)")
    counts = count(parser.parse_args(argv).package)
    width = max(map(len, counts), default=0)
    for name, lines in counts.items():
        print(f"{name:<{width}}  {lines:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
