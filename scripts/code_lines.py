#!/usr/bin/env python3
"""Count the code lines of each module of a package, its subpackages included, and in total.

A code line is a source line that carries at least one token other than a
comment, an indent, a dedent or a line break, and that is not part of a
docstring: the string statement that opens a module, a class or a function.
A token spanning several lines (a multi-line string that is not a docstring)
counts each of them.  So blank lines, comments and docstrings are left out,
and reformatting a docstring or a comment changes no count.

Usage: python scripts/code_lines.py [PACKAGE_DIR]   (default: this repository's src/cfasym)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "cfasym"
    # a subpackage's modules are named by their path under the package, as cli/checks.py
    counts = {path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.rglob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
