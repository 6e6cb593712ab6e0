"""Count the code lines of Python files.

    python tools/codelines.py [PATH ...]

A code line holds at least one token and is not a comment, a docstring or
an import statement.  Lines come from ``tokenize`` (a string that spans
lines holds every line it spans), docstrings and imports from ``ast``.  Each
PATH is a file or a directory searched for ``*.py``; the default is
``src/bchnest``.  Prints one count per file and their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _excluded(tree: ast.AST) -> set[int]:
    """Lines of the docstrings and import statements in a module."""
    out: set[int] = set()
    for node in ast.walk(tree):
        spans = []
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            spans.append(node)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            spans.append(node.body[0])
        for span in spans:
            out.update(range(span.lineno, span.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _excluded(ast.parse(source)))


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for arg in argv or ["src/bchnest"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
