"""tools/codelines.py: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"

_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
on two lines."""

import os
from typing import (
    Any,
)

# A comment.
X = 1  # counted: the line holds a token


class C:
    """Class docstring."""

    def f(self) -> str:
        """Function docstring."""
        return """a string
that is no docstring"""
'''


def test_counts_only_code_lines():
    # X = 1, class C, def f and the two lines of the returned string.
    assert codelines.code_lines(SOURCE) == 5


def test_counts_the_package(capsys):
    src = TOOL.parent.parent / "src" / "bchnest"
    assert codelines.main([str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].split()[1] == "total"
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
