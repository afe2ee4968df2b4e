"""The code-line count of tools/code_lines.py: docstrings, comments and
blank lines do not count; every line of any other statement does."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (
            1
        )
'''


def test_counts_code_lines_only():
    # import, class, x (2 lines), def, return (3 lines).
    assert code_lines.code_lines(SOURCE) == 8


def test_empty_and_docstring_only_sources():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
