"""tools/code_lines.py, which counts the code lines of the code budget."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: 4, 7 and 8 (a bracketed continuation), 12 and 13 (a string
# that is not a docstring), 14 and 15.  Docstring lines: 1, 2 and 9.
FIXTURE = '''"""A module docstring,
over two lines."""

import os


def join(first,
         second):
    """A function docstring."""
    # A comment-only line.

    text = """a string
that is not a docstring"""
    return (os.path.join(first, second)
            + text)
'''


def test_count_lines_of_a_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.count_lines(path) == (7, 3)
