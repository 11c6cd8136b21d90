"""The package code-line count (`tools/code_lines.py`)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment after code
# a comment alone


def join(x):
    """A function docstring."""
    y = os.path.join(
        "a",
        x)
    "a string statement is a docstring too"
    return y + """a string that is not
a docstring"""
'''


def test_code_lines_counts_lines_that_hold_a_token():
    # the import, the def, the three lines of the call and the two of the
    # returned string
    assert code_lines.code_lines(SOURCE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "a 7\nb 1\ntotal 8\n"
