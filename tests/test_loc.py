"""``tools/loc.py`` on a fixed source string."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return (self.size
                * self.size)


def empty():
    "single-quoted docstring"
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, size, def area, text (2 lines), return (2 lines), def empty
    assert loc.count_code_lines(SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["11", "total"],
    ]
