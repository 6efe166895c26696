"""``tools/untested.py`` on a small fixture module."""

import importlib.util
import os
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "untested.py"
_SPEC = importlib.util.spec_from_file_location("untested", _PATH)
untested = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(untested)

SOURCE = '''"""Fixture module."""

import math

LIMIT = 1


def sign(x):
    """Docstring: compiles to nothing."""
    result: str
    if (x > 0
            and x < LIMIT):
        return "small"
    if x < 0:
        raise ValueError(
            "negative"
        )
    return "other"


def unused():
    global LIMIT
    return math.pi
'''


def _fixture(tmp_path):
    path = tmp_path / "fixture_untested.py"
    path.write_text(SOURCE)
    return path


def test_lists_each_statement_the_traced_run_never_reached(tmp_path):
    path = _fixture(tmp_path)

    def run():
        spec = importlib.util.spec_from_file_location("fixture_untested", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.LIMIT = 10
        return module.sign(5)

    result, fired = untested.trace_lines(run, tmp_path)
    assert result == "small"
    assert {name for name, _ in fired} == {os.path.realpath(path)}
    # the function's docstring, its bare annotation and ``global`` compile
    # to nothing, so they are never listed
    assert untested.untested(path, fired) == [
        (14, "if x < 0:"),
        (15, "raise ValueError("),
        (18, 'return "other"'),
        (23, "return math.pi"),
    ]


def test_any_line_of_a_header_or_statement_credits_it(tmp_path):
    path = _fixture(tmp_path)
    real = os.path.realpath(path)
    everything = {(real, line) for line in range(1, 24)}
    assert untested.untested(path, everything) == []
    # only the second line of the two-line condition, and the last line of
    # the three-line raise, ran
    fired = everything - {(real, 11), (real, 15), (real, 16)}
    assert untested.untested(path, fired) == []
    missed = untested.untested(path, fired - {(real, 12), (real, 17)})
    assert missed == [(11, "if (x > 0"), (15, "raise ValueError(")]
    # lines of another file credit nothing: all eleven statements with code are listed
    other = {(str(tmp_path / "other.py"), line) for line in range(1, 24)}
    assert [line for line, _ in untested.untested(path, other)] == [1, 3, 5, 8, 11, 13, 14, 15, 18, 21, 23]
