"""Smoke tests: demos 01-05 run to completion in-process.

They are the only callers of ``Controller``'s roots, ``operator_sqrt`` and
the ``NonRealFormError`` path outside the library's own tests.  Demo 06 is
left out because it runs a benchmark grid that takes seconds.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("0[1-5]_*.py"))


def test_the_five_demos_are_found():
    assert [path.name[:2] for path in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
