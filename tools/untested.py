#!/usr/bin/env python3
"""Statements of ``src/framekit`` that the test suite never runs.

    python3 tools/untested.py [PYTEST_ARGS...]   # default: -q -p no:cacheprovider tests/

Runs pytest in this process under ``sys.settrace`` (and
``threading.settrace``), tracing only frames whose code lies in
``src/framekit``, and records every line that runs there.  Each statement
of those modules, as ``ast`` finds them, that compiles to code is credited
when any line of its header span runs: the whole of a simple statement,
and the lines before the body of a compound one (its decorators
included), so a condition spread over several lines counts.  A docstring,
a bare annotation or ``global`` compiles to nothing and is never listed.

Prints each statement never run as ``path:line: text``, with the path
relative to the repository and the statement's first line as ``text``,
and exits with pytest's status.  Code that runs only in a subprocess is
not traced: ``cli.py``'s two ``raise SystemExit(main())`` lines run only
when the CLI is started as a program.

Standard library and pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framekit"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]


def trace_lines(run, root: Path):
    """``(run(), fired)``: the result of ``run()`` and the set of
    ``(path, line)`` of each line it ran in a file under ``root``, with
    ``path`` resolved."""
    prefix = str(Path(root).resolve()) + os.sep
    fired: set[tuple[str, int]] = set()
    paths: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            fired.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.realpath(name)
            paths[name] = path if path.startswith(prefix) else None
        return local if paths[name] else None

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return result, fired


def _code_lines(code) -> set[int]:
    """Every line that an instruction of ``code`` or of a code object nested
    in it belongs to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header_span(node: ast.stmt) -> range:
    """The lines of ``node`` that run before its body: all of a simple
    statement, the decorators and header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if not isinstance(body, list):
        return range(first, node.end_lineno + 1)
    return range(first, max(node.lineno, body[0].lineno - 1) + 1)


def untested(path: Path, fired) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement of the module at ``path`` that
    compiles to code and none of whose header lines is in ``fired``, a set
    of ``(resolved path, line)``."""
    source = Path(path).read_text(encoding="utf-8")
    code_lines = _code_lines(compile(source, str(path), "exec"))
    ran = {line for name, line in fired if name == os.path.realpath(path)}
    text = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            span = _header_span(node)
            if not code_lines.isdisjoint(span) and ran.isdisjoint(span):
                missed.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(missed)


def main(argv=None) -> int:
    import pytest

    args = (sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    status, fired = trace_lines(lambda: pytest.main(args), PACKAGE)
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, text in untested(path, fired):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
