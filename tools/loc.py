#!/usr/bin/env python3
"""Code lines per module of a source tree, by Python's tokenizer.

    python3 tools/loc.py [ROOT]        # ROOT defaults to src/

A line counts when it holds a token other than a comment, a docstring or
the tokenizer's own layout tokens (newlines, indents, dedents), so blank
lines, comment lines and docstring lines do not count.  A docstring is the
string that opens a module, class or function body.  A statement spread
over several lines counts each line it spans, so re-wrapping code changes
the count; compare counts of code laid out the same way.

Prints one ``count path`` line per ``.py`` file under ROOT, in path order,
then the total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = frozenset({
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
})
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """``((row, col), (end_row, end_col))`` of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code."""
    docstrings = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type == tokenize.STRING and any(lo <= tok.start and tok.end <= hi for lo, hi in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
