#!/usr/bin/env python3
"""The deterministic CLI outputs of a checkout, with a SHA-256 manifest.

    python3 tools/outputs.py CHECKOUT OUTDIR     # write CHECKOUT's outputs into OUTDIR
    python3 tools/outputs.py --compare A B       # name and classify the files of A and B that differ

The first form runs ``framekit`` from ``CHECKOUT/src`` once per entry of
``COMMANDS``, each in a subprocess with ``OUTDIR`` as its working directory,
so every path the outputs mention is relative and two checkouts can be
compared byte for byte.  Each command's standard output goes to
``<name>.out`` and its standard error to ``<name>.err``, the files it
writes keep their names, and the exit codes go to ``exit_codes.json``.
``SHA256SUMS`` then lists every file in the format of ``sha256sum``.  The
commands cover the ``bench --deterministic`` CSVs of acceptance criterion 10
and of a grid over two instance kinds, four dims, two condition targets and
all three controllers, and one small ``bench`` and one ``gen`` run as
``--json --deterministic``, whose manifests record the seed, the grid and
every option; ``solve --json --deterministic`` plain, controlled,
capped and divergent, and controlled on the frame ``1e-30 I`` of ``C^3``
with ``C = 1e-300 diag(1, 2, 3)``, whose product ``C S`` underflows;
``check --k --c`` at d=8 as JSON and as text, and on the 3x3 identity
frame with ``K = 1e-200 I``, whose optimal lower bound exceeds the largest
float; ``check`` of the frames ``1e160 I`` as JSON and ``1e-170 I`` as text
in ``C^3``, whose frame operators overflow and underflow, and ``check --c
--json`` of the frame ``1e30 I`` with ``C = 1e250 diag(1, 2, 3)``, whose
product ``C S`` overflows; ``check --c --json`` of a 2x2 frame whose frame
operator has condition ``1e8`` with its exact inverse as the controller,
the ideal preconditioner; ``dual`` (a factoring pair and a refused one) at
d=8; and ``paper-example`` as text and as JSON.

``--compare`` reads both manifests and prints one line for each file whose
digest differs or that one side lacks, with its class:

- ``only in A`` or ``only in B``;
- ``keys``: both sides hold JSON objects or arrays that are equal once the
  listed key paths are removed (``-path``, only in A) or added (``+path``,
  only in B);
- ``different``: the first differing line of a text file, cell of a CSV
  file or leaf of a JSON tree, with its position and both values, and how
  many of them differ; or ``the same lines`` (cells, leaves) ``in other
  bytes``.  An array whose length differs counts as one differing leaf.

It exits 1 when it names any file, else 0.

Standard library only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

MANIFEST = "SHA256SUMS"
RUN_TIMEOUT_S = 900


def _diagonal(values: list) -> list:
    """The entries of ``diag(values)`` as ``[re, im]`` pairs, column by column."""
    dim = len(values)
    return [[values[i] * (i == j), 0.0] for j in range(dim) for i in range(dim)]


def _diagonal_frame(value: float, dim: int) -> dict:
    """The frame of the columns of ``value * I`` in ``C^dim``."""
    return {"dim": dim, "vectors": [[[value * (i == j), 0.0] for i in range(dim)] for j in range(dim)]}


_COS, _SIN = math.cos(0.5), math.sin(0.5)  # the rotation R = [[cos, -sin], [sin, cos]]


# Inputs this tool writes itself: a right-hand side at d=8; a Parseval
# family of 16 vectors in C^8 (the unit vectors and the Fourier basis, each
# scaled by 1/sqrt(2)), which factors every K as K = (K G) G*; the
# identity frame of C^3 with the operators 1e-200 I and I; the frames
# 1e160 I, 1e-170 I, 1e30 I and 1e-30 I of C^3; the controllers
# 1e250 diag(1, 2, 3) and 1e-300 diag(1, 2, 3); a right-hand side at d=3;
# and, with R the rotation by 0.5, the frame of the columns of
# R diag(1, 1e-4), whose frame operator R diag(1, 1e-8) R^T has condition
# 1e8, and its exact inverse R diag(1, 1e8) R^T as a controller.
INPUTS = {
    "rhs8.json": {"dim": 8, "entries": [[1.0 + k, 0.5 * (-1) ** k] for k in range(8)]},
    "parseval8.json": {
        "dim": 8,
        "vectors": [[[0.5 ** 0.5 * (j == k), 0.0] for k in range(8)] for j in range(8)]
        + [
            [[z.real, z.imag] for z in (cmath.exp(2j * cmath.pi * j * k / 8) / 4 for k in range(8))]
            for j in range(8)
        ],
    },
    "eye3-frame.json": _diagonal_frame(1.0, 3),
    "huge3-frame.json": _diagonal_frame(1e160, 3),
    "tiny3-frame.json": _diagonal_frame(1e-170, 3),
    "tiny3-k.json": {"dim": 3, "entries": _diagonal([1e-200] * 3)},
    "eye3-c.json": {"dim": 3, "entries": _diagonal([1.0] * 3)},
    "big3-frame.json": _diagonal_frame(1e30, 3),
    "small3-frame.json": _diagonal_frame(1e-30, 3),
    "huge3-c.json": {"dim": 3, "entries": _diagonal([1e250, 2e250, 3e250])},
    "tiny3-c.json": {"dim": 3, "entries": _diagonal([1e-300, 2e-300, 3e-300])},
    "rhs3.json": {"dim": 3, "entries": [[1.0, 0.0], [2.0, -0.5], [3.0, 0.5]]},
    "ideal2-frame.json": {
        "dim": 2, "vectors": [[[_COS, 0.0], [_SIN, 0.0]], [[-1e-4 * _SIN, 0.0], [1e-4 * _COS, 0.0]]],
    },
    "ideal2-c.json": {"dim": 2, "entries": [
        [_COS**2 + 1e8 * _SIN**2, 0.0], [(1.0 - 1e8) * _COS * _SIN, 0.0],
        [(1.0 - 1e8) * _COS * _SIN, 0.0], [_SIN**2 + 1e8 * _COS**2, 0.0],
    ]},
}

_GRID = ["--kinds", "ill-conditioned", "random-frame", "--dims", "1", "4", "16", "64",
         "--cond-targets", "10", "1e3", "--trials", "2"]
_SOLVE = ["solve", "ill8-frame.json", "--g", "rhs8.json", "--json", "--deterministic"]
_CHECK = ["check", "fam8-frame.json", "--k", "fam8-k.json", "--c", "fam8-c.json"]

COMMANDS = [
    ("gen-ill8", ["gen", "--kind", "ill-conditioned", "--dim", "8", "--cond-target", "100",
                  "--seed", "3", "--out-prefix", "ill8"]),
    ("gen-fam8", ["gen", "--kind", "commuting-family", "--dim", "8", "--seed", "5",
                  "--out-prefix", "fam8"]),
    ("gen-json", ["gen", "--kind", "random-frame", "--dim", "3", "--count", "5", "--seed", "2",
                  "--json", "--deterministic", "--out-prefix", "gen-json"]),
    ("solve-plain", [*_SOLVE, "--out", "solve-plain.json"]),
    ("solve-controlled", ["solve", "fam8-frame.json", "--g", "rhs8.json", "--c", "fam8-c.json",
                          "--json", "--deterministic", "--out", "solve-controlled.json"]),
    ("solve-capped", [*_SOLVE, "--max-iter", "5", "--out", "solve-capped.json"]),
    ("solve-divergent", [*_SOLVE, "--relaxation", "1e300", "--max-iter", "50",
                         "--out", "solve-divergent.json"]),
    ("solve-tiny-controller", ["solve", "small3-frame.json", "--g", "rhs3.json", "--c", "tiny3-c.json",
                               "--json", "--deterministic", "--out", "solve-tiny-controller.json"]),
    ("check", [*_CHECK, "--json", "--deterministic"]),
    ("check-text", [*_CHECK, "--deterministic"]),
    ("check-tiny-k", ["check", "eye3-frame.json", "--k", "tiny3-k.json", "--c", "eye3-c.json",
                      "--json", "--deterministic"]),
    ("check-huge-frame", ["check", "huge3-frame.json", "--json", "--deterministic"]),
    ("check-tiny-frame", ["check", "tiny3-frame.json", "--deterministic"]),
    ("check-huge-controller", ["check", "big3-frame.json", "--c", "huge3-c.json", "--json",
                               "--deterministic"]),
    ("check-ideal-controller", ["check", "ideal2-frame.json", "--c", "ideal2-c.json", "--json",
                                "--deterministic"]),
    ("dual", ["dual", "--g", "parseval8.json", "--k", "fam8-k.json", "--out", "dual-h.json",
              "--json", "--deterministic"]),
    ("dual-refused", ["dual", "--g", "fam8-frame.json", "--k", "fam8-k.json",
                      "--out", "dual-refused-h.json", "--json", "--deterministic"]),
    ("bench-criterion10", ["bench", "--kinds", "ill-conditioned", "--dims", "4", "8",
                           "--cond-targets", "10", "100", "--trials", "2", "--seed", "42",
                           "--deterministic", "--out", "bench-criterion10.csv"]),
    ("bench-json", ["bench", "--kinds", "ill-conditioned", "--dims", "4", "--cond-targets", "10",
                    "--trials", "2", "--controller", "identity", "--residual-tol", "1e-6",
                    "--max-iter", "500", "--seed", "7", "--json", "--deterministic",
                    "--out", "bench-json.csv"]),
    *(
        (f"bench-grid-{ctrl}", ["bench", *_GRID, "--controller", ctrl, "--deterministic",
                                "--out", f"bench-grid-{ctrl}.csv"])
        for ctrl in ("identity", "exact-inverse", "jacobi")
    ),
    ("paper-example", ["paper-example", "--deterministic"]),
    ("paper-example-json", ["paper-example", "--json", "--deterministic"]),
]


def run_cli(checkout: Path, argv: list, cwd: Path) -> subprocess.CompletedProcess:
    """``framekit ARGV`` from ``checkout/src``, run in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    return subprocess.run(
        [sys.executable, "-c", "from framekit.cli import entry; entry()", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )


def write_manifest(outdir: Path) -> dict:
    """Hash every file under ``outdir`` but the manifest; write and return it."""
    digests = {
        path.relative_to(outdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(outdir.rglob("*"))
        if path.is_file() and path.name != MANIFEST
    }
    (outdir / MANIFEST).write_text("".join(f"{d}  {name}\n" for name, d in digests.items()))
    return digests


def read_manifest(outdir: Path) -> dict:
    digests = {}
    for line in (Path(outdir) / MANIFEST).read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def differing(a: dict, b: dict) -> list:
    """Names whose digests differ between two manifests, or that one lacks."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _json_tree(text: str):
    """The JSON object or array that ``text`` holds, else ``None``."""
    try:
        tree = json.loads(text)
    except ValueError:
        return None
    return tree if isinstance(tree, (dict, list)) else None


def _tree_diff(a, b, path: str, keys: list, leaves: list) -> None:
    """Append to ``keys`` each key path only one tree has (``-`` for ``a``,
    ``+`` for ``b``), and to ``leaves`` each ``(path, a, b)`` where the trees
    stop branching alike: at leaves, arrays of two lengths or two types."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys += [f"-{path}{k}" for k in a if k not in b] + [f"+{path}{k}" for k in b if k not in a]
        for k in a:
            if k in b:
                _tree_diff(a[k], b[k], f"{path}{k}.", keys, leaves)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _tree_diff(x, y, f"{path.rstrip('.')}[{i}].", keys, leaves)
    else:
        leaves.append((path.rstrip("."), a, b))


def _short(value, width: int = 100) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def _first(kind: str, pairs: list) -> str:
    """``different``, with the first ``(where, a, b)`` of ``pairs`` whose values
    differ and how many do.  ``repr`` tells ``1`` from ``1.0`` and ``True``,
    and a missing line or cell (``None``) from an empty one."""
    kinds = "leaves" if kind == "leaf" else f"{kind}s"
    diffs = [(where, a, b) for where, a, b in pairs if repr(a) != repr(b)]
    if not diffs:
        return f"different: the same {kinds} in other bytes"
    where, a, b = diffs[0]
    return f"different: {kind} {where}: {_short(a)} != {_short(b)} ({len(diffs)} of {len(pairs)} {kinds} differ)"


def classify(a: Path, b: Path) -> str:
    """How file ``b`` differs from file ``a``: ``keys: ...`` or ``different: ...``."""
    text_a, text_b = Path(a).read_text(), Path(b).read_text()
    tree_a, tree_b = _json_tree(text_a), _json_tree(text_b)
    if tree_a is not None and tree_b is not None:
        keys, leaves = [], []
        _tree_diff(tree_a, tree_b, "", keys, leaves)
        if keys and all(repr(x) == repr(y) for _, x, y in leaves):
            return "keys: " + " ".join(keys)
        return _first("leaf", leaves)
    if Path(a).suffix == ".csv":
        rows_a, rows_b = (list(csv.reader(text.splitlines())) for text in (text_a, text_b))
        header = rows_a[0] if rows_a else []
        return _first("cell", [
            (f"row {r + 1}, column {header[c] if c < len(header) else c + 1}", x, y)
            for r, (row_a, row_b) in enumerate(zip_longest(rows_a, rows_b, fillvalue=[]))
            for c, (x, y) in enumerate(zip_longest(row_a, row_b))
        ])
    lines = zip_longest(text_a.splitlines(), text_b.splitlines())
    return _first("line", [(k + 1, x, y) for k, (x, y) in enumerate(lines)])


def compare(a: Path, b: Path) -> list:
    """One ``name: class`` line for each file that differs between two output directories."""
    digests_a, digests_b = read_manifest(a), read_manifest(b)
    return [
        f"{name}: only in A" if name not in digests_b else
        f"{name}: only in B" if name not in digests_a else
        f"{name}: {classify(Path(a) / name, Path(b) / name)}"
        for name in differing(digests_a, digests_b)
    ]


def write_outputs(checkout: Path, outdir: Path, commands=COMMANDS) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, obj in INPUTS.items():
        (outdir / name).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    codes = {}
    for name, argv in commands:
        done = run_cli(checkout, argv, outdir)
        (outdir / f"{name}.out").write_text(done.stdout)
        (outdir / f"{name}.err").write_text(done.stderr)
        codes[name] = done.returncode
    (outdir / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return write_manifest(outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs=2, type=Path, metavar="PATH",
                        help="CHECKOUT OUTDIR, or with --compare two output directories")
    parser.add_argument("--compare", action="store_true", help="compare two output directories")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*args.paths)
        for line in lines:
            print(line)
        return 1 if lines else 0
    digests = write_outputs(*args.paths)
    print(f"{len(digests)} files written to {args.paths[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
