#!/usr/bin/env python3
"""The deterministic CLI outputs of a checkout, with a SHA-256 manifest.

    python3 tools/outputs.py CHECKOUT OUTDIR     # write CHECKOUT's outputs into OUTDIR
    python3 tools/outputs.py --compare A B       # name the files of A and B that differ

The first form runs ``framekit`` from ``CHECKOUT/src`` once per entry of
``COMMANDS``, each in a subprocess with ``OUTDIR`` as its working directory,
so every path the outputs mention is relative and two checkouts can be
compared byte for byte.  Each command's standard output goes to
``<name>.out`` and its standard error to ``<name>.err``, the files it
writes keep their names, and the exit codes go to ``exit_codes.json``.
``SHA256SUMS`` then lists every file in the format of ``sha256sum``.  The
commands cover the ``bench --deterministic`` CSVs of acceptance criterion 10
and of a grid over two instance kinds, four dims, two condition targets and
all three controllers; ``solve --json --deterministic`` plain, controlled,
capped and divergent, and controlled on the frame ``1e-30 I`` of ``C^3``
with ``C = 1e-300 diag(1, 2, 3)``, whose product ``C S`` underflows;
``check --k --c`` at d=8 as JSON and as text, and on the 3x3 identity
frame with ``K = 1e-200 I``, whose optimal lower bound exceeds the largest
float; ``check`` of the frames ``1e160 I`` as JSON and ``1e-170 I`` as text
in ``C^3``, whose frame operators overflow and underflow, and ``check --c
--json`` of the frame ``1e30 I`` with ``C = 1e250 diag(1, 2, 3)``, whose
product ``C S`` overflows; ``dual`` (a factoring pair and a refused one) at
d=8; and ``paper-example`` as text and as JSON.

``--compare`` reads both manifests and prints each file whose digest
differs or that one side lacks.  It exits 1 when it names any, else 0.

Standard library only.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import subprocess
import sys
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


# Inputs this tool writes itself: a right-hand side at d=8; a Parseval
# family of 16 vectors in C^8 (the unit vectors and the Fourier basis, each
# scaled by 1/sqrt(2)), which factors every K as K = (K G) G*; the
# identity frame of C^3 with the operators 1e-200 I and I; the frames
# 1e160 I, 1e-170 I, 1e30 I and 1e-30 I of C^3; the controllers
# 1e250 diag(1, 2, 3) and 1e-300 diag(1, 2, 3); and a right-hand side at d=3.
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
    ("dual", ["dual", "--g", "parseval8.json", "--k", "fam8-k.json", "--out", "dual-h.json",
              "--json", "--deterministic"]),
    ("dual-refused", ["dual", "--g", "fam8-frame.json", "--k", "fam8-k.json",
                      "--out", "dual-refused-h.json", "--json", "--deterministic"]),
    ("bench-criterion10", ["bench", "--kinds", "ill-conditioned", "--dims", "4", "8",
                           "--cond-targets", "10", "100", "--trials", "2", "--seed", "42",
                           "--deterministic", "--out", "bench-criterion10.csv"]),
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
        names = differing(read_manifest(args.paths[0]), read_manifest(args.paths[1]))
        for name in names:
            print(name)
        return 1 if names else 0
    digests = write_outputs(*args.paths)
    print(f"{len(digests)} files written to {args.paths[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
