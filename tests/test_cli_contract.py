"""Contract fuzz of the command line: every subcommand with a JSON report.

For ``check``, ``dual`` and ``solve``, Hypothesis builds input files for
dims up to 8: well-formed objects, then one mutation each from wrong
types, wrong shapes, bad bytes and huge, tiny or non-finite numbers, and
flag values at and beyond their ranges.  ``bench`` and ``gen`` read no
files; they get tiny grids and instances with flag values at and beyond
their ranges, condition targets ``nan``, ``inf`` and ``na`` among them.
Each subcommand draws only the shared options that its parser takes.
``cli.main`` runs in-process.  Whatever the input, the run must

* return an exit code in {0, 1, 2, 3} and raise nothing;
* print no ``Traceback`` on stderr;
* print, under ``--json``, a stdout that ``json.loads`` parses as strict
  JSON (no ``NaN`` or ``Infinity`` token);
* leave only files that load back through framekit's own loaders, and
  a ``bench`` CSV with the header and row width of ``CSV_COLUMNS``;
* for an exit-0 ``solve``, write a solution ``f`` that meets
  ``||g - S f|| <= residual_tol (1 + 1e-3) ||g||``, computed on
  power-of-two-scaled operands (``conftest.relative_residual``).
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relative_residual
from framekit import INSTANCE_KINDS, load_frame, load_operator, load_vector
from framekit.bench import CSV_COLUMNS
from framekit.cli import _build_parser, main

FUZZ = settings(derandomize=True, deadline=None, max_examples=120)

# Values a number in an input file may take besides an ordinary one.
SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 1e-200, 1e150, 1e200, 1e308, -1e308,
           math.inf, -math.inf, math.nan, 10**400, True, 7]
# Values a field may take when its type is wrong.
JUNK = [None, "1.0", [], {}, [1.0], [1.0, 2.0, 3.0], ["a", "b"], [[1.0, 0.0]], True, 2.5]


@st.composite
def matrices(draw, rows, cols):
    """A complex ``rows x cols`` array: Gaussian, scaled, or a structured one."""
    kind = draw(st.sampled_from(["gaussian", "identity", "diagonal", "zero", "rank-one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "gaussian":
        A = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    elif kind == "identity":
        A = np.eye(rows, cols, dtype=np.complex128)
    elif kind == "diagonal":
        A = np.eye(rows, cols) * rng.uniform(0.1, 4.0, size=cols)
    elif kind == "zero":
        A = np.zeros((rows, cols))
    else:
        A = np.outer(rng.normal(size=rows), rng.normal(size=cols))
    scale = draw(st.sampled_from([1.0] * 12 + [1e-300, 1e-160, 1e150, 1e300]))
    return np.asarray(A, dtype=np.complex128) * scale


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


@st.composite
def file_bytes(draw, kind, dim, mutate=True):
    """The bytes of a frame, operator or vector file of ``dim``, with one
    mutation drawn when ``mutate`` is set.  A frame has 1 to 10 vectors,
    mostly at least ``dim``."""
    if kind == "frame":
        count = draw(st.integers(1, 10) if draw(st.integers(0, 3)) == 0 else st.integers(dim, 10))
        A = draw(matrices(dim, count))
        obj = {"dim": dim, "vectors": [_pairs(A[:, j]) for j in range(count)]}
        entries = obj["vectors"][draw(st.integers(0, count - 1))]
    else:
        A = draw(matrices(dim, dim if kind == "operator" else 1))
        obj = {"dim": dim, "entries": _pairs(A.flatten(order="F"))}
        entries = obj["entries"]

    mutation = "none" if not mutate else draw(st.sampled_from([
        "number", "number", "entry", "dim", "key", "top", "drop", "extra", "truncate", "bytes",
    ]))
    if mutation == "number":
        pair = entries[draw(st.integers(0, len(entries) - 1))]
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from(SPECIAL))
    elif mutation == "entry":
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(JUNK))
    elif mutation == "dim":
        obj["dim"] = draw(st.sampled_from([0, -1, dim + 1, max(dim - 1, 1), "3", 2.5, True, None, 10**400]))
    elif mutation == "key":
        obj.pop(draw(st.sampled_from(sorted(obj))))
    elif mutation == "top":
        obj = draw(st.sampled_from(JUNK + [[obj]]))
    elif mutation == "drop" and len(entries) > 1:
        entries.pop()
    elif mutation == "extra":
        entries.append(list(entries[0]) if entries else [0.0, 0.0])
    text = json.dumps(obj).encode("utf-8")
    if mutation == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if mutation == "bytes":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\x00", b"\xc3("])) + text[cut:]
    return text


def flags(*choices):
    """No flag three times in four, else one of ``choices``."""
    return st.sampled_from([[]] * (3 * len(choices)) + [list(choice) for choice in choices])


# Values of each shared option at and beyond its range.
SHARED_VALUES = {
    "--tol-rel": ["1e-6", "0", "1", "nan"],
    "--tol-psd": ["1e-300", "-1"],
    "--rank-rel": ["1e-3", "2"],
    "--seed": ["5", "-1"],
}


def shared_flags(command):
    """:func:`flags` over the options of ``command``'s "shared options"
    group in ``_build_parser()``, each with its ``SHARED_VALUES``, and
    ``--deterministic``; ``--json`` is drawn on its own."""
    (commands,) = (a.choices for a in _build_parser()._actions if a.dest == "command")
    (group,) = (g for g in commands[command]._action_groups if g.title == "shared options")
    options = [flag for action in group._group_actions for flag in action.option_strings]
    assert set(options) <= set(SHARED_VALUES) | {"--json", "--deterministic"}, options
    return flags(*[(flag, value) for flag in options for value in SHARED_VALUES.get(flag, [])], ("--deterministic",))


@st.composite
def inputs(draw, kinds, dim):
    """Input files ``{name: bytes}`` for ``{name: kind}``; at most one is
    mutated, in one run of three."""
    broken = draw(st.sampled_from([None] * (2 * len(kinds)) + list(kinds)))
    return {name: draw(file_bytes(kind, dim, mutate=name == broken)) for name, kind in kinds.items()}


@st.composite
def check_runs(draw):
    dim = draw(st.integers(1, 8))
    kinds = {"frame.json": "frame"}
    argv = ["check", "frame.json"]
    for flag in ("k", "c"):
        if draw(st.booleans()):
            kinds[f"{flag}.json"] = "operator"
            argv += [f"--{flag}", f"{flag}.json"]
    files = draw(inputs(kinds, dim))
    if len(kinds) > 1 and draw(st.integers(0, 4)) == 0:  # an operator of another dimension
        name = draw(st.sampled_from(sorted(kinds)[:-1]))
        files[name] = draw(file_bytes("operator", dim + 1, mutate=False))
    return files, argv, {}


@st.composite
def dual_runs(draw):
    dim = draw(st.integers(1, 8))
    kinds = {"g.json": "frame", "k.json": "operator"}
    argv = ["dual", "--g", "g.json", "--k", "k.json", "--out", "out.json"]
    if draw(st.booleans()):
        kinds["f.json"] = "frame"
        argv += ["--f", "f.json"]
    return draw(inputs(kinds, dim)), argv, {"out.json": load_frame}


@st.composite
def solve_runs(draw):
    dim = draw(st.integers(1, 8))
    kinds = {"frame.json": "frame", "g.json": "vector"}
    argv = ["solve", "frame.json", "--g", "g.json", "--out", "out.json"]
    if draw(st.booleans()):
        kinds["c.json"] = "operator"
        argv += ["--c", "c.json"]
    argv += ["--max-iter", draw(st.sampled_from(["200"] * 6 + ["0", "-1", "1", "50"]))]
    argv += draw(flags(
        ("--relaxation", "0"), ("--relaxation", "-1"), ("--relaxation", "1e300"),
        ("--relaxation", "nan"), ("--relaxation", "inf"), ("--relaxation", "0.5"),
        ("--residual-tol", "0"), ("--residual-tol", "-1"), ("--residual-tol", "nan"),
        ("--residual-tol", "1e-300"),
    ))
    return draw(inputs(kinds, dim)), argv, {"out.json": load_vector}


def _load_csv(path):
    """Refuse a benchmark CSV whose header or row widths are not ``CSV_COLUMNS``'s."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    assert header == list(CSV_COLUMNS), header
    assert all(len(row) == len(CSV_COLUMNS) for row in rows), rows


@st.composite
def bench_runs(draw):
    def some(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2))

    argv = ["bench", "--kinds", *some(INSTANCE_KINDS), "--dims", *some(["1", "2", "3", "4", "0", "-1"]),
            "--cond-targets", *some(["1", "10", "1e3", "0.5", "nan", "inf", "na"]),
            "--trials", draw(st.sampled_from(["1"] * 4 + ["2", "0"])),
            "--max-iter", draw(st.sampled_from(["1", "50", "200"])), "--out", "out.csv"]
    argv += draw(flags(
        ("--controller", "identity"), ("--controller", "exact-inverse"),
        ("--residual-tol", "0"), ("--residual-tol", "nan"), ("--residual-tol", "1e-300"),
    ))
    return {}, argv, {"out.csv": _load_csv}


@st.composite
def gen_runs(draw):
    argv = ["gen", "--kind", draw(st.sampled_from(INSTANCE_KINDS)), "--out-prefix", "inst"]
    argv += draw(st.sampled_from([[]] + [["--dim", dim] for dim in ("1", "3", "3", "6", "0", "-2")]))
    argv += draw(flags(("--count", "3"), ("--count", "12"), ("--count", "0")))
    argv += draw(st.sampled_from([[]] + [["--cond-target", v] for v in ("1", "1e3", "0.5", "nan", "inf", "na")]))
    return {}, argv, {"inst-frame.json": load_frame, "inst-k.json": load_operator, "inst-c.json": load_operator}


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def _solve_meets_its_tolerance(argv, code, work):
    """The residual oracle of an exit-0 ``solve``."""
    if code != 0:
        return
    tol = float(argv[argv.index("--residual-tol") + 1]) if "--residual-tol" in argv else 1e-8
    frame, g, f = (loader(os.path.join(work, name)) for loader, name in
                   ((load_frame, "frame.json"), (load_vector, "g.json"), (load_vector, "out.json")))
    if not g.any():
        assert not f.any(), argv  # the zero right-hand side has the zero solution
        return
    assert relative_residual(frame.matrix, f, g) <= tol * (1 + 1e-3), argv


def _run_contract(run, as_json, shared, oracle=None):
    files, argv, loaders = run
    argv = argv + shared + (["--json"] if as_json else [])
    with tempfile.TemporaryDirectory() as work:
        for name, data in files.items():
            with open(os.path.join(work, name), "wb") as handle:
                handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
        if as_json and out.getvalue():
            json.loads(out.getvalue(), parse_constant=_refuse)
        written = set(os.listdir(work)) - set(files)
        assert written <= set(loaders), (argv, written)
        for name in written:
            loaders[name](os.path.join(work, name))
        if oracle is not None:
            oracle(argv, code, work)


@FUZZ
@given(check_runs(), st.booleans(), shared_flags("check"))
def test_check_keeps_the_contract(run, as_json, shared):
    _run_contract(run, as_json, shared)


@FUZZ
@given(dual_runs(), st.booleans(), shared_flags("dual"))
def test_dual_keeps_the_contract(run, as_json, shared):
    _run_contract(run, as_json, shared)


@FUZZ
@given(solve_runs(), st.booleans(), shared_flags("solve"))
def test_solve_keeps_the_contract(run, as_json, shared):
    _run_contract(run, as_json, shared, oracle=_solve_meets_its_tolerance)


@FUZZ
@given(bench_runs(), st.booleans(), shared_flags("bench"))
def test_bench_keeps_the_contract(run, as_json, shared):
    _run_contract(run, as_json, shared)


@FUZZ
@given(gen_runs(), st.booleans(), shared_flags("gen"))
def test_gen_keeps_the_contract(run, as_json, shared):
    _run_contract(run, as_json, shared)


def test_solve_refuses_a_residual_tolerance_it_cannot_certify():
    # Found by the fuzz at seed 20261023: at --residual-tol 1e-300 this solve
    # of a frame of C^1 exited 0 with final_residual 0.0, while the oracle's
    # residual of its solution read 1.39e-16.  The tolerance floor is 2^-52.
    files = {
        "frame.json": json.dumps({"dim": 1, "vectors": [[[0.1257302210933933, -0.1321048632913019]]]}).encode(),
        "g.json": json.dumps({"dim": 1, "entries": [[0.345584192064786, 0.8216181435011584]]}).encode(),
    }
    codes = []

    def oracle(argv, code, work):
        codes.append(code)
        _solve_meets_its_tolerance(argv, code, work)

    for tol in ("1e-300", repr(2.0**-52)):
        argv = ["solve", "frame.json", "--g", "g.json", "--out", "out.json", "--residual-tol", tol]
        _run_contract((files, argv, {"out.json": load_vector}), True, ["--deterministic"], oracle)
    assert codes == [1, 0]
