"""Command-line interface.

One binary, six subcommands::

    framekit check          verify frame / K-frame / controlled properties
    framekit dual           construct the dual system on range(K)
    framekit solve          invert the frame operator iteratively
    framekit bench          plain-vs-controlled Richardson benchmark grid
    framekit paper-example  the built-in C^3 worked example
    framekit gen            write a generated instance to JSON files

Exit codes: 0 the requested property holds / the run succeeded; 1 input
error (unreadable or malformed files, bad flags); 2 the property fails or a
mathematical precondition is violated, or a solve diverged to non-finite
values (no solution is written then); 3 the solver hit its iteration cap
(outputs are still written).

Every JSON report embeds a run manifest: command, inputs, the seed (``bench``
and ``gen`` only), the effective tolerances, outputs and exit code.  Each
subcommand takes only the shared options it reads.  Reports carry a wall-clock
timestamp unless ``--deterministic`` is given, in which case reruns are
byte-identical.  ``main`` prints each report as ``serialize`` writes it, in
strict JSON: a number that is not finite (a bound beyond the largest float, a
diverged residual, a ``nan`` flag value) is written as ``null``.  Input
validation never produces a stack trace — errors come back as
``file: position: message`` diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .bench import CONTROLLER_STRATEGIES, run_benchmark, rows_to_csv
from .controlled import controlled_kframe_check, make_controller
from .errors import (
    InvalidParametersError,
    NotPositiveDefiniteError,
    ParseError,
    ToolkitError,
)
from .frames import FrameSequence, frame_bounds, frame_operator, synthesis
from .instances import INSTANCE_KINDS, c3_example, generate_instance
from .kframes import construct_kframe, interchange_dual, kframe_check
from .operators import DEFAULT_TOL, Tolerances, _pow2_scaled, numerical_rank, range_basis
from .serialize import (
    _dumps,
    frame_to_obj,
    load_frame,
    load_operator,
    load_vector,
    operator_to_obj,
    save_frame,
    save_operator,
    save_vector,
    vector_to_obj,
)
from .solvers import SolverConfig, controlled_richardson_solve

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROPERTY = 2
EXIT_NOT_CONVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors follow the exit-code contract (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _manifest(args, tol: Tolerances, inputs: dict, outputs: list, exit_code: int) -> dict:
    manifest = {
        "command": args.command,
        "inputs": inputs,
        **({"seed": args.seed} if "seed" in args else {}),
        "tolerances": dataclasses.asdict(tol),
        "outputs": list(outputs),
        "exit_code": exit_code,
    }
    if not args.deterministic:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def _fields_obj(report, rank_k: int) -> dict:
    """Every field of a verdict report, its ``witness`` as a vector object,
    and ``rank_k``, the numerical rank of the checked ``K``."""
    obj = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    witness = None if report.witness is None else vector_to_obj(report.witness)
    return {**obj, "witness": witness, "rank_k": rank_k}


# ---------------------------------------------------------------------------
# subcommands
#
# Each takes the parsed arguments and the tolerances and returns
# ``(report, lines, exit_code, inputs, outputs)``: the JSON report without
# its manifest, the text output, and what the manifest records.  ``main``
# attaches the manifest and prints the report or the lines.


def cmd_check(args, tol: Tolerances):
    frame = load_frame(args.frame)
    inputs = {"frame": args.frame}

    fb = frame_bounds(frame, tol)
    report = {"frame": {"lower": fb.lower, "upper": fb.upper, "is_frame": fb.is_frame}}
    lines = [
        f"frame: {frame.count} vectors in C^{frame.dim}; "
        f"bounds lower={fb.lower} upper={fb.upper} -> {'frame' if fb.is_frame else 'not a frame'}"
    ]
    holds = fb.is_frame

    # Without --k the controlled check takes K = I, whose rank is the dimension.
    K, rank = np.eye(frame.dim, dtype=np.complex128), frame.dim
    if args.k is not None:
        K = load_operator(args.k)
        inputs["k"] = args.k
        krep = kframe_check(frame, K, tol)
        rank = numerical_rank(K, tol)  # one SVD of K serves both reports
        report["kframe"] = _fields_obj(krep, rank)
        verdict = "K-frame" if krep.is_kframe else "not a K-frame"
        lines.append(
            f"kframe: rank(K)={rank}; optimal bounds "
            f"({krep.lower_opt}, {krep.upper_opt}) -> {verdict}"
            + (" (vacuous: K = 0)" if krep.vacuous else "")
        )
        holds = krep.is_kframe

    if args.c is not None:
        ctrl = make_controller(load_operator(args.c), tol)
        inputs["c"] = args.c
        crep = controlled_kframe_check(frame, K, ctrl, tol)
        report["controlled"] = _fields_obj(crep, rank)
        verdict = "controlled K-frame" if crep.is_controlled_kframe else "not a controlled K-frame"
        lines.append(
            f"controlled: optimal bounds ({crep.lower_opt}, {crep.upper_opt}) -> {verdict}"
        )
        holds = crep.is_controlled_kframe

    return report, lines, EXIT_OK if holds else EXIT_PROPERTY, inputs, []


def cmd_dual(args, tol: Tolerances):
    frame_g = load_frame(args.g)
    K = load_operator(args.k)
    inputs = {"g": args.g, "k": args.k}
    if args.f is not None:
        frame_f = load_frame(args.f)
        inputs["f"] = args.f
    else:
        frame_f, _ = construct_kframe(frame_g, K)  # {K g_n}
    dual = interchange_dual(frame_g, K, tol, frame_f=frame_f)

    # Reconstruction on range(K): f = sum <f,h_n> f_n = sum <f,f_n> h_n.  With Q
    # an orthonormal basis of range(K), the largest relative residual of
    # f -> A B* f over range(K) is the largest singular value of Q - A B* Q:
    # exact, and 0.0 for a rank-zero K.  K~ has the range of K.
    Q = range_basis(_pow2_scaled(K)[0], tol)

    def worst(A, B):
        """Largest relative residual of ``f -> A B* f`` over range(K)."""
        return float(np.linalg.norm(Q - A @ (B.conj().T @ Q), 2))

    worst_dual_side = worst(frame_f.matrix, dual.matrix)
    worst_frame_side = worst(dual.matrix, frame_f.matrix)

    report = {
        "dual": save_frame(dual, args.out),  # one layout serves the file and the report
        "reconstruction": {
            "max_rel_residual_coefficients_in_dual": worst_dual_side,
            "max_rel_residual_coefficients_in_frame": worst_frame_side,
        },
    }
    lines = [
        f"dual system with {dual.count} vectors written to {args.out}",
        f"max relative reconstruction residual (coefficients in dual):  {worst_dual_side:.3e}",
        f"max relative reconstruction residual (coefficients in frame): {worst_frame_side:.3e}",
    ]
    return report, lines, EXIT_OK, inputs, [args.out]


def cmd_solve(args, tol: Tolerances):
    frame = load_frame(args.frame)
    g = load_vector(args.g)
    inputs = {"frame": args.frame, "g": args.g}

    if not frame_bounds(frame, tol).is_frame:
        raise NotPositiveDefiniteError(
            "the frame operator is singular: this solver inverts S on the whole space "
            "and does not solve restricted systems on range(K)"
        )
    config = SolverConfig(relaxation=args.relaxation, residual_tol=args.residual_tol, max_iter=args.max_iter)
    ctrl = None
    if args.c is not None:
        ctrl = make_controller(load_operator(args.c), tol)
        inputs["c"] = args.c
    f, trace = controlled_richardson_solve(frame, ctrl, g, config, tol=tol)
    trace_obj = {
        **{f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)},
        "final_residual": trace.residuals[-1] if trace.residuals else 0.0,
    }
    if not math.isfinite(trace_obj["final_residual"]):
        # Diverged (see ConvergenceTrace): no solution is written.
        print(
            f"framekit solve: the iteration diverged: an iterate or residual is not finite after "
            f"{trace.iterations} iterations, so the relaxation does not contract; no solution written",
            file=sys.stderr,
        )
        report = {"solution": None, "trace": trace_obj}
        lines = [f"diverged after {trace.iterations} iterations; no solution written"]
        return report, lines, EXIT_PROPERTY, inputs, []
    save_vector(f, args.out)
    status = "converged" if trace.converged else "hit the iteration cap"
    lines = [
        f"{status} after {trace.iterations} iterations "
        f"(final relative residual {trace_obj['final_residual']:.3e}, "
        f"empirical rate {trace.empirical_rate:.6f})",
        f"solution written to {args.out}",
    ]
    report = {"solution": vector_to_obj(f), "trace": trace_obj}
    return report, lines, EXIT_OK if trace.converged else EXIT_NOT_CONVERGED, inputs, [args.out]


def cmd_bench(args, tol: Tolerances):
    inputs = {"kinds": list(args.kinds), "dims": list(args.dims),
              "cond_targets": args.cond_targets,
              "trials": args.trials, "controller": args.controller}
    config = SolverConfig(residual_tol=args.residual_tol, max_iter=args.max_iter, seed=args.seed)
    rows = run_benchmark(**inputs, config=config, tol=tol)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(rows_to_csv(rows))

    converged = sum(1 for row in rows if row.converged_plain and row.converged_controlled)
    speedups = sorted(row.speedup for row in rows if np.isfinite(row.speedup))
    median = speedups[len(speedups) // 2] if speedups else float("nan")
    report = {
        "rows": len(rows),
        "converged_rows": converged,
        "median_speedup": median,
        "csv": args.out,
    }
    lines = [
        f"{len(rows)} rows written to {args.out} "
        f"({converged} fully converged, median speedup {median:.3g})",
    ]
    return report, lines, EXIT_OK, inputs, [args.out]  # non-converged rows are data, not failures


def cmd_paper_example(args, tol: Tolerances):
    frame, K, _ = c3_example()
    basis = np.eye(3, dtype=np.complex128)

    # (a) K f = sum <f, e_n> f_n for every f — an exact matrix identity.
    forward = frame.matrix @ basis.conj().T
    forward_defect = float(np.linalg.norm(forward - K))
    forward_ok = forward_defect <= 1e-15

    # (b) the positions cannot be swapped: at f = e3 the swapped sum is 0 while K e3 = e2.
    swapped_at_e3 = synthesis(FrameSequence(basis), frame.matrix.conj().T @ basis[:, 2])
    gap = K @ basis[:, 2] - swapped_at_e3
    swapped_value_norm = float(np.linalg.norm(swapped_at_e3))
    gap_norm = float(np.linalg.norm(gap))
    swap_fails = swapped_value_norm == 0.0 and abs(gap_norm - 1.0) <= 1e-12

    # (c) frame operator and optimal bounds.
    S = frame_operator(frame)
    s_defect = float(np.linalg.norm(S - np.diag([2.0, 1.0, 0.0])))
    report_k = kframe_check(frame, K, tol)
    bounds_ok = (
        report_k.is_kframe
        and abs(report_k.lower_opt - 1.0) <= 1e-12
        and abs(report_k.upper_opt - 2.0) <= 1e-12
    )

    all_ok = forward_ok and swap_fails and s_defect == 0.0 and bounds_ok
    report = {
        "k": operator_to_obj(K),
        "frame": frame_to_obj(frame),
        "forward_identity_defect": forward_defect,
        "swapped_sum_norm_at_e3": swapped_value_norm,
        "swap_gap_norm": gap_norm,
        "frame_operator_defect": s_defect,
        "kframe": _fields_obj(report_k, numerical_rank(K, tol)),
        "all_assertions_hold": all_ok,
    }
    lines = [
        "worked example in C^3: K e1 = e1, K e2 = e1, K e3 = e2; family {K e_n} = {e1, e1, e2}",
        f"  forward identity K f = sum <f, e_n> f_n:   defect {forward_defect:.1e} "
        f"-> {'holds' if forward_ok else 'FAILS'}",
        f"  swapped sum at e3 is {swapped_value_norm:g}, but K e3 = e2 "
        f"(gap norm {gap_norm:g}) -> the roles of the two families cannot be interchanged",
        f"  frame operator equals diag(2, 1, 0) exactly (defect {s_defect:g})",
        f"  optimal K-frame bounds ({report_k.lower_opt:g}, {report_k.upper_opt:g}) "
        f"-> {'as expected (1, 2)' if bounds_ok else 'UNEXPECTED'}",
        f"verdict: {'all assertions hold' if all_ok else 'ASSERTION FAILURE'}",
    ]
    return report, lines, EXIT_OK if all_ok else EXIT_PROPERTY, {}, []


def cmd_gen(args, tol: Tolerances):
    inputs = {"kind": args.kind, "dim": args.dim, "count": args.count,
              "cond_target": args.cond_target}
    frame, K, ctrl = generate_instance(**inputs, seed=args.seed, tol=tol)
    frame_path = f"{args.out_prefix}-frame.json"
    k_path = f"{args.out_prefix}-k.json"
    c_path = f"{args.out_prefix}-c.json"
    save_frame(frame, frame_path)
    save_operator(K, k_path)
    save_operator(ctrl.matrix, c_path)

    report = {
        "kind": args.kind,
        "dim": frame.dim,
        "count": frame.count,
        "files": {"frame": frame_path, "k": k_path, "c": c_path},
    }
    lines = [f"wrote {frame_path}, {k_path}, {c_path}"]
    return report, lines, EXIT_OK, inputs, [frame_path, k_path, c_path]


# ---------------------------------------------------------------------------
# parser assembly


def _cond_target(text: str) -> float | None:
    """One ``--cond-targets`` entry: a number, or ``na`` / ``none`` for none."""
    if text.lower() in ("na", "none"):
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, 'na' or 'none', got {text!r}") from None


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="framekit", allow_abbrev=False,
        description="Finite-frame toolkit: property checks, dual systems, "
                    "iterative solves and preconditioning benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    shared = {  # each subcommand takes --json, --deterministic and the others it reads
        "--tol-rel": dict(type=float, default=DEFAULT_TOL.rel_eq,
                          help="relative equality tolerance (default %(default)g)"),
        "--tol-psd": dict(type=float, default=DEFAULT_TOL.psd_slack,
                          help="positivity slack for operator inequalities (default %(default)g)"),
        "--rank-rel": dict(type=float, default=None, help="relative rank cutoff (default: 1e-12 * dim)"),
        "--seed": dict(type=int, default=0, help="base seed of the generated instances (default %(default)s)"),
        "--json": dict(action="store_true", help="emit a JSON report on stdout instead of text"),
        "--deterministic": dict(action="store_true",
                                help="omit the timestamp so identical runs are byte-identical"),
    }

    def add_parser(name, reads, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)  # each option has one spelling
        p.set_defaults(tol_psd=DEFAULT_TOL.psd_slack, rank_rel=DEFAULT_TOL.rank_rel)  # unless it reads them
        group = p.add_argument_group("shared options")
        for flag in (*reads.split(), "--json", "--deterministic"):
            group.add_argument(flag, **shared[flag])
        return p

    p = add_parser("check", "--tol-rel --tol-psd --rank-rel",
                   help="verify frame / K-frame / controlled K-frame properties")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--k", help="operator JSON file: check the K-frame property")
    p.add_argument("--c", help="controller JSON file: check the controlled property "
                               "(K defaults to the identity if --k is absent)")
    p.set_defaults(func=cmd_check)

    p = add_parser("dual", "--tol-rel --rank-rel",
                   help="construct the dual system h_n on range(K) and verify reconstruction")
    p.add_argument("--g", required=True, help="generating frame JSON file")
    p.add_argument("--k", required=True, help="operator JSON file")
    p.add_argument("--f", help="explicit frame F with K = F G* (default: {K g_n})")
    p.add_argument("--out", default="dual.json", help="output path (default %(default)s)")
    p.set_defaults(func=cmd_dual)

    p = add_parser("solve", "--tol-rel --tol-psd",
                   help="solve S f = g by (optionally controlled) Richardson iteration")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--g", required=True, help="right-hand-side vector JSON file")
    p.add_argument("--c", help="controller JSON file: precondition the iteration")
    p.add_argument("--relaxation", type=float, default=None,
                   help="fixed relaxation (default: optimal 2/(A+B) from certified bounds)")
    p.add_argument("--residual-tol", type=float, default=1e-8,
                   help="relative residual stopping tolerance (default %(default)g)")
    p.add_argument("--max-iter", type=int, default=100_000,
                   help="iteration cap (default %(default)s)")
    p.add_argument("--out", default="solution.json", help="solution path (default %(default)s)")
    p.set_defaults(func=cmd_solve)

    p = add_parser("bench", "--tol-rel --tol-psd --seed",
                   help="plain vs controlled Richardson over an instance grid; writes CSV")
    p.add_argument("--kinds", nargs="+", default=["ill-conditioned"],
                   choices=list(INSTANCE_KINDS),
                   help="instance families (default: %(default)s)")
    p.add_argument("--dims", nargs="+", type=int, default=[32],
                   help="dimensions (default: %(default)s)")
    p.add_argument("--cond-targets", nargs="+", type=_cond_target, default=[1e4],
                   help="condition targets; 'na' for families that ignore it (default: ['1e4'])")
    p.add_argument("--trials", type=int, default=5,
                   help="trials per cell (default %(default)s)")
    p.add_argument("--controller", default="jacobi", choices=list(CONTROLLER_STRATEGIES),
                   help="controller strategy (default %(default)s)")
    p.add_argument("--residual-tol", type=float, default=1e-8,
                   help="relative residual stopping tolerance (default %(default)g)")
    p.add_argument("--max-iter", type=int, default=200_000,
                   help="iteration cap (default %(default)s)")
    p.add_argument("--out", default="bench.csv", help="CSV path (default %(default)s)")
    p.set_defaults(func=cmd_bench)

    p = add_parser("paper-example", "--tol-rel --tol-psd --rank-rel",
                   help="reproduce the built-in C^3 worked example and assert its facts")
    p.set_defaults(func=cmd_paper_example)

    p = add_parser("gen", "--tol-rel --tol-psd --seed",
                   help="generate an instance and write frame/K/controller JSON files")
    p.add_argument("--kind", default="commuting-family", choices=list(INSTANCE_KINDS),
                   help="instance family (default %(default)s)")
    p.add_argument("--dim", type=int, default=None, help="ambient dimension")
    p.add_argument("--count", type=int, default=None, help="number of vectors (default 2*dim)")
    p.add_argument("--cond-target", type=float, default=None,
                   help="condition of S for the ill-conditioned family")
    p.add_argument("--out-prefix", default="instance",
                   help="output prefix; writes <prefix>-{frame,k,c}.json (default %(default)s)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse raises SystemExit for both --help (0) and usage errors (1 via _Parser).
        return int(exc.code or 0)

    print(
        f"tolerances: rel_eq={args.tol_rel:g} psd_slack={args.tol_psd:g} "
        f"rank_rel={'auto' if args.rank_rel is None else format(args.rank_rel, 'g')}"
        + (f"; seed={args.seed}" if "seed" in args else ""),
        file=sys.stderr,
    )
    try:
        tol = Tolerances(rel_eq=args.tol_rel, psd_slack=args.tol_psd, rank_rel=args.rank_rel)
        if "seed" in args and args.seed < 0:
            raise InvalidParametersError(f"the seed must be an integer >= 0, got {args.seed}")
        report, lines, exit_code, inputs, outputs = args.func(args, tol)
        report["manifest"] = _manifest(args, tol, inputs, outputs, exit_code)
        print(_dumps(report) if args.json else "\n".join(lines))
        return exit_code
    except (ParseError, OSError) as exc:
        print(f"framekit {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidParametersError as exc:
        print(f"framekit {args.command}: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ToolkitError as exc:
        print(f"framekit {args.command}: property violation: {exc}", file=sys.stderr)
        witness = getattr(exc, "witness", None)
        if witness is not None:
            print(
                "witness vector: "
                + np.array2string(np.asarray(witness), precision=6, suppress_small=True),
                file=sys.stderr,
            )
        return EXIT_PROPERTY


def entry() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
