#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of framekit).

    python3 perfbench/selftest.py

Checks, each printed as PASS or FAIL; the exit code is 1 if any fails:

* the oracle's reference rejects ROADMAP's counterexamples, and it flags
  framekit's live verdict on each exactly when that verdict is wrong;
* ``correct`` exempts only the verdict failures ROADMAP items 3-4 describe;
* the same seed gives the same input digest and another seed another one;
* two traced runs with the same seed and BLAS setting give identical exact
  counts;
* ``BENCHMARK.json`` names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT_COUNTS = ("kernel.decompositions_per_op", "frames.frame_operator_calls_per_op",
                "solvers.iterations_per_op")
SMALL_OPS = 12

results: list[tuple[bool, str]] = []


def record(ok: bool, label: str, detail: str = "") -> None:
    results.append((ok, label))
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")


def _kframe_answer(fk, F, K, ref) -> tuple[list[str], object]:
    """framekit's live verdict on ``(F, K)`` and the oracle's failure reasons for it."""
    report = fk.kframe_check(fk.FrameSequence(F), K)
    bad = oracle.check_kframe(ref, K, report.is_kframe, report.lower_opt, report.upper_opt,
                              report.witness)
    return bad, report


def oracle_counterexamples(fk) -> None:
    """The oracle flags framekit's live answer exactly when it is wrong.

    Whether framekit is wrong is decided here from the analytic answer, not
    by the oracle, so the check follows the program: at the seed framekit
    over-claims both inputs and the oracle must flag both; once ROADMAP item
    3 lands the oracle must flag neither.
    """
    # frame = [[1],[1]]/sqrt(2), K = diag(1, 0): S f = 0 for f = (1, -1), while
    # K* f != 0, so no lower bound exists.
    F = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    K = np.diag([1.0, 0.0]).astype(complex)
    ref = oracle.certify_reference(F, K)
    record(ref["lower_opt"] == 0.0, "oracle: [[1],[1]]/sqrt2 with K=diag(1,0) is not a K-frame",
           f"Douglas optimum {ref['lower_opt']!r}")
    bad, report = _kframe_answer(fk, F, K, ref)
    f = None if report.witness is None else np.asarray(report.witness)
    wrong = bool(
        report.is_kframe
        or abs(report.upper_opt - 1.0) > 1e-9
        or f is None
        or abs(f[0] + f[1]) > 1e-9 * np.linalg.norm(f)    # witness must lie in null(S)
        or abs(f[0]) < 1e-9 * np.linalg.norm(f)           # and not be annihilated by K*
    )
    record(bool(bad) == wrong, "oracle flags framekit's answer on [[1],[1]]/sqrt2 iff it is wrong",
           f"framekit is_kframe={report.is_kframe} lower_opt={report.lower_opt!r}: "
           + ("; ".join(bad) or "agrees with the oracle"))

    # S = [[1, .9], [.9, 1]], K = diag(1, 0): cross-coupled, optimum 1 - 0.81 = 0.19.
    S = np.array([[1.0, 0.9], [0.9, 1.0]])
    w, Q = np.linalg.eigh(S)
    F = ((Q * np.sqrt(w)) @ Q.T).astype(complex)
    ref = oracle.certify_reference(F, K)
    record(abs(ref["lower_opt"] - 0.19) < 1e-12, "oracle: cross-coupled optimum is 0.19",
           f"{ref['lower_opt']!r}")
    bad, report = _kframe_answer(fk, F, K, ref)
    wrong = bool(
        not report.is_kframe
        or abs(report.lower_opt - 0.19) > 1e-6
        or abs(report.upper_opt - 1.9) > 1e-9
    )
    record(bool(bad) == wrong, "oracle flags framekit's answer on the cross-coupled S iff it is wrong",
           f"framekit is_kframe={report.is_kframe} lower_opt={report.lower_opt!r}: "
           + ("; ".join(bad) or "agrees with the oracle"))


def known_defects(fk, workdir) -> None:
    """Only verdict and lower-optimum failures on items 3-4 inputs are known."""
    wl = WORKLOADS["certify"](fk, 7, 40, workdir)
    general = next(i for i, c in enumerate(wl.cases) if c.category == "general")
    plain = next(i for i, c in enumerate(wl.cases)
                 if c.category == "commuting" and not c.rescaled)
    verdict = ["lower_opt 1.0 != Douglas optimum 0.19"]
    others = (["raised ValueError: x"], ["upper_opt 2.0 != lambda_max 1.0"],
              ["frame upper 2.0 != lambda_max 1.0"], ["negative verdict without a witness"])
    ok = (wl.known_defect(general, verdict)
          and not wl.known_defect(plain, verdict)
          and not any(wl.known_defect(general, verdict + r) for r in others))
    record(ok, "certify: only verdict and lower_opt failures on general or rescaled inputs are known")


def input_digests(fk, workdir) -> None:
    for name, cls in WORKLOADS.items():
        a = cls(fk, 7, SMALL_OPS, workdir).digest
        b = cls(fk, 7, SMALL_OPS, workdir).digest
        c = cls(fk, 8, SMALL_OPS, workdir).digest
        record(a == b and a != c, f"{name}: input digest repeats for a seed and differs across seeds",
               f"{a[:12]} {b[:12]} {c[:12]}")


def exact_counts(fk, workdir) -> None:
    for name, cls in WORKLOADS.items():
        seen = []
        for _ in range(2):
            wl = cls(fk, 7, SMALL_OPS, workdir)
            rec = spans.Recorder()
            with spans.Instrumentation(rec):
                run._run_rounds(wl, 1, rec)
            metrics = spans.layer_metrics(rec, len(wl.cases))
            seen.append({k: v for k, v in metrics.items()
                         if k.endswith(".calls_per_op") or k in EXACT_COUNTS})
        diff = {k for k in seen[0] if seen[0][k] != seen[1][k]}
        record(not diff, f"{name}: exact counts repeat across two traced runs",
               f"differ: {sorted(diff)}" if diff else f"{len(seen[0])} counts")


def benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    record(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the printed metrics")
    record(layer == spans.per_layer_table(), "BENCHMARK.json per_layer matches the printed metrics")
    record(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match the benchmark's")


def main() -> int:
    import framekit as fk

    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        oracle_counterexamples(fk)
        known_defects(fk, workdir)
        input_digests(fk, workdir)
        exact_counts(fk, workdir)
        benchmark_json()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [label for ok, label in results if not ok]
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
