"""Span recorder for the traced benchmark pass.

Every public function of the framekit layer modules is wrapped at each name
it is bound to inside the package (the defining module, every module that
imports it, and the package namespace), so nested calls nest.  The LAPACK
decompositions ``numpy.linalg.{eigh,eigvalsh,svd}`` and ``scipy.linalg.eigh``
form a tenth layer, ``kernel``, recorded only when framekit calls them.
Nothing under ``src/`` changes: the wrappers are installed from here and
removed again when the traced pass ends.

Spans are kept in memory as tuples and written out when the run ends; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os

from time import perf_counter_ns

LAYERS = (
    "operators", "frames", "kframes", "controlled", "solvers",
    "bench", "instances", "serialize", "cli",
)
ALL_LAYERS = LAYERS + ("kernel",)

# span tuple fields
LAYER, NAME, START, END, PARENT, OP, FAILED, EXTRA = range(8)


class Recorder:
    """In-memory span store.  Spans are recorded only while ``op`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def open(self, layer: str, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, perf_counter_ns(), 0, parent, self.op, False, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int, failed: bool = False) -> list:
        span = self.spans[index]
        span[END] = perf_counter_ns()
        span[FAILED] = failed
        self.stack.pop()
        return span

    def write(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent, op id and extras."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "layer": s[LAYER], "name": s[NAME], "start_ns": s[START],
                    "end_ns": s[END], "parent": s[PARENT], "op": s[OP],
                    "failed": s[FAILED], "extra": s[EXTRA],
                }) + "\n")


# -- extras recorded at span close -------------------------------------------

def _solver_extra(args, kwargs, result):
    trace = result[1]
    return {"iterations": int(trace.iterations), "converged": bool(trace.converged)}


def _bench_extra(args, kwargs, result):
    rows = list(result)
    return {"cells": len(rows), "nan_rows": sum(1 for r in rows if math.isnan(r.speedup))}


def _file_bytes_extra(position):
    def extra(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return extra


# Extras are attached where the work is counted once: solver traces at the
# solver entry points, file sizes at the two functions that touch the disk.
_EXTRAS = {
    ("solvers", "richardson_solve"): _solver_extra,
    ("solvers", "controlled_richardson_solve"): _solver_extra,
    ("solvers", "cg_solve"): _solver_extra,
    ("bench", "run_benchmark"): _bench_extra,
    ("serialize", "load_json"): _file_bytes_extra(0),
    ("serialize", "dump_json"): _file_bytes_extra(1),
}


def _kernel_flops(name, args, kwargs):
    """Real flop count computed from array shapes (Golub & Van Loan estimates).

    Hermitian eigenproblem: 4/3 n^3 for values, 9 n^3 with vectors.  SVD of an
    m x n matrix (m >= n): 4 m n^2 - 4/3 n^3 for values, 4 m^2 n + 8 m n^2 +
    9 n^3 with vectors.  The generalized problem adds a Cholesky factor and
    the reduction to standard form (4/3 n^3 more).  Complex input counts 4x.
    """
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    batch = math.prod(shape[:-2]) if len(shape) > 2 else 1
    m, n = max(shape[-2:]), min(shape[-2:])
    cplx = 4.0 if getattr(getattr(a, "dtype", None), "kind", "f") == "c" else 1.0
    if name == "svd":
        with_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        flops = (4 * m * m * n + 8 * m * n * n + 9 * n**3) if with_uv else (4 * m * n * n - 4 * n**3 / 3)
    elif name == "eigvalsh":
        flops = 4 * n**3 / 3
    elif name == "scipy_eigh":
        values_only = kwargs.get("eigvals_only", False)
        flops = (4 * n**3 / 3 if values_only else 9 * n**3)
        if len(args) > 1 or kwargs.get("b") is not None:
            flops += 4 * n**3 / 3
    else:  # numpy eigh, always with vectors
        flops = 9 * n**3
    return float(batch * cplx * flops)


def _wrap(rec: Recorder, layer: str, name: str, fn, extra_fn=None, nested_only=False):
    """``fn`` recording a span while an op runs (and, if ``nested_only``, only
    inside another span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None or (nested_only and not rec.stack):
            return fn(*args, **kwargs)
        index = rec.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(index, failed=True)
            raise
        span = rec.close(index)
        if extra_fn is not None:
            span[EXTRA] = extra_fn(args, kwargs, result)
        return result

    return wrapper


def _wrap_kernel(rec: Recorder, name: str, fn):
    # Only decompositions that framekit asks for: inside a framekit span.
    def flops(args, kwargs, result):
        return {"flops": _kernel_flops(name, args, kwargs)}

    return _wrap(rec, "kernel", name, fn, flops, nested_only=True)


class Instrumentation:
    """Installs the wrappers on entry and restores every binding on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._restore: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        package = importlib.import_module("framekit")
        modules = {layer: importlib.import_module(f"framekit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    extra = _EXTRAS.get((layer, name))
                    wrappers[id(fn)] = _wrap(self.rec, layer, name, fn, extra)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(module, attr, wrappers[id(value)])

        import numpy.linalg
        import scipy.linalg
        kernel_owners = [numpy.linalg]
        internal = getattr(numpy.linalg, "_linalg", None)   # numpy >= 2: norm(ord=2) calls svd here
        if internal is not None:
            kernel_owners.append(internal)
        for owner in kernel_owners:
            for name in ("eigh", "eigvalsh", "svd"):
                self._set(owner, name, _wrap_kernel(self.rec, name, getattr(owner, name)))
        self._set(scipy.linalg, "eigh", _wrap_kernel(self.rec, "scipy_eigh", scipy.linalg.eigh))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False


def per_layer_table() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    table = {}
    for layer in ALL_LAYERS:
        table[f"{layer}.calls_per_op"] = ("calls/op", "lower")
        table[f"{layer}.self_ms_per_op"] = ("ms/op", "lower")
        table[f"{layer}.failed_per_op"] = ("count/op", "lower")
    table.update({
        "kernel.decompositions_per_op": ("count/op", "lower"),
        "kernel.flops_computed_per_op": ("flop/op", "lower"),
        "frames.frame_operator_calls_per_op": ("calls/op", "lower"),
        "solvers.iterations_per_op": ("iter/op", "lower"),
        "solvers.us_per_iteration": ("us/iter", "lower"),
        "solvers.converged_ratio": ("ratio", "higher"),
        "bench.ms_per_cell": ("ms/cell", "lower"),
        "bench.cells_per_op": ("cells/op", "higher"),
        "bench.nan_row_ratio": ("ratio", "lower"),
        "serialize.bytes_per_op": ("B/op", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "blas_default.ops_per_s": ("1/s", "higher"),
        "blas_default.kernel.self_ms_per_op": ("ms/op", "lower"),
        "blas_default.cpu_ms_per_op": ("ms/op", "lower"),
    })
    return table


def layer_metrics(rec: Recorder, n_ops: int) -> dict[str, float]:
    """Per-op layer figures derived from the recorded spans."""
    spans = [s for s in rec.spans if s[OP] is not None]
    child_ns = [0] * len(rec.spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]
    calls = dict.fromkeys(ALL_LAYERS, 0)
    self_ns = dict.fromkeys(ALL_LAYERS, 0)
    failed = dict.fromkeys(ALL_LAYERS, 0)
    flops = frame_operator_calls = iterations = solves = converged = 0
    cells = nan_rows = bench_ns = file_bytes = 0
    for i, s in enumerate(rec.spans):
        if s[OP] is None:
            continue
        layer, extra = s[LAYER], s[EXTRA] or {}
        calls[layer] += 1
        self_ns[layer] += (s[END] - s[START]) - child_ns[i]
        failed[layer] += s[FAILED]
        flops += extra.get("flops", 0.0)
        frame_operator_calls += layer == "frames" and s[NAME] == "frame_operator"
        if "iterations" in extra:
            iterations += extra["iterations"]
            solves += 1
            converged += extra["converged"]
        if "cells" in extra:
            cells += extra["cells"]
            nan_rows += extra["nan_rows"]
            bench_ns += s[END] - s[START]
        file_bytes += extra.get("bytes", 0)

    out = {}
    for layer in ALL_LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / n_ops
        out[f"{layer}.self_ms_per_op"] = self_ns[layer] / 1e6 / n_ops
        out[f"{layer}.failed_per_op"] = failed[layer] / n_ops
    out["kernel.decompositions_per_op"] = calls["kernel"] / n_ops
    out["kernel.flops_computed_per_op"] = flops / n_ops
    out["frames.frame_operator_calls_per_op"] = frame_operator_calls / n_ops
    out["solvers.iterations_per_op"] = iterations / n_ops
    # Ratios whose base is zero (no solves, no cells) read 0.
    out["solvers.us_per_iteration"] = self_ns["solvers"] / 1e3 / iterations if iterations else 0.0
    out["solvers.converged_ratio"] = converged / solves if solves else 0.0
    out["bench.ms_per_cell"] = bench_ns / 1e6 / cells if cells else 0.0
    out["bench.cells_per_op"] = cells / n_ops
    out["bench.nan_row_ratio"] = nan_rows / cells if cells else 0.0
    out["serialize.bytes_per_op"] = file_bytes / n_ops
    return out
