"""The three workloads: op lists built from a seed, op execution, checks.

Each workload fixes the *composition* of its op list (how many ops of each
kind and size); the seed draws the contents and the order.  Two runs with
the same seed and size therefore do identical work, and runs with different
seeds do the same amount of work of the same kinds.

framekit is used only through its public functions, passed in as ``fk``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import oracle


def allocate(total: int, weights: dict) -> dict:
    """Split ``total`` over the keys of ``weights`` by largest remainder."""
    norm = sum(weights.values())
    shares = {k: total * w / norm for k, w in weights.items()}
    counts = {k: int(s) for k, s in shares.items()}
    by_remainder = sorted(weights, key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def _cgauss(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class Digest:
    """SHA-256 over everything an op list is built from."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self._h.update(np.ascontiguousarray(item).tobytes())
            else:
                self._h.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# ---------------------------------------------------------------------------
# certify

@dataclass
class CertifyCase:
    category: str          # commuting | general | deficient
    dim: int
    rescaled: bool
    F: np.ndarray
    K: np.ndarray
    C: np.ndarray | None


class Certify:
    """Verdict jobs: frame bounds, K-frame and (with a controller) controlled checks."""

    name = "certify"
    # Half commuting triples, a quarter general-position K, a quarter deficient pairs.
    CATEGORIES = {"commuting": 2, "general": 1, "deficient": 1}
    DIMS = {16: 0.30, 32: 0.30, 64: 0.20, 128: 0.13, 256: 0.07}   # skewed small
    RANK_SHARES = (1.0, 0.75, 0.5)   # K rank as a share of dim, cycled within a stratum
    ROUNDS = 9             # short rounds: more chances per op to miss a burst of load

    def __init__(self, fk, seed: int, n_ops: int, workdir: str):
        self.fk = fk
        rng = np.random.default_rng([seed, 1])
        specs = []
        for category, n_cat in allocate(n_ops, self.CATEGORIES).items():
            for dim, n_dim in allocate(n_cat, self.DIMS).items():
                # Two in five ops of each stratum are rescaled; ranks cycle.
                specs += [(category, dim, j % 5 < 2, self.RANK_SHARES[j % len(self.RANK_SHARES)])
                          for j in range(n_dim)]
        digest = Digest()
        self.cases = []
        for index in rng.permutation(len(specs)):
            category, dim, rescaled, rank_share = specs[index]
            case = self._draw(rng, category, dim, rescaled, rank_share)
            digest.add(category, dim, rescaled, case.F, case.K, case.C)
            self.cases.append(case)
        self.digest = digest.hexdigest()
        # Warm-up: one small op per category, drawn from a separate stream.
        warm_rng = np.random.default_rng([seed, 101])
        self.warmup = [self._draw(warm_rng, c, 16, False, 0.5) for c in self.CATEGORIES]
        self._refs = {}

    def _draw(self, rng, category, dim, rescaled, rank_share) -> CertifyCase:
        # The rank of K sets the pencil size, so it is part of the composition
        # (cycled per stratum), not drawn from the seed.
        fk, count, C = self.fk, 2 * dim, None
        if category == "commuting":
            frame, K, ctrl = fk.commuting_triple(rng, dim, count, zero_k=dim - round(rank_share * dim))
            C = ctrl.matrix
        elif category == "general":
            # Rank-deficient K in general position: range(K) is not S-invariant.
            frame = fk.random_frame(rng, dim, count)
            rank = min(dim - 1, round(rank_share * dim))
            K = _cgauss(rng, dim, rank) @ _cgauss(rng, rank, dim) / dim
        else:
            frame, K = fk.deficient_pair(rng, dim, count)
        F = np.array(frame.matrix)
        if rescaled:
            u, v = rng.uniform(-3.0, 3.0, size=2)
            F, K = F * 10.0**u, K * 10.0**v
        return CertifyCase(category, dim, bool(rescaled), F, np.asarray(K), C)

    def run(self, case: CertifyCase):
        fk = self.fk
        frame = fk.FrameSequence(case.F)
        bounds = fk.frame_bounds(frame)
        report = fk.kframe_check(frame, case.K)
        controlled = None
        if case.C is not None:
            controlled = fk.controlled_kframe_check(frame, case.K, fk.make_controller(case.C))
        return bounds, report, controlled

    def check(self, index: int, out) -> list[str]:
        case = self.cases[index]
        if index not in self._refs:
            self._refs[index] = oracle.certify_reference(case.F, case.K, case.C)
        ref = self._refs[index]
        bounds, report, controlled = out
        bad = oracle.check_frame_bounds(ref, bounds.upper, bounds.lower, bounds.is_frame)
        bad += oracle.check_kframe(
            ref, case.K, report.is_kframe, report.lower_opt, report.upper_opt, report.witness
        )
        if case.C is not None:
            bad += oracle.check_controlled(
                ref, controlled.is_controlled_kframe, controlled.lower_opt, controlled.upper_opt
            )
        return bad

    def known_defect(self, index: int, reasons: list[str]) -> bool:
        """Failures ROADMAP items 3 and 4 already describe.

        Item 3: on general-position inputs the verdict and ``lower_opt`` come
        from a pencil restricted to range(K).  Item 4: on rescaled inputs the
        verdict uses absolute slack.  Only a verdict or lower-optimum
        disagreement with the Douglas reference on those inputs is known; a
        raise, a bound or upper-optimum mismatch, or a bad witness is not.
        """
        case = self.cases[index]
        return (case.category == "general" or case.rescaled) and all(
            reason.startswith(oracle.VERDICT_REASONS) for reason in reasons
        )


# ---------------------------------------------------------------------------
# precondition

@dataclass
class PreconditionCase:
    dim: int
    cond: float
    strategy: str
    seed: int


class Precondition:
    """One ``run_benchmark`` call per op on the ill-conditioned family."""

    name = "precondition"
    # cond 1e4 (the criterion-9 cell) is a small share so a run holds >= 100 ops.
    # d=16 and d=32 cost about the same at cond 1e2, so together they hold
    # the ranks around p50; cond 1e3 holds those around p90.
    CELLS = {
        (16, 1e2): 0.32, (32, 1e2): 0.34, (64, 1e2): 0.18,
        **{(d, 1e3): 0.05 for d in (16, 32, 64)},
        (32, 1e4): 0.01,
    }
    STRATEGIES = ("jacobi", "exact-inverse")
    TRIALS = 2
    MAX_ITER = 200_000
    ROUNDS = 6             # its single-threaded loop is the most load-sensitive

    def __init__(self, fk, seed: int, n_ops: int, workdir: str):
        self.fk = fk
        rng = np.random.default_rng([seed, 2])
        specs = []
        for cell, n_cell in allocate(n_ops, self.CELLS).items():
            specs += [(*cell, self.STRATEGIES[i % 2]) for i in range(n_cell)]
        seeds = rng.integers(0, 2**31, size=len(specs))
        digest = Digest()
        self.cases = []
        for index, cell_seed in zip(rng.permutation(len(specs)), seeds):
            case = PreconditionCase(*specs[index], seed=int(cell_seed))
            digest.add(case.dim, case.cond, case.strategy, case.seed)
            self.cases.append(case)
        self.digest = digest.hexdigest()
        self.warmup = [PreconditionCase(16, 1e2, s, seed + i) for i, s in enumerate(self.STRATEGIES)]

    def run(self, case: PreconditionCase):
        fk = self.fk
        config = fk.SolverConfig(max_iter=self.MAX_ITER, seed=case.seed)
        return fk.run_benchmark(
            ["ill-conditioned"], [case.dim], [case.cond], self.TRIALS,
            config=config, controller=case.strategy,
        )

    def check(self, index: int, out) -> list[str]:
        case = self.cases[index]
        return oracle.check_bench_rows(out, case.dim, case.cond, case.strategy, self.TRIALS)

    def known_defect(self, index: int, reasons: list[str]) -> bool:
        return False


# ---------------------------------------------------------------------------
# cli-roundtrip

@dataclass
class CliCase:
    dim: int
    argv: list            # three argument lists: check, dual, solve
    paths: dict
    F: np.ndarray         # commuting triple for check
    K: np.ndarray
    C: np.ndarray
    G: np.ndarray         # Parseval frame and rank-deficient K for dual
    KD: np.ndarray
    FI: np.ndarray        # ill-conditioned frame and right-hand side for solve
    g: np.ndarray


class CliRoundtrip:
    """``check --k --c``, ``dual`` and ``solve`` with ``--json`` through ``cli.main``."""

    name = "cli-roundtrip"
    DIMS = {4: 1, 8: 1, 16: 1, 24: 1, 32: 1}
    SOLVE_COND = 1e2
    RESIDUAL_TOL = 1e-8   # the CLI default
    ROUNDS = 4             # its five set-ups are the costliest, so fewer rounds

    def __init__(self, fk, seed: int, n_ops: int, workdir: str):
        self.fk = fk
        self.cli = importlib.import_module(f"{fk.__name__}.cli")
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        dims = [d for d, n in allocate(n_ops, self.DIMS).items() for _ in range(n)]
        dims = [dims[i] for i in rng.permutation(n_ops)]
        digest = Digest()
        self.cases = []
        for index, dim in enumerate(dims):
            case = self._draw(rng, dim, f"op{index}")
            digest.add(dim, case.F, case.K, case.C, case.G, case.KD, case.FI, case.g)
            self.cases.append(case)
        self.digest = digest.hexdigest()
        self.warmup = [self._draw(np.random.default_rng([seed, 103]), 8, "warm")]
        self._refs = {}

    def _draw(self, rng, dim, tag) -> CliCase:
        fk = self.fk
        frame, K, ctrl = fk.commuting_triple(rng, dim, 2 * dim)
        parseval = fk.parseval_frame(rng, dim, 2 * dim)
        rank = int(rng.integers(1, dim)) if dim > 1 else 1
        KD = _cgauss(rng, dim, rank) @ _cgauss(rng, rank, dim) / dim
        ill, _, _ = fk.generate_instance(
            "ill-conditioned", dim, 2 * dim, self.SOLVE_COND, seed=int(rng.integers(2**31))
        )
        g = _cgauss(rng, dim)
        p = {name: os.path.join(self.workdir, f"{tag}-{name}.json")
             for name in ("frame", "k", "c", "g", "kd", "ill", "rhs", "dual", "solution")}
        fk.save_frame(frame, p["frame"])
        fk.save_operator(K, p["k"])
        fk.save_operator(ctrl.matrix, p["c"])
        fk.save_frame(parseval, p["g"])
        fk.save_operator(KD, p["kd"])
        fk.save_frame(ill, p["ill"])
        fk.save_vector(g, p["rhs"])
        argv = [
            ["check", p["frame"], "--k", p["k"], "--c", p["c"], "--json"],
            ["dual", "--g", p["g"], "--k", p["kd"], "--out", p["dual"], "--json"],
            ["solve", p["ill"], "--g", p["rhs"], "--out", p["solution"], "--json"],
        ]
        return CliCase(dim, argv, p, np.array(frame.matrix), K, ctrl.matrix,
                       np.array(parseval.matrix), KD, np.array(ill.matrix), g)

    def run(self, case: CliCase):
        main = self.cli.main
        results = []
        for argv in case.argv:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            results.append((code, stdout.getvalue(), stderr.getvalue()))
        return results

    def check(self, index: int, out) -> list[str]:
        case = self.cases[index]
        bad = []
        for (code, stdout, stderr), argv in zip(out, case.argv):
            if code != 0:
                bad.append(f"{argv[0]} exited {code}: {stderr.strip().splitlines()[-1:]}")
        if bad:
            return bad
        check_obj, dual_obj, solve_obj = (json.loads(stdout) for _, stdout, _ in out)

        if index not in self._refs:
            self._refs[index] = oracle.certify_reference(case.F, case.K, case.C)
        ref = self._refs[index]
        fb = check_obj["frame"]
        bad += oracle.check_frame_bounds(ref, fb["upper"], fb["lower"], fb["is_frame"])
        kr = check_obj["kframe"]
        witness = None if kr["witness"] is None else oracle.pairs(kr["witness"]["entries"])
        bad += oracle.check_kframe(ref, case.K, kr["is_kframe"], kr["lower_opt"], kr["upper_opt"], witness)
        cr = check_obj["controlled"]
        bad += oracle.check_controlled(ref, cr["is_controlled_kframe"], cr["lower_opt"], cr["upper_opt"])

        rec = dual_obj["reconstruction"]
        for key in ("max_rel_residual_coefficients_in_dual", "max_rel_residual_coefficients_in_frame"):
            if not rec[key] <= oracle.RESIDUAL_TOL:
                bad.append(f"dual report {key} = {rec[key]:.3e}")
        H = oracle.read_frame(case.paths["dual"])
        bad += oracle.check_dual(case.KD @ case.G, H, case.KD, rng_seed=index)

        if not solve_obj["trace"]["converged"]:
            bad.append("solve did not converge")
        f = oracle.read_vector(case.paths["solution"])
        bad += oracle.check_solution(case.FI, case.g, f, self.RESIDUAL_TOL)
        return bad

    def known_defect(self, index: int, reasons: list[str]) -> bool:
        return False


WORKLOADS = {w.name: w for w in (Certify, Precondition, CliRoundtrip)}
