"""Numpy-only reference for every output the benchmark checks.

Nothing here imports framekit.  Each ``check_*`` function returns a list of
failure reasons; an empty list means the op's output agrees with the
reference.  References are computed once per input, outside the timed
region, and cached by the caller.
"""

from __future__ import annotations

import json

import numpy as np

# Relative tolerances.  Verdict inputs are built with margins far above these.
NULL_REL = 1e-9       # eigenvalues of S below NULL_REL * lambda_max span null(S)
RANGE_REL = 1e-6      # ||P_null(S) W|| / ||W|| above this: range(W) not inside range(S)
BOUND_REL = 1e-6      # optimal constants
UPPER_REL = 1e-8      # lambda_max
WITNESS_REL = 1e-6    # a witness quotient below this share of lambda_max(S) / ||K||^2
RESIDUAL_TOL = 1e-8   # reconstruction and solve residuals

# Prefixes of the reasons that report a verdict or lower optimum disagreeing
# with the Douglas reference.
VERDICT_REASONS = ("is_kframe ", "lower_opt ", "is_controlled_kframe ", "controlled lower_opt ")


def herm(M):
    return 0.5 * (M + M.conj().T)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def douglas_optimum(S, W):
    """``sup {A : A W W* <= S}`` for positive semi-definite ``S``.

    By Douglas' lemma the supremum is positive iff ``range(W)`` lies in
    ``range(S)``, and then equals ``1 / ||S^{+1/2} W||^2``.
    """
    w, U = np.linalg.eigh(herm(S))
    keep = w > NULL_REL * w[-1]
    Wc = U.conj().T @ W
    scale = np.linalg.norm(W, 2)
    if np.any(~keep) and np.linalg.norm(Wc[~keep], 2) > RANGE_REL * scale:
        return 0.0
    return float(1.0 / np.linalg.norm(Wc[keep] / np.sqrt(w[keep])[:, None], 2) ** 2)


def certify_reference(F, K, C=None) -> dict:
    """Frame bounds, K-frame optimum and, with a controller, the controlled optimum."""
    S = herm(F @ F.conj().T)
    w = np.linalg.eigvalsh(S)
    ref = {
        "S": S,
        "lambda_min": float(w[0]),
        "lambda_max": float(w[-1]),
        "is_frame": bool(w[0] > NULL_REL * w[-1]),
        "k_norm_sq": float(np.linalg.norm(K, 2) ** 2),
        "lower_opt": douglas_optimum(S, K),
    }
    if C is not None:
        cw, cq = np.linalg.eigh(herm(C))
        c_sqrt = (cq * np.sqrt(cw)) @ cq.conj().T
        L = C @ S
        ref["controlled_upper"] = float(np.linalg.eigvalsh(herm(L))[-1])
        ref["controlled_lower"] = douglas_optimum(herm(L), K @ c_sqrt)
    return ref


def check_frame_bounds(ref, upper, lower, is_frame) -> list[str]:
    bad = []
    if not _close(upper, ref["lambda_max"], UPPER_REL):
        bad.append(f"frame upper {upper!r} != lambda_max {ref['lambda_max']!r}")
    if is_frame != ref["is_frame"]:
        bad.append(f"is_frame {is_frame} != reference {ref['is_frame']}")
    elif is_frame and not _close(lower, ref["lambda_min"], UPPER_REL):
        bad.append(f"frame lower {lower!r} != lambda_min {ref['lambda_min']!r}")
    return bad


def check_kframe(ref, K, is_kframe, lower_opt, upper_opt, witness) -> list[str]:
    bad = []
    expected = ref["lower_opt"] > 0.0
    if not _close(upper_opt, ref["lambda_max"], UPPER_REL):
        bad.append(f"upper_opt {upper_opt!r} != lambda_max {ref['lambda_max']!r}")
    if is_kframe != expected:
        bad.append(f"is_kframe {is_kframe} != Douglas verdict {expected}")
    elif expected and not _close(lower_opt, ref["lower_opt"], BOUND_REL):
        bad.append(f"lower_opt {lower_opt!r} != Douglas optimum {ref['lower_opt']!r}")
    elif not expected:
        # Only a correct negative verdict can have a violating witness.
        bad.extend(check_witness(ref, K, witness))
    return bad


def check_witness(ref, K, witness) -> list[str]:
    """A negative verdict's witness must make the lower inequality fail."""
    if witness is None:
        return ["negative verdict without a witness"]
    f = np.asarray(witness, dtype=np.complex128)
    kf = float(np.linalg.norm(K.conj().T @ f) ** 2)
    sf = float(np.vdot(f, ref["S"] @ f).real)
    limit = WITNESS_REL * ref["lambda_max"] / ref["k_norm_sq"]
    if kf <= RANGE_REL * ref["k_norm_sq"] * float(np.vdot(f, f).real):
        return ["witness is (nearly) annihilated by K*"]
    if sf / kf > limit:
        return [f"witness quotient {sf / kf:.3e} does not violate the inequality (limit {limit:.3e})"]
    return []


def check_controlled(ref, is_ckframe, lower_opt, upper_opt) -> list[str]:
    bad = []
    expected = ref["controlled_lower"] > 0.0
    if not _close(upper_opt, ref["controlled_upper"], UPPER_REL):
        bad.append(f"controlled upper_opt {upper_opt!r} != {ref['controlled_upper']!r}")
    if is_ckframe != expected:
        bad.append(f"is_controlled_kframe {is_ckframe} != Douglas verdict {expected}")
    elif expected and not _close(lower_opt, ref["controlled_lower"], BOUND_REL):
        bad.append(f"controlled lower_opt {lower_opt!r} != {ref['controlled_lower']!r}")
    return bad


def check_bench_rows(rows, dim, cond, strategy, trials) -> list[str]:
    """Rows of one ``run_benchmark`` call on the ill-conditioned family."""
    bad = []
    if len(rows) != trials:
        return [f"{len(rows)} rows, expected {trials}"]
    for row in rows:
        tag = row.instance_id
        if row.dim != dim or row.n_vectors != 2 * dim:
            bad.append(f"{tag}: shape {row.dim}x{row.n_vectors}")
        if not _close(row.cond_s, cond, BOUND_REL):
            bad.append(f"{tag}: cond_S {row.cond_s!r} != target {cond!r}")
        if not (row.converged_plain and row.converged_controlled):
            bad.append(f"{tag}: not converged")
        if not np.isfinite(row.speedup):
            bad.append(f"{tag}: NaN speedup")
        if strategy == "exact-inverse" and row.iters_controlled != 1:
            bad.append(f"{tag}: exact-inverse took {row.iters_controlled} controlled iterations")
        if strategy == "jacobi" and not row.cond_precond <= 2.0 * (1 + BOUND_REL):
            bad.append(f"{tag}: jacobi cond(C S) {row.cond_precond!r} > 2")
    return bad


# -- JSON files written by the CLI, parsed without framekit -----------------

def pairs(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def read_frame(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    return pairs(obj["vectors"]).T


def read_vector(path) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        return pairs(json.load(handle)["entries"])


def check_dual(F, H, K, rng_seed) -> list[str]:
    """``f = sum <f,h_n> f_n = sum <f,f_n> h_n`` for sampled ``f`` in range(K)."""
    rng = np.random.default_rng(rng_seed)
    dim = K.shape[0]
    X = K @ (rng.normal(size=(dim, 8)) + 1j * rng.normal(size=(dim, 8)))
    norms = np.linalg.norm(X, axis=0)
    worst_dual = float(np.max(np.linalg.norm(X - F @ (H.conj().T @ X), axis=0) / norms))
    worst_frame = float(np.max(np.linalg.norm(X - H @ (F.conj().T @ X), axis=0) / norms))
    bad = []
    if worst_dual > RESIDUAL_TOL:
        bad.append(f"reconstruction with dual coefficients off by {worst_dual:.3e}")
    if worst_frame > RESIDUAL_TOL:
        bad.append(f"reconstruction with frame coefficients off by {worst_frame:.3e}")
    return bad


def check_solution(F, g, f, residual_tol) -> list[str]:
    S = herm(F @ F.conj().T)
    res = float(np.linalg.norm(S @ f - g) / np.linalg.norm(g))
    if not res <= residual_tol * (1 + 1e-3):    # rounding of S f, not solver slack
        return [f"solve residual {res:.3e} above {residual_tol:g}"]
    return []
