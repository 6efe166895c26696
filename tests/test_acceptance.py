"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each criterion records a PASS/FAIL line (printed in the terminal summary by
conftest) and asserts.  Oracles are independent of the code under test:
``np.linalg`` eigen/SVD calls, direct summation, closed forms, and measured
iteration counts."""

import numpy as np

from conftest import record_criterion
from framekit import (
    FrameSequence,
    SolverConfig,
    bounds_to_controlled,
    bounds_to_kframe,
    c3_example,
    commuting_triple,
    construct_kframe,
    controlled_kframe_check,
    controlled_operator_inequality,
    controlled_richardson_solve,
    controller_for,
    deficient_pair,
    frame_operator,
    generate_instance,
    haar_unitary,
    interchange_dual,
    inverse_bounds,
    kframe_check,
    kframe_operator_inequality,
    operator_sqrt,
    parseval_frame,
    positive_definite_bounds,
    pseudo_inverse,
    random_frame,
    random_positive_operator,
    rayleigh_quotients,
    restricted_operator_inequalities,
    richardson_solve,
    sandwich_inequality_check,
    synthesis,
)
from framekit.cli import main as cli_main


def _rank_r_matrix(rng, rows, cols, r, lo=0.5, hi=3.0):
    left = haar_unitary(rng, rows)[:, :r]
    right = haar_unitary(rng, cols)[:, :r]
    return (left * rng.uniform(lo, hi, size=r)) @ right.conj().T


def _random_invertible(rng, dim, lo=0.5, hi=2.0):
    return (haar_unitary(rng, dim) * rng.uniform(lo, hi, size=dim)) @ haar_unitary(rng, dim).conj().T


# ---------------------------------------------------------------------------


def test_criterion_01_operator_core():
    """Square roots, spectral bounds, inverse bounds, pseudo-inverses."""
    worst_sqrt = worst_bounds = worst_inv = worst_penrose = worst_range = 0.0
    for i in range(200):
        rng = np.random.default_rng(100 + i)
        d = 2 + (i % 11)

        T = random_positive_operator(rng, d)
        scale = float(np.linalg.norm(T, 2))
        R = operator_sqrt(T)
        worst_sqrt = max(worst_sqrt, float(np.linalg.norm(R @ R - T, 2)) / scale)

        b = positive_definite_bounds(T)
        w = np.linalg.eigvalsh(T)
        worst_bounds = max(
            worst_bounds,
            abs(b.lower - w[0]) / max(1.0, scale),
            abs(b.upper - w[-1]) / max(1.0, scale),
        )

        ib = inverse_bounds(b)
        wi = np.linalg.eigvalsh(np.linalg.inv(T))
        inv_scale = max(1.0, float(wi[-1]))
        worst_inv = max(
            worst_inv,
            abs(ib.lower - wi[0]) / inv_scale,
            abs(ib.upper - wi[-1]) / inv_scale,
        )

        # rank-deficient pseudo-inverse, square and rectangular shapes
        rows = d
        cols = d + (-1, 0, 2)[i % 3]
        r = 1 + (i % (min(rows, cols)))
        r = min(r, min(rows, cols) - 1) or 1
        U = _rank_r_matrix(rng, rows, cols, r)
        P = pseudo_inverse(U)
        nu = max(1.0, float(np.linalg.norm(U)))
        npi = max(1.0, float(np.linalg.norm(P)))
        UP = U @ P
        PU = P @ U
        worst_penrose = max(
            worst_penrose,
            float(np.linalg.norm(U @ P @ U - U)) / nu,
            float(np.linalg.norm(P @ U @ P - P)) / npi,
            float(np.linalg.norm(UP.conj().T - UP)),
            float(np.linalg.norm(PU.conj().T - PU)),
        )
        for _ in range(5):
            x = U @ (rng.normal(size=cols) + 1j * rng.normal(size=cols))
            worst_range = max(
                worst_range,
                float(np.linalg.norm(UP @ x - x)) / max(float(np.linalg.norm(x)), 1e-300),
            )

    ok = (
        worst_sqrt <= 1e-10
        and worst_bounds <= 1e-10
        and worst_inv <= 1e-9
        and worst_penrose <= 1e-9
        and worst_range <= 1e-9
    )
    record_criterion(
        1, "operator core certificates", ok,
        f"worst rel defects: sqrt {worst_sqrt:.1e}, bounds {worst_bounds:.1e}, "
        f"inverse {worst_inv:.1e}, pseudo-inverse {worst_penrose:.1e}, range {worst_range:.1e} "
        "over 200 positive + 200 rank-deficient operators",
    )


def test_criterion_02_lower_bound_verdict_equivalence():
    """Definition-based verdict (pencil + sampling) vs the operator inequality."""
    agreements = 0
    total = 500
    positives = negatives = 0
    for i in range(total):
        rng = np.random.default_rng(2000 + i)
        if i % 10 < 7:
            d = 2 + (i % 15)
            frame, K, _ = commuting_triple(rng, d, 2 * d)
            expect_kframe = True
        else:
            d = 3 + (i % 14)
            frame, K = deficient_pair(rng, d, 2 * d)
            expect_kframe = False

        rep = kframe_check(frame, K)
        if expect_kframe:
            positives += 1
            probes = rng.normal(size=(d, 1000)) + 1j * rng.normal(size=(d, 1000))
            q = rayleigh_quotients(frame, K, probes)
            finite = q[np.isfinite(q)]
            sampled_ok = finite.size > 0 and float(finite.min()) >= rep.lower_opt * (1 - 1e-6)
            holds_below = kframe_operator_inequality(frame, K, rep.lower_opt * (1 - 1e-6))
            fails_above = not kframe_operator_inequality(frame, K, rep.lower_opt * (1 + 1e-6))
            agree = rep.is_kframe and sampled_ok and holds_below and fails_above
        else:
            negatives += 1
            probe_a = max(rep.upper_opt, 1.0) * 1e-3
            noise = rng.normal(size=(d, 999)) + 1j * rng.normal(size=(d, 999))
            probes = np.concatenate(
                [rep.witness[:, None], rep.witness[:, None] + 1e-3 * noise], axis=1
            )
            q = rayleigh_quotients(frame, K, probes)
            finite = q[np.isfinite(q)]
            sampled_fails = finite.size > 0 and float(finite.min()) < probe_a
            agree = (not rep.is_kframe) and sampled_fails and not kframe_operator_inequality(
                frame, K, probe_a
            )
        agreements += agree

    ok = agreements == total
    record_criterion(
        2, "lower-bound verdict equivalence", ok,
        f"{agreements}/{total} agreements ({positives} lower-bounded families, "
        f"{negatives} deficient families; probes at optimum*(1 -/+ 1e-6), 1000 samples each)",
    )


def test_criterion_03_worked_example_c3():
    """The rank-two example on C^3, reproduced to the stated digits."""
    frame, K, _ = c3_example()
    basis = np.eye(3, dtype=np.complex128)

    forward_defect = float(np.linalg.norm(frame.matrix @ basis.conj().T - K))
    swapped = synthesis(FrameSequence(basis), frame.matrix.conj().T @ basis[:, 2])
    swapped_norm = float(np.linalg.norm(swapped))
    gap_norm = float(np.linalg.norm(K @ basis[:, 2] - swapped))
    s_defect = float(np.linalg.norm(frame_operator(frame) - np.diag([2.0, 1.0, 0.0])))
    rep = kframe_check(frame, K)

    ok = (
        forward_defect <= 1e-15
        and swapped_norm == 0.0
        and abs(gap_norm - 1.0) <= 1e-12
        and s_defect == 0.0
        and rep.is_kframe
        and abs(rep.lower_opt - 1.0) <= 1e-12
        and abs(rep.upper_opt - 2.0) <= 1e-12
    )
    record_criterion(
        3, "worked example on C^3", ok,
        f"forward defect {forward_defect:.1e}, swapped sum norm {swapped_norm:g} "
        f"(gap {gap_norm:g}), frame-operator defect {s_defect:g}, "
        f"bounds ({rep.lower_opt:g}, {rep.upper_opt:g})",
    )


def test_criterion_04_dual_reconstruction():
    """Both reconstruction identities on range(K) for 100 dual systems."""
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(4000 + i)
        d = 2 + (i % 9)
        n = 2 * d + (i % 4)
        G = parseval_frame(rng, d, n)
        r = int(rng.integers(1, d)) if i % 3 == 0 and d > 1 else d
        K = _rank_r_matrix(rng, d, d, r)

        H = interchange_dual(G, K)
        F = K @ G.matrix

        Y = rng.normal(size=(d, 100)) + 1j * rng.normal(size=(d, 100))
        X = K @ Y
        norms = np.linalg.norm(X, axis=0)
        keep = norms > 0
        X, norms = X[:, keep], norms[keep]
        res_dual = np.linalg.norm(X - F @ (H.matrix.conj().T @ X), axis=0) / norms
        res_frame = np.linalg.norm(X - H.matrix @ (F.conj().T @ X), axis=0) / norms
        worst = max(worst, float(res_dual.max()), float(res_frame.max()))

    ok = worst <= 1e-9
    record_criterion(
        4, "dual-system reconstruction on range(K)", ok,
        f"worst relative residual {worst:.2e} over 100 instances x 100 vectors, both orderings",
    )


def test_criterion_05_restricted_norm_inequalities():
    """Norm bounds for S on range(K) and its inverse on S(range(K))."""
    failures = 0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        d = 2 + (i % 15)
        frame, K, _ = commuting_triple(rng, d, 2 * d)
        if not restricted_operator_inequalities(frame, K):
            failures += 1
    ok = failures == 0
    record_criterion(
        5, "restricted norm inequalities", ok,
        f"{failures} violations over 100 instances, each decided exactly from the extreme "
        "singular values of S and K* on an orthonormal basis of range(K)",
    )


def test_criterion_06_construction_closure():
    """Images of frames and K-frames under operators stay K-frames."""
    fail_kf = fail_onb = fail_tf = 0
    onb_bound_defect = 0.0
    for i in range(200):
        rng = np.random.default_rng(6000 + i)
        d = 2 + (i % 11)

        # {K f_n} from an ordinary frame
        source = random_frame(rng, d, 2 * d)
        K = _rank_r_matrix(rng, d, d, 1 + int(rng.integers(0, d)))
        family, certified = construct_kframe(source, K)
        if not kframe_check(family, certified).is_kframe:
            fail_kf += 1

        # {K e_n} from a random orthonormal basis: optimal lower bound is 1
        onb = FrameSequence(haar_unitary(rng, d))
        family, certified = construct_kframe(onb, K, require_orthonormal=True)
        rep = kframe_check(family, certified)
        onb_bound_defect = max(onb_bound_defect, abs(rep.lower_opt - 1.0))
        if not rep.is_kframe:
            fail_onb += 1

        # {T f_n} from a K-frame, certified against T K
        kframe_src, K2, _ = commuting_triple(rng, d, 2 * d)
        T = _random_invertible(rng, d)
        family, certified = construct_kframe(kframe_src, K2, T=T)
        if not kframe_check(family, certified).is_kframe:
            fail_tf += 1

    ok = fail_kf == 0 and fail_onb == 0 and fail_tf == 0 and onb_bound_defect <= 1e-9
    record_criterion(
        6, "construction closure", ok,
        f"failures: {{K f_n}} {fail_kf}, {{K e_n}} {fail_onb} "
        f"(lower-bound defect {onb_bound_defect:.1e}), {{T f_n}} {fail_tf} — 200 instances each",
    )


def test_criterion_07_bound_transfers():
    """Controlled <-> plain bound transfers and verdict agreement."""
    violations = 0
    disagreements = 0
    total = 200
    for i in range(total):
        rng = np.random.default_rng(7000 + i)
        d = 2 + (i % 15)
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)

        krep = kframe_check(frame, K)
        crep = controlled_kframe_check(frame, K, ctrl)
        if not (krep.is_kframe and crep.is_controlled_kframe):
            disagreements += 1
            continue

        # controlled bounds imply plain K-frame bounds
        a_t, b_t = bounds_to_kframe(crep.lower_opt, crep.upper_opt, ctrl)
        lower_valid = kframe_operator_inequality(frame, K, a_t)
        upper_valid = krep.upper_opt <= b_t * (1 + 1e-9)
        # plain K-frame bounds imply controlled bounds
        a_c, b_c = bounds_to_controlled(krep.lower_opt, krep.upper_opt, ctrl, K=K)
        lower_valid_c = controlled_operator_inequality(frame, K, ctrl, a_c)
        upper_valid_c = crep.upper_opt <= b_c * (1 + 1e-9)
        if not (lower_valid and upper_valid and lower_valid_c and upper_valid_c):
            violations += 1

        # definition verdict == sandwiched operator-inequality verdict
        holds = sandwich_inequality_check(
            frame, K, ctrl, crep.lower_opt * (1 - 1e-6), crep.upper_opt * (1 + 1e-6)
        )
        fails_lower = not sandwich_inequality_check(
            frame, K, ctrl, crep.lower_opt * (1 + 1e-6), crep.upper_opt * (1 + 1e-6)
        )
        fails_upper = not sandwich_inequality_check(
            frame, K, ctrl, crep.lower_opt * (1 - 1e-6), crep.upper_opt * (1 - 1e-6)
        )
        if not (holds and fails_lower and fails_upper):
            disagreements += 1

    ok = violations == 0 and disagreements == 0
    record_criterion(
        7, "bound transfer validity", ok,
        f"{violations} transfer violations, {disagreements} verdict disagreements "
        f"over {total} commuting instances (slack 1e-9 * scale)",
    )


def test_criterion_08_commutation_and_symmetry():
    """CS = SC and Hermitian controlled operator on every commuting instance."""
    worst_comm = worst_herm = 0.0
    for i in range(200):
        rng = np.random.default_rng(7000 + i)  # same family as criterion 7
        d = 2 + (i % 15)
        frame, K, ctrl = commuting_triple(rng, d, 2 * d)
        S = frame_operator(frame)
        C = ctrl.matrix
        scale = float(np.linalg.norm(C) * np.linalg.norm(S))
        L = C @ S
        worst_comm = max(worst_comm, float(np.linalg.norm(L - S @ C)) / scale)
        worst_herm = max(worst_herm, float(np.linalg.norm(L - L.conj().T)) / scale)
    ok = worst_comm <= 1e-9 and worst_herm <= 1e-9
    record_criterion(
        8, "controller commutation and symmetry", ok,
        f"worst |CS - SC| {worst_comm:.1e}, worst |L - L*| {worst_herm:.1e} "
        "relative to |C||S| over 200 instances",
    )


def test_criterion_09_preconditioning_speedup():
    """Exact inverse solves in one step; a diagonal approximation wins >= 10x."""
    trials = 20
    config = SolverConfig(residual_tol=1e-8, max_iter=200_000, seed=0)
    inv_iterations = []
    speedups = []
    rate_defects = []
    for t in range(trials):
        frame, _, _ = generate_instance("ill-conditioned", dim=32, cond_target=1e4, seed=9000 + t)
        S = frame_operator(frame)
        bounds = positive_definite_bounds(S)
        rng = np.random.default_rng(9500 + t)
        g = rng.normal(size=32) + 1j * rng.normal(size=32)

        _, plain = richardson_solve(S, g, bounds, config)
        _, with_inverse = controlled_richardson_solve(
            frame, controller_for("exact-inverse", S), g, config
        )
        _, with_jacobi = controlled_richardson_solve(
            frame, controller_for("jacobi", S), g, config
        )
        inv_iterations.append(with_inverse.iterations)
        speedups.append(plain.iterations / with_jacobi.iterations)

        rho = (bounds.upper - bounds.lower) / (bounds.upper + bounds.lower)
        rate_defects.append(abs(plain.empirical_rate - rho) / rho)

    median_speedup = float(np.median(speedups))
    worst_rate_defect = max(rate_defects)

    # one-sided rate bound away from the diagonal family
    one_sided_ok = True
    for t in range(3):
        rng = np.random.default_rng(9800 + t)
        frame, _, _ = commuting_triple(rng, 8, 16)
        S = frame_operator(frame)
        bounds = positive_definite_bounds(S)
        g = rng.normal(size=8) + 1j * rng.normal(size=8)
        _, trace = richardson_solve(S, g, bounds, config)
        rho = (bounds.upper - bounds.lower) / (bounds.upper + bounds.lower)
        one_sided_ok = one_sided_ok and trace.empirical_rate <= rho * (1 + 1e-6)

    ok = (
        all(n == 1 for n in inv_iterations)
        and median_speedup >= 10.0
        and worst_rate_defect <= 0.10
        and one_sided_ok
    )
    record_criterion(
        9, "preconditioning speedup", ok,
        f"exact inverse: {max(inv_iterations)} iteration(s); diagonal controller median "
        f"speedup {median_speedup:.0f}x over {trials} trials (dim 32, condition 1e4); "
        f"plain-rate defect {worst_rate_defect:.1%} (limit 10%), one-sided bound "
        f"{'holds' if one_sided_ok else 'VIOLATED'}",
    )


def test_criterion_10_benchmark_determinism(tmp_path, capsys):
    """Byte-identical CSV across three reruns."""
    base = ["bench", "--kinds", "ill-conditioned", "--dims", "4", "8",
            "--cond-targets", "10", "100", "--trials", "2", "--deterministic",
            "--seed", "42"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    codes = [
        cli_main(base + ["--out", str(paths[0])]),
        cli_main(base + ["--out", str(paths[1])]),
        cli_main(base + ["--out", str(paths[2])]),
    ]
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    record_criterion(
        10, "benchmark determinism", ok,
        f"{len(blobs[0])}-byte CSV identical across three runs",
    )
