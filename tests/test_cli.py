"""End-to-end tests for the command-line interface.

Most tests drive ``framekit.cli.main`` in-process (fast, capsys-friendly);
one subprocess test runs a launcher built from the ``[project.scripts]``
declaration in ``pyproject.toml``, as an installer would write it."""

import dataclasses
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import relative_residual
from framekit import (
    ControlledReport,
    FrameSequence,
    c3_example,
    commuting_triple,
    controlled_kframe_check,
    controller_for,
    frame_operator,
    generate_instance,
    load_vector,
    make_controller,
    numerical_rank,
    parseval_frame,
    random_frame,
    save_frame,
    save_operator,
    save_vector,
    vector_to_obj,
)
from framekit.cli import main


def _write_frame(path, matrix):
    save_frame(FrameSequence(np.asarray(matrix, dtype=np.complex128)), path)
    return str(path)


def _write_operator(path, matrix):
    save_operator(np.asarray(matrix, dtype=np.complex128), path)
    return str(path)


def _write_vector(path, v):
    save_vector(np.asarray(v, dtype=np.complex128), path)
    return str(path)


def _json_report(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


# ---------------------------------------------------------------------------
# check


def test_check_orthonormal_basis(tmp_path, capsys):
    path = _write_frame(tmp_path / "onb.json", np.eye(3))
    code = main(["check", path, "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["frame"]["is_frame"] is True
    assert report["frame"]["lower"] == pytest.approx(1.0, abs=1e-12)
    assert report["frame"]["upper"] == pytest.approx(1.0, abs=1e-12)


def test_check_deficient_family_fails(tmp_path, capsys):
    path = _write_frame(tmp_path / "e1.json", [[1.0], [0.0]])
    k_path = _write_operator(tmp_path / "id.json", np.eye(2))
    code = main(["check", path, "--k", k_path, "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 2
    assert report["frame"]["is_frame"] is False
    assert report["kframe"]["is_kframe"] is False
    assert report["kframe"]["witness"] is not None


def test_check_c3_example_k_bounds(tmp_path, capsys):
    frame, K, _ = c3_example()
    f_path = _write_frame(tmp_path / "f.json", frame.matrix)
    k_path = _write_operator(tmp_path / "k.json", K)
    code = main(["check", f_path, "--k", k_path, "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0  # not a frame for C^3, but the K verdict decides when --k is given
    assert report["frame"]["is_frame"] is False
    assert report["kframe"]["is_kframe"] is True
    assert report["kframe"]["lower_opt"] == pytest.approx(1.0, abs=1e-12)
    assert report["kframe"]["upper_opt"] == pytest.approx(2.0, abs=1e-12)


def test_check_exit_tracks_strongest_property(tmp_path, capsys):
    # {e1, e1, e2} is a K-frame but not a frame; with --k the K verdict decides.
    frame, K, _ = c3_example()
    f_path = _write_frame(tmp_path / "f.json", frame.matrix)
    k_path = _write_operator(tmp_path / "k.json", K)
    code_plain = main(["check", f_path])
    capsys.readouterr()
    code_k = main(["check", f_path, "--k", k_path])
    capsys.readouterr()
    assert code_plain == 2
    assert code_k == 0


def test_check_json_manifest_fields(tmp_path, capsys):
    path = _write_frame(tmp_path / "onb.json", np.eye(2))
    code = main(["check", path, "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    manifest = report["manifest"]
    assert manifest["command"] == "check"
    assert manifest["inputs"] == {"frame": path, "k": None, "c": None}
    assert "seed" not in manifest
    assert manifest["exit_code"] == 0
    assert set(manifest["tolerances"]) == {"rel_eq", "psd_slack", "rank_rel"}
    assert "timestamp" not in manifest


def test_check_timestamp_present_without_deterministic(tmp_path, capsys):
    path = _write_frame(tmp_path / "onb.json", np.eye(2))
    main(["check", path, "--json"])
    report = _json_report(capsys)
    assert "timestamp" in report["manifest"]


def test_deterministic_reruns_are_byte_identical(tmp_path, capsys):
    path = _write_frame(tmp_path / "onb.json", np.eye(3))
    main(["check", path, "--json", "--deterministic"])
    first = capsys.readouterr().out
    main(["check", path, "--json", "--deterministic"])
    second = capsys.readouterr().out
    assert first == second


def test_check_json_reports_every_controlled_field_and_the_witness(tmp_path, capsys):
    frame, K, ctrl = commuting_triple(np.random.default_rng(31), 5, 10, zero_k=1)
    f_path = _write_frame(tmp_path / "f.json", frame.matrix)
    k_path = _write_operator(tmp_path / "k.json", K)
    c_path = _write_operator(tmp_path / "c.json", ctrl.matrix)
    code = main(["check", f_path, "--k", k_path, "--c", c_path, "--json", "--deterministic"])
    controlled = _json_report(capsys)["controlled"]
    expected = controlled_kframe_check(frame, K, make_controller(ctrl.matrix))
    assert code == 0
    assert set(controlled) == {f.name for f in dataclasses.fields(ControlledReport)} | {"rank_k"}
    assert controlled["rank_k"] == numerical_rank(K) == 4
    assert controlled["witness"] == vector_to_obj(expected.witness)
    assert controlled["lower_opt"] == expected.lower_opt


def test_check_json_controlled_witness_is_null_for_rank_zero_k(tmp_path, capsys):
    frame, _, ctrl = commuting_triple(np.random.default_rng(32), 4, 8)
    f_path = _write_frame(tmp_path / "f.json", frame.matrix)
    k_path = _write_operator(tmp_path / "k.json", np.zeros((4, 4)))
    c_path = _write_operator(tmp_path / "c.json", ctrl.matrix)
    code = main(["check", f_path, "--k", k_path, "--c", c_path, "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["controlled"]["vacuous"] is True
    assert report["controlled"]["witness"] is None
    assert report["kframe"]["witness"] is None


def test_check_json_reports_a_lower_bound_beyond_the_largest_float_as_null(tmp_path, capsys):
    # S = I and K = 1e-200 I: the optimal lower constant 1e400 overflows to inf.
    f_path = _write_frame(tmp_path / "f.json", np.eye(3))
    k_path = _write_operator(tmp_path / "k.json", 1e-200 * np.eye(3))
    c_path = _write_operator(tmp_path / "c.json", np.eye(3))
    argv = ["check", f_path, "--k", k_path, "--c", c_path, "--deterministic"]
    assert main([*argv, "--json"]) == 0
    report = _strict_json(capsys.readouterr().out)
    for name, verdict in (("kframe", "is_kframe"), ("controlled", "is_controlled_kframe")):
        assert report[name]["lower_opt"] is None
        assert report[name][verdict] is True
        assert report[name]["witness"]["entries"] == [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    # the text output keeps the float
    assert main(argv) == 0
    assert "optimal bounds (inf, 1.0) -> K-frame" in capsys.readouterr().out


def test_check_json_reports_a_frame_bound_beyond_the_largest_float_as_null(tmp_path, capsys):
    # S = 1e320 I overflows, but the frame verdict reads S scaled by a power of two.
    path = _write_frame(tmp_path / "huge.json", 1e160 * np.eye(3))
    assert main(["check", path, "--json", "--deterministic"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["frame"] == {"lower": None, "upper": None, "is_frame": True}


def test_check_certifies_a_frame_whose_operator_underflows(tmp_path, capsys):
    path = _write_frame(tmp_path / "tiny.json", 1e-170 * np.eye(3))
    assert main(["check", path]) == 0
    assert "bounds lower=0.0 upper=0.0 -> frame" in capsys.readouterr().out


def test_check_certifies_a_controller_near_the_largest_float(tmp_path, capsys):
    # hermitian_part(C) overflows unless C is scaled first: the controller's
    # bounds came out (nan, nan) and the check exited 1.
    f_path = _write_frame(tmp_path / "f.json", np.eye(3))
    C = 1e308 * np.diag([1.0, 1.5, 1.0])
    c_path = _write_operator(tmp_path / "c.json", C)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", f_path, "--c", c_path, "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = _strict_json(captured.out)
    assert report["controlled"]["is_controlled_kframe"] is True
    assert report["controlled"]["upper_opt"] == C[1, 1]
    assert "Warning" not in captured.err


def _solve_files(tmp_path, capsys, f_path, g, *flags):
    """``(exit code, captured output, solution or None)`` of one ``solve`` of ``g``."""
    out = tmp_path / "sol.json"
    out.unlink(missing_ok=True)
    code = main(["solve", f_path, "--g", _write_vector(tmp_path / "g.json", g), *flags, "--out", str(out)])
    return code, capsys.readouterr(), load_vector(out) if out.exists() else None


@pytest.mark.parametrize("s", [1e160, 1e-170])
def test_solve_refuses_only_a_solution_outside_the_float_range(tmp_path, capsys, s):
    # S = s^2 I leaves the float range; the solve runs on S~ = 2^-2e S, so
    # only the solution g / s^2 decides: 1e-320 and 1e340 are refused,
    # 1e300 / 1e320 = 1e-20 and 1e-300 / 1e-340 = 1e40 are solved.
    f_path = _write_frame(tmp_path / "frame.json", s * np.eye(3))
    code, captured, f = _solve_files(tmp_path, capsys, f_path, np.ones(3))
    assert code == 1 and f is None
    assert "framekit solve: invalid input: the solution lies outside the float range" in captured.err
    assert "Traceback" not in captured.err and "Warning" not in captured.err
    rhs = (1e300 if s > 1 else 1e-300) * np.ones(3)
    code, captured, f = _solve_files(tmp_path, capsys, f_path, rhs)
    assert code == 0, captured.err
    np.testing.assert_allclose(f, rhs / s / s, rtol=1e-15)


@pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controlled"])
def test_solve_of_a_frame_whose_lower_bound_underflows_refuses_only_a_solution_outside_the_float_range(
    tmp_path, capsys, controlled
):
    # A small --tol-psd keeps 2^-1080 as the lower bound of S = diag(2^-1000,
    # 2^-1080), which underflows to 0.0.  The relaxation 2^1000 (plain) or
    # the controller diag(1, 2^80) (controlled) solves along e_1 in one
    # iteration: g = 2^30 e_1 gives 2^1030 e_1, refused, and g = 2^-100 e_1
    # gives 2^900 e_1.
    f_path = _write_frame(tmp_path / "frame.json", np.diag([2.0**-500, 2.0**-540]))
    flags = ["--tol-psd", "1e-30"]
    if controlled:
        flags += ["--c", _write_operator(tmp_path / "c.json", np.diag([1.0, 2.0**80]))]
    else:
        flags += ["--relaxation", repr(2.0**1000)]
    code, captured, f = _solve_files(tmp_path, capsys, f_path, [2.0**30, 0.0], *flags)
    assert code == 1 and f is None
    assert "framekit solve: invalid input: the solution lies outside the float range" in captured.err
    code, captured, f = _solve_files(tmp_path, capsys, f_path, [2.0**-100, 0.0], *flags)
    assert code == 0, captured.err
    assert np.array_equal(f, [2.0**900, 0.0])


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200])
@pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controlled"])
def test_solve_is_exact_for_a_right_hand_side_far_from_one(tmp_path, capsys, scale, controlled):
    # Unscaled, ||g||^2 under- or overflowed: 1e-170 gave the zero vector as
    # "converged after 0 iterations", 1e-160 a false convergence after 205
    # and 1e200 a "diverged" with an overflow warning.
    frame = generate_instance("ill-conditioned", 8, cond_target=1e2, seed=0)[0]
    rng = np.random.default_rng(0)
    g = scale * (rng.normal(size=8) + 1j * rng.normal(size=8))
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    C = controller_for("jacobi", frame_operator(frame)).matrix
    flags = ["--c", _write_operator(tmp_path / "c.json", C)] if controlled else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, captured, f = _solve_files(tmp_path, capsys, f_path, g, *flags)
    assert code == 0, captured.err
    assert captured.out.startswith("converged after")
    assert "Warning" not in captured.err
    assert relative_residual(frame.matrix, f, g) <= 1e-8 * (1 + 1e-3)


# ---------------------------------------------------------------------------
# dual


def test_dual_worked_example_closed_form(tmp_path, capsys):
    frame, K, _ = c3_example()
    g_path = _write_frame(tmp_path / "g.json", np.eye(3))  # G = orthonormal basis
    k_path = _write_operator(tmp_path / "k.json", K)
    f_path = _write_frame(tmp_path / "f.json", frame.matrix)  # F = {K e_n}
    out = tmp_path / "dual.json"
    code = main([
        "dual", "--g", g_path, "--k", k_path, "--f", f_path,
        "--out", str(out), "--json", "--deterministic",
    ])
    report = _json_report(capsys)
    assert code == 0
    rec = report["reconstruction"]
    assert rec["max_rel_residual_coefficients_in_dual"] <= 1e-9
    assert rec["max_rel_residual_coefficients_in_frame"] <= 1e-9

    from framekit import load_frame

    dual = load_frame(out)
    expected = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(dual.matrix, expected, atol=1e-12)


def test_dual_of_parseval_frame_with_identity_k(tmp_path, capsys):
    rng = np.random.default_rng(5)
    G = parseval_frame(rng, 3, 7)
    g_path = _write_frame(tmp_path / "g.json", G.matrix)
    k_path = _write_operator(tmp_path / "k.json", np.eye(3))
    out = tmp_path / "dual.json"
    code = main(["dual", "--g", g_path, "--k", k_path, "--out", str(out),
                 "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["reconstruction"]["max_rel_residual_coefficients_in_dual"] <= 1e-9

    from framekit import load_frame

    # K = I and {K g_n} = G: the dual is G itself.
    np.testing.assert_allclose(load_frame(out).matrix, G.matrix, atol=1e-12)


@pytest.mark.parametrize("dim", [4, 32])
def test_dual_file_and_report_are_laid_out_as_the_indenting_encoder(tmp_path, capsys, dim):
    rng = np.random.default_rng(dim)
    g_path = _write_frame(tmp_path / "g.json", parseval_frame(rng, dim, 2 * dim).matrix)
    K = rng.normal(size=(dim, 2)) @ rng.normal(size=(2, dim))
    k_path = _write_operator(tmp_path / "k.json", K)
    out = tmp_path / "dual.json"
    code = main(["dual", "--g", g_path, "--k", k_path, "--out", str(out),
                 "--json", "--deterministic"])
    stdout = capsys.readouterr().out
    assert code == 0
    written = out.read_text(encoding="utf-8")
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n"
    report = json.loads(stdout)
    assert stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["dual"] == json.loads(written)


def test_dual_residuals_are_the_exact_supremum_over_range_k(tmp_path, capsys):
    # A near-Parseval G accepted under a loose --tol-rel leaves residuals of
    # about 1e-4.  Each reported value is sup ||f - A B* f|| / ||f|| over f
    # in range(K): the largest singular value of X = (I - A B*) Q for an
    # orthonormal basis Q of range(K), here from an independent SVD of K.
    rng = np.random.default_rng(12)
    G = parseval_frame(rng, 5, 9).matrix + 1e-4 * rng.normal(size=(5, 9))
    K = np.diag([1.0, 2.0, 0.0, 0.5, 0.0]).astype(complex)
    g_path = _write_frame(tmp_path / "g.json", G)
    k_path = _write_operator(tmp_path / "k.json", K)
    out = tmp_path / "dual.json"
    argv = ["dual", "--g", g_path, "--k", k_path, "--out", str(out), "--tol-rel", "1e-2",
            "--json", "--deterministic"]
    # the exact value needs no probe count: --samples is a usage error that writes nothing
    assert main([*argv, "--samples", "5"]) == 1
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err
    assert not out.exists()
    code = main(argv)
    rec = _json_report(capsys)["reconstruction"]
    assert code == 0
    assert "samples" not in rec

    from framekit import load_frame

    H, F = load_frame(out).matrix, K @ G
    U, s, _ = np.linalg.svd(K)
    Q = U[:, s > 1e-12 * s[0]]
    probes = K @ (rng.normal(size=(5, 1000)) + 1j * rng.normal(size=(5, 1000)))
    for key, A, B in (("max_rel_residual_coefficients_in_dual", F, H),
                      ("max_rel_residual_coefficients_in_frame", H, F)):
        X = (np.eye(5) - A @ B.conj().T) @ Q
        exact = np.sqrt(np.linalg.eigvalsh(X.conj().T @ X)[-1])
        assert exact > 1e-6
        np.testing.assert_allclose(rec[key], exact, rtol=1e-9)
        sampled = np.linalg.norm(probes - A @ (B.conj().T @ probes), axis=0) / np.linalg.norm(probes, axis=0)
        assert sampled.max() <= rec[key] * (1 + 1e-9)


def test_dual_of_a_zero_k_reports_zero_residuals(tmp_path, capsys):
    g_path = _write_frame(tmp_path / "g.json", np.eye(3))
    k_path = _write_operator(tmp_path / "k.json", np.zeros((3, 3)))
    code = main(["dual", "--g", g_path, "--k", k_path, "--out", str(tmp_path / "dual.json"),
                 "--json", "--deterministic"])
    rec = _json_report(capsys)["reconstruction"]
    assert code == 0
    assert rec["max_rel_residual_coefficients_in_dual"] == 0.0
    assert rec["max_rel_residual_coefficients_in_frame"] == 0.0


def test_dual_refuses_non_factoring_family(tmp_path, capsys):
    # a non-Parseval G cannot give K = F G* with the default F = {K g_n}
    rng = np.random.default_rng(11)
    G = random_frame(rng, 4, 8)
    g_path = _write_frame(tmp_path / "g.json", G.matrix)
    k_path = _write_operator(tmp_path / "k.json", np.diag([1.0, 2.0, 3.0, 4.0]))
    code = main(["dual", "--g", g_path, "--k", k_path,
                 "--out", str(tmp_path / "dual.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "property violation" in captured.err
    assert "witness vector:" in captured.err
    assert "Traceback" not in captured.err


def test_dual_of_a_huge_k_reports_finite_residuals_without_warnings(tmp_path, capsys):
    # The probes K x overflow the residual norms unless K is scaled first.
    g_path = _write_frame(tmp_path / "g.json", np.eye(4))
    k_path = _write_operator(tmp_path / "k.json", 1e200 * np.diag([1.0, 2.0, 0.5, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dual", "--g", g_path, "--k", k_path, "--out", str(tmp_path / "dual.json"),
                     "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 0
    rec = _strict_json(captured.out)["reconstruction"]
    assert 0.0 <= rec["max_rel_residual_coefficients_in_dual"] < 1e-12
    assert 0.0 <= rec["max_rel_residual_coefficients_in_frame"] < 1e-12
    assert "Warning" not in captured.err


def test_dual_refuses_a_huge_non_factoring_pair_without_warnings(tmp_path, capsys):
    # F G* of two families with entries near 1e299 overflows unless scaled.
    big = _write_frame(tmp_path / "big.json", 1e299 * np.eye(4))
    k_path = _write_operator(tmp_path / "k.json", np.eye(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["dual", "--g", big, "--f", big, "--k", k_path, "--out", str(tmp_path / "dual.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "does not factor K" in captured.err and "witness vector:" in captured.err
    assert "Warning" not in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "dual.json").exists()


# ---------------------------------------------------------------------------
# solve


def test_solve_tight_frame_one_iteration(tmp_path, capsys):
    rng = np.random.default_rng(21)
    frame = parseval_frame(rng, 4, 9)
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    g_path = _write_vector(tmp_path / "g.json", rng.normal(size=4) + 1j * rng.normal(size=4))
    out = tmp_path / "sol.json"
    code = main(["solve", f_path, "--g", g_path, "--out", str(out),
                 "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["trace"]["converged"] is True
    assert report["trace"]["iterations"] == 1


def test_solve_matches_direct_inversion(tmp_path, capsys):
    rng = np.random.default_rng(22)
    frame = random_frame(rng, 5, 11)
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    g_path = _write_vector(tmp_path / "g.json", g)
    out = tmp_path / "sol.json"
    code = main(["solve", f_path, "--g", g_path, "--out", str(out),
                 "--residual-tol", "1e-12"])
    capsys.readouterr()
    assert code == 0

    S = frame_operator(frame)
    expected = np.linalg.solve(S, g)
    np.testing.assert_allclose(load_vector(out), expected, rtol=0, atol=1e-9)


def test_solve_refuses_singular_frame_operator(tmp_path, capsys):
    f_path = _write_frame(tmp_path / "frame.json", [[1.0], [0.0]])
    g_path = _write_vector(tmp_path / "g.json", [1.0, 1.0])
    code = main(["solve", f_path, "--g", g_path, "--out", str(tmp_path / "sol.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "singular" in captured.err
    assert "Traceback" not in captured.err


def test_solve_iteration_cap_still_writes_outputs(tmp_path, capsys):
    rng = np.random.default_rng(23)
    # condition ~100 so three iterations cannot reach 1e-8
    sigma = np.array([1.0, 0.5, 0.2, 0.1])
    frame = FrameSequence(np.diag(sigma).astype(complex) @ parseval_frame(rng, 4, 8).matrix)
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    g_path = _write_vector(tmp_path / "g.json", rng.normal(size=4))
    out = tmp_path / "sol.json"
    code = main(["solve", f_path, "--g", g_path, "--out", str(out),
                 "--max-iter", "3", "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 3
    assert report["trace"]["converged"] is False
    assert report["trace"]["iterations"] == 3
    assert out.exists()
    assert report["manifest"]["exit_code"] == 3


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("controlled", [False, True])
def test_divergent_solve_writes_nothing_and_reports_strict_json(tmp_path, capsys, controlled):
    frame, _, ctrl = commuting_triple(np.random.default_rng(25), 4, 8)
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    g_path = _write_vector(tmp_path / "g.json", [1.0, 0.5, 0.0, 2.0])
    out = tmp_path / "sol.json"
    flags = ["--c", _write_operator(tmp_path / "c.json", ctrl.matrix)] if controlled else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", f_path, "--g", g_path, *flags, "--out", str(out),
                     "--relaxation", "1e300", "--max-iter", "50", "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert code == 2
    assert not out.exists()
    report = _strict_json(captured.out)
    assert report["solution"] is None
    # the kernel stops the column at its first non-finite residual
    trace = report["trace"]
    assert trace["converged"] is False and trace["iterations"] < 50
    assert len(trace["residuals"]) == trace["iterations"] and trace["residuals"][-1] is None
    assert report["manifest"]["outputs"] == [] and report["manifest"]["exit_code"] == 2
    reason = [line for line in captured.err.splitlines() if not line.startswith("tolerances:")]
    assert len(reason) == 1 and "diverged" in reason[0] and "no solution written" in reason[0]
    assert "Warning" not in captured.err and "Traceback" not in captured.err


def test_solve_with_controller_converges_faster(tmp_path, capsys):
    frame, _, _ = generate_instance("ill-conditioned", dim=6, cond_target=1e3, seed=3)
    ctrl = controller_for("jacobi", frame_operator(frame))
    f_path = _write_frame(tmp_path / "frame.json", frame.matrix)
    rng = np.random.default_rng(24)
    g_path = _write_vector(tmp_path / "g.json", rng.normal(size=6))
    c_path = _write_operator(tmp_path / "c.json", ctrl.matrix)

    code = main(["solve", f_path, "--g", g_path, "--out", str(tmp_path / "a.json"),
                 "--json", "--deterministic"])
    plain = _json_report(capsys)
    assert code == 0
    code = main(["solve", f_path, "--g", g_path, "--c", c_path,
                 "--out", str(tmp_path / "b.json"), "--json", "--deterministic"])
    controlled = _json_report(capsys)
    assert code == 0
    assert controlled["trace"]["iterations"] < plain["trace"]["iterations"]


# ---------------------------------------------------------------------------
# bench


def test_bench_deterministic_across_reruns(tmp_path, capsys):
    common = ["bench", "--kinds", "ill-conditioned", "--dims", "4", "--cond-targets", "10",
              "--trials", "2", "--deterministic"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(common + ["--out", str(out1)]) == 0
    assert main(common + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # --workers is not an option: a usage error that writes nothing
    assert main(common + ["--out", str(tmp_path / "c.csv"), "--workers", "2"]) == 1
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_bench_report_and_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--kinds", "ill-conditioned", "--dims", "4", "--cond-targets",
                 "100", "--trials", "3", "--out", str(out), "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["rows"] == 3
    assert report["median_speedup"] > 1.0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].startswith("instance_id,")


def test_bench_refuses_a_non_numeric_cond_target(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--cond-targets", "10", "abc", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "argument --cond-targets" in captured.err and "'abc'" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_bench_manifest_records_the_parsed_cond_targets(tmp_path, capsys):
    code = main(["bench", "--kinds", "random-frame", "--dims", "3", "--cond-targets", "NA", "1e2",
                 "--trials", "1", "--out", str(tmp_path / "bench.csv"), "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["manifest"]["inputs"]["cond_targets"] == [None, 100.0]


def test_bench_json_reports_a_median_speedup_of_no_converged_cell_as_null(tmp_path, capsys):
    # One iteration converges no cell, so no speedup is finite.
    code = main(["bench", "--kinds", "ill-conditioned", "--dims", "4", "--cond-targets", "100",
                 "--trials", "1", "--max-iter", "1", "--out", str(tmp_path / "bench.csv"),
                 "--json", "--deterministic"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 0
    assert report["median_speedup"] is None and report["converged_rows"] == 0


@pytest.mark.parametrize("flags, where", [
    (["--dims", "0"], "dims[0]"),
    (["--dims", "4", "-3"], "dims[1]"),
    (["--dims", "4", "--cond-targets", "0.5"], "cond_targets[0]"),
    (["--dims", "4", "--cond-targets", "na", "nan"], "cond_targets[1]"),
    (["--dims", "4", "--cond-targets", "inf"], "cond_targets[0]"),
])
def test_bench_refuses_an_invalid_grid(tmp_path, capsys, flags, where):
    out = tmp_path / "bench.csv"
    code = main(["bench", *flags, "--trials", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert f"framekit bench: invalid input: {where} must be" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# paper-example, gen, round trips


def test_paper_example_passes(capsys):
    code = main(["paper-example"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all assertions hold" in captured.out


def test_paper_example_json(capsys):
    code = main(["paper-example", "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["all_assertions_hold"] is True
    assert report["frame_operator_defect"] == 0.0
    assert report["kframe"]["lower_opt"] == pytest.approx(1.0, abs=1e-12)


def test_gen_then_check_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    code = main(["gen", "--kind", "commuting-family", "--dim", "5", "--seed", "9",
                 "--out-prefix", prefix])
    capsys.readouterr()
    assert code == 0
    code = main(["check", f"{prefix}-frame.json", "--k", f"{prefix}-k.json",
                 "--c", f"{prefix}-c.json", "--json", "--deterministic"])
    report = _json_report(capsys)
    assert code == 0
    assert report["kframe"]["is_kframe"] is True
    assert report["controlled"]["is_controlled_kframe"] is True


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gen_json_reports_an_ignored_non_finite_cond_target_as_null(tmp_path, capsys, value):
    code = main(["gen", "--kind", "random-frame", "--dim", "3", "--cond-target", value,
                 "--out-prefix", str(tmp_path / "inst"), "--json", "--deterministic"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 0
    assert report["manifest"]["inputs"]["cond_target"] is None


def test_gen_builtin_c3_instance_files(tmp_path, capsys):
    prefix = str(tmp_path / "c3")
    code = main(["gen", "--kind", "paper-c3", "--out-prefix", prefix])
    capsys.readouterr()
    assert code == 0

    from framekit import load_frame, load_operator

    frame = load_frame(f"{prefix}-frame.json")
    K = load_operator(f"{prefix}-k.json")
    expected_k = np.array([[1, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    np.testing.assert_array_equal(K, expected_k)
    np.testing.assert_array_equal(frame.matrix, expected_k)


# ---------------------------------------------------------------------------
# diagnostics and flag handling


def test_malformed_json_is_a_clean_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "vectors": [[[1, 0')
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert str(path) in captured.err
    assert "line" in captured.err and "column" in captured.err
    assert "Traceback" not in captured.err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    code = main(["check", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot read file" in captured.err


def test_unknown_flag_exits_one(capsys):
    code = main(["paper-example", "--frobnicate"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err


def test_help_exits_zero(capsys):
    code = main(["--help"])
    captured = capsys.readouterr()
    assert code == 0
    assert "check" in captured.out and "bench" in captured.out


def test_tolerances_line_goes_to_stderr(tmp_path, capsys):
    path = _write_frame(tmp_path / "onb.json", np.eye(2))
    main(["check", path, "--json", "--deterministic"])
    captured = capsys.readouterr()
    assert captured.err.startswith("tolerances:")
    json.loads(captured.out)  # stdout is pure JSON


REPO_ROOT = Path(__file__).resolve().parents[1]


def test_console_script_is_installed_and_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["framekit"]

    # An installed distribution, if any, must declare the same entry point.
    installed = importlib.metadata.entry_points(group="console_scripts", name="framekit")
    for ep in installed:
        assert ep.value == target, f"installed entry point {ep.value!r} != {target!r}"

    # The launcher an installer generates for ``framekit = "module:attr"``.
    module, _, attr = target.partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "framekit"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    exe = shutil.which("framekit", path=str(bin_dir))
    assert exe is not None, "launcher for 'framekit' is not executable"
    src = str(REPO_ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run(
            [exe, *args], capture_output=True, text=True, timeout=60, env=env,
        )

    result = run("paper-example", "--json", "--deterministic")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["all_assertions_hold"] is True

    bad = run("paper-example", "--frobnicate")
    assert bad.returncode == 1
    assert "usage" in bad.stderr


def test_the_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    from framekit.cli import _build_parser

    assert _build_parser() is _build_parser()
    out = str(tmp_path / "bench.csv")
    tail = ["--trials", "1", "--max-iter", "5", "--out", out, "--json", "--deterministic"]
    assert main(["bench", "--kinds", "random-frame", "--dims", "4", "--cond-targets", "na",
                 "--controller", "identity", *tail]) == 0
    first = _json_report(capsys)["manifest"]["inputs"]
    assert (first["kinds"], first["dims"], first["cond_targets"]) == (["random-frame"], [4], [None])
    assert main(["bench", *tail]) == 0
    second = _json_report(capsys)["manifest"]["inputs"]
    assert second["kinds"] == ["ill-conditioned"]
    assert second["dims"] == [32]
    assert second["cond_targets"] == [1e4]
    assert second["controller"] == "jacobi"

    assert main(["check", "--frobnicate"]) == 1
    capsys.readouterr()
    path = _write_frame(tmp_path / "onb.json", np.eye(2))
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.startswith("frame: 2 vectors in C^2")

    assert main(["--help"]) == 0
    assert "paper-example" in capsys.readouterr().out
    assert main(["check", path, "--json", "--deterministic"]) == 0
    assert _json_report(capsys)["manifest"]["inputs"] == {"frame": path, "k": None, "c": None}


# ---------------------------------------------------------------------------
# the command runner: every subcommand's manifest, attached by ``main``


def _runner_inputs():
    frame, K, ctrl = commuting_triple(np.random.default_rng(7), 4, 8)
    save_frame(frame, "frame.json")
    save_operator(K, "k.json")
    save_operator(ctrl.matrix, "c.json")
    save_frame(FrameSequence(np.eye(4)[:, :2]), "deficient.json")
    save_frame(FrameSequence(np.eye(4)), "onb.json")
    save_vector(np.arange(1.0, 5.0), "g.json")


@pytest.mark.parametrize("argv, expected_code", [
    (["check", "frame.json", "--k", "k.json", "--c", "c.json"], 0),
    (["check", "deficient.json"], 2),
    (["dual", "--g", "onb.json", "--k", "k.json", "--out", "dual-out.json"], 0),
    (["solve", "frame.json", "--g", "g.json", "--c", "c.json", "--out", "x.json"], 0),
    (["solve", "frame.json", "--g", "g.json", "--max-iter", "1", "--out", "x.json"], 3),
    (["solve", "frame.json", "--g", "g.json", "--relaxation", "1e300", "--max-iter", "50",
      "--out", "x.json"], 2),
    (["bench", "--dims", "4", "--cond-targets", "10", "--trials", "1", "--out", "b.csv"], 0),
    (["paper-example"], 0),
    (["gen", "--kind", "random-frame", "--dim", "3", "--out-prefix", "inst"], 0),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_the_manifest_names_the_command_its_exit_code_and_the_files_written(
    argv, expected_code, tmp_path, monkeypatch, capsys,
):
    monkeypatch.chdir(tmp_path)
    _runner_inputs()
    before = set(os.listdir(tmp_path))
    code = main([*argv, "--json", "--deterministic"])
    manifest = _json_report(capsys)["manifest"]
    assert code == expected_code
    assert manifest["command"] == argv[0]
    assert manifest["exit_code"] == code
    written = set(os.listdir(tmp_path)) - before
    assert sorted(manifest["outputs"]) == sorted(written)


@pytest.mark.parametrize("argv", [
    ["check", "frame.json", "--k", "k.json"],
    ["dual", "--g", "onb.json", "--k", "k.json", "--out", "dual-out.json"],
    ["solve", "frame.json", "--g", "g.json", "--max-iter", "3", "--residual-tol", "1e-3",
     "--relaxation", "0.5", "--out", "x.json"],
    ["bench", "--dims", "4", "--cond-targets", "10", "--trials", "1", "--max-iter", "7", "--out", "b.csv"],
    ["paper-example"],
    ["gen", "--kind", "random-frame", "--dim", "3", "--out-prefix", "inst"],
], ids=lambda argv: argv[0])
def test_the_manifest_inputs_are_every_argument_of_the_subcommand(argv, tmp_path, monkeypatch, capsys):
    from framekit.cli import _build_parser

    # Every argument but the shared options, read off the parser, so a new
    # option cannot be left out; an absent optional one is null.
    (commands,) = (a.choices for a in _build_parser()._actions if a.dest == "command")
    sub = commands[argv[0]]
    (shared,) = (g._group_actions for g in sub._action_groups if g.title == "shared options")
    own = [a.dest for a in sub._actions if a not in shared and a.dest != "help"]
    parsed = vars(_build_parser().parse_args(argv))
    monkeypatch.chdir(tmp_path)
    _runner_inputs()
    main([*argv, "--json", "--deterministic"])
    inputs = _json_report(capsys)["manifest"]["inputs"]
    assert set(inputs) == set(own)
    assert inputs == {dest: parsed[dest] for dest in own}


def test_a_negative_seed_is_an_input_error(tmp_path, capsys):
    for argv in (["gen", "--out-prefix", str(tmp_path / "inst")], ["bench", "--out", str(tmp_path / "b.csv")]):
        assert main([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "the seed must be an integer >= 0, got -1" in err
        assert "Traceback" not in err
    assert not (tmp_path / "inst-frame.json").exists()
    assert not (tmp_path / "b.csv").exists()


SHARED_OPTIONS_READ = {
    "check": {"--tol-rel", "--tol-psd", "--rank-rel"},
    "dual": {"--tol-rel", "--rank-rel"},
    "solve": {"--tol-rel", "--tol-psd"},
    "bench": {"--tol-rel", "--tol-psd", "--seed"},
    "paper-example": {"--tol-rel", "--tol-psd", "--rank-rel"},
    "gen": {"--tol-rel", "--tol-psd", "--seed"},
}


def test_each_subcommand_takes_only_the_shared_options_it_reads(tmp_path, capsys):
    from framekit.cli import _build_parser

    shared = {"--tol-rel", "--tol-psd", "--rank-rel", "--seed", "--json", "--deterministic"}
    (commands,) = (a.choices for a in _build_parser()._actions if a.dest == "command")
    assert set(commands) == set(SHARED_OPTIONS_READ)
    for name, sub in commands.items():
        options = {flag for action in sub._actions for flag in action.option_strings}
        assert options & shared == SHARED_OPTIONS_READ[name] | {"--json", "--deterministic"}, name

    # The eight removed (command, option) pairs are usage errors.
    argv = {"check": ["check", "f.json"], "dual": ["dual", "--g", "g.json", "--k", "k.json"],
            "solve": ["solve", "f.json", "--g", "g.json"], "bench": ["bench"],
            "paper-example": ["paper-example"], "gen": ["gen"]}
    removed = [(name, flag) for name in argv for flag in ("--tol-psd", "--rank-rel", "--seed")
               if flag not in SHARED_OPTIONS_READ[name]]
    assert len(removed) == 8
    for name, flag in removed:
        assert main([*argv[name], flag, "1e-3"]) == 1, (name, flag)
        assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err

    # Only bench and gen record a seed, in the manifest and on stderr.
    assert main(["paper-example", "--json", "--deterministic"]) == 0
    captured = capsys.readouterr()
    assert "seed" not in json.loads(captured.out)["manifest"]
    assert "seed" not in captured.err
    assert main(["gen", "--kind", "paper-c3", "--seed", "4", "--out-prefix", str(tmp_path / "c3"),
                 "--json", "--deterministic"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["manifest"]["seed"] == 4
    assert captured.err.rstrip().endswith("; seed=4")


REQUIRED_ARGV = {"check": ["check", "f.json"], "dual": ["dual", "--g", "g.json", "--k", "k.json"],
                 "solve": ["solve", "f.json", "--g", "g.json"], "bench": ["bench"],
                 "paper-example": ["paper-example"], "gen": ["gen"]}


def test_an_abbreviated_option_is_a_usage_error(capsys):
    # a prefix of an option is not that option: adding or removing an
    # option never changes what another spelling means
    for argv in (["dual", "--g", "g.json", "--k", "k.json", "--tol", "0.5"], ["check", "f.json", "--rank", "0.5"]):
        assert main(argv) == 1, argv
        assert f"unrecognized arguments: {argv[-2]} 0.5" in capsys.readouterr().err


def test_every_option_parses_by_its_full_name():
    from framekit.cli import _build_parser

    (commands,) = (a.choices for a in _build_parser()._actions if a.dest == "command")
    assert set(commands) == set(REQUIRED_ARGV)
    for name, sub in commands.items():
        for action in sub._actions:
            for flag in action.option_strings:
                if flag in ("-h", "--help"):
                    continue
                if action.nargs == 0:
                    value, expected = [], action.const
                elif action.choices:
                    value, expected = [action.choices[0]], action.choices[0]
                else:
                    value, expected = ["1"], action.type("1") if action.type else "1"
                if action.nargs == "+":
                    expected = [expected]
                args = _build_parser().parse_args([*REQUIRED_ARGV[name], flag, *value])
                assert getattr(args, action.dest) == expected, (name, flag)
