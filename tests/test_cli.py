"""End-to-end tests for the command-line interface.

Most tests drive ``framekit.cli.main`` in-process (fast, capsys-friendly);
one subprocess test runs a launcher built from the ``[project.scripts]``
declaration in ``pyproject.toml``, as an installer would write it."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    c3_example,
    frame_operator,
    parseval_frame,
    random_frame,
    save_frame,
    save_operator,
    save_vector,
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
    code = main(["check", path, "--json", "--deterministic", "--seed", "7"])
    report = _json_report(capsys)
    assert code == 0
    manifest = report["manifest"]
    assert manifest["command"] == "check"
    assert manifest["inputs"] == {"frame": path}
    assert manifest["seed"] == 7
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


def test_dual_residuals_match_the_per_sample_loop(tmp_path, capsys):
    # A near-Parseval G accepted under a loose --tol-rel leaves residuals of
    # about 1e-4, so the reported maxima depend on which probes were drawn.
    # The per-sample loop below is the reference; the command draws all
    # samples at once, so only the summation order of the products differs.
    rng = np.random.default_rng(12)
    G = parseval_frame(rng, 5, 9).matrix + 1e-4 * rng.normal(size=(5, 9))
    K = np.diag([1.0, 2.0, 0.0, 0.5, 0.0]).astype(complex)
    g_path = _write_frame(tmp_path / "g.json", G)
    k_path = _write_operator(tmp_path / "k.json", K)
    out = tmp_path / "dual.json"
    code = main(["dual", "--g", g_path, "--k", k_path, "--out", str(out), "--tol-rel", "1e-2",
                 "--samples", "40", "--seed", "7", "--json", "--deterministic"])
    rec = _json_report(capsys)["reconstruction"]
    assert code == 0

    from framekit import load_frame

    H, F = load_frame(out).matrix, K @ G
    draws = np.random.default_rng(7)
    worst_dual_side = worst_frame_side = 0.0
    for _ in range(40):
        f = K @ (draws.normal(size=5) + 1j * draws.normal(size=5))
        norm = np.linalg.norm(f)
        worst_dual_side = max(worst_dual_side, np.linalg.norm(f - F @ (H.conj().T @ f)) / norm)
        worst_frame_side = max(worst_frame_side, np.linalg.norm(f - H @ (F.conj().T @ f)) / norm)
    assert worst_dual_side > 1e-6 and worst_frame_side > 1e-6
    np.testing.assert_allclose(rec["max_rel_residual_coefficients_in_dual"], worst_dual_side, rtol=1e-9)
    np.testing.assert_allclose(rec["max_rel_residual_coefficients_in_frame"], worst_frame_side, rtol=1e-9)


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

    from framekit import load_vector

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


def test_solve_with_controller_converges_faster(tmp_path, capsys):
    from framekit import controller_for, generate_instance

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


def test_bench_deterministic_across_reruns_and_workers(tmp_path, capsys):
    common = ["bench", "--kinds", "ill-conditioned", "--dims", "4", "--cond-targets", "10",
              "--trials", "2", "--deterministic"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(common + ["--out", str(out1)]) == 0
    assert main(common + ["--out", str(out2)]) == 0
    assert main(common + ["--out", str(out3), "--workers", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


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
    assert report["controlled"]["commutes_with_k"] is True
    assert report["controlled"]["form_is_real"] is True


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
