"""The top Gram pair of the Douglas optimum, and the vacuity rule.

``kframe_check`` takes the top eigenvalue of the Douglas Gram matrix
``M M*`` from ``eigvalsh`` and its eigenvector from one inverse-iteration
step, falling back to a full ``eigh`` when that vector fails its residual
check.  The reference here is the ``eigh`` path written out: the same null
test and Gram matrix, with the top pair of ``np.linalg.eigh``.  Properties:

* ``lower_opt`` is within ``1e-12`` relative of the reference on commuting,
  general-position, rescaled and rank-deficient inputs, and on inputs whose
  top Gram eigenvalue is repeated or clustered;
* the witness quotient ``<S f, f> / ||K* f||^2`` equals ``lower_opt``;
* negative verdicts are the reference's, bit for bit;
* whenever the solve is refused, the result is the reference's, bit for bit.

``vacuous`` is ``K == 0``, decided without an SVD.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import DEFAULT_TOL, FrameSequence, kframe_check, rayleigh_quotients
from framekit.instances import commuting_triple, deficient_pair, haar_unitary, random_frame
from framekit.kframes import _douglas_lower
from framekit.operators import _positivity_slack

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=150)


def _eigh_path(frame, K, tol=DEFAULT_TOL):
    """``(lower, witness)`` with the top Gram pair taken from ``np.linalg.eigh``."""
    w, U = frame._eigh
    null = w <= _positivity_slack(w, tol)
    Wc = U.conj().T @ K
    null_weight = np.linalg.norm(Wc[null], axis=1)
    if np.linalg.norm(null_weight) > tol.rel_eq * np.linalg.norm(Wc):
        return 0.0, U[:, null][:, np.argmax(null_weight)]
    root = np.sqrt(w[~null])
    M = Wc[~null] / root[:, None]
    vals, vecs = np.linalg.eigh(M @ M.conj().T)
    witness = U[:, ~null] @ (vecs[:, -1] / root)
    return float(1.0 / vals[-1]), witness / np.linalg.norm(witness)


def _gaussian(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _clustered_pair(rng, dim, repeats, gap):
    """``S = Q diag(s) Q*`` and ``K = Q diag(k) Q*`` whose Gram matrix has
    ``repeats`` top eigenvalues within ``gap`` (relative) of each other."""
    Q = haar_unitary(rng, dim)
    s = rng.uniform(0.5, 2.0, dim)
    ratio = rng.uniform(0.1, 0.5, dim)              # k_i^2 / s_i below the top
    ratio[:repeats] = 1.0 + gap * np.arange(repeats)
    k = np.sqrt(ratio * s)
    return FrameSequence(Q * np.sqrt(s)), (Q * k) @ Q.conj().T


@st.composite
def douglas_inputs(draw):
    dim = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["commuting", "general", "deficient", "repeated", "clustered"]))
    if kind == "commuting":
        frame, K, _ = commuting_triple(rng, dim, 2 * dim, zero_k=draw(st.integers(0, dim - 1)))
    elif kind == "general":
        rank = draw(st.integers(1, dim))
        frame = random_frame(rng, dim, draw(st.integers(dim, 2 * dim + 2)))
        K = _gaussian(rng, dim, rank) @ _gaussian(rng, rank, dim) / dim
    elif kind == "deficient":
        frame, K = deficient_pair(rng, dim, 2 * dim)
    else:
        gap = 0.0 if kind == "repeated" else 10.0 ** draw(st.floats(-15.0, -6.0))
        frame, K = _clustered_pair(rng, dim, draw(st.integers(2, dim)), gap)
    s, t = 10.0 ** draw(st.floats(-6.0, 6.0)), 10.0 ** draw(st.floats(-6.0, 6.0))
    return FrameSequence(s * frame.matrix), t * np.asarray(K)


@PROPERTIES
@given(douglas_inputs())
def test_lower_opt_matches_the_eigh_path_and_the_witness_attains_it(pair):
    frame, K = pair
    report = kframe_check(frame, K)
    lower, witness = _eigh_path(frame, K)
    if lower == 0.0:
        assert report.lower_opt == 0.0
        np.testing.assert_array_equal(report.witness, witness)
        return
    assert abs(report.lower_opt - lower) <= 1e-12 * lower
    quotient = rayleigh_quotients(frame, K, report.witness)[0]
    assert abs(quotient - report.lower_opt) <= 1e-12 * report.lower_opt


def _refused_solve(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("seed", range(6))
def test_a_refused_solve_gives_the_eigh_path_bit_for_bit(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    frame, K, _ = commuting_triple(rng, 12, 24, zero_k=seed)
    expected = _eigh_path(frame, K)
    monkeypatch.setattr(np.linalg, "solve", _refused_solve)
    report = kframe_check(frame, K)
    assert report.lower_opt == expected[0]
    np.testing.assert_array_equal(report.witness, expected[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_an_unusable_inverse_iterate_falls_back_to_eigh(monkeypatch, bad):
    frame, K = random_frame(np.random.default_rng(7), 6, 12), np.diag([1.0, 2.0, 0.5, 0.0, 1.0, 3.0])
    expected = _eigh_path(frame, K)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(len(b), bad, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any division by its norm
        lower, witness = _douglas_lower(*frame._eigh, K.astype(complex), DEFAULT_TOL)
    assert lower == expected[0]
    np.testing.assert_array_equal(witness, expected[1])


def test_an_inverse_iterate_off_the_top_eigenvector_falls_back_to_eigh(monkeypatch):
    # e_1 of diag(3, 2, 1) has residual 1 against the top value 3
    frame, K = FrameSequence(np.eye(3)), np.diag([1.0, np.sqrt(2.0), np.sqrt(3.0)])
    expected = _eigh_path(frame, K)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.eye(len(b), dtype=complex)[0])
    lower, witness = _douglas_lower(*frame._eigh, K.astype(complex), DEFAULT_TOL)
    assert lower == expected[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    np.testing.assert_array_equal(witness, expected[1])


def test_the_inverse_iterate_is_accepted_without_eigh(monkeypatch):
    frame, K, _ = commuting_triple(np.random.default_rng(8), 10, 20, zero_k=2)
    frame._eigh  # the eigendecomposition of S is not the one counted
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1))
    report = kframe_check(frame, K)
    assert calls == [] and report.is_kframe


def test_a_subnormal_k_is_not_vacuous():
    K = np.zeros((4, 4), dtype=complex)
    K[1, 2] = 5e-324
    # K K* underflows to zero, so lower_opt overflows; only the rank matters here
    with np.errstate(divide="ignore"):
        report = kframe_check(random_frame(np.random.default_rng(9), 4, 8), K)
    assert report.rank_k == 1
    assert not report.vacuous


def test_a_zero_k_is_vacuous_without_any_decomposition(monkeypatch):
    frame = random_frame(np.random.default_rng(10), 4, 8)
    frame._eigh
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, **k: calls.append(_name))
    report = kframe_check(frame, np.zeros((4, 4)))
    assert report.vacuous and report.is_kframe and report.witness is None
    assert (report.lower_opt, report.rank_k) == (0.0, 0)
    assert calls == []
