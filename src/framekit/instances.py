"""Reproducible instance generators for tests, demos and benchmarks.

Design notes baked into the families:

* Frame spectra are drawn from moderate ranges so verdict margins sit far
  above the positivity slack — scale pathologies are a separate concern from
  the properties under test.
* ``commuting-family`` builds the controller and ``K`` as spectral functions
  of the frame operator (shared eigenbasis), which makes every commutation
  and realness hypothesis hold by construction and keeps ``range(K)``
  invariant under ``S``.  Controller spectra are normalized so that
  ``lambda_max(C) >= 1``; scaling a controller never changes the controlled
  verdict.
* ``ill-conditioned`` aligns the frame operator's eigenbasis with the
  coordinate axes (the synthesis matrix is ``diag(sigma) @ V*``), so diagonal
  controllers are spectral functions of ``S`` and the preconditioning story
  stays inside the commuting theory.  The singular spectrum is geometric from
  ``1`` down to ``cond_target**-0.5``, making ``cond(S)`` equal the target.
"""

from __future__ import annotations

import numpy as np

from .controlled import Controller, identity_controller, make_controller
from .errors import InvalidParametersError
from .frames import FrameSequence
from .operators import DEFAULT_TOL, Tolerances, hermitian_part

__all__ = [
    "INSTANCE_KINDS",
    "haar_unitary",
    "frame_with_spectrum",
    "random_frame",
    "parseval_frame",
    "random_positive_operator",
    "commuting_triple",
    "deficient_pair",
    "c3_example",
    "generate_instance",
]

INSTANCE_KINDS = ("random-frame", "ill-conditioned", "commuting-family", "paper-c3")


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def frame_with_spectrum(
    rng: np.random.Generator,
    dim: int,
    count: int,
    spectrum,
    mix_basis: bool = True,
) -> FrameSequence:
    """Frame with prescribed singular values ``spectrum`` (length ``dim``).

    ``mix_basis=False`` leaves the left singular basis at the identity, so the
    frame operator is exactly diagonal.
    """
    sigma = np.asarray(spectrum, dtype=float)
    if sigma.shape != (dim,) or np.any(sigma < 0):
        raise InvalidParametersError("spectrum must be a nonnegative vector of length dim")
    if count < dim:
        raise InvalidParametersError(f"need at least dim={dim} vectors to prescribe a full spectrum, got {count}")
    V = haar_unitary(rng, count)[:, :dim]          # count x dim, orthonormal columns
    core = sigma[:, None] * V.conj().T             # dim x count
    if mix_basis:
        core = haar_unitary(rng, dim) @ core
    return FrameSequence(core)


def random_frame(rng: np.random.Generator, dim: int, count: int, spread=(0.7, 1.5)) -> FrameSequence:
    """Random frame with singular values in ``spread`` (well-conditioned by design)."""
    return frame_with_spectrum(rng, dim, count, rng.uniform(spread[0], spread[1], size=dim))


def parseval_frame(rng: np.random.Generator, dim: int, count: int) -> FrameSequence:
    """Random Parseval frame: frame operator exactly the identity."""
    return frame_with_spectrum(rng, dim, count, np.ones(dim))


def random_positive_operator(rng: np.random.Generator, dim: int, spread=(0.5, 4.0)) -> np.ndarray:
    """Random Hermitian positive definite operator with spectrum in ``spread``."""
    Q = haar_unitary(rng, dim)
    w = rng.uniform(spread[0], spread[1], size=dim)
    return hermitian_part((Q * w) @ Q.conj().T)


def commuting_triple(
    rng: np.random.Generator,
    dim: int,
    count: int,
    zero_k: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[FrameSequence, np.ndarray, Controller]:
    """Frame plus ``K`` and controller sharing the frame operator's eigenbasis.

    ``zero_k`` eigenvalues of ``K`` are set to zero to force rank deficiency
    (default: a random count below ``dim`` so ``K`` keeps rank at least one).
    """
    frame = random_frame(rng, dim, count)
    Q = frame._eigh[1]
    Qh = Q.conj().T

    if zero_k is None:
        zero_k = int(rng.integers(0, max(1, dim // 2) + 1))
    if not 0 <= zero_k < dim:
        raise InvalidParametersError(f"zero_k must lie in [0, dim), got {zero_k}")
    k_spec = rng.uniform(0.5, 2.0, size=dim)
    if zero_k:
        k_spec[rng.choice(dim, size=zero_k, replace=False)] = 0.0
    K = (Q * k_spec) @ Qh

    c_spec = rng.uniform(0.5, 4.0, size=dim)
    c_spec *= rng.uniform(1.0, 4.0) / c_spec.max()     # normalize: lambda_max(C) >= 1
    C = hermitian_part((Q * c_spec) @ Qh)
    return frame, K, make_controller(C, tol)


def deficient_pair(rng: np.random.Generator, dim: int, count: int) -> tuple[FrameSequence, np.ndarray]:
    """A pair that is *not* a K-frame: the family misses a direction of range(K).

    ``K`` has rank ``r >= 2`` on a random orthonormal basis and the family
    spans only the first ``r - 1`` of those directions, so the remaining one
    witnesses the failure of the lower inequality.
    """
    if dim < 2:
        raise InvalidParametersError("a deficient pair needs dim >= 2")
    basis = haar_unitary(rng, dim)
    r = int(rng.integers(2, dim + 1))
    k_spec = np.zeros(dim)
    k_spec[:r] = rng.uniform(0.5, 2.0, size=r)
    K = (basis * k_spec) @ basis.conj().T
    inner = random_frame(rng, r - 1, max(count, r - 1))
    frame = FrameSequence(basis[:, : r - 1] @ inner.matrix)
    return frame, K


def c3_example() -> tuple[FrameSequence, np.ndarray, Controller]:
    """The classic rank-two worked example on C^3.

    ``K`` sends ``e1 -> e1``, ``e2 -> e1``, ``e3 -> e2``; the family is
    ``{K e_n} = {e1, e1, e2}``.  The frame operator equals ``K K* =
    diag(2, 1, 0)``, the optimal K-frame bounds are ``(1, 2)``, and the dual
    positions cannot be swapped: ``K f = sum <f, g_n> f_n`` holds for all
    ``f`` while ``K f = sum <f, f_n> g_n`` fails at ``f = e3``.
    """
    K = np.array(
        [[1, 1, 0],
         [0, 0, 1],
         [0, 0, 0]],
        dtype=np.complex128,
    )
    frame = FrameSequence(K.copy())
    return frame, K, identity_controller(3)


def generate_instance(
    kind: str,
    dim: int | None = None,
    count: int | None = None,
    cond_target: float | None = None,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[FrameSequence, np.ndarray, Controller]:
    """Seeded instance factory used by the CLI, the benchmark and the tests.

    Kinds
    -----
    ``random-frame``
        Well-conditioned random frame; ``K = C = I``.
    ``ill-conditioned``
        Diagonal frame operator with ``cond(S) = cond_target`` (geometric
        singular spectrum from 1 down to ``cond_target**-0.5``); ``K = C = I``.
    ``commuting-family``
        Random frame with ``K`` and ``C`` spectral functions of ``S``.
    ``paper-c3``
        The fixed worked example on C^3 (``dim``/``count`` must be 3 or omitted).
    """
    if kind not in INSTANCE_KINDS:
        raise InvalidParametersError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
    rng = np.random.default_rng(seed)

    if kind == "paper-c3":
        if dim not in (None, 3) or count not in (None, 3):
            raise InvalidParametersError("the built-in C^3 example has dim = count = 3")
        return c3_example()

    if dim is None or dim < 1:
        raise InvalidParametersError(f"dim must be a positive integer, got {dim!r}")
    if count is None:
        count = 2 * dim
    if count < dim:
        raise InvalidParametersError(f"need count >= dim for a spanning family, got count={count}, dim={dim}")

    if kind == "commuting-family":
        return commuting_triple(rng, dim, count, tol=tol)
    if kind == "ill-conditioned":
        if cond_target is None or cond_target < 1.0 or not np.isfinite(cond_target):
            raise InvalidParametersError(f"cond_target must be >= 1, got {cond_target!r}")
        if dim < 2 and cond_target > 1.0:
            raise InvalidParametersError("cond_target > 1 needs dim >= 2")
        sigma = np.geomspace(1.0, cond_target**-0.5, num=dim)
        frame = frame_with_spectrum(rng, dim, count, sigma, mix_basis=False)
    else:
        frame = random_frame(rng, dim, count)
    return frame, np.eye(dim, dtype=np.complex128), identity_controller(dim)
