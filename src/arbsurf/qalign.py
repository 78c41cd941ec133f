"""
Exact spectral norms and radii, projection of linear maps onto a spectral
ball, and the transition-matrix safety projection (spectral radius x time
step kept below 1 - epsilon), with audit counters.

The safety pass first tests each map's Frobenius norm, an upper bound on
its spectral norm: a map whose Frobenius norm is at most tau (1 -
FROB_MARGIN) lies inside the ball and is left as it is without an SVD.
Every other quantity comes from the exact spectrum: the norm of each map
from its singular values (`spectral_norms`) and the radius the guard
compares with its bound from its eigenvalues (`spectral_radius`), both
batched over an (L, a, b) stack. Each quantity has this one estimator,
which the acceptance criteria audit against independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import DomainError

FROB_MARGIN = 1e-9  # relative margin below tau of the Frobenius test, far above either norm's rounding


@dataclass
class GuardConfig:
    """Parameters of the safety pass, the two values it reads.

    tau: spectral-ball radius in (0, 1]
    epsilon: safety margin in (0, 1); transitions are kept at rho*dt <= 1-eps
    """

    tau: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise DomainError("tau must be in (0, 1]")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")


@dataclass
class GuardLog:
    """Counters emitted verbatim into the run log.

    hits and distance are sums over a run, max_rho_dt is a max. A run keeps
    one log, written only by the safety passes of its saddle steps; the
    held-out gap estimator keeps none. The two Lipschitz-surrogate fields
    are set once per fold, by `training.train`, from the last safety pass
    kept.
    """

    spec_guard_hits: int = 0
    projection_distance: float = 0.0
    max_rho_dt: float = 0.0
    lambda_lip_before: float = float("nan")
    lambda_lip_after: float = float("nan")
    clamp_hits: int = field(default=0)


def _as_stack(A: np.ndarray) -> np.ndarray:
    """A matrix as a stack of one; a stack unchanged."""
    return A.reshape((-1,) + A.shape[-2:])


def _largest(A: np.ndarray, spectrum):
    """Largest |value| of spectrum(A) for a matrix (a float) or for each
    matrix of a stack (an array of shape A.shape[:-2]); NaN for a
    non-finite matrix, which is masked first because LAPACK raises on NaN."""
    finite = np.isfinite(A).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], A, 0.0)
    out = np.where(finite, np.abs(spectrum(safe)).max(axis=-1, initial=0.0), np.nan)
    return float(out) if A.ndim == 2 else out


def spectral_norms(W: np.ndarray):
    """Largest singular value of a matrix, or of each matrix in a stack,
    exact up to rounding; NaN for a non-finite matrix."""
    return _largest(np.asarray(W, dtype=float), lambda a: np.linalg.svd(a, compute_uv=False))


def spectral_radius(A: np.ndarray):
    """Dominant-eigenvalue modulus of a square matrix, or of each matrix in
    an (L, m, m) stack, from one batched eigvals call: exact up to rounding,
    non-normal matrices and complex dominant pairs included. A non-finite
    matrix has radius NaN: the guard leaves it alone and the non-finite
    objective that follows reports the divergence.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise DomainError("spectral_radius expects a square matrix or a stack of them")
    return _largest(A, np.linalg.eigvals)


def _frobenius_inside(W: np.ndarray, tau: float) -> bool:
    """True when every matrix of W has ||W||_F <= tau (1 - FROB_MARGIN), so
    ||W||_2 <= ||W||_F puts it inside the ball; the margin keeps out every
    map that the SVD path would scale. An entry above tau, or a non-finite
    one, fails before any square is taken, so none overflows."""
    if not np.abs(W).max(initial=0.0) <= tau:
        return False
    return bool(np.einsum("...ij,...ij->...", W, W).max(initial=0.0) <= (tau * (1.0 - FROB_MARGIN)) ** 2)


def lipschitz_project(W: np.ndarray, cfg: GuardConfig | None = None) -> tuple[np.ndarray, float]:
    """Scale W, or each matrix of an (n, a, b) stack, onto the spectral ball
    of radius tau.

    Returns (W_hat, distance) with W_hat = tau / max(||W||_2, tau) * W and
    distance = ||W - W_hat||_F, summed over a stack in index order; it is
    taken as (||W||_2 / tau - 1) ||W_hat||_F, which does not overflow for
    huge maps. Points inside the ball, and non-finite matrices, are
    unchanged; a map that the Frobenius bound places inside takes no SVD.
    """
    cfg = cfg or GuardConfig()
    W = np.asarray(W, dtype=float)
    if _frobenius_inside(W, cfg.tau):
        return W, 0.0
    sigma = np.asarray(spectral_norms(W))
    over = sigma > cfg.tau
    if not over.any():
        return W, 0.0
    scale = cfg.tau / np.where(over, sigma, 1.0)
    W_hat = np.where(over[..., None, None], scale[..., None, None] * W, W)
    dists = [np.linalg.norm(w) * (s / cfg.tau - 1.0) for w, s in zip(_as_stack(W_hat)[over.ravel()], sigma[over])]
    return W_hat, float(sum(dists))


def spec_guard_project(A: np.ndarray, dt, cfg: GuardConfig, log: GuardLog) -> np.ndarray:
    """Shrink A, or each matrix of an (L, m, m) stack with its own dt, when
    rho(A) dt exceeds 1 - epsilon (strict trigger).

    The minimal Frobenius-distance correction is the scaling
    A <- A * (1 - eps) / (rho(A) dt). Counters are updated in both branches
    (max_rho_dt tracks the post-projection indicator, skipping a NaN radius),
    the distances added in index order, so a stack logs exactly what
    per-matrix calls would.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise DomainError("dt must be positive")
    A = np.asarray(A, dtype=float)
    rho_dt = np.asarray(spectral_radius(A) * dt)
    hit = rho_dt > 1.0 - cfg.epsilon
    scale = (1.0 - cfg.epsilon) / np.where(hit, rho_dt, 1.0)
    A_hat = np.where(hit[..., None, None], scale[..., None, None] * A, A) if hit.any() else A
    log.spec_guard_hits += int(hit.sum())
    for i in np.flatnonzero(hit):
        log.projection_distance += float(np.linalg.norm(_as_stack(A)[i] - _as_stack(A_hat)[i]))
    rho_dt = np.where(hit, rho_dt * scale, rho_dt)  # the post-projection indicator
    log.max_rho_dt = float(np.fmax.reduce(rho_dt, axis=None, initial=log.max_rho_dt))
    return A_hat
