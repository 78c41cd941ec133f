"""
Spectral-norm estimation, projection of linear maps onto a spectral ball,
and the transition-matrix safety projection (spectral radius x time step
kept below 1 - epsilon), with audit counters.

The safety pass takes every quantity from the exact spectrum: the norm of
each map from its singular values (`spectral_norms`) and the radius the
guard compares with its bound from its eigenvalues (`spectral_radius`),
both batched over an (L, a, b) stack. `spectral_norm` is the paper's
deterministic power iteration from a fixed start vector (normalized
all-ones), kept as the estimator that the spectral oracle criterion audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import DomainError


@dataclass
class GuardConfig:
    """Projection parameters.

    tau: spectral-ball radius in (0, 1]
    epsilon: safety margin in (0, 1); transitions are kept at rho*dt <= 1-eps
    power_iters: iteration budget for the norm estimator
    power_tol: relative tolerance for early termination
    """

    tau: float = 1.0
    epsilon: float = 0.1
    power_iters: int = 50
    power_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise DomainError("tau must be in (0, 1]")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError("epsilon must be in (0, 1)")
        if self.power_iters < 1:
            raise DomainError("power_iters must be >= 1")


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


def spectral_norm(W: np.ndarray, cfg: GuardConfig | None = None) -> float:
    """Largest singular value of W by power iteration on W^T W.

    Runs at most cfg.power_iters iterations, stopping early once the
    estimate moves by less than cfg.power_tol relatively. Exact 0 for the
    zero matrix. The iteration runs on W / max|W| and scales the result
    back, so very large or very small entries neither overflow nor
    underflow the iterate.
    """
    cfg = cfg or GuardConfig()
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise DomainError("spectral_norm expects a matrix")
    if not np.all(np.isfinite(W)):
        raise DomainError("matrix must be finite")
    scale = np.abs(W).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    W = W / scale
    n = W.shape[1]
    v = np.ones(n) / np.sqrt(n)
    sigma = 0.0
    for _ in range(cfg.power_iters):
        u = W @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            # start vector lies in the null space; perturb deterministically
            v = v + np.linspace(1e-6, 2e-6, n)
            v /= np.linalg.norm(v)
            continue
        v_new = W.T @ (u / nu)
        sigma_new = np.linalg.norm(v_new)
        if sigma_new == 0.0:
            return 0.0
        v = v_new / sigma_new
        if abs(sigma_new - sigma) <= cfg.power_tol * max(sigma_new, 1e-300):
            return float(sigma_new * scale)
        sigma = sigma_new
    return float(sigma * scale)


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


def lipschitz_project(W: np.ndarray, cfg: GuardConfig | None = None) -> tuple[np.ndarray, float]:
    """Scale W, or each matrix of an (n, a, b) stack, onto the spectral ball
    of radius tau.

    Returns (W_hat, distance) with W_hat = tau / max(||W||_2, tau) * W and
    distance = ||W - W_hat||_F, summed over a stack in index order; it is
    taken as (||W||_2 / tau - 1) ||W_hat||_F, which does not overflow for
    huge maps. Points inside the ball, and non-finite matrices, are
    unchanged.
    """
    cfg = cfg or GuardConfig()
    W = np.asarray(W, dtype=float)
    sigma = np.asarray(spectral_norms(W))
    over = sigma > cfg.tau
    if not over.any():
        return W, 0.0
    scale = cfg.tau / np.where(over, sigma, 1.0)
    W_hat = np.where(over[..., None, None], scale[..., None, None] * W, W)
    dists = [np.linalg.norm(w) * (s / cfg.tau - 1.0) for w, s in zip(_as_stack(W_hat)[over.ravel()], sigma[over])]
    return W_hat, float(sum(dists))


def cfl_indicator(A: np.ndarray, dt: float) -> float:
    """Safety quantity rho(A) * dt (spectral radius; equals ||A||_2 dt for symmetric A)."""
    if not (dt > 0):
        raise DomainError("dt must be positive")
    return spectral_radius(A) * dt


def spec_guard_project(A: np.ndarray, dt, cfg: GuardConfig, log: GuardLog) -> np.ndarray:
    """Shrink A, or each matrix of an (L, m, m) stack with its own dt, when
    rho(A) dt exceeds 1 - epsilon (strict trigger).

    The minimal Frobenius-distance correction is the scaling
    A <- A * (1 - eps) / (rho(A) dt). Counters are updated in both branches
    (max_rho_dt tracks the post-projection indicator), matrix by matrix in
    index order, so a stack logs exactly what per-matrix calls would.
    """
    dt = np.asarray(dt, dtype=float)
    if not np.all(dt > 0):
        raise DomainError("dt must be positive")
    A = np.asarray(A, dtype=float)
    rho_dt = np.asarray(spectral_radius(A) * dt)
    hit = rho_dt > 1.0 - cfg.epsilon
    scale = (1.0 - cfg.epsilon) / np.where(hit, rho_dt, 1.0)
    A_hat = np.where(hit[..., None, None], scale[..., None, None] * A, A) if hit.any() else A
    for i, (r, s, h) in enumerate(zip(rho_dt.ravel(), scale.ravel(), hit.ravel())):
        if h:
            log.spec_guard_hits += 1
            log.projection_distance += float(np.linalg.norm(_as_stack(A)[i] - _as_stack(A_hat)[i]))
            r = r * s
        log.max_rho_dt = max(log.max_rho_dt, float(r))
    return A_hat
