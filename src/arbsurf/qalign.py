"""
Spectral-norm estimation, projection of linear maps onto a spectral ball,
and the transition-matrix safety projection (spectral radius x time step
kept below 1 - epsilon), with audit counters.

The norm estimator is a deterministic power iteration from a fixed start
vector (normalized all-ones); the spectral radius the guard compares with
its bound is taken from the full eigenvalue spectrum.
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

    hits and distance are sums, max_rho_dt is a max; merging logs from
    parallel workers is associative in those operations. Within one run the
    log has a single writer.
    """

    spec_guard_hits: int = 0
    projection_distance: float = 0.0
    max_rho_dt: float = 0.0
    lambda_lip_before: float = float("nan")
    lambda_lip_after: float = float("nan")
    clamp_hits: int = field(default=0)


def spectral_norm(W: np.ndarray, cfg: GuardConfig | None = None, v0: np.ndarray | None = None) -> float:
    """Largest singular value of W by power iteration on W^T W.

    Runs at most cfg.power_iters iterations, stopping early once the
    estimate moves by less than cfg.power_tol relatively. Exact 0 for the
    zero matrix.
    """
    cfg = cfg or GuardConfig()
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise DomainError("spectral_norm expects a matrix")
    if not np.all(np.isfinite(W)):
        raise DomainError("matrix must be finite")
    if not np.any(W):
        return 0.0
    n = W.shape[1]
    v = np.ones(n) / np.sqrt(n) if v0 is None else v0 / np.linalg.norm(v0)
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
            return float(sigma_new)
        sigma = sigma_new
    return float(sigma)


def _power_norm_step(W: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """One persisted-vector power step; returns (sigma estimate, new v).

    Norms are taken as sqrt(x @ x), which is what np.linalg.norm computes
    for a real vector, without its per-call dispatch.
    """
    u = W @ v
    nu = np.sqrt(u @ u)
    if nu == 0.0:
        return 0.0, v
    v_new = W.T @ (u / nu)
    s = np.sqrt(v_new @ v_new)
    if s == 0.0:
        return 0.0, v
    return float(s), v_new / s


def spectral_radius(A: np.ndarray, cfg: GuardConfig | None = None) -> float:
    """Dominant-eigenvalue modulus of a square matrix, from its full spectrum.

    Exact up to rounding for every matrix, non-normal ones and complex
    dominant pairs included, which a power iteration on a short budget is
    not. `cfg` is accepted for signature compatibility and does not affect
    the result. A non-finite matrix has radius NaN: the guard leaves it
    alone and the non-finite objective that follows reports the divergence.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("spectral_radius expects a square matrix")
    if not np.all(np.isfinite(A)):
        return float("nan")
    return float(np.abs(np.linalg.eigvals(A)).max(initial=0.0))


def lipschitz_project(W: np.ndarray, cfg: GuardConfig | None = None) -> tuple[np.ndarray, float]:
    """Scale W onto the spectral ball of radius tau.

    Returns (W_hat, distance) with W_hat = tau / max(||W||_2, tau) * W and
    distance = ||W - W_hat||_F. Points inside the ball are unchanged.
    """
    cfg = cfg or GuardConfig()
    W = np.asarray(W, dtype=float)
    sigma = spectral_norm(W, cfg)
    if sigma <= cfg.tau:
        return W, 0.0
    W_hat = (cfg.tau / sigma) * W
    return W_hat, float(np.linalg.norm(W - W_hat))


def cfl_indicator(A: np.ndarray, dt: float, cfg: GuardConfig | None = None) -> float:
    """Safety quantity rho(A) * dt (spectral radius; equals ||A||_2 dt for symmetric A)."""
    if not (dt > 0):
        raise DomainError("dt must be positive")
    return spectral_radius(A, cfg) * dt


def spec_guard_project(
    A: np.ndarray, dt: float, cfg: GuardConfig, log: GuardLog
) -> np.ndarray:
    """Shrink A when rho(A) dt exceeds 1 - epsilon (strict trigger).

    The minimal Frobenius-distance correction is the scaling
    A <- A * (1 - eps) / (rho(A) dt). Counters are updated in both branches
    (max_rho_dt tracks the post-projection indicator).
    """
    if not (dt > 0):
        raise DomainError("dt must be positive")
    A = np.asarray(A, dtype=float)
    rho_dt = spectral_radius(A, cfg) * dt
    if rho_dt > 1.0 - cfg.epsilon:
        scale = (1.0 - cfg.epsilon) / rho_dt
        A_hat = scale * A
        log.spec_guard_hits += 1
        log.projection_distance += float(np.linalg.norm(A - A_hat))
        log.max_rho_dt = max(log.max_rho_dt, rho_dt * scale)
        return A_hat
    log.max_rho_dt = max(log.max_rho_dt, rho_dt)
    return A

