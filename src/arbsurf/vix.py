"""
Discrete variance-strip replication from out-of-the-money option prices,
replication residuals against observed variance levels, and the
missing-strike interpolation policy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grids import (
    DomainError,
    MarketGrid,
    PriceSurface,
    forward_price,
    nearest_strike_below_forward,
    strike_spacings,
)

MONEYNESS_SPAN = (0.2, 5.0)  # strip should span this multiple of the forward


@dataclass
class ReplicationResult:
    """Per-maturity replication outputs (variance units, 1/year)."""

    vix_squared_per_maturity: np.ndarray
    residuals: np.ndarray
    tail_truncation_flag: np.ndarray

    def __post_init__(self):
        n = len(self.vix_squared_per_maturity)
        if not (len(self.residuals) == len(self.tail_truncation_flag) == n):
            raise DomainError("replication result lengths must match")


def interpolate_missing(
    strikes: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Fill masked points of a (K, Q) strip.

    Interior points are linearly interpolated in (K, Q), which preserves the
    piecewise convexity of the observed strip; masked boundary points are
    filled flat from the nearest observed value and flagged.
    """
    strikes = np.asarray(strikes, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.sum() < 2:
        raise DomainError("need at least 2 observed points to interpolate")
    if mask.all():
        return values.copy(), False
    obs_k = strikes[mask]
    obs_q = values[mask]
    filled = values.copy()
    missing = ~mask
    filled[missing] = np.interp(strikes[missing], obs_k, obs_q)
    boundary = bool(missing[0] or missing[-1])
    return filled, boundary


def otm_strip(surface: PriceSurface, ell: int) -> np.ndarray:
    """Out-of-the-money values Q(K_i): put below the forward, call at or above.

    Masked cells are filled from the observed part of the strip first.
    """
    grid = surface.grid
    strikes = grid.strikes
    f = forward_price(grid, grid.maturities[ell])
    q = np.where(strikes < f, surface.puts[ell], surface.calls[ell])
    mask = surface.mask[ell]
    if not mask.all():
        q, _ = interpolate_missing(strikes, np.where(mask, q, 0.0), mask)
    return q


def tail_truncated(grid: MarketGrid, ell: int, span: tuple[float, float] = MONEYNESS_SPAN) -> bool:
    """True when the strike list does not span the configured moneyness range."""
    strikes = grid.strikes
    f = forward_price(grid, grid.maturities[ell])
    return bool(strikes[0] > span[0] * f or strikes[-1] < span[1] * f)


def vix_squared(surface: PriceSurface, ell: int) -> float:
    """Discrete strip estimate of the variance-swap rate at maturity ell:

    (2 e^{rT} / T) sum_i dK_i / K_i^2 * Q(K_i) - (1/T) (F/K_0 - 1)^2
    """
    q = otm_strip(surface, ell)
    coef, adj = strip_coefficients(surface.grid, ell)
    return float((coef * q).sum() - adj)


def strip_coefficients(grid: MarketGrid, ell: int) -> tuple:
    """Weights of the discrete strip at maturity ell, so that the variance
    estimate is sum_i coef_i Q(K_i) - adj:

    coef_i = (2 e^{rT} / T) dK_i / K_i^2,   adj = (F/K_0 - 1)^2 / T
    """
    T = grid.maturities[ell]
    strikes = grid.strikes
    coef = (2.0 * np.exp(grid.rate * T) / T) * (strike_spacings(strikes) / strikes**2)
    fwd_excess = forward_price(grid, T) / nearest_strike_below_forward(grid, ell) - 1.0
    return coef, fwd_excess * fwd_excess / T


def replicate_surface(
    surface: PriceSurface,
    observed_vix2: np.ndarray | None = None,
) -> ReplicationResult:
    """Strip replication across all maturities, with tail flags and, when an
    observed variance curve is supplied, the replication residuals."""
    grid = surface.grid
    L = grid.n_maturities
    v2 = np.array([vix_squared(surface, ell) for ell in range(L)])
    flags = np.array([tail_truncated(grid, ell) for ell in range(L)])
    if observed_vix2 is None:
        res = np.full(L, np.nan)
    else:
        observed_vix2 = np.asarray(observed_vix2, dtype=float)
        if observed_vix2.shape != (L,):
            raise DomainError("observed variance curve length mismatch")
        res = observed_vix2 - v2
    return ReplicationResult(v2, res, flags)


def replication_residual(model_surface: PriceSurface, observed_vix2: np.ndarray) -> np.ndarray:
    """R(T_l) = observed variance minus the model surface's strip estimate."""
    return replicate_surface(model_surface, observed_vix2).residuals


def read_vix2_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read the `T,vix2` interchange file; returns (maturities, vix2)."""
    ts, vs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["T", "vix2"]:
            raise DomainError(f"unexpected vix2 CSV header: {header}")
        for row in reader:
            if not row:
                continue
            ts.append(float(row[0]))
            vs.append(float(row[1]))
    return np.array(ts), np.array(vs)


def write_vix2_csv(path, maturities: np.ndarray, vix2: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "vix2"])
        for t, v in zip(maturities, vix2):
            writer.writerow([f"{t:.12g}", f"{v:.12g}"])


def write_residuals_csv(path, maturities: np.ndarray, result: ReplicationResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "residual", "tail_flag"])
        for t, r, fl in zip(maturities, result.residuals, result.tail_truncation_flag):
            writer.writerow([f"{t:.12g}", f"{r:.12g}", int(fl)])
