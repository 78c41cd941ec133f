"""
Dimensionless evaluation metrics, time-series inference (Newey-West
intervals, Holm-Bonferroni control), spectral effective dimension, and the
roughness-switch monitor.

Scale conventions used throughout:
- arbitrage scores normalize per-cell residuals by the maturity's
  at-the-forward price level, and by the cell count, so the scores are
  unit-free;
- surface distances standardize the (T, K) coordinates by the shared grid
  statistics and the value coordinate by the symmetric (average) spread of
  the two surfaces, which keeps the distance symmetric and exactly
  proportional to a constant price shift.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .decoder import arb_residual_arrays
from .grids import DomainError, PriceSurface

Z_95 = 1.959963984540054  # two-sided 95% normal quantile of every interval: Phi^-1(0.975), exact repr
HOLM_ALPHA = 0.05  # family-wise level of the Holm-Bonferroni step-down
CNAS_KAPPA = 10.0  # stiffness of the CNAS saturating hinge
CNAS_SCALE = 1.0  # saturation cap of the CNAS hinge
CNAS_TAU = 1e-4  # default CNAS tolerance; the only part of the shaping that is tuned
HAC_C = 1.0  # Newey-West bandwidth rule: lag = floor(HAC_C * T^(1/4))


# --- arbitrage scores -------------------------------------------------------


def _atm_scales(surface: PriceSurface) -> np.ndarray:
    """Per-maturity price scale: the call at the strike nearest the forward."""
    grid = surface.grid
    j = np.argmin(np.abs(grid.strikes[None, :] - grid.forwards()[:, None]), axis=1)
    return np.maximum(np.abs(surface.calls[np.arange(grid.n_maturities), j]), 1e-8)


def _scaled_residual_fields(surface: PriceSurface):
    """Static-arbitrage residuals of `arb_residual_arrays`, scaled per
    maturity.

    Returns (mono (L, M-1), conv (L, M-2), cal (L-1, M)) where conv is
    divided by the half-span of its strike stencil and cal by the maturity
    step, so they read as derivatives, and all rows are divided by the
    at-the-forward price scale of the maturity the stencil is anchored at.
    """
    grid = surface.grid
    ks = grid.strikes
    scales = _atm_scales(surface)
    res = arb_residual_arrays(surface.calls, ks, grid.spot)
    mono = res.monotonicity / scales[:, None]
    half_span = 0.5 * (ks[2:] - ks[:-2])
    conv = res.convexity / half_span / scales[:, None]
    cal = res.calendar / np.diff(grid.maturities)[:, None] / scales[:-1, None]
    return mono, conv, cal


def nas(surface: PriceSurface) -> float:
    """Static-arbitrage score: 1 minus the cell-averaged scaled violations.

    Equals 1 exactly on violation-free surfaces; unbounded below.
    """
    mono, conv, cal = _scaled_residual_fields(surface)
    total = mono.sum() + conv.sum() + cal.sum()
    return float(1.0 - total / surface.n_cells())


def saturating_hinge(a, b, c, tau: float):
    """Smooth bounded penalty of a residual triple: zero at zero, saturating
    at CNAS_SCALE, kicking in beyond the tolerance `tau` with stiffness
    CNAS_KAPPA."""
    excess = np.maximum(0.0, np.asarray(a) + np.asarray(b) + np.asarray(c) - tau)
    return CNAS_SCALE * (1.0 - np.exp(-CNAS_KAPPA * excess))


def cnas_from_residuals(a: np.ndarray, b: np.ndarray, c: np.ndarray, tau: float) -> float:
    """Shaped score from per-cell residual triples (already scaled)."""
    psi = saturating_hinge(a, b, c, tau)
    return float(1.0 - np.mean(psi))


def cnas(surface: PriceSurface, tau: float = CNAS_TAU) -> float:
    """Shaped arbitrage score on the cell grid, 1 minus the mean saturating
    hinge of each cell's scaled residuals.

    The hinge's stiffness (CNAS_KAPPA) and cap (CNAS_SCALE) are frozen
    across runs; only the tolerance `tau` is tuned. Stencil residuals are
    assigned to their anchor cell (left strike of a pair, center of a
    curvature stencil, earlier maturity of a calendar pair); cells without a
    stencil contribute zeros.
    """
    mono, conv, cal = _scaled_residual_fields(surface)
    L, M = surface.calls.shape
    a = np.zeros((L, M))
    b = np.zeros((L, M))
    cc = np.zeros((L, M))
    a[:, : M - 1] = mono
    b[:, 1 : M - 1] = conv
    if L > 1:
        cc[: L - 1, :] = cal
    return cnas_from_residuals(a, b, cc, tau)


# --- forward-unit increment variance ratio ---------------------------------


def _forward_units(surface: PriceSurface) -> np.ndarray:
    grid = surface.grid
    growth = np.exp(grid.rate * grid.maturities)
    return surface.calls * growth[:, None] / grid.forwards()[:, None]


def _bucket_ids(L: int, M: int) -> np.ndarray:
    """Equal-count bucket index per cell over (maturity, moneyness): up to
    8 maturity groups by 4 moneyness groups."""
    t_groups = np.array_split(np.arange(L), min(8, L))
    k_groups = np.array_split(np.arange(M), min(4, M))
    ids = np.empty((L, M), dtype=int)
    for ti, rows in enumerate(t_groups):
        for ki, cols in enumerate(k_groups):
            for r in rows:
                ids[r, cols] = ti * len(k_groups) + ki
    return ids


def ni(model_windows: Sequence[PriceSurface], oracle_windows: Sequence[PriceSurface]) -> float:
    """Numeraire-integrity proxy: one minus the bucket-weighted ratio of
    forward-unit increment variances, model over reference, across adjacent
    windows. Uniform bucket weights.
    """
    if len(model_windows) < 2 or len(model_windows) != len(oracle_windows):
        raise DomainError("need at least two aligned windows for increments")
    fm = np.stack([_forward_units(s) for s in model_windows])
    fo = np.stack([_forward_units(s) for s in oracle_windows])
    dm = np.diff(fm, axis=0)
    do = np.diff(fo, axis=0)
    L, M = fm.shape[1], fm.shape[2]
    ids = _bucket_ids(L, M)
    num = 0.0
    den = 0.0
    for b in range(ids.max() + 1):
        sel = ids == b
        num += float(np.var(dm[:, sel]))
        den += float(np.var(do[:, sel]))
    return float(1.0 - num / (den + 1e-12))


# --- saddle diagnostics ------------------------------------------------------


def stability(runs: Sequence) -> float:
    """Fraction of runs (records, read by attribute) that stayed spectrally
    safe (max rho dt <= 1), ended with the martingale defect at most 1e-2,
    and stopped within budget."""
    if len(runs) == 0:
        raise DomainError("need at least one run")
    ok = sum(float(r.max_rho_dt) <= 1.0 and float(r.martingale_residual) <= 1e-2 and bool(r.stopped)
             for r in runs)
    return ok / len(runs)


# --- distances and quantiles -------------------------------------------------


def _cloud(surface: PriceSurface) -> np.ndarray:
    """(T, K, call) points, one per cell in row-major order."""
    grid = surface.grid
    L, M = surface.calls.shape
    return np.column_stack([np.repeat(grid.maturities, M), np.tile(grid.strikes, L), surface.calls.ravel()])


def surface_wasserstein(a: PriceSurface, b: PriceSurface) -> float:
    """Sliced transport distance between (T, K, price) clouds.

    The 1-D distance on each of 64 random directions is computed exactly by
    sorting. The directions are a fixed Philox stream (key 7).
    """
    pa, pb = _cloud(a), _cloud(b)
    if pa.shape != pb.shape:
        raise DomainError("surfaces must share a grid")
    coords = np.vstack([pa[:, :2], pb[:, :2]])
    mu_c = coords.mean(axis=0)
    sd_c = np.maximum(coords.std(axis=0), 1e-12)
    mu_v = 0.5 * (pa[:, 2].mean() + pb[:, 2].mean())
    sd_v = np.maximum(0.5 * (pa[:, 2].std() + pb[:, 2].std()), 1e-12)

    def standardize(p):
        out = np.empty_like(p)
        out[:, :2] = (p[:, :2] - mu_c) / sd_c
        out[:, 2] = (p[:, 2] - mu_v) / sd_v
        return out

    sa, sb = standardize(pa), standardize(pb)
    rng = np.random.Generator(np.random.Philox(key=7))
    total = 0.0
    for _ in range(64):
        theta = rng.standard_normal(3)
        theta /= np.linalg.norm(theta)
        qa = np.sort(sa @ theta)
        qb = np.sort(sb @ theta)
        total += float(np.sqrt(np.mean((qa - qb) ** 2)))
    return total / 64


def gen_gap_p95(train_errors: np.ndarray, oos_errors: np.ndarray) -> float:
    """95th percentile (nearest rank) of |train - OOS| absolute differences."""
    train_errors = np.asarray(train_errors, dtype=float).ravel()
    oos_errors = np.asarray(oos_errors, dtype=float).ravel()
    if train_errors.size == 0 or train_errors.shape != oos_errors.shape:
        raise DomainError("need matched nonempty error series")
    gaps = np.sort(np.abs(train_errors - oos_errors))
    rank = int(np.ceil(0.95 * len(gaps)))
    return float(gaps[rank - 1])


def effective_dimension(gram: np.ndarray):
    """Smallest ranks capturing 90%, 95% and 99% of the eigenvalue mass."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DomainError("gram must be square")
    if not np.allclose(gram, gram.T, atol=1e-10 * max(1.0, np.abs(gram).max())):
        raise DomainError("gram must be symmetric")
    evals = np.linalg.eigvalsh(gram)
    if evals.min(initial=0.0) < -1e-8 * max(evals.max(initial=1.0), 1.0):
        raise DomainError("gram is not positive semidefinite")
    evals = np.sort(np.maximum(evals, 0.0))[::-1]
    total = evals.sum()
    if total <= 0:
        raise DomainError("gram has no spectral mass")
    cum = np.cumsum(evals)
    out = []
    for alpha in (0.90, 0.95, 0.99):
        target = alpha * total * (1.0 - 1e-12)
        out.append(int(np.searchsorted(cum, target) + 1))
    return tuple(out)


# --- time-series inference ---------------------------------------------------


def newey_west_lrv(series: np.ndarray, lag: int) -> float:
    """Long-run variance with Bartlett weights w_k = 1 - k/(L+1)."""
    x = np.asarray(series, dtype=float)
    t = len(x)
    xc = x - x.mean()
    gamma0 = float(xc @ xc) / t
    lrv = gamma0
    for k in range(1, lag + 1):
        gk = float(xc[k:] @ xc[:-k]) / t
        lrv += 2.0 * (1.0 - k / (lag + 1.0)) * gk
    return max(lrv, 0.0)


def hac_lag(t: int) -> int:
    return int(np.floor(HAC_C * t**0.25))


def hac_ci(series: np.ndarray):
    """Mean with a 95% autocorrelation-robust interval.

    Sample autocovariances use the 1/T convention, so at lag 0 the interval
    coincides exactly with the plain iid interval on the same convention.
    """
    x = np.asarray(series, dtype=float)
    t = len(x)
    if t < 8:
        raise DomainError("need at least 8 observations")
    lag = hac_lag(t)
    lrv = newey_west_lrv(x, lag)
    half = Z_95 * np.sqrt(lrv / t)
    mean = float(x.mean())
    return mean, mean - half, mean + half


def mean_interval(values) -> tuple:
    """(mean, lo, hi): the autocorrelation-robust interval from 8 values on,
    the sample range below that."""
    x = np.asarray(values, dtype=float)
    if len(x) >= 8:
        return hac_ci(x)
    return float(x.mean()), float(x.min()), float(x.max())


def holm_bonferroni(p_values: Sequence[float]) -> np.ndarray:
    """Sequential step-down rejections at family-wise level HOLM_ALPHA;
    stops at the first failure."""
    p = np.asarray(p_values, dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise DomainError("p-values must lie in [0, 1]")
    m = len(p)
    reject = np.zeros(m, dtype=bool)
    if m == 0:
        return reject
    order = np.argsort(p, kind="stable")
    for k, idx in enumerate(order):
        if p[idx] <= HOLM_ALPHA / (m - k):
            reject[idx] = True
        else:
            break
    return reject


def novikov_kazamaki_rate(blocks: Sequence[np.ndarray]):
    """Heuristic switch-rate monitor on blocked martingale increments.

    Per block computes the exponential-moment statistics
    log N = 0.5 * sum x^2 and log Z = 0.5 * sum x. A block "switches" when
    log N exceeds the pooled 75th percentile of log N while |log Z| stays
    within the pooled 90th percentile of |log Z|. Returns
    (rate, ci_low, ci_high) with a 95% interval, NaN with fewer than 8 blocks.
    """
    clean = [np.asarray(b, dtype=float) for b in blocks if len(b) > 0]
    skipped = len(blocks) - len(clean)
    if skipped:
        import warnings

        warnings.warn(f"skipped {skipped} empty blocks", RuntimeWarning)
    if not clean:
        raise DomainError("no usable blocks")
    log_n = np.array([0.5 * float(b @ b) for b in clean])
    log_z = np.array([0.5 * float(b.sum()) for b in clean])
    n_threshold = float(np.quantile(log_n, 0.75))
    z_cap = float(np.quantile(np.abs(log_z), 0.90))
    switches = (log_n > n_threshold) & (np.abs(log_z) <= z_cap)
    rate = float(switches.mean())
    if len(clean) >= 8:
        _, lo, hi = hac_ci(switches.astype(float))
    else:
        lo = hi = float("nan")
    return rate, lo, hi
