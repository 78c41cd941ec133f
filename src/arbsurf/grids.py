"""
Maturity/strike lattice, surface containers, forward arithmetic and coverage
accounting.

Conventions:
- maturities are year fractions, strictly increasing, > 0
- rates are continuously compounded (1/year)
- all maturities share one strike vector, so a surface is a rectangular
  (maturity x strike) lattice; `read_surface_csv`, the entry point for
  outside data, rejects a file whose maturities carry different strike sets
- masked (unobserved) cells hold NaN and must never enter any aggregation;
  every aggregation in this package iterates the mask
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

COVERAGE_FLOOR = 0.75  # minimum acceptable per-window observed-cell fraction


class DomainError(ValueError):
    """Raised when an operation is called outside its domain."""


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class MarketGrid:
    """Maturity/strike lattice with discounting context.

    maturities: strictly increasing year fractions (length L >= 2)
    strikes: one strictly increasing positive strike vector (length M >= 3)
        shared by every maturity
    spot: positive spot price
    rate: continuously compounded short rate
    dividend_yield: continuously compounded dividend yield
    """

    maturities: np.ndarray
    strikes: np.ndarray
    spot: float
    rate: float
    dividend_yield: float = 0.0

    def __post_init__(self):
        mats = _as_float_array(self.maturities)
        object.__setattr__(self, "maturities", mats)
        try:
            strikes = _as_float_array(self.strikes)
        except ValueError as err:
            raise DomainError("strikes must be one 1-D vector") from err
        object.__setattr__(self, "strikes", strikes)
        if mats.ndim != 1 or len(mats) < 2:
            raise DomainError("need at least 2 maturities")
        if np.any(mats <= 0) or np.any(np.diff(mats) <= 0):
            raise DomainError("maturities must be positive and strictly increasing")
        if strikes.ndim != 1:
            raise DomainError("strikes must be one 1-D vector")
        if len(strikes) < 3:
            raise DomainError("need at least 3 strikes")
        if np.any(strikes <= 0) or np.any(np.diff(strikes) <= 0):
            raise DomainError("strikes must be positive and strictly increasing")
        if not (self.spot > 0):
            raise DomainError("spot must be positive")

    @property
    def n_maturities(self) -> int:
        return len(self.maturities)

    def time_steps(self) -> np.ndarray:
        """Per-maturity propagation steps: dt_0 = T_0, dt_i = T_i - T_{i-1}."""
        return np.diff(self.maturities, prepend=0.0)

    def forwards(self) -> np.ndarray:
        return np.array([forward_price(self, t) for t in self.maturities])


def forward_price(grid: MarketGrid, T: float) -> float:
    """Forward level F_T = S_0 * exp((r - q) * T)."""
    if not (T > 0):
        raise DomainError("maturity must be positive")
    return grid.spot * float(np.exp((grid.rate - grid.dividend_yield) * T))


def nearest_strike_below_forward(grid: MarketGrid, ell: int) -> float:
    """Reference strike K_0 for the variance-strip forward adjustment
    (exchange convention): the largest strike <= F_T; if every strike lies
    above the forward, falls back to the smallest strike and emits a
    boundary warning.
    """
    strikes = grid.strikes
    f = forward_price(grid, grid.maturities[ell])
    below = strikes[strikes <= f]
    if len(below) == 0:
        warnings.warn(
            f"no strike at or below forward {f:.4f}; using smallest strike",
            RuntimeWarning,
        )
        return float(strikes[0])
    return float(below[-1])


def parity_terms(grid: MarketGrid) -> tuple:
    """(S0 e^{-qT} (L, 1), e^{-rT} K (L, M)): the terms of put-call parity
    P = C - S0 e^{-qT} + K e^{-rT} on the grid."""
    T = grid.maturities[:, None]
    return grid.spot * np.exp(-grid.dividend_yield * T), np.exp(-grid.rate * T) * grid.strikes[None, :]


def parity_puts(grid: MarketGrid, calls: np.ndarray) -> np.ndarray:
    """Puts of an (L, M) call matrix by put-call parity (`parity_terms`)."""
    spot_term, strike_term = parity_terms(grid)
    return calls - spot_term + strike_term


def otm_is_put(strikes: np.ndarray, forwards) -> np.ndarray:
    """Where the out-of-the-money quote is the put: K < F, one forward per
    row as in `otm_values`."""
    return strikes < np.asarray(forwards)[..., None]


def otm_values(strikes: np.ndarray, forwards, puts: np.ndarray, calls: np.ndarray) -> np.ndarray:
    """Out-of-the-money values: the put where K < F, the call at or above.

    forwards is one forward per row of puts/calls: a scalar for one
    maturity's (M,) strip, an (L,) vector for an (L, M) surface.
    """
    return np.where(otm_is_put(strikes, forwards), puts, calls)


def strike_spacings(strikes: Sequence[float]) -> np.ndarray:
    """Quadrature spacings dK_i = (K_{i+1} - K_{i-1}) / 2, one-sided at the ends."""
    ks = _as_float_array(strikes)
    if ks.ndim != 1 or len(ks) < 2:
        raise DomainError("need at least 2 strikes")
    if np.any(np.diff(ks) <= 0):
        raise DomainError("strikes must be strictly increasing")
    dk = np.empty_like(ks)
    dk[0] = ks[1] - ks[0]
    dk[-1] = ks[-1] - ks[-2]
    if len(ks) > 2:
        dk[1:-1] = 0.5 * (ks[2:] - ks[:-2])
    return dk


@dataclass
class PriceSurface:
    """Call/put surfaces on a grid with an observation mask.

    calls/puts: (L, M) float arrays, NaN at masked cells
    mask: (L, M) boolean array, True = observed
    """

    grid: MarketGrid
    calls: np.ndarray
    puts: np.ndarray
    mask: np.ndarray
    require_nonnegative: bool = True

    def __post_init__(self):
        self.calls = _as_float_array(self.calls)
        self.puts = _as_float_array(self.puts)
        self.mask = np.asarray(self.mask, dtype=bool)
        shape = (self.grid.n_maturities, len(self.grid.strikes))
        if not (self.calls.shape == self.puts.shape == self.mask.shape == shape):
            raise DomainError(f"surface arrays must have the grid shape {shape}")
        obs_c = self.calls[self.mask]
        obs_p = self.puts[self.mask]
        if not (np.all(np.isfinite(obs_c)) and np.all(np.isfinite(obs_p))):
            raise DomainError("observed prices must be finite")
        if self.require_nonnegative and (np.any(obs_c < 0) or np.any(obs_p < 0)):
            raise DomainError("observed prices must be nonnegative")

    @classmethod
    def from_matrices(
        cls,
        grid: MarketGrid,
        calls: np.ndarray,
        puts: np.ndarray,
        mask: np.ndarray | None = None,
        require_nonnegative: bool = True,
    ) -> "PriceSurface":
        """Surface from (L, M) arrays; no mask means fully observed."""
        if mask is None:
            mask = np.ones(np.shape(calls), dtype=bool)
        return cls(grid, calls, puts, mask, require_nonnegative=require_nonnegative)

    def calls_matrix(self) -> np.ndarray:
        return self.calls

    def puts_matrix(self) -> np.ndarray:
        return self.puts

    def mask_matrix(self) -> np.ndarray:
        return self.mask

    def n_cells(self) -> int:
        return int(self.mask.size)

    def n_observed(self) -> int:
        return int(self.mask.sum())

    def observed_fraction(self) -> float:
        return self.n_observed() / self.n_cells()


@dataclass
class CoverageStats:
    """Observed-cell coverage over evaluation windows."""

    coverage_min: float
    coverage_mean: float
    flagged: bool = False

    def __post_init__(self):
        if not (self.coverage_min <= self.coverage_mean + 1e-15):
            raise DomainError("coverage_min must not exceed coverage_mean")


def coverage_stats(surfaces: Sequence[PriceSurface]) -> CoverageStats:
    """Per-window coverage fractions with min/mean and the low-coverage flag.

    The flag is set when coverage_min < COVERAGE_FLOOR (threshold inclusive:
    exactly the floor does not flag).
    """
    if len(surfaces) == 0:
        raise DomainError("need at least one window")
    per = [s.observed_fraction() for s in surfaces]
    cmin = float(min(per))
    cmean = float(np.mean(per))
    return CoverageStats(cmin, cmean, flagged=cmin < COVERAGE_FLOOR)


# --- CSV interchange -------------------------------------------------------
#
# Format (one row per cell): T,K,call,put,observed  with observed in {0,1},
# prices in currency units, '.' decimal separator. This is the contract used
# by every CLI subcommand.

CSV_HEADER = ["T", "K", "call", "put", "observed"]


def write_surface_csv(surface: PriceSurface, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        g = surface.grid
        for ell, T in enumerate(g.maturities):
            for j, K in enumerate(g.strikes):
                c = surface.calls[ell, j]
                p = surface.puts[ell, j]
                writer.writerow(
                    [
                        f"{T:.12g}",
                        f"{K:.12g}",
                        f"{c:.12g}" if np.isfinite(c) else "nan",
                        f"{p:.12g}" if np.isfinite(p) else "nan",
                        int(surface.mask[ell, j]),
                    ]
                )


def read_surface_csv(path, spot: float, rate: float, dividend_yield: float = 0.0) -> PriceSurface:
    """Read a surface written by `write_surface_csv`.

    The CSV carries no discounting context, so spot/rate/dividend must be
    supplied by the caller (the CLI takes them from its config). Every
    maturity in the file must carry the same strike set.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != CSV_HEADER:
            raise DomainError(f"unexpected surface CSV header: {header}")
        for row in reader:
            if not row:
                continue
            rows.append((float(row[0]), float(row[1]), float(row[2]), float(row[3]), int(row[4])))
    if not rows:
        raise DomainError("empty surface CSV")
    mats = sorted({r[0] for r in rows})
    by_t: dict[float, list] = {t: [] for t in mats}
    for t, k, c, p, o in rows:
        by_t[t].append((k, c, p, o))
    cells = [sorted(by_t[t]) for t in mats]
    strikes = [c[0] for c in cells[0]]
    for t, row in zip(mats, cells):
        if [c[0] for c in row] != strikes:
            raise DomainError(f"maturity {t:.12g} does not carry the strike set of maturity {mats[0]:.12g}")
    grid = MarketGrid(np.array(mats), np.array(strikes), spot, rate, dividend_yield)
    calls = np.array([[c[1] for c in row] for row in cells])
    puts = np.array([[c[2] for c in row] for row in cells])
    mask = np.array([[bool(c[3]) for c in row] for row in cells])
    return PriceSurface(grid, calls, puts, mask)
