"""
Synthetic risk-neutral market: stochastic-variance paths with an
exponential-mixture long-memory kernel, Monte Carlo oracle prices, a
variance proxy from the conditional forward-variance integral,
microstructure noise with liquidity censoring, and blocked
train/validation/out-of-sample folds.

The variance follows the standard convolution form

    v_t = v0 + int_0^t kappa (theta - v_s) ds
             + int_0^t K(t - u) sigma sqrt(v_u) dW2_u,
    K(tau) = sum_j a_j exp(-b_j tau),

simulated by Euler full truncation on a trading-day grid with one
exponential auxiliary state per kernel term (O(N J), not the naive O(N^2)
double sum). The spot uses the exact lognormal step so the
discounted-forward martingale identity holds per step.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .decoder import arb_residual_arrays, noarb_project
from .grids import DomainError, MarketGrid, PriceSurface, write_surface_csv
from .vix import write_vix2_csv

ORACLE_REPAIR_TOL = 1e-6  # calendar defect above which the oracle is projected
_DRAW_BLOCK = 4  # steps of normals per draw of the drawer thread
_DRAW_AHEAD = 2  # blocks the drawer runs ahead of the stepping loop, so it keeps drawing while a maturity is priced
VIX_WINDOW_DAYS = 30  # calendar days of forward variance averaged by the VIX^2 proxy
_PROXY_BLOCK_ROWS = 256  # rows per proxy gemv: a multiple of 4, and 256 x 22 stays on the calling thread
_PRICE_BLOCK_ROWS = 2048  # rows per payoff block: a 2048 x 25 block stays in cache


@dataclass
class GeneratorConfig:
    s0: float = 100.0
    r: float = 0.02
    q: float = 0.0
    v0: float = 0.04
    kappa: float = 1.5
    theta_mean: float = 0.04
    sigma_volvol: float = 0.5
    rho: float = -0.7
    kernel_weights: tuple = (0.6, 0.4)
    kernel_rates: tuple = (5.0, 0.5)
    n_paths: int = 50_000
    steps_per_year: int = 250
    n_maturities: int = 12
    n_strikes: int = 25
    maturity_range: tuple = (1.0 / 12.0, 2.0)
    log_moneyness_range: tuple = (-0.6, 0.6)
    noise_scale: float = 0.01
    noise_floor: float = 0.05
    liq_a: float = 0.15
    liq_b: float = 1.0
    liq_c: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not self.s0 > 0:
            raise DomainError("[generator] s0 must be > 0")
        for name in ("r", "q"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"[generator] {name} must be finite")
        for name in ("v0", "kappa", "theta_mean", "sigma_volvol",
                     "noise_scale", "noise_floor", "liq_a", "liq_b", "liq_c"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"[generator] {name} must be >= 0")
        if not abs(self.rho) <= 1:
            raise DomainError("[generator] rho must satisfy |rho| <= 1")
        if len(self.kernel_weights) != len(self.kernel_rates):
            raise DomainError("[generator] kernel_weights and kernel_rates must have the same length")
        if not all(a >= 0 for a in self.kernel_weights):
            raise DomainError("[generator] kernel_weights entries must be >= 0")
        if not all(b > 0 for b in self.kernel_rates):
            raise DomainError("[generator] kernel_rates entries must be > 0")
        for name, least in (("n_paths", 1), ("steps_per_year", 1), ("n_maturities", 2), ("n_strikes", 3)):
            if getattr(self, name) < least:
                raise DomainError(f"[generator] {name} must be >= {least}")
        if self.seed < 0:
            raise DomainError("[generator] seed must be >= 0")
        lo_hi = self.maturity_range
        if len(lo_hi) != 2 or not 0 < lo_hi[0] < lo_hi[1]:
            raise DomainError("[generator] maturity_range must be two numbers with 0 < lo < hi")
        lo_hi = self.log_moneyness_range
        if len(lo_hi) != 2 or not lo_hi[0] < lo_hi[1]:
            raise DomainError("[generator] log_moneyness_range must be two numbers with lo < hi")


@dataclass
class PathEnsemble:
    """What the loop reduced at each of the K steps of the day grid at
    `times`: the mean undiscounted call and put payoffs (K, M) of the spot
    at the M `strikes`, and the per-path VIX^2 proxy (n_paths, K) of the
    window that opens there; then the per-path spot and variance
    (n_paths, K_kept) at the steps of `kept_times`, and the exact step
    dt = 1 / steps_per_year. The per-path arrays are transposed views of
    time-major (K, n_paths) storage, so one column `spot[:, i]` is
    contiguous."""

    times: np.ndarray
    strikes: np.ndarray
    call_payoffs: np.ndarray
    put_payoffs: np.ndarray
    proxy: np.ndarray
    kept_times: np.ndarray
    spot: np.ndarray
    variance: np.ndarray
    dt: float


@dataclass
class SyntheticPanel:
    """One simulation window: noiseless oracle, censored quotes, variance curve."""

    oracle_surface: PriceSurface
    quoted_surface: PriceSurface
    vix2_observed: np.ndarray
    window_index: int
    filter_rate: float
    clamp_count: int


def snapped_maturities(cfg: GeneratorConfig) -> np.ndarray:
    """Maturities on [range], snapped onto the simulation day grid so that
    surface snapshots land exactly on simulated steps."""
    lo, hi = cfg.maturity_range
    raw = np.linspace(lo, hi, cfg.n_maturities)
    steps = np.maximum(1, np.round(raw * cfg.steps_per_year).astype(int))
    # enforce strict increase after rounding
    for i in range(1, len(steps)):
        if steps[i] <= steps[i - 1]:
            steps[i] = steps[i - 1] + 1
    return steps / cfg.steps_per_year


def make_grid(cfg: GeneratorConfig) -> MarketGrid:
    mats = snapped_maturities(cfg)
    ks = np.linspace(cfg.log_moneyness_range[0], cfg.log_moneyness_range[1], cfg.n_strikes)
    strikes = cfg.s0 * np.exp(ks)
    return MarketGrid(mats, strikes, cfg.s0, cfg.r, cfg.q)


def _rng(cfg: GeneratorConfig, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[cfg.seed, stream]))


def _storage_rows(steps, n_steps: int, name: str, width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The steps (an empty sequence names none) and the row of each step
    0..n_steps among them, -1 where the step is not one of them."""
    last = n_steps - width
    steps = np.asarray(steps)
    if steps.shape == (0,):
        steps = steps.astype(int)
    if (steps.ndim != 1 or not np.issubdtype(steps.dtype, np.integer)
            or np.any(steps < 0) or np.any(steps > last) or np.any(np.diff(steps) <= 0)):
        window = f" (each {width}-step window ends by step {n_steps})" if width else ""
        raise DomainError(f"{name} must be strictly increasing step indices in 0..{last}{window}")
    row_of = np.full(n_steps + 1, -1)
    row_of[steps] = np.arange(len(steps))
    return steps, row_of


def _vix_window_steps(dt: float) -> int:
    """Steps from a maturity to the end of its VIX^2 proxy window."""
    return int(np.ceil(VIX_WINDOW_DAYS / 365.0 / dt - 1e-9))


def _window_average(window: np.ndarray, dt: float) -> np.ndarray:
    """Per-path trapezoid time average of v^+ over a C-ordered
    (n_paths, width + 1) window of variance steps.

    The product runs over blocks of _PROXY_BLOCK_ROWS rows: each block is a
    one-thread OpenBLAS gemv, and blocks of a multiple of 4 rows give the
    bits of one whole-array, one-thread gemv whatever the thread count. A
    last block of one row would be a dot product, so it joins the block
    before it."""
    w = np.full(window.shape[1], dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    out = np.empty(len(window))
    start = 0
    for stop in [*range(_PROXY_BLOCK_ROWS, len(window) - 1, _PROXY_BLOCK_ROWS), len(window)]:
        out[start:stop] = np.maximum(window[start:stop], 0.0) @ w
        start = stop
    return out / w.sum()


def _payoff_means(s: np.ndarray, strikes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean call and put payoffs max(s - K, 0) and max(K - s, 0) of the
    spots `s` (n_paths,) at each of the M >= 2 `strikes`.

    The payoffs are summed over blocks of _PRICE_BLOCK_ROWS rows, and each
    block's first row takes the running sum, so the rows are added in row
    order: the bits of the whole-matrix `.mean(axis=0)`, whose reduction
    over the outer axis also adds row by row, without its (n_paths, M)
    matrices. (With one strike that reduction is a pairwise sum instead.)"""
    calls = np.zeros(len(strikes))
    puts = np.zeros(len(strikes))
    for start in range(0, len(s), _PRICE_BLOCK_ROWS):
        block = s[start : start + _PRICE_BLOCK_ROWS, None]
        call = np.maximum(block - strikes, 0.0)
        call[0] += calls
        calls = call.sum(axis=0)
        put = np.maximum(strikes - block, 0.0)
        put[0] += puts
        puts = put.sum(axis=0)
    return calls / len(s), puts / len(s)


def simulate_paths(cfg: GeneratorConfig, horizon: float, stream: int = 0,
                   steps=(), strikes=(), keep=()) -> PathEnsemble:
    """Euler full-truncation simulation to `horizon` (years), reduced
    inside the stepping loop. At each of `steps` (strictly increasing, each
    VIX^2 proxy window [i, i + width] ending by step N) the loop prices the
    mean undiscounted call and put payoffs of the spot at `strikes` (a 1-D
    array of at least 3 whenever `steps` is not empty) and opens the proxy
    window of that step; it stores the per-path spot and variance at each
    of `keep` (strictly increasing indices into 0..N). Every default names
    nothing. A reduced or stored row holds the same bytes whatever else is
    reduced or stored.

    Deterministic given (cfg.seed, stream); the counter-based generator
    makes the draws independent of any scheduling of the vectorized paths.
    The loop steps one spot and one variance row. At a kept step it copies
    both into their time-major storage. At a step of `steps`
    `_payoff_means` prices the spot row, with the bits of the whole-matrix
    mean over a stored spot column. Each open proxy window copies the
    variance into its own C-ordered (n_paths, width + 1) buffer, which
    `_window_average` reduces to a proxy row as the window closes; windows
    may overlap. One worker thread draws the normals of the next
    `_DRAW_AHEAD` blocks of `_DRAW_BLOCK` steps while this thread steps and
    prices the current block; the worker alone touches the generator, runs
    its draws in the order they were submitted, and a (steps, 2, n) fill
    consumes the stream in the same order as a (z1, zp) pair of n-draws per
    step.
    """
    if not (horizon > 0):
        raise DomainError("horizon must be positive")
    dt = 1.0 / cfg.steps_per_year
    n_steps = int(np.ceil(horizon * cfg.steps_per_year - 1e-9))
    n = cfg.n_paths
    width = _vix_window_steps(dt)
    rng = _rng(cfg, stream)

    steps, step_row = _storage_rows(steps, n_steps, "steps", width)
    keep, kept_row = _storage_rows(keep, n_steps, "keep")
    strikes = np.asarray(strikes, dtype=float)
    if len(steps) and (strikes.ndim != 1 or len(strikes) < 3 or not np.all(np.isfinite(strikes))):
        raise DomainError("strikes must be a 1-D array of at least 3 finite values when steps are given")

    a = np.asarray(cfg.kernel_weights, dtype=float)
    b = np.asarray(cfg.kernel_rates, dtype=float)
    decay = np.exp(-b * dt)

    calls = np.empty((len(steps), strikes.size))
    puts = np.empty((len(steps), strikes.size))
    proxy = np.empty((len(steps), n))
    spot = np.empty((len(keep), n))
    variance = np.empty((len(keep), n))
    windows = {}  # row of a step -> buffer of the proxy window it opened

    def store(step, s, v):
        if kept_row[step] >= 0:
            spot[kept_row[step]] = s
            variance[kept_row[step]] = v
        if step_row[step] >= 0:
            calls[step_row[step]], puts[step_row[step]] = _payoff_means(s, strikes)
            windows[step_row[step]] = np.empty((n, width + 1))
        for k, window in windows.items():
            window[:, step - steps[k]] = v
        closing = step_row[step - width] if step >= width else -1
        if closing >= 0:
            proxy[closing] = _window_average(windows.pop(closing), dt)

    s = np.full(n, float(cfg.s0))
    v = np.full(n, float(cfg.v0))
    store(0, s, v)
    drift_acc = np.zeros(n)  # integral of kappa (theta - v)
    conv_states = np.zeros((len(a), n))  # one exponential state per kernel term
    mu = cfg.r - cfg.q
    rho_perp = np.sqrt(max(0.0, 1.0 - cfg.rho**2))
    starts = range(0, n_steps, _DRAW_BLOCK)
    normals = np.empty((_DRAW_AHEAD + 1, _DRAW_BLOCK, 2, n))  # the block being stepped and those drawn ahead
    with ThreadPoolExecutor(1) as drawer:
        def draw(block):
            out = normals[block % len(normals), : min(_DRAW_BLOCK, n_steps - starts[block])]
            return drawer.submit(rng.standard_normal, out=out)

        pending = deque(draw(block) for block in range(min(_DRAW_AHEAD, len(starts))))  # in stream order
        for block, start in enumerate(starts):
            z = pending.popleft().result()
            if block + _DRAW_AHEAD < len(starts):
                pending.append(draw(block + _DRAW_AHEAD))
            for step, (z1, zp) in enumerate(z, start):
                z2 = cfg.rho * z1 + rho_perp * zp

                v_plus = np.maximum(v, 0.0)
                sq_v_dt = np.sqrt(v_plus * dt)
                s = s * np.exp((mu - 0.5 * v_plus) * dt + sq_v_dt * z1)

                drift_acc += cfg.kappa * (cfg.theta_mean - v_plus) * dt
                shock = cfg.sigma_volvol * sq_v_dt * z2
                conv_states = decay[:, None] * (conv_states + shock[None, :])
                v = cfg.v0 + drift_acc + a @ conv_states
                store(step + 1, s, v)

    return PathEnsemble(steps * dt, strikes, calls, puts, proxy.T, keep * dt, spot.T, variance.T, dt)


def _maturity_step(paths: PathEnsemble, T: float) -> int:
    """Row of maturity T among the reduction steps at `paths.times`."""
    row = int(np.searchsorted(paths.times, T - 1e-9))
    if row == len(paths.times) or abs(paths.times[row] - T) > 1e-9:
        raise DomainError(f"maturity {T} is not one of the steps the paths were reduced at")
    return row


def oracle_prices(paths: PathEnsemble, grid: MarketGrid) -> PriceSurface:
    """Monte Carlo oracle surface: the mean payoffs priced inside the
    simulation loop (`steps` and `strikes` of `simulate_paths`, which must
    include every maturity's step and be the grid's strikes), discounted.

    A common path set across strikes keeps the estimator convex and
    nonincreasing in strike exactly; calendar monotonicity holds up to Monte
    Carlo noise and is repaired by the no-arbitrage projection when the
    defect exceeds ORACLE_REPAIR_TOL.
    """
    import warnings as _warnings

    n = paths.proxy.shape[0]
    if n < 1000:
        _warnings.warn(f"only {n} paths; oracle precision will be poor", RuntimeWarning)
    strikes = grid.strikes
    if not np.array_equal(paths.strikes, strikes):
        raise DomainError("the paths were not priced at the grid's strikes")
    L, M = grid.n_maturities, len(strikes)
    calls = np.empty((L, M))
    puts = np.empty((L, M))
    for ell, T in enumerate(grid.maturities):
        row = _maturity_step(paths, T)
        disc = np.exp(-grid.rate * T)
        calls[ell] = disc * paths.call_payoffs[row]
        puts[ell] = disc * paths.put_payoffs[row]
    surface = PriceSurface.from_matrices(grid, calls, puts)
    cal_defect = float(arb_residual_arrays(calls, strikes, grid.spot).calendar.max(initial=0.0))
    if cal_defect > ORACLE_REPAIR_TOL:
        surface, _ = noarb_project(surface, tol=ORACLE_REPAIR_TOL)
    return surface


def vix2_proxy(paths: PathEnsemble, T: float) -> float:
    """Average forward variance over the proxy window:

    mean over paths of (1/Delta) int_T^{T+Delta} v_s^+ ds
    (trapezoid on the day grid, Delta = VIX_WINDOW_DAYS / 365).

    Dimensional analysis says the (1/Delta) time average is already an
    annualized variance. The per-path averages are reduced inside the
    simulation loop as each window closes (the windows open at the `steps`
    of `simulate_paths`), so no variance row need be stored; T must open
    one of those windows. Each window is reduced in blocks of rows whose
    gemvs run on the calling thread (`_window_average`): at the default
    50 000 paths a whole-window gemv is threaded, its OpenBLAS worker spins
    while the drawer thread draws, and the rows at its thread split round
    differently with the thread count.
    """
    return float(paths.proxy[:, _maturity_step(paths, T)].mean())


def quote_noise_sd(cfg: GeneratorConfig, prices: np.ndarray, logm: np.ndarray,
                   strength: float = 1.0) -> np.ndarray:
    """Std of the quote noise on an (L, M) price matrix with log-moneyness
    logm (M,): strength * noise_scale * max(price, noise_floor) * (1 + |logm|)."""
    return strength * cfg.noise_scale * np.maximum(prices, cfg.noise_floor) * (1.0 + np.abs(logm))[None, :]


def add_noise_censor(oracle: PriceSurface, cfg: GeneratorConfig, stream: int = 1) -> tuple[PriceSurface, int]:
    """Quoted surface and its clamp count: heteroskedastic noise plus
    liquidity censoring.

    quoted = (oracle + eps) * 1{oracle >= tau_liq}, with eps zero-mean
    Gaussian of std noise_scale * max(price, floor) * (1 + |log-moneyness|)
    and tau_liq = liq_a * exp(-liq_b T) * (1 + liq_c |log-moneyness|).
    Negative noisy prices are clamped to zero (counted); censored cells are
    masked.
    """
    grid = oracle.grid
    rng = _rng(cfg, 10_000 + stream)
    strikes = grid.strikes
    logm = np.log(strikes / grid.spot)
    L, M = grid.n_maturities, len(strikes)

    c_star = oracle.calls
    p_star = oracle.puts
    tau_liq = cfg.liq_a * np.exp(-cfg.liq_b * grid.maturities)[:, None] * (1.0 + cfg.liq_c * np.abs(logm))[None, :]
    mask = c_star >= tau_liq

    clamp_count = 0
    quoted = {}
    for name, star in (("calls", c_star), ("puts", p_star)):
        sd = quote_noise_sd(cfg, star, logm)
        noisy = star + sd * rng.standard_normal((L, M))
        clamp_count += int(np.sum((noisy < 0) & mask))
        noisy = np.maximum(noisy, 0.0)
        noisy[~mask] = np.nan
        quoted[name] = noisy
    return PriceSurface.from_matrices(grid, quoted["calls"], quoted["puts"], mask), clamp_count


def make_panel(cfg: GeneratorConfig, window_index: int = 0) -> SyntheticPanel:
    """Simulate one window (window-indexed seed stream) and assemble the
    panel. The simulation runs exactly to the close of the last maturity's
    proxy window with the maturities as its reduction `steps`, so the loop
    reduces only what the panel reads: the mean payoffs at each maturity,
    which the oracle discounts, and the VIX^2 proxy of each maturity's
    window; no spot or variance row is kept."""
    grid = make_grid(cfg)
    maturity_steps = np.rint(grid.maturities * cfg.steps_per_year).astype(int)
    width = _vix_window_steps(1.0 / cfg.steps_per_year)
    horizon = (maturity_steps[-1] + width) / cfg.steps_per_year
    paths = simulate_paths(cfg, horizon, stream=window_index, steps=maturity_steps, strikes=grid.strikes)
    oracle = oracle_prices(paths, grid)
    vix2 = np.array([vix2_proxy(paths, T) for T in grid.maturities])
    quoted, clamp_count = add_noise_censor(oracle, cfg, stream=window_index + 1)
    return SyntheticPanel(oracle, quoted, vix2, window_index, float(1.0 - quoted.mask.mean()), clamp_count)


@dataclass
class Fold:
    train: list
    val: int
    oos: list


def blocked_folds(n_windows: int) -> list[Fold]:
    """Causal blocked splits: for fold index b (1-based, 2 <= b <= B-1),
    train on windows 1..b-1, validate on b, score out-of-sample on b+1..B."""
    if n_windows < 3:
        raise DomainError("need at least 3 windows for blocked folds")
    folds = []
    for b in range(2, n_windows):  # 1-based b in {2, ..., B-1}
        folds.append(
            Fold(
                train=list(range(0, b - 1)),
                val=b - 1,
                oos=list(range(b, n_windows)),
            )
        )
    return folds


def write_panel(panel: SyntheticPanel, out_dir, cfg: GeneratorConfig) -> None:
    """Serialize a panel: quoted/oracle surfaces, variance curve, manifest."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_surface_csv(panel.quoted_surface, os.path.join(out_dir, "quoted.csv"))
    write_surface_csv(panel.oracle_surface, os.path.join(out_dir, "oracle.csv"))
    write_vix2_csv(os.path.join(out_dir, "vix2.csv"), panel.quoted_surface.grid.maturities, panel.vix2_observed)
    manifest = {
        "window_index": panel.window_index,
        "filter_rate": panel.filter_rate,
        "clamp_count": panel.clamp_count,
        "config": dataclasses.asdict(cfg),
    }
    with open(os.path.join(out_dir, "panel_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
