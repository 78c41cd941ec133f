import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from arbsurf import cli, generator
from arbsurf.decoder import static_arb_residuals
from arbsurf.generator import (
    _DRAW_AHEAD,
    _DRAW_BLOCK,
    _PRICE_BLOCK_ROWS,
    _PROXY_BLOCK_ROWS,
    VIX_WINDOW_DAYS,
    Fold,
    GeneratorConfig,
    add_noise_censor,
    blocked_folds,
    make_grid,
    make_panel,
    oracle_prices,
    simulate_paths,
    snapped_maturities,
    vix2_proxy,
    write_panel,
)
from arbsurf.grids import DomainError

from .oracles import reference_paths, reference_payoffs, reference_proxy

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def smoke_cfg(**kw):
    base = dict(
        n_paths=4000,
        steps_per_year=120,
        n_maturities=4,
        n_strikes=9,
        maturity_range=(0.25, 1.0),
        seed=7,
    )
    base.update(kw)
    return GeneratorConfig(**base)


def every_step(cfg, horizon):
    """Each step 0..N of a simulation to `horizon`."""
    return np.arange(int(np.ceil(horizon * cfg.steps_per_year - 1e-9)) + 1)


def maturity_steps(cfg):
    return np.rint(make_grid(cfg).maturities * cfg.steps_per_year).astype(int)


def panel_horizon(cfg):
    """The horizon of `make_panel`: the last maturity's proxy window closes
    at the last step."""
    return (maturity_steps(cfg)[-1] + generator._vix_window_steps(1.0 / cfg.steps_per_year)) / cfg.steps_per_year


def priced_paths(cfg, **kwargs):
    """Paths reduced at each maturity, priced at the strikes of the config's
    grid, to the horizon of `make_panel`."""
    return simulate_paths(cfg, panel_horizon(cfg), steps=maturity_steps(cfg), strikes=make_grid(cfg).strikes,
                          **kwargs)


class TestKernelEval:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            GeneratorConfig(rho=1.5)
        with pytest.raises(DomainError):
            GeneratorConfig(kernel_weights=(1.0,), kernel_rates=(-1.0,))


class TestSimulatePaths:
    def test_deterministic_variance_when_flat(self):
        cfg = smoke_cfg(kernel_weights=(0.0,), kernel_rates=(1.0,), sigma_volvol=0.0,
                        v0=0.04, theta_mean=0.04, n_paths=50)
        paths = simulate_paths(cfg, 1.0, keep=every_step(cfg, 1.0))
        assert np.allclose(paths.variance, 0.04, atol=1e-14)

    def test_lognormal_martingale(self):
        cfg = smoke_cfg(kernel_weights=(0.0,), kernel_rates=(1.0,), sigma_volvol=0.0,
                        n_paths=20000, r=0.02, q=0.0)
        paths = simulate_paths(cfg, 1.0, keep=every_step(cfg, 1.0))
        t = paths.kept_times[-1]
        s_t = paths.spot[:, -1]
        disc = np.exp(-(cfg.r - cfg.q) * t) * s_t
        se = disc.std(ddof=1) / np.sqrt(len(disc))
        assert abs(disc.mean() - cfg.s0) <= 3 * se

    def test_determinism(self):
        cfg = smoke_cfg(n_paths=100)
        a = simulate_paths(cfg, 0.5, keep=every_step(cfg, 0.5))
        b = simulate_paths(cfg, 0.5, keep=every_step(cfg, 0.5))
        assert np.array_equal(a.spot, b.spot)
        assert np.array_equal(a.variance, b.variance)

    def test_full_truncation_keeps_variance_usable(self):
        cfg = smoke_cfg(n_paths=500, sigma_volvol=1.5)
        paths = simulate_paths(cfg, 1.0, keep=every_step(cfg, 1.0))
        assert np.all(np.isfinite(paths.variance))
        assert np.all(np.isfinite(paths.spot))
        assert np.all(paths.spot > 0)


class TestPathsMatchReference:
    """The pipelined, time-major simulation reproduces the one-thread,
    path-major reference loop byte for byte."""

    @pytest.mark.parametrize("n_steps", [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, 2 * _DRAW_BLOCK, 3 * _DRAW_BLOCK + 2,
                                         (_DRAW_AHEAD + 2) * _DRAW_BLOCK + 3])
    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_same_bytes(self, n_steps, stream, seed):
        cfg = smoke_cfg(n_paths=301, steps_per_year=12, seed=seed)
        horizon = n_steps / cfg.steps_per_year
        paths = simulate_paths(cfg, horizon, stream, keep=np.arange(n_steps + 1))
        ref = reference_paths(cfg, horizon, stream)
        assert paths.spot.shape == paths.variance.shape == (cfg.n_paths, n_steps + 1)
        assert np.array_equal(paths.kept_times, ref.kept_times)
        for name in ("spot", "variance"):
            assert np.ascontiguousarray(getattr(paths, name)).tobytes() == getattr(ref, name).tobytes(), name

    def test_same_bytes_under_thread_contention(self):
        # three simulations at once (six threads on fewer cores) with a
        # short switch interval, each reducing at a step in every block:
        # each stream still matches the reference
        cfg = smoke_cfg(n_paths=301, steps_per_year=12)
        n_steps = 2 * (_DRAW_AHEAD + 1) * _DRAW_BLOCK + 1
        steps = np.arange(1, n_steps + 1, _DRAW_BLOCK - 1)
        horizon = (n_steps + generator._vix_window_steps(1.0 / cfg.steps_per_year)) / cfg.steps_per_year
        strikes = make_grid(cfg).strikes
        results = {}

        def run(stream):
            results[stream] = simulate_paths(cfg, horizon, stream, steps=steps, strikes=strikes,
                                             keep=every_step(cfg, horizon))

        threads = [threading.Thread(target=run, args=(stream,)) for stream in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for stream in range(3):
            ref = reference_paths(cfg, horizon, stream, steps=steps, strikes=strikes)
            assert np.ascontiguousarray(results[stream].spot).tobytes() == ref.spot.tobytes()
            assert np.ascontiguousarray(results[stream].variance).tobytes() == ref.variance.tobytes()
            assert results[stream].call_payoffs.tobytes() == ref.call_payoffs.tobytes()
            assert results[stream].put_payoffs.tobytes() == ref.put_payoffs.tobytes()
            assert np.ascontiguousarray(results[stream].proxy).tobytes() == np.ascontiguousarray(ref.proxy).tobytes()

    @pytest.mark.parametrize("window", [0, 1])
    def test_panel_matches_reference_pricing(self, window):
        cfg = smoke_cfg(n_paths=1500)
        before = threading.active_count()
        panel = make_panel(cfg, window)
        assert threading.active_count() == before

        grid = make_grid(cfg)
        horizon = float(grid.maturities[-1]) + VIX_WINDOW_DAYS / 365.0 + 2.0 / cfg.steps_per_year
        ref = reference_paths(cfg, horizon, stream=window, steps=maturity_steps(cfg), strikes=grid.strikes)
        oracle = oracle_prices(ref, grid)
        quoted, clamp_count = add_noise_censor(oracle, cfg, stream=window + 1)
        vix2 = np.array([vix2_proxy(ref, T) for T in grid.maturities])
        assert panel.oracle_surface.calls.tobytes() == oracle.calls.tobytes()
        assert panel.oracle_surface.puts.tobytes() == oracle.puts.tobytes()
        assert panel.quoted_surface.calls.tobytes() == quoted.calls.tobytes()
        assert panel.quoted_surface.puts.tobytes() == quoted.puts.tobytes()
        assert np.array_equal(panel.quoted_surface.mask, quoted.mask)
        assert panel.vix2_observed.tobytes() == vix2.tobytes()
        assert panel.window_index == window
        assert panel.filter_rate == float(1.0 - quoted.mask.mean())
        assert panel.clamp_count == clamp_count


class TestKeptRows:
    """`keep` stores the spot and variance at a subset of the steps; each
    stored row is the full simulation's row, byte for byte."""

    N_STEPS = 3 * _DRAW_BLOCK + 2

    @pytest.mark.parametrize("keep", [
        [0],
        [N_STEPS],
        [0, N_STEPS],
        [1, 2, 3],
        [_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1],  # rows on both sides of a drawn block
        [2, _DRAW_BLOCK, 2 * _DRAW_BLOCK, 3 * _DRAW_BLOCK + 1],
        list(range(1, N_STEPS)),
    ])
    def test_rows_equal_full_simulation(self, keep):
        cfg = smoke_cfg(n_paths=301, steps_per_year=12)
        horizon = self.N_STEPS / cfg.steps_per_year
        full = simulate_paths(cfg, horizon, stream=2, keep=every_step(cfg, horizon))
        part = simulate_paths(cfg, horizon, stream=2, keep=keep)
        assert part.dt == full.dt == 1.0 / cfg.steps_per_year
        assert part.kept_times.tobytes() == full.kept_times[keep].tobytes()
        for name in ("spot", "variance"):
            got = np.ascontiguousarray(getattr(part, name))
            assert got.shape == (cfg.n_paths, len(keep)), name
            assert got.tobytes() == np.ascontiguousarray(getattr(full, name)[:, keep]).tobytes(), name

    @pytest.mark.parametrize("keep", [
        [3, 2], [2, 2], [-1, 3], [0, N_STEPS + 1], [0.0, 1.0], [[0, 1]],
    ])
    def test_invalid_keep_rejected(self, keep):
        cfg = smoke_cfg(n_paths=11, steps_per_year=12)
        for name, kwargs in (("keep", {}), ("steps", {"strikes": make_grid(cfg).strikes})):
            with pytest.raises(DomainError, match=f"^{name} must be strictly increasing"):
                simulate_paths(cfg, self.N_STEPS / cfg.steps_per_year, **{name: np.array(keep)}, **kwargs)

    def test_empty_step_set_stores_nothing(self):
        # the defaults and an empty sequence of any dtype name no step
        cfg = smoke_cfg(n_paths=11, steps_per_year=12)
        for empty in ({}, {"steps": [], "keep": []}, {"steps": (), "keep": np.array([], int)}):
            paths = simulate_paths(cfg, self.N_STEPS / cfg.steps_per_year, **empty)
            for name in ("spot", "variance", "proxy"):
                assert getattr(paths, name).shape == (cfg.n_paths, 0), (name, empty)
            assert paths.times.shape == paths.kept_times.shape == (0,)
            assert paths.call_payoffs.shape == paths.put_payoffs.shape == (0, 0)

    @pytest.mark.parametrize("cfg, rows", [
        # default shape: 12 disjoint 22-step windows, so one window buffer is open at a time
        (GeneratorConfig(n_paths=200), 12 * 22),
        (smoke_cfg(n_paths=200), None),
    ])
    def test_make_panel_stores_only_rows_it_reads(self, monkeypatch, cfg, rows):
        stored = []
        simulate = generator.simulate_paths

        def recording(cfg, horizon, *args, **kwargs):
            stored.append((horizon, simulate(cfg, horizon, *args, **kwargs)))
            return stored[-1][1]

        monkeypatch.setattr(generator, "simulate_paths", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # few paths
            make_panel(cfg, 0)
        ((horizon, paths),) = stored
        dt = 1.0 / cfg.steps_per_year
        width = int(np.ceil(VIX_WINDOW_DAYS / 365.0 / dt - 1e-9))
        maturities = np.rint(make_grid(cfg).maturities / dt).astype(int)
        windows = sorted({m + i for m in maturities for i in range(width + 1)})
        assert rows is None or len(windows) == rows
        # the simulation ends as the last proxy window closes: 521 steps at the defaults
        assert int(np.ceil(horizon * cfg.steps_per_year - 1e-9)) == maturities[-1] + width
        assert paths.spot.shape == paths.variance.shape == (cfg.n_paths, 0)
        assert paths.call_payoffs.shape == paths.put_payoffs.shape == (cfg.n_maturities, cfg.n_strikes)
        assert paths.proxy.shape == (cfg.n_paths, cfg.n_maturities)
        assert np.array_equal(np.rint(paths.times / dt), maturities)

    def test_missing_rows_named_by_maturity(self):
        # one maturity is not a reduction step: neither the oracle nor the
        # proxy can take it, and both name it the same way
        cfg = smoke_cfg(n_paths=1000)
        grid = make_grid(cfg)
        steps = maturity_steps(cfg)
        T1 = float(grid.maturities[1])
        paths = simulate_paths(cfg, panel_horizon(cfg), steps=np.setdiff1d(steps, [steps[1]]), strikes=grid.strikes)
        vix2_proxy(paths, float(grid.maturities[0]))
        message = f"^maturity {re.escape(str(T1))} is not one of the steps the paths were reduced at"
        with pytest.raises(DomainError, match=message):
            oracle_prices(paths, grid)
        with pytest.raises(DomainError, match=message):
            vix2_proxy(paths, T1)


class TestProxyInLoop:
    """The proxy windows reduced inside the stepping loop equal the
    post-hoc, whole-array reduction of a full simulation, byte for byte."""

    @pytest.mark.parametrize("steps_per_year, n_steps, proxy_steps", [
        # width 1: a window at step 0, two overlapping, one closing at the last step
        (12, 3 * _DRAW_BLOCK + 2, [0, 1, 2, 7, 3 * _DRAW_BLOCK + 1]),
        # width 21: windows overlapping by 18 and by 14 steps, the last closing at step 50
        (250, 50, [0, 3, 10, 29]),
    ])
    @pytest.mark.parametrize("n_paths", [301, 800, 1500, 5000])
    def test_proxy_equals_full_simulation(self, steps_per_year, n_steps, proxy_steps, n_paths):
        cfg = smoke_cfg(n_paths=n_paths, steps_per_year=steps_per_year)
        horizon = n_steps / steps_per_year
        strikes = make_grid(cfg).strikes
        paths = simulate_paths(cfg, horizon, stream=1, steps=proxy_steps, strikes=strikes)
        ref = reference_paths(cfg, horizon, stream=1, steps=proxy_steps, strikes=strikes)
        assert paths.times.tobytes() == ref.times.tobytes()
        assert np.ascontiguousarray(paths.proxy).tobytes() == np.ascontiguousarray(ref.proxy).tobytes()
        for col, T in enumerate(ref.times):
            assert vix2_proxy(paths, T) == vix2_proxy(ref, T)
            se, ref_se = (p.proxy[:, col].std(ddof=1) / np.sqrt(n_paths) for p in (paths, ref))
            assert se == ref_se

    @pytest.mark.parametrize("n_paths", [
        _PROXY_BLOCK_ROWS, 4 * _PROXY_BLOCK_ROWS,  # block-aligned
        1, 2, 3, _PROXY_BLOCK_ROWS + 1, _PROXY_BLOCK_ROWS + 2, 2 * _PROXY_BLOCK_ROWS + 3,
        1001, 5003,  # ragged last block
    ])
    @pytest.mark.parametrize("steps_per_year", [120, 250])
    def test_window_average_equals_whole_gemv(self, n_paths, steps_per_year):
        dt = 1.0 / steps_per_year
        width = generator._vix_window_steps(dt)
        rng = np.random.default_rng(n_paths)
        variance = 0.04 + 0.05 * rng.standard_normal((n_paths, width + 3))  # some v < 0
        got = generator._window_average(np.ascontiguousarray(variance[:, 1 : width + 2]), dt)
        assert got.tobytes() == reference_proxy(variance, 1, dt).tobytes()

    @pytest.mark.parametrize("proxy_steps", [[3, 2], [2, 2], [-1], [0.0], [[0, 1]], [50 - 21 + 1], [0, 50]])
    def test_invalid_proxy_steps_rejected(self, proxy_steps):
        cfg = smoke_cfg(n_paths=11, steps_per_year=250)
        with pytest.raises(DomainError, match=r"^steps must be strictly increasing step indices in 0\.\.29 "
                                              r"\(each 21-step window ends by step 50\)"):
            simulate_paths(cfg, 50 / cfg.steps_per_year, steps=np.array(proxy_steps), strikes=make_grid(cfg).strikes)

    STRIKES = [90.0, 100.0, 110.0]

    def test_same_bytes_with_one_blas_thread(self):
        # 50 003 paths: a threaded whole-window gemv splits the rows between
        # its threads off the 4-row groups of the one-thread kernel
        cfg = dict(n_paths=50_003, steps_per_year=250, seed=3)
        script = (
            "import sys; from arbsurf.generator import GeneratorConfig, simulate_paths; "
            f"p = simulate_paths(GeneratorConfig(**{cfg!r}), 21 / 250, steps=[0], strikes={self.STRIKES!r}); "
            "sys.stdout.write(p.proxy.tobytes().hex())"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        paths = simulate_paths(GeneratorConfig(**cfg), 21 / 250, steps=[0], strikes=self.STRIKES)
        assert bytes.fromhex(out.stdout) == paths.proxy.tobytes()


class TestPricesInLoop:
    """The mean payoffs priced inside the stepping loop equal the post-hoc,
    whole-matrix means over a full simulation's spot, byte for byte."""

    N_STEPS = (_DRAW_AHEAD + 1) * _DRAW_BLOCK + 2

    @pytest.mark.parametrize("n_paths", [
        1, 2, 3, _PRICE_BLOCK_ROWS - 1, _PRICE_BLOCK_ROWS, _PRICE_BLOCK_ROWS + 1, 2 * _PRICE_BLOCK_ROWS + 1, 5003,
    ])
    @pytest.mark.parametrize("n_strikes", [3, 7, 25])
    def test_payoffs_equal_full_simulation(self, n_paths, n_strikes):
        cfg = smoke_cfg(n_paths=n_paths, steps_per_year=12, n_strikes=n_strikes)
        strikes = make_grid(cfg).strikes
        # step 0, one step on each side of a drawn block, and step N_STEPS,
        # whose proxy window closes at the last step
        steps = [0, _DRAW_BLOCK - 1, _DRAW_BLOCK, self.N_STEPS]
        horizon = (self.N_STEPS + generator._vix_window_steps(1.0 / cfg.steps_per_year)) / cfg.steps_per_year
        paths = simulate_paths(cfg, horizon, stream=1, steps=steps, strikes=strikes)
        ref = reference_paths(cfg, horizon, stream=1, steps=steps, strikes=strikes)
        assert paths.times.tobytes() == ref.times.tobytes()
        assert paths.strikes.tobytes() == strikes.tobytes()
        assert paths.call_payoffs.tobytes() == ref.call_payoffs.tobytes()
        assert paths.put_payoffs.tobytes() == ref.put_payoffs.tobytes()

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 2047, 2048, 2049, 4097, 5003, 50_000, 50_003])
    @pytest.mark.parametrize("n_strikes", [2, 3, 7, 9, 11, 25, 64])
    def test_payoff_means_equal_whole_matrix_mean(self, n_paths, n_strikes):
        rng = np.random.default_rng(n_paths + n_strikes)
        s = 100.0 * np.exp(0.3 * rng.standard_normal(n_paths))
        strikes = 100.0 * np.exp(np.linspace(-0.6, 0.6, n_strikes))
        for got, ref in zip(generator._payoff_means(s, strikes), reference_payoffs(s, strikes)):
            assert got.tobytes() == ref.tobytes()

    def test_steps_need_strikes(self):
        cfg = smoke_cfg(n_paths=11, steps_per_year=12)
        with pytest.raises(DomainError, match="^strikes must be .* when steps are given"):
            simulate_paths(cfg, 1.0, steps=[1])

    @pytest.mark.parametrize("strikes", [[100.0], [90.0, 110.0], [[90.0, 100.0, 110.0]], [90.0, np.nan, 110.0]])
    def test_invalid_strikes_rejected(self, strikes):
        cfg = smoke_cfg(n_paths=11, steps_per_year=12)
        with pytest.raises(DomainError, match="^strikes must be a 1-D array of at least 3 finite values"):
            simulate_paths(cfg, 1.0, steps=[1], strikes=strikes)

    def test_other_strikes_rejected(self):
        cfg = smoke_cfg(n_paths=1000)
        grid = make_grid(cfg)
        paths = simulate_paths(cfg, panel_horizon(cfg), steps=maturity_steps(cfg), strikes=grid.strikes[1:])
        with pytest.raises(DomainError, match="^the paths were not priced at the grid's strikes"):
            oracle_prices(paths, grid)


class TestSnappedMaturities:
    @pytest.mark.parametrize(
        "config, steps",
        [
            (None, [21, 64, 108, 152, 195, 239, 282, 326, 369, 413, 456, 500]),
            ("smoke.ini", [30, 54, 78, 102, 126, 150]),
            ("desk.ini", [21, 64, 108, 152, 195, 239, 282, 326, 369, 413, 456, 500]),
        ],
    )
    def test_shipped_configs_unchanged(self, config, steps):
        cfg = cli.load_config(config and str(CONFIGS / config), None).generator
        expected = np.array(steps) / cfg.steps_per_year
        assert snapped_maturities(cfg).tobytes() == expected.tobytes()

    def test_rounding_collisions_made_strictly_increasing(self):
        cfg = smoke_cfg(steps_per_year=4, n_maturities=5, maturity_range=(0.1, 0.6))
        assert np.array_equal(snapped_maturities(cfg) * 4, [1, 2, 3, 4, 5])


class TestOraclePrices:
    def test_forward_identity_at_zero_strike_limit(self):
        cfg = smoke_cfg(n_paths=20000)
        grid = make_grid(cfg)
        t = grid.maturities[0]
        paths = simulate_paths(cfg, float(grid.maturities[-1]) + 0.01, keep=[int(round(t * cfg.steps_per_year))])
        s_t = paths.spot[:, 0]
        # discounted mean payoff at K -> 0 equals the dividend-discounted spot
        c0 = np.exp(-cfg.r * t) * s_t.mean()
        se = np.exp(-cfg.r * t) * s_t.std(ddof=1) / np.sqrt(len(s_t))
        assert abs(c0 - cfg.s0 * np.exp(-cfg.q * t)) <= 3 * se

    def test_surface_feasible(self):
        cfg = smoke_cfg(n_paths=20000)
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        surf = oracle_prices(paths, grid)
        res = static_arb_residuals(surf)
        assert res.convexity.max(initial=0.0) < 1e-6
        assert res.calendar.max(initial=0.0) < 1e-6
        assert res.monotonicity.max(initial=0.0) < 1e-6
        assert res.bounds.max(initial=0.0) < 1e-6

    def test_parity_identity_on_shared_paths(self):
        cfg = smoke_cfg(n_paths=5000)
        grid = make_grid(cfg)
        paths = priced_paths(cfg, keep=maturity_steps(cfg))
        surf = oracle_prices(paths, grid)
        strikes = grid.strikes
        for ell, t in enumerate(grid.maturities):
            s_t = paths.spot[:, ell]
            rhs = np.exp(-cfg.r * t) * (s_t.mean() - strikes)
            assert np.allclose(surf.calls[ell] - surf.puts[ell], rhs, atol=1e-9)

    def test_few_paths_warns(self):
        cfg = smoke_cfg(n_paths=200)
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        with pytest.warns(RuntimeWarning):
            oracle_prices(paths, grid)


class TestVix2Proxy:
    def test_constant_variance(self):
        cfg = smoke_cfg(kernel_weights=(0.0,), kernel_rates=(1.0,), sigma_volvol=0.0,
                        v0=0.05, theta_mean=0.05, n_paths=100)
        paths = simulate_paths(cfg, 1.0, steps=[round(0.5 * cfg.steps_per_year)], strikes=make_grid(cfg).strikes)
        assert vix2_proxy(paths, 0.5) == pytest.approx(0.05, rel=1e-12)

    def test_pure_heston_closed_form(self):
        cfg = smoke_cfg(
            kernel_weights=(1.0,),
            kernel_rates=(3.0,),
            sigma_volvol=0.0,  # deterministic conditional mean path
            v0=0.09,
            theta_mean=0.04,
            kappa=1.5,
            n_paths=200,
            steps_per_year=250,
        )
        # with sigma_volvol = 0 and a = 1 the variance path is the ODE
        # v' = kappa (theta - v) ... but the kernel damps the shock term only;
        # with no shocks the kernel plays no role and v is exactly the ODE.
        paths = simulate_paths(cfg, 1.2, steps=[round(0.5 * cfg.steps_per_year)], strikes=make_grid(cfg).strikes)
        T = 0.5
        delta = VIX_WINDOW_DAYS / 365.0
        est = vix2_proxy(paths, T)

        # closed form for the mean-reverting ODE average over [T, T+delta]
        def v_exact(t):
            return cfg.theta_mean + (cfg.v0 - cfg.theta_mean) * np.exp(-cfg.kappa * t)

        from scipy.integrate import quad

        exact = quad(v_exact, T, T + delta)[0] / delta
        assert est == pytest.approx(exact, rel=2e-3)

    def test_insufficient_horizon(self):
        cfg = smoke_cfg(n_paths=50)
        paths = simulate_paths(cfg, 0.3)
        with pytest.raises(DomainError):
            vix2_proxy(paths, 0.29)


class TestNoiseCensor:
    def test_no_noise_no_censor(self):
        cfg = smoke_cfg(noise_scale=0.0, liq_a=0.0, n_paths=3000)
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        oracle = oracle_prices(paths, grid)
        quoted, clamp_count = add_noise_censor(oracle, cfg)
        assert quoted.observed_fraction() == 1.0
        assert np.allclose(quoted.calls_matrix(), oracle.calls_matrix())
        assert clamp_count == 0

    def test_everything_censored(self):
        cfg = smoke_cfg(liq_a=1e9, n_paths=2000)
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        oracle = oracle_prices(paths, grid)
        quoted, clamp_count = add_noise_censor(oracle, cfg)
        assert quoted.n_observed() == 0
        assert clamp_count == 0

    def test_reproducible(self):
        cfg = smoke_cfg(n_paths=2000)
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        oracle = oracle_prices(paths, grid)
        (a, a_clamps), (b, b_clamps) = add_noise_censor(oracle, cfg), add_noise_censor(oracle, cfg)
        am, bm = a.calls_matrix(), b.calls_matrix()
        assert np.array_equal(a.mask_matrix(), b.mask_matrix())
        assert a_clamps == b_clamps
        obs = a.mask_matrix()
        assert np.array_equal(am[obs], bm[obs])


class TestPanelsAndFolds:
    def test_blocked_folds_b4(self):
        folds = blocked_folds(4)
        assert folds == [
            Fold(train=[0], val=1, oos=[2, 3]),
            Fold(train=[0, 1], val=2, oos=[3]),
        ]

    def test_blocked_folds_b3(self):
        folds = blocked_folds(3)
        assert folds == [Fold(train=[0], val=1, oos=[2])]

    def test_disjoint_and_ordered(self):
        for b in (3, 5, 8):
            for fold in blocked_folds(b):
                assert set(fold.train) & {fold.val} == set()
                assert set(fold.train) & set(fold.oos) == set()
                assert fold.val not in fold.oos
                assert max(fold.train) < fold.val < min(fold.oos)

    def test_too_few_windows(self):
        with pytest.raises(DomainError):
            blocked_folds(2)

    def test_make_panel_deterministic(self):
        cfg = smoke_cfg(n_paths=1500)
        a = make_panel(cfg, window_index=0)
        b = make_panel(cfg, window_index=0)
        assert np.array_equal(a.vix2_observed, b.vix2_observed)
        assert np.array_equal(a.oracle_surface.calls_matrix(), b.oracle_surface.calls_matrix())
        c = make_panel(cfg, window_index=1)
        assert not np.allclose(a.oracle_surface.calls_matrix(), c.oracle_surface.calls_matrix())

    def test_write_panel(self, tmp_path):
        cfg = smoke_cfg(n_paths=1500)
        panel = make_panel(cfg, window_index=0)
        write_panel(panel, tmp_path / "w0", cfg)
        assert (tmp_path / "w0" / "quoted.csv").exists()
        assert (tmp_path / "w0" / "oracle.csv").exists()
        assert (tmp_path / "w0" / "vix2.csv").exists()
        import json

        manifest = json.loads((tmp_path / "w0" / "panel_manifest.json").read_text())
        assert manifest["config"]["seed"] == cfg.seed


class TestStripProxyConsistency:
    def test_pure_heston_strip_matches_proxy(self):
        # links the discrete strip estimate on a dense wide oracle grid to
        # the forward-variance proxy for the memoryless-kernel configuration
        from arbsurf.vix import vix_squared

        cfg = GeneratorConfig(
            n_paths=30_000,
            steps_per_year=250,
            kernel_weights=(1.0,),
            kernel_rates=(1e-6,),
            sigma_volvol=0.3,
            v0=0.04,
            theta_mean=0.04,
            kappa=1.5,
            n_maturities=2,
            n_strikes=240,
            maturity_range=(0.5, 1.0),
            log_moneyness_range=(-1.7, 1.7),
            seed=9,
        )
        grid = make_grid(cfg)
        paths = priced_paths(cfg)
        oracle = oracle_prices(paths, grid)
        for ell, T in enumerate(grid.maturities):
            strip = vix_squared(oracle, ell)
            proxy = vix2_proxy(paths, float(T))
            assert abs(strip - proxy) <= 5e-3, (ell, strip, proxy)
