"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavy end-to-end pieces (criteria 7, 9, 10, 13)
share session fixtures; the whole module runs in about five minutes on two
cores, most of it the criterion-10 ablation fixture.
"""

import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from arbsurf import metrics
from arbsurf.decoder import decode_surface, noarb_project, static_arb_residuals
from arbsurf.generator import GeneratorConfig, blocked_folds, make_panel, simulate_paths
from arbsurf.grids import MarketGrid, PriceSurface
from arbsurf.metrics import (
    effective_dimension,
    hac_ci,
    hac_lag,
    holm_bonferroni,
    nas,
    newey_west_lrv,
)
from arbsurf.operator import LatentTrajectory, OperatorParams, green_kernel, scan_forward
from arbsurf.qalign import spectral_norms
from arbsurf.runlog import NULLABLE_FIELDS, SCHEMA_FIELDS, emit_log
from arbsurf.training import (
    TrainingConfig,
    _extragradient,
    apply_qalign,
    build_batch,
    extragradient_step,
    init_state,
    lipschitz_surrogate,
)

from .oracles import (
    brute_force_projection,
    bs_call,
    bs_put,
    gap_representer_regression,
    random_decoder,
    rho_dt,
    svd_norm,
)


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {detail}", file=sys.stderr)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def desk_run():
    """Criterion-9 end-to-end run at desk scale, reused by 13."""
    from arbsurf.cli import run_fold

    gcfg = GeneratorConfig(n_paths=5000, seed=0)
    tcfg = TrainingConfig(seed=0, max_steps=20_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        panels = [make_panel(gcfg, w) for w in range(4)]
        t0 = time.time()
        state, run, surfs = run_fold(panels, blocked_folds(4)[0], tcfg)
        elapsed = time.time() - t0
    return dict(gcfg=gcfg, tcfg=tcfg, panels=panels, state=state, run=run,
                surfaces=surfs, elapsed=elapsed)


class TestCriterion01GreenEquivalence:
    def test_scan_equals_green_expansion(self):
        rng = np.random.default_rng(101)
        t0 = time.time()
        worst = 0.0
        for _ in range(100):
            L = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            params = OperatorParams(
                transitions=rng.standard_normal((L, m, m)) * 0.6,
                injections=rng.standard_normal((L, m, d)),
                readouts=rng.standard_normal((L, 2, m)),
                gate_raw=np.zeros((L, 4)),
            )
            u = rng.standard_normal((L, d))
            traj = scan_forward(params, u)
            for ell in range(L):
                expected = sum(green_kernel(params, ell, s) @ u[s] for s in range(ell + 1))
                err = np.max(np.abs(traj.states[ell + 1] - expected))
                scale = max(np.max(np.abs(expected)), 1.0)
                worst = max(worst, err / scale)
        elapsed = time.time() - t0
        _report(1, worst <= 1e-12 and elapsed < 1.0,
                f"max rel defect {worst:.2e}, {elapsed:.2f}s")


class TestCriterion02GuardSafety:
    def test_per_step_safety_and_lip_ordering(self):
        t0 = time.time()
        gcfg = GeneratorConfig(n_paths=600, steps_per_year=60, n_maturities=4,
                               n_strikes=7, maturity_range=(0.25, 1.0), seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel = make_panel(gcfg, 0)
        cfg = TrainingConfig(rank=3, feature_bins=4, readout_dim=2, width=6, seed=5)
        batch = build_batch([panel], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(7)
        ok = True
        for _ in range(40):
            extragradient_step(state, batch, cfg, rng)
            for i in range(batch.n_maturities):
                ind = rho_dt(state.primal["transitions"][i], float(batch.dts[i]))
                ok &= ind <= (1 - cfg.guard.epsilon) * (1 + 1e-9)
            before, after = lipschitz_surrogate(state.pre_pass, state.primal)
            ok &= after <= before * (1 + 1e-12)

        # unit-step grid seeded with ||A||_2 = 2: first pass contracts by
        # at least the guard scaling (1 - eps) / 2 per transition
        gcfg2 = GeneratorConfig(n_paths=600, steps_per_year=4, n_maturities=4,
                                n_strikes=7, maturity_range=(1.0, 4.0), seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel2 = make_panel(gcfg2, 0)
        batch2 = build_batch([panel2], cfg)
        assert np.allclose(batch2.dts, 1.0)
        state2 = init_state(cfg, batch2)
        state2.primal["transitions"][:] = np.tile(2.0 * np.eye(cfg.rank), (4, 1, 1))
        from arbsurf.qalign import GuardLog

        log = GuardLog()
        before, after = lipschitz_surrogate(apply_qalign(state2.primal, batch2, cfg, log), state2.primal)
        ratio = after / before
        ok &= ratio <= (1 - cfg.guard.epsilon) / 2 * (1 + 1e-9)
        ok &= log.spec_guard_hits >= 4
        elapsed = time.time() - t0
        _report(2, ok and elapsed < 10.0, f"contraction ratio {ratio:.3e}, {elapsed:.1f}s")


class TestCriterion03SpectralOracle:
    def test_spectral_norms_vs_svd_oracle(self):
        rng = np.random.default_rng(303)
        t0 = time.time()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 17))
            m = int(rng.integers(1, 17))
            w = rng.standard_normal((n, m)) * rng.uniform(0.1, 5.0)
            exact = svd_norm(w)
            est = spectral_norms(w)
            worst = max(worst, abs(est - exact) / max(exact, 1e-300))
        elapsed = time.time() - t0
        _report(3, worst <= 1e-8 and elapsed < 5.0, f"max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion04DecoderFeasibility:
    def test_random_decoders_feasible_by_construction(self):
        rng = np.random.default_rng(404)
        mats = np.linspace(0.1, 2.0, 6)
        strikes = np.linspace(50.0, 200.0, 80)
        grid = MarketGrid(mats, strikes, 100.0, 0.02, 0.0)
        t0 = time.time()
        worst_conv = worst_cal = 0.0
        for _ in range(100):
            params = random_decoder(
                rng, context_dim=4, n_maturities=6,
                width=int(rng.integers(4, 20)), depth=int(rng.integers(1, 4)),
                scale=float(rng.uniform(0.05, 1.0)),
                slope_raw=float(rng.normal()),
            )
            traj = LatentTrajectory(rng.standard_normal((7, 2)), rng.standard_normal((6, 3)))
            surf = decode_surface(params, traj, grid)
            res = static_arb_residuals(surf)
            worst_conv = max(worst_conv, res.convexity.max(initial=0.0))
            worst_cal = max(worst_cal, res.calendar.max(initial=0.0))
        elapsed = time.time() - t0
        _report(4, worst_conv < 1e-8 and worst_cal < 1e-8 and elapsed < 30.0,
                f"conv {worst_conv:.2e} cal {worst_cal:.2e}, {elapsed:.1f}s")


class TestCriterion05ProjectionCorrectness:
    def test_matches_active_set_oracle(self):
        t0 = time.time()
        strikes = np.array([90.0, 95.0, 105.0, 110.0])
        mats = np.array([0.5, 1.0, 1.5])
        rng = np.random.default_rng(505)
        instances = [
            np.array([[4.0, 10.0, 9.0, 4.0], [5.0, 10.0, 9.0, 5.0], [5.0, 10.0, 9.5, 5.5]]),
            np.array([[10.0, 4.0, 10.0, 3.0], [9.0, 5.0, 9.0, 2.0], [8.0, 6.0, 8.0, 1.0]]),
            np.array([[10.0, 5.0, 4.0, 3.0], [9.0, 4.0, 3.0, 2.0], [8.0, 3.5, 2.5, 1.5]]),
        ]
        for _ in range(5):
            instances.append(rng.normal(5.0, 3.0, size=(3, 4)))
        ok = True
        worst = 0.0
        for calls in instances:
            grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
            surf = PriceSurface.from_matrices(grid, calls, calls, require_nonnegative=False)
            out, _ = noarb_project(surf, tol=1e-10)
            oracle = brute_force_projection(calls, strikes)
            worst = max(worst, float(np.max(np.abs(out.calls_matrix() - oracle))))
            twice, _ = noarb_project(out, tol=1e-10)
            worst_idem = float(np.max(np.abs(twice.calls_matrix() - out.calls_matrix())))
            ok &= worst_idem < 1e-8
        elapsed = time.time() - t0
        _report(5, ok and worst <= 1e-8 and elapsed < 10.0,
                f"max gap to oracle {worst:.2e}, {elapsed:.1f}s")


class TestCriterion06VixQuadrature:
    def test_flat_surface_and_refinement(self):
        from arbsurf.vix import vix_squared

        t0 = time.time()
        s0, r, q, sigma = 100.0, 0.01, 0.0, 0.2
        errs = []
        value = None
        for n_strikes in (151, 301, 601):
            f_max = s0 * np.exp((r - q) * 1.0)
            strikes = np.linspace(0.2 * f_max, 5.0 * f_max, n_strikes)
            mats = np.array([0.5, 1.0])
            grid = MarketGrid(mats, strikes, s0, r, q)
            calls = np.vstack([bs_call(s0, strikes, t, r, q, sigma) for t in mats])
            puts = np.vstack([bs_put(s0, strikes, t, r, q, sigma) for t in mats])
            surf = PriceSurface.from_matrices(grid, calls, puts)
            value = vix_squared(surf, 1)
            errs.append(abs(value - sigma**2))
        elapsed = time.time() - t0
        ok = errs[-1] <= 2e-3 and errs[0] > errs[1] > errs[2] and elapsed < 5.0
        _report(6, ok, f"final {value:.6f} errs {['%.2e' % e for e in errs]}, {elapsed:.1f}s")


class TestCriterion07GeneratorSanity:
    def test_martingale_oracle_and_proxy(self):
        t0 = time.time()
        cfg = GeneratorConfig(n_paths=50_000, seed=0)
        from arbsurf.generator import VIX_WINDOW_DAYS, make_grid, oracle_prices, vix2_proxy

        grid = make_grid(cfg)
        horizon = float(grid.maturities[-1]) + VIX_WINDOW_DAYS / 365.0 + 2.0 / cfg.steps_per_year
        steps = np.rint(grid.maturities * cfg.steps_per_year).astype(int)
        paths = simulate_paths(cfg, horizon, steps=steps, strikes=grid.strikes, keep=steps)
        ok = True
        for row, T in enumerate(grid.maturities):
            s_t = paths.spot[:, row]
            disc = np.exp(-(cfg.r - cfg.q) * T) * s_t
            se = disc.std(ddof=1) / np.sqrt(len(disc))
            ok &= abs(disc.mean() - cfg.s0) <= 3 * se
        surf = oracle_prices(paths, grid)
        res = static_arb_residuals(surf)
        ok &= res.flatten().max() < 1e-6

        # deterministic-variance configuration: the proxy must match the
        # affine conditional-mean curve; with no diffusion the Monte Carlo
        # standard error vanishes, so a small discretization floor applies
        hcfg = GeneratorConfig(
            n_paths=400, steps_per_year=250, kernel_weights=(0.0,), kernel_rates=(1.0,),
            sigma_volvol=0.0, v0=0.09, theta_mean=0.04, kappa=1.5, seed=1,
        )
        hpaths = simulate_paths(hcfg, 1.2, steps=[round(0.5 * hcfg.steps_per_year)], strikes=make_grid(hcfg).strikes)
        est = vix2_proxy(hpaths, 0.5)
        per_path = hpaths.proxy[:, 0]
        se = per_path.std(ddof=1) / np.sqrt(len(per_path))
        from scipy.integrate import quad

        delta = VIX_WINDOW_DAYS / 365.0
        exact = quad(
            lambda t: hcfg.theta_mean + (hcfg.v0 - hcfg.theta_mean) * np.exp(-hcfg.kappa * t),
            0.5, 0.5 + delta,
        )[0] / delta
        ok &= abs(est - exact) <= max(3 * se, 1e-3)
        elapsed = time.time() - t0
        _report(7, ok and elapsed < 180.0,
                f"residual max {res.flatten().max():.2e}, proxy gap {abs(est - exact):.2e}, {elapsed:.0f}s")


class TestCriterion08ExtragradientRate:
    def test_bilinear_noise_ball(self):
        # F(z) = (z1, -z0), the field of L(x, y) = x * y at z = (x, y), run
        # through the package's extragradient core with no projection
        t0 = time.time()
        eta = 0.1
        x, y = {"z": np.array(1.0)}, {"z": np.array(1.0)}

        def oracle(x, y):  # (dL/dx, dL/dy) = (z1, z0)
            return {"z": y["z"]}, {"z": x["z"]}, None

        def F(x, y):
            return np.array([y["z"], -x["z"]])

        def unprojected(point):
            return point

        best = {}
        running = np.inf
        for k in range(1, 1001):
            x, y, _ = _extragradient(x, y, oracle, unprojected, unprojected, eta, eta)
            running = min(running, float(F(x, y) @ F(x, y)))
            if k in (100, 1000):
                best[k] = running
        elapsed = time.time() - t0
        _report(8, best[1000] <= 0.1 * best[100] and elapsed < 1.0,
                f"best@1000/best@100 = {best[1000] / best[100]:.2e}")


class TestCriterion09EndToEndSmoke:
    def test_desk_scale_run(self, desk_run, tmp_path):
        run = desk_run["run"]
        state = desk_run["state"]
        ok = bool(run.stopped)
        ok &= state.guard.max_rho_dt <= 1.0
        val_surface = desk_run["surfaces"][0]
        projected, _ = noarb_project(val_surface, tol=1e-8)
        post_nas = nas(projected)
        ok &= post_nas >= 0.99
        record = emit_log(run, tmp_path / "desk_run.json")
        ok &= tuple(record.keys()) == SCHEMA_FIELDS
        for name in SCHEMA_FIELDS:
            if name not in NULLABLE_FIELDS:
                ok &= record[name] is not None
        ok &= desk_run["elapsed"] < 900.0
        _report(9, ok,
                f"stopped at {state.history.stopped_at}, post-projection NAS {post_nas:.5f}, "
                f"max rho dt {state.guard.max_rho_dt:.3f}, {desk_run['elapsed']:.0f}s")


@pytest.fixture(scope="session")
def ablation_runs():
    from arbsurf.cli import ablation_config, run_fold

    def smoke_gen(seed):
        return GeneratorConfig(n_paths=3000, steps_per_year=120, n_maturities=8,
                               n_strikes=15, maturity_range=(0.25, 1.25), seed=seed)

    base_t = TrainingConfig(seed=0, max_steps=3000, rank=6, width=12)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for which in ("base", "gate_off", "specguard_off"):
            rows = []
            for seed in (0, 1, 2):
                gcfg = smoke_gen(seed)
                panels = [make_panel(gcfg, w) for w in range(3)]
                tcfg = replace(
                    base_t if which == "base" else ablation_config(which, base_t), seed=seed
                )
                _, run, _ = run_fold(panels, blocked_folds(3)[0], tcfg)
                rows.append(run)
            out[which] = rows
    return out


class TestCriterion10AblationDirection:
    def test_orderings(self, ablation_runs):
        med = {k: float(np.median([r.NAS for r in v])) for k, v in ablation_runs.items()}
        stab = {k: float(np.mean([r.Stability for r in v])) for k, v in ablation_runs.items()}
        ok = med["gate_off"] < med["base"]
        ok &= stab["specguard_off"] <= stab["base"]
        _report(10, ok,
                f"median NAS base {med['base']:.6f} vs gate_off {med['gate_off']:.6f}; "
                f"stability base {stab['base']:.2f} vs specguard_off {stab['specguard_off']:.2f}")


class TestCriterion11Statistics:
    def test_hac_holm_regression(self, monkeypatch):
        rng = np.random.default_rng(111)
        x = rng.standard_normal(200)
        with monkeypatch.context() as m:
            m.setattr(metrics, "HAC_C", 0.0)
            mean, lo, hi = hac_ci(x)
            assert hac_lag(200) == 0
        from scipy.stats import norm

        half = norm.ppf(0.975) * np.sqrt(newey_west_lrv(x, 0) / len(x))
        iid_exact = (mean - half, mean + half)
        ok = lo == iid_exact[0] and hi == iid_exact[1]

        ok &= holm_bonferroni([0.01, 0.04]).tolist() == [True, True]
        ok &= holm_bonferroni([0.03, 0.04]).tolist() == [False, False]

        g = rng.uniform(0.2, 1.2, 500)
        e = 2.0 * g + 0.3 + 0.01 * rng.standard_normal(500)
        slope, _, (slo, shi) = gap_representer_regression(g, e)
        ok &= abs(slope - 2.0) <= 0.05 and slo <= 2.0 <= shi
        _report(11, ok, f"slope {slope:.4f} CI [{slo:.4f}, {shi:.4f}]")


class TestCriterion12EffectiveDimension:
    def test_dimensions(self):
        v = np.array([2.0, -1.0, 0.5, 3.0])
        ok = effective_dimension(np.outer(v, v)) == (1, 1, 1)
        ok &= effective_dimension(np.eye(10)) == (9, 10, 10)
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 7))
        gram = a @ a.T
        ok &= effective_dimension(gram) == effective_dimension(np.pi * gram)
        _report(12, ok, "rank-1 (1,1,1); identity (9,10,10); scale invariant")


class TestCriterion13StressToFail:
    def test_curve_and_threshold(self, desk_run, tmp_path):
        from arbsurf.cli import ExperimentConfig, RunConfig, run_stress_to_fail

        cfg = ExperimentConfig(
            generator=desk_run["gcfg"],
            training=desk_run["tcfg"],
            run=RunConfig(n_windows=4, stress_strengths=(0.0, 1.0, 2.0, 4.0, 8.0),
                          stress_draws=8),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_stress_to_fail(cfg, tmp_path, state=desk_run["state"],
                                     panels=desk_run["panels"])
        from arbsurf.training import decode_window

        undistorted = nas(decode_window(desk_run["state"].primal, desk_run["panels"][-1],
                                        desk_run["tcfg"]))
        curve = {float(k): v for k, v in out["curve"].items()}
        ok = curve[0.0][0] == undistorted  # strength zero is a no-op, exactly
        strengths = sorted(curve)
        means = [curve[s][0] for s in strengths]
        widths = [curve[s][2] - curve[s][1] for s in strengths]
        for i in range(len(means) - 1):
            ok &= means[i + 1] <= means[i] + max(widths[i], widths[i + 1], 1e-9)
        ok &= np.isfinite(out["failure_threshold"])
        _report(13, ok,
                f"curve {['%.3f' % m for m in means]}, threshold {out['failure_threshold']}")


class TestCriterion14SchemaLock:
    def test_golden_schema(self):
        golden = (
            "NAS", "NI", "CNAS", "DualGap", "Stability", "SurfaceWasserstein",
            "GenGap_p95", "spec_guard_hits", "projection_distance", "max_rho_dt",
            "ratio_log", "enter_representer_at_step", "coverage_min",
            "coverage_mean", "coverage_at_trigger", "mfm_mse",
            "martingale_residual", "novik_to_kazamaki_rate", "lambda_lip_before",
            "lambda_lip_after", "filter_rate", "cnas_frozen_drop",
        )
        ok = SCHEMA_FIELDS == golden
        _report(14, ok, f"{len(SCHEMA_FIELDS)} fields locked")
