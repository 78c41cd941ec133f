from types import SimpleNamespace

import numpy as np
import pytest

from arbsurf import metrics
from arbsurf.grids import DomainError, MarketGrid, PriceSurface
from arbsurf.metrics import (
    Z_95,
    cnas,
    cnas_from_residuals,
    effective_dimension,
    gen_gap_p95,
    hac_ci,
    hac_lag,
    holm_bonferroni,
    nas,
    newey_west_lrv,
    ni,
    novikov_kazamaki_rate,
    stability,
    surface_wasserstein,
)

from .oracles import bs_call, gap_representer_regression


def surface_from(calls, strikes, mats, spot=100.0, rate=0.0, q=0.0):
    calls = np.asarray(calls, dtype=float)
    grid = MarketGrid(np.asarray(mats, dtype=float), np.asarray(strikes, dtype=float), spot, rate, q)
    return PriceSurface.from_matrices(grid, calls, calls, require_nonnegative=False)


def feasible_surface(L=3, M=12, spot=100.0, rate=0.01, sigma=0.2):
    mats = np.linspace(0.5, 1.5, L)
    strikes = np.linspace(70.0, 140.0, M)
    calls = np.vstack([bs_call(spot, strikes, t, rate, 0.0, sigma) for t in mats])
    return surface_from(calls, strikes, mats, spot=spot, rate=rate)


class TestNas:
    def test_feasible_is_one(self):
        assert nas(feasible_surface()) == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_single_violation(self):
        # 3x3 grid, unit spacings, at-the-forward price exactly 1 per row,
        # one curvature violation with second difference -0.12
        strikes = [1.0, 2.0, 3.0]
        mats = [1.0, 2.0, 3.0]
        calls = [
            [1.0, 1.0, 0.88],
            [1.3, 1.0, 0.9],
            [1.4, 1.0, 0.95],
        ]
        s = surface_from(calls, strikes, mats, spot=2.0, rate=0.0)
        # rows 2 and 3 are convex; they do add monotonicity-free cells only.
        # the only violation is the -0.12 second difference in row 1
        assert nas(s) == pytest.approx(1.0 - 0.12 / 9.0, abs=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            calls = rng.normal(5.0, 2.0, size=(3, 6))
            s = surface_from(calls, np.linspace(90, 110, 6), [0.5, 1.0, 1.5])
            assert nas(s) <= 1.0 + 1e-12


class TestCnas:
    def test_zero_residuals_one(self):
        for tau in (1e-4, 0.0):
            assert cnas(feasible_surface(), tau) == pytest.approx(1.0)

    def test_single_cell_hinge_arithmetic(self):
        val = cnas_from_residuals(np.array([0.2]), np.array([0.0]), np.array([0.0]), 0.1)
        assert val == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_bounded_above(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            calls = rng.normal(5.0, 3.0, size=(3, 6))
            s = surface_from(calls, np.linspace(90, 110, 6), [0.5, 1.0, 1.5])
            assert cnas(s) <= 1.0 + 1e-12


class TestNi:
    def _windows(self, shift=0.0, n=3):
        rng = np.random.default_rng(5)
        out_m, out_o = [], []
        base = feasible_surface()
        for w in range(n):
            window_noise = rng.normal(0, 0.4, size=base.calls_matrix().shape)
            extra = rng.normal(0, 0.5, size=base.calls_matrix().shape)
            oracle_calls = base.calls_matrix() + w * 0.3 + window_noise
            model_calls = oracle_calls + shift * extra
            strikes = base.grid.strikes
            mats = base.grid.maturities
            out_o.append(surface_from(oracle_calls, strikes, mats, rate=0.01))
            out_m.append(surface_from(model_calls, strikes, mats, rate=0.01))
        return out_m, out_o

    def test_constant_model_increments(self):
        m, o = self._windows()
        frozen = [m[0]] * len(m)  # zero increments
        assert ni(frozen, o) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_model_near_zero(self):
        # the literal variance-ratio estimator sends a perfect model to ~0
        m, o = self._windows(shift=0.0)
        assert ni(o, o) == pytest.approx(0.0, abs=1e-6)

    def test_single_window_rejected(self):
        m, o = self._windows()
        with pytest.raises(DomainError):
            ni(m[:1], o[:1])


class TestStability:
    def test_all_pass(self):
        runs = [SimpleNamespace(max_rho_dt=0.9, martingale_residual=1e-3, stopped=True)] * 4
        assert stability(runs) == 1.0

    def test_three_of_four(self):
        runs = [
            SimpleNamespace(max_rho_dt=0.9, martingale_residual=1e-3, stopped=True),
            SimpleNamespace(max_rho_dt=1.2, martingale_residual=1e-3, stopped=True),
            SimpleNamespace(max_rho_dt=0.5, martingale_residual=1e-3, stopped=True),
            SimpleNamespace(max_rho_dt=0.5, martingale_residual=1e-4, stopped=True),
        ]
        assert stability(runs) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            stability([])


class TestSurfaceWasserstein:
    def test_identical_zero(self):
        s = feasible_surface()
        assert surface_wasserstein(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_translation_proportional(self):
        s = feasible_surface()
        strikes = s.grid.strikes
        mats = s.grid.maturities
        d1 = surface_wasserstein(
            s, surface_from(s.calls_matrix() + 1.0, strikes, mats, rate=0.01)
        )
        d2 = surface_wasserstein(
            s, surface_from(s.calls_matrix() + 2.0, strikes, mats, rate=0.01)
        )
        assert d2 == pytest.approx(2.0 * d1, rel=1e-6)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(3)
        s = feasible_surface()
        strikes = s.grid.strikes
        mats = s.grid.maturities
        a = surface_from(s.calls_matrix() + rng.normal(0, 0.3, s.calls_matrix().shape), strikes, mats, rate=0.01)
        b = surface_from(s.calls_matrix() + rng.normal(0, 0.3, s.calls_matrix().shape), strikes, mats, rate=0.01)
        dab = surface_wasserstein(a, b)
        dba = surface_wasserstein(b, a)
        assert dab == pytest.approx(dba, rel=1e-9)
        dsa = surface_wasserstein(s, a)
        dsb = surface_wasserstein(s, b)
        assert dab <= dsa + dsb + 1e-6

    def test_deterministic(self):
        s = feasible_surface()
        t = surface_from(s.calls_matrix() + 0.5, s.grid.strikes, s.grid.maturities, rate=0.01)
        assert surface_wasserstein(s, t) == surface_wasserstein(s, t)


class TestGenGap:
    def test_identical_zero(self):
        x = np.linspace(0, 1, 50)
        assert gen_gap_p95(x, x) == 0.0

    def test_nearest_rank(self):
        diffs = np.arange(1, 101) / 100.0
        assert gen_gap_p95(diffs, np.zeros(100)) == pytest.approx(0.95)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            gen_gap_p95(np.array([]), np.array([]))


class TestEffectiveDimension:
    def test_rank_one(self):
        v = np.array([1.0, 2.0, 3.0])
        gram = np.outer(v, v)
        assert effective_dimension(gram) == (1, 1, 1)

    def test_identity_ten(self):
        assert effective_dimension(np.eye(10)) == (9, 10, 10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        gram = a @ a.T
        assert effective_dimension(gram) == effective_dimension(17.3 * gram)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        gram = a @ a.T
        perm = rng.permutation(6)
        assert effective_dimension(gram) == effective_dimension(gram[np.ix_(perm, perm)])

    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            effective_dimension(np.diag([1.0, -0.5]))


class TestHac:
    def test_constant_series_zero_width(self):
        mean, lo, hi = hac_ci(np.full(64, 3.3))
        assert mean == lo == hi == pytest.approx(3.3)

    def test_lag_rule(self):
        assert hac_lag(256) == 4
        assert hac_lag(10000) == 10

    def test_white_noise_lrv_close_to_variance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(10000)
        lrv = newey_west_lrv(x, hac_lag(len(x)))
        assert lrv == pytest.approx(x.var(), rel=0.05)

    def test_lag_zero_matches_iid(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        monkeypatch.setattr(metrics, "HAC_C", 0.0)  # floor(0 * T^(1/4)) = 0
        mean, lo, hi = hac_ci(x)
        from scipy.stats import norm

        half = norm.ppf(0.975) * np.sqrt(x.var() / len(x))
        assert lo == pytest.approx(mean - half, rel=1e-12)
        assert hi == pytest.approx(mean + half, rel=1e-12)

    def test_z95_is_the_quantile_bit_for_bit(self):
        from scipy.special import ndtri

        assert Z_95 == float(ndtri(0.975))

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            hac_ci(np.ones(7))


class TestHolm:
    def test_empty(self):
        assert holm_bonferroni([]).size == 0

    def test_both_rejected(self):
        assert holm_bonferroni([0.01, 0.04]).tolist() == [True, True]

    def test_none_rejected(self):
        assert holm_bonferroni([0.03, 0.04]).tolist() == [False, False]

    def test_stop_at_first_failure(self):
        # sorted: 0.001 <= 0.05/3 and 0.012 <= 0.05/2, then 0.06 > 0.05 stops
        out = holm_bonferroni([0.06, 0.001, 0.012])
        assert out.tolist() == [False, True, True]
        # sorted: 0.001 passes, 0.03 > 0.05/2 stops before 0.04 is examined
        out2 = holm_bonferroni([0.04, 0.001, 0.03])
        assert out2.tolist() == [False, True, False]

    def test_subset_of_unadjusted(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.uniform(0, 1, size=6)
            rej = holm_bonferroni(p)
            assert np.all(p[rej] <= 0.05)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            holm_bonferroni([0.5, 1.2])


class TestNovikovKazamaki:
    def test_zero_increments_no_switch(self):
        blocks = [np.zeros(16) for _ in range(10)]
        rate, lo, hi = novikov_kazamaki_rate(blocks)
        assert rate == 0.0

    def test_hand_worked_percentile_rule(self):
        # log N = (a^2 + b^2) / 2 and log Z = (a + b) / 2 per block (a, b):
        # log N sorted is 0, .01, .04, .09, .16, .25, .36, 1, 1.04, so its
        # 75th percentile (index 6 of 8) is .36, which the block (.6, -.6)
        # only reaches; |log Z| sorted is seven zeros, .2, 1, so its 90th
        # percentile (index 7.2) is .2 + .2 * (1 - .2) = .36. Of the two
        # blocks above .36 in log N, (1.2, -.8) switches and (1, 1), at
        # |log Z| = 1, is excluded by the |log Z| cap alone.
        blocks = [np.array([s, -s]) for s in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)]
        blocks += [np.array([1.2, -0.8]), np.array([1.0, 1.0])]
        switches = np.array([0, 0, 0, 0, 0, 0, 0, 1, 0], dtype=float)
        assert novikov_kazamaki_rate(blocks) == (1 / 9, *hac_ci(switches)[1:])

    def test_empty_blocks_skipped(self):
        blocks = [np.zeros(8), np.array([]), np.zeros(8)]
        with pytest.warns(RuntimeWarning):
            rate, *_ = novikov_kazamaki_rate(blocks)
        assert rate == 0.0


class TestGapRepresenterRegression:
    def test_exact_linearity(self):
        g = np.linspace(0.1, 1.0, 40)
        slope, intercept, (lo, hi) = gap_representer_regression(g, 0.5 * g)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert hi - lo == pytest.approx(0.0, abs=1e-10)

    def test_planted_coefficients(self):
        rng = np.random.default_rng(10)
        g = rng.uniform(0.2, 1.0, 400)
        e = 2.0 * g + 1.0 + rng.normal(0, 0.01, 400)
        slope, intercept, (lo, hi) = gap_representer_regression(g, e)
        assert slope == pytest.approx(2.0, abs=0.05)
        assert intercept == pytest.approx(1.0, abs=0.05)
        assert lo <= 2.0 <= hi

    def test_degenerate_regressor(self):
        with pytest.raises(DomainError):
            gap_representer_regression(np.ones(20), np.ones(20))

