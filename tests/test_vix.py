import csv

import numpy as np
import pytest

from arbsurf.grids import DomainError, MarketGrid, PriceSurface
from arbsurf.vix import (
    ReplicationResult,
    interpolate_missing,
    otm_strip,
    replicate_surface,
    tail_truncated,
    vix_squared,
    write_vix2_csv,
)

from .oracles import bs_call, bs_put


def bs_surface(s0=100.0, r=0.01, q=0.0, sigma=0.2, mats=(0.5, 1.0), k_lo=20.0, k_hi=500.0, M=600):
    mats = np.array(mats)
    strikes = np.linspace(k_lo, k_hi, M)
    grid = MarketGrid(mats, strikes, s0, r, q)
    calls = np.vstack([bs_call(s0, strikes, t, r, q, sigma) for t in mats])
    puts = np.vstack([bs_put(s0, strikes, t, r, q, sigma) for t in mats])
    return PriceSurface.from_matrices(grid, calls, puts)


class TestOtmStrip:
    def test_all_strikes_above_forward(self):
        mats = np.array([0.5, 1.0])
        strikes = np.linspace(150.0, 200.0, 6)
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        calls = np.tile(np.linspace(3.0, 0.5, 6), (2, 1))
        puts = calls + 50.0
        surf = PriceSurface.from_matrices(grid, calls, puts)
        assert np.allclose(otm_strip(surf, 0), calls[0])

    def test_boundary_strike_uses_call(self):
        mats = np.array([0.5, 1.0])
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        calls = np.tile([12.0, 5.0, 1.0], (2, 1))
        puts = np.tile([2.0, 5.0, 11.0], (2, 1))
        surf = PriceSurface.from_matrices(grid, calls, puts)
        q = otm_strip(surf, 0)
        # forward is exactly 100: the K = forward cell takes the call branch
        assert q[1] == 5.0
        assert q[0] == 2.0 and q[2] == 1.0

    def test_mixed_strip_matches_bs_selection(self):
        surf = bs_surface()
        f = 100.0 * np.exp(0.01 * 0.5)
        strikes = surf.grid.strikes
        expected = np.where(strikes < f, surf.puts[0], surf.calls[0])
        assert np.allclose(otm_strip(surf, 0), expected)


class TestInterpolateMissing:
    def test_no_masked_unchanged(self):
        ks = np.array([90.0, 100.0, 110.0])
        vals = np.array([10.0, 8.0, 6.0])
        filled, flag = interpolate_missing(ks, vals, np.ones(3, dtype=bool))
        assert np.array_equal(filled, vals)
        assert not flag

    def test_midpoint_linear(self):
        ks = np.array([90.0, 100.0, 110.0])
        vals = np.array([10.0, 0.0, 6.0])
        mask = np.array([True, False, True])
        filled, flag = interpolate_missing(ks, vals, mask)
        assert filled[1] == pytest.approx(8.0)
        assert not flag

    def test_boundary_flat_flagged(self):
        ks = np.array([90.0, 100.0, 110.0])
        vals = np.array([0.0, 8.0, 6.0])
        mask = np.array([False, True, True])
        filled, flag = interpolate_missing(ks, vals, mask)
        assert filled[0] == pytest.approx(8.0)
        assert flag

    def test_convexity_preserved_at_observed_knots(self):
        ks = np.linspace(80.0, 120.0, 9)
        vals = (ks - 100.0) ** 2 / 10.0 + 1.0  # convex strip
        mask = np.ones(9, dtype=bool)
        mask[[2, 5]] = False
        filled, _ = interpolate_missing(ks, np.where(mask, vals, 0.0), mask)
        second = np.diff(filled, 2)
        obs_idx = np.nonzero(mask)[0]
        # knot concavity cannot appear at interior observed knots
        for i in obs_idx:
            if 1 <= i <= 7:
                assert second[i - 1] >= -1e-10

    def test_needs_two_observed(self):
        with pytest.raises(DomainError):
            interpolate_missing(
                np.array([90.0, 100.0]), np.array([1.0, 2.0]), np.array([True, False])
            )


class TestVixSquared:
    def test_zero_strip_zero(self):
        mats = np.array([0.5, 1.0])
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        zeros = np.zeros((2, 3))
        surf = PriceSurface.from_matrices(grid, zeros, zeros)
        # K0 = 100 = forward, so the adjustment term vanishes too
        assert vix_squared(surf, 0) == pytest.approx(0.0, abs=1e-14)

    def test_flat_bs_recovers_variance(self):
        # log-contract identity: constant vol sigma -> strip value sigma^2
        surf = bs_surface(sigma=0.2, mats=(0.5, 1.0), k_lo=20.0, k_hi=500.0, M=600)
        for ell in range(2):
            assert vix_squared(surf, ell) == pytest.approx(0.04, abs=2e-3)

    def test_mesh_refinement_monotone(self):
        errs = []
        for M in (101, 201, 401):
            surf = bs_surface(sigma=0.2, mats=(0.5, 1.0), M=M)
            errs.append(abs(vix_squared(surf, 1) - 0.04))
        assert errs[0] > errs[1] > errs[2]

    def test_tail_flag(self):
        narrow = bs_surface(k_lo=60.0, k_hi=150.0, M=91)
        assert tail_truncated(narrow.grid, 0)
        wide = bs_surface(k_lo=15.0, k_hi=520.0, M=200)
        assert not tail_truncated(wide.grid, 0)

    def test_too_few_strikes(self):
        mats = np.array([0.5, 1.0])
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        zeros = np.zeros((2, 3))
        surf = PriceSurface.from_matrices(grid, zeros, zeros)
        vix_squared(surf, 0)  # three strikes is the minimum


class TestReplicationResidual:
    def test_zero_for_self(self):
        surf = bs_surface(M=301)
        own = replicate_surface(surf, None).vix_squared_per_maturity
        res = replicate_surface(surf, own).residuals
        assert np.allclose(res, 0.0, atol=1e-14)

    def test_affine_shift(self):
        surf = bs_surface(M=301)
        own = replicate_surface(surf, None).vix_squared_per_maturity
        res = replicate_surface(surf, own + 0.01).residuals
        assert np.allclose(res, 0.01, atol=1e-14)

    def test_length_mismatch(self):
        surf = bs_surface(M=101)
        with pytest.raises(DomainError):
            replicate_surface(surf, np.array([0.04]))

    def test_result_container(self):
        surf = bs_surface(M=101)
        rep = replicate_surface(surf, np.array([0.04, 0.04]))
        assert isinstance(rep, ReplicationResult)
        assert rep.residuals.shape == (2,)


class TestVixCsv:
    def test_round_trip(self, tmp_path):
        mats = np.array([0.5, 1.0])
        v2 = np.array([0.04, 0.05])
        path = tmp_path / "vix2.csv"
        write_vix2_csv(path, mats, v2)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["T", "vix2"]
        ts, vs = np.array(rows, dtype=float).T
        assert np.allclose(ts, mats)
        assert np.allclose(vs, v2)


class TestStripLowerBound:
    def test_adjustment_bound_on_sparse_grid(self):
        # feasible surface on a sparse grid: the strip estimate is bounded
        # below by minus the forward-adjustment term
        mats = np.array([0.5, 1.0])
        strikes = np.array([70.0, 95.0, 130.0])
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        calls = np.vstack([bs_call(100.0, strikes, t, 0.0, 0.0, 0.2) for t in mats])
        puts = np.vstack([bs_put(100.0, strikes, t, 0.0, 0.0, 0.2) for t in mats])
        surf = PriceSurface.from_matrices(grid, calls, puts)
        for ell, t in enumerate(mats):
            k0 = 95.0  # largest strike below the forward (= 100)
            bound = -((100.0 / k0 - 1.0) ** 2) / t
            assert vix_squared(surf, ell) >= bound

    def test_dense_grid_nonnegative(self):
        surf = bs_surface(M=401)
        assert vix_squared(surf, 0) >= -1e-10
