import numpy as np
import pytest
from hypothesis import given, strategies as st

from arbsurf.grids import (
    CoverageStats,
    DomainError,
    MarketGrid,
    PriceSurface,
    coverage_stats,
    forward_price,
    nearest_strike_below_forward,
    otm_values,
    read_surface_csv,
    strike_spacings,
    write_surface_csv,
)


def simple_grid(spot=100.0, rate=0.0, q=0.0, strikes=(90.0, 100.0, 110.0), mats=(0.5, 1.0)):
    mats = np.array(mats)
    return MarketGrid(mats, np.array(strikes), spot, rate, q)


def full_surface(grid, value=1.0):
    shape = (grid.n_maturities, len(grid.strikes))
    return PriceSurface.from_matrices(grid, np.full(shape, value), np.full(shape, value))


class TestForwardPrice:
    def test_r_equals_q_cancels(self):
        g = simple_grid(spot=100.0, rate=0.03, q=0.03)
        assert forward_price(g, 1.0) == pytest.approx(100.0, abs=0)

    def test_positive_carry(self):
        # oracle: high-precision exponential
        g = simple_grid(spot=100.0, rate=0.02, q=0.0)
        assert forward_price(g, 1.0) == pytest.approx(102.02013400267558, rel=1e-12)

    def test_r_equals_q_long_maturity(self):
        g = simple_grid(spot=100.0, rate=0.02, q=0.02)
        assert forward_price(g, 5.0) == pytest.approx(100.0, abs=0)

    def test_nonpositive_maturity_rejected(self):
        g = simple_grid()
        with pytest.raises(DomainError):
            forward_price(g, 0.0)

    def test_monotonicity_in_maturity(self):
        up = simple_grid(rate=0.05, q=0.01)
        down = simple_grid(rate=0.01, q=0.05)
        flat = simple_grid(rate=0.02, q=0.02)
        ts = np.linspace(0.1, 3.0, 7)
        f_up = [forward_price(up, t) for t in ts]
        f_down = [forward_price(down, t) for t in ts]
        f_flat = [forward_price(flat, t) for t in ts]
        assert np.all(np.diff(f_up) > 0)
        assert np.all(np.diff(f_down) < 0)
        assert np.allclose(f_flat, up.spot)


class TestNearestStrikeBelowForward:
    def test_below(self):
        g = simple_grid(spot=102.0, rate=0.0)
        assert nearest_strike_below_forward(g, 0) == 100.0

    def test_equality_included(self):
        g = simple_grid(spot=100.0, rate=0.0)
        assert nearest_strike_below_forward(g, 0) == 100.0

    def test_fallback_with_warning(self):
        g = simple_grid(spot=102.0, rate=0.0, strikes=(105.0, 110.0, 120.0))
        with pytest.warns(RuntimeWarning):
            assert nearest_strike_below_forward(g, 0) == 105.0


class TestOtmValues:
    def test_surface_rows_match_per_maturity_strips(self):
        # one selection serves a whole (L, M) surface with (L,) forwards and
        # one maturity's (M,) strip with a scalar forward; K == F takes the call
        strikes = np.array([90.0, 100.0, 110.0])
        forwards = np.array([95.0, 100.0, 120.0])
        puts = np.arange(9.0).reshape(3, 3)
        calls = puts + 100.0
        q = otm_values(strikes, forwards, puts, calls)
        assert np.array_equal(q, [[0.0, 101.0, 102.0], [3.0, 104.0, 105.0], [6.0, 7.0, 8.0]])
        for ell, f in enumerate(forwards):
            assert np.array_equal(otm_values(strikes, f, puts[ell], calls[ell]), q[ell])


class TestStrikeSpacings:
    def test_uniform(self):
        assert np.allclose(strike_spacings([90.0, 100.0, 110.0]), [10.0, 10.0, 10.0])

    def test_nonuniform_hand(self):
        # hand arithmetic: one-sided ends, centered interior
        assert np.allclose(strike_spacings([90.0, 100.0, 120.0]), [10.0, 15.0, 20.0])

    def test_two_strikes(self):
        assert np.allclose(strike_spacings([50.0, 60.0]), [10.0, 10.0])

    def test_too_few(self):
        with pytest.raises(DomainError):
            strike_spacings([100.0])

    @given(
        st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=3, max_size=30, unique=True)
    )
    def test_interior_telescoping_identity(self, ks):
        ks = np.sort(np.array(ks))
        dk = strike_spacings(ks)
        interior = dk[1:-1].sum()
        expected = (ks[-1] + ks[-2] - ks[1] - ks[0]) / 2.0
        assert interior == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestCoverage:
    def test_all_observed(self):
        g = simple_grid()
        stats = coverage_stats([full_surface(g)])
        assert stats.coverage_min == 1.0 and stats.coverage_mean == 1.0
        assert not stats.flagged

    def test_threshold_inclusive(self):
        # 3 of 4 cells observed in a 2x2 window -> exactly 0.75, no flag
        g = MarketGrid(
            np.array([0.5, 1.0]),
            np.array([90.0, 100.0, 110.0, 120.0]),
            100.0,
            0.0,
        )
        mask = (np.array([True, True, True, False]), np.array([True, True, True, False]))
        calls = (np.array([1.0, 1, 1, np.nan]), np.array([1.0, 1, 1, np.nan]))
        s = PriceSurface(g, calls, calls, mask)
        stats = coverage_stats([s])
        assert stats.coverage_min == pytest.approx(0.75)
        assert stats.coverage_mean == pytest.approx(0.75)
        assert not stats.flagged

    def test_two_windows_flagged(self):
        g = simple_grid(strikes=(90.0, 100.0, 110.0, 120.0), mats=(1.0, 2.0))
        full = full_surface(g)
        half_mask = (np.array([True, True, False, False]), np.array([True, True, False, False]))
        calls = (np.array([1.0, 1, np.nan, np.nan]), np.array([1.0, 1, np.nan, np.nan]))
        half = PriceSurface(g, calls, calls, half_mask)
        stats = coverage_stats([half, full])
        assert stats.coverage_min == pytest.approx(0.5)
        assert stats.coverage_mean == pytest.approx(0.75)
        assert stats.flagged

    def test_flag_monotone_under_masking(self):
        g = simple_grid(strikes=tuple(float(k) for k in range(90, 110)), mats=(1.0, 2.0))
        rng = np.random.default_rng(3)
        n = 20
        mask = np.ones((2, n), dtype=bool)
        prev_flag = False
        for _ in range(12):
            # mask two more cells each round
            idx = rng.integers(0, 2), rng.integers(0, n)
            mask[idx] = False
            calls = tuple(np.where(mask[i], 1.0, np.nan) for i in range(2))
            masked = PriceSurface(g, calls, calls, tuple(mask[i].copy() for i in range(2)))
            flag = coverage_stats([masked]).flagged
            assert flag >= prev_flag  # masking more never clears the flag
            prev_flag = flag

    def test_empty_windows_rejected(self):
        with pytest.raises(DomainError):
            coverage_stats([])

    def test_invariant_enforced(self):
        with pytest.raises(DomainError):
            CoverageStats(0.9, 0.8, [0.9, 0.8])


class TestSurfaceCSV:
    def test_round_trip(self, tmp_path):
        g = simple_grid(rate=0.01, q=0.005)
        s = full_surface(g, value=2.5)
        s.calls[0][1] = np.nan
        s.mask[0][1] = False
        path = tmp_path / "surface.csv"
        write_surface_csv(s, path)
        back = read_surface_csv(path, spot=100.0, rate=0.01, dividend_yield=0.005)
        assert np.allclose(back.grid.maturities, g.maturities)
        assert np.allclose(back.grid.strikes, g.strikes)
        for ell in range(2):
            assert np.array_equal(back.mask[ell], s.mask[ell])
            obs = s.mask[ell]
            assert np.allclose(back.calls[ell][obs], s.calls[ell][obs])

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DomainError):
            read_surface_csv(path, spot=100.0, rate=0.0)

    def test_maturities_with_different_strike_sets_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "T,K,call,put,observed\n"
            "0.5,90,11,1,1\n0.5,100,4,4,1\n0.5,110,1,11,1\n"
            "1,90,12,2,1\n1,100,5,5,1\n1,120,1,20,1\n"
        )
        with pytest.raises(DomainError, match="strike set"):
            read_surface_csv(path, spot=100.0, rate=0.0)
        path.write_text(
            "T,K,call,put,observed\n"
            "0.5,90,11,1,1\n0.5,100,4,4,1\n0.5,110,1,11,1\n"
            "1,90,12,2,1\n1,100,5,5,1\n"
        )
        with pytest.raises(DomainError, match="strike set"):
            read_surface_csv(path, spot=100.0, rate=0.0)


class TestGridValidation:
    def test_decreasing_maturities_rejected(self):
        with pytest.raises(DomainError):
            MarketGrid(np.array([1.0, 0.5]), np.array([90.0, 100, 110]), 100.0, 0.0)

    def test_nonpositive_strikes_rejected(self):
        with pytest.raises(DomainError):
            MarketGrid(np.array([0.5, 1.0]), np.array([-1.0, 100, 110]), 100.0, 0.0)

    @pytest.mark.parametrize(
        "strikes",
        [
            np.array([[90.0, 100, 110], [90.0, 100, 110]]),
            (np.array([90.0, 100, 110]), np.array([90.0, 100])),
            np.array([90.0, 100]),
        ],
        ids=["2d", "ragged", "two_strikes"],
    )
    def test_one_strike_vector_of_at_least_three(self, strikes):
        with pytest.raises(DomainError):
            MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0)

    def test_surface_arrays_must_have_grid_shape(self):
        g = simple_grid()
        ok, ok_mask = np.ones((2, 3)), np.ones((2, 3), dtype=bool)
        for calls, mask in ((np.ones((2, 4)), ok_mask), (np.ones(6), ok_mask), (ok, np.ones((3, 3), dtype=bool))):
            with pytest.raises(DomainError, match="grid shape"):
                PriceSurface(g, calls, ok, mask)

    def test_non_finite_observed_cell_rejected(self):
        g = simple_grid()
        calls = np.array([[1.0, np.inf, 3.0], [1.0, 2.0, 3.0]])
        with pytest.raises(DomainError, match="finite"):
            PriceSurface.from_matrices(g, calls, np.ones((2, 3)))
        mask = np.ones((2, 3), dtype=bool)
        mask[0, 1] = False
        assert PriceSurface(g, calls, np.ones((2, 3)), mask).n_observed() == 5

    def test_masked_cells_never_enter_sums(self):
        g = simple_grid()
        calls = (np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, 3.0]))
        mask = (np.array([True, False, True]), np.array([True, True, True]))
        s = PriceSurface(g, calls, calls, mask)
        assert s.n_observed() == 5
        assert s.observed_fraction() == pytest.approx(5 / 6)
