import numpy as np
import pytest

from arbsurf.decoder import (
    ArbResiduals,
    DecoderParams,
    InvariantViolation,
    ProjectionFailure,
    arb_residual_arrays,
    arb_residual_backward,
    bl_density,
    decode_surface,
    icnn_backward,
    icnn_eval,
    icnn_forward,
    legendre_conjugate,
    noarb_project,
    pava,
    static_arb_residuals,
    strike_coordinate,
)
from arbsurf.grids import DomainError, MarketGrid, PriceSurface
from arbsurf.operator import LatentTrajectory

from .oracles import brute_force_projection, bs_call, bs_put, lognormal_density


def make_grid(L=3, M=9, spot=100.0, rate=0.01, q=0.0, k_lo=80.0, k_hi=120.0):
    mats = np.linspace(0.25, 1.0, L)
    strikes = np.linspace(k_lo, k_hi, M)
    return MarketGrid(mats, strikes, spot, rate, q)


def make_trajectory(L=3, p=2, rng=None):
    rng = rng or np.random.default_rng(0)
    states = rng.standard_normal((L + 1, 3))
    outputs = rng.standard_normal((L, p))
    return LatentTrajectory(states, outputs)


class TestIcnnEval:
    def test_affine_single_layer(self):
        params = DecoderParams(
            layer_weights_z=[np.array([[1.0]])],
            layer_weights_x=[np.zeros((1, 3))],
            biases=[np.array([4.0])],
            maturity_slope_raw=np.zeros(3),
        )
        for k in (-1.0, 0.0, 2.5):
            assert icnn_eval(params, k, np.zeros(2)) == pytest.approx(k + 4.0)

    def test_convexity_by_construction(self):
        rng = np.random.default_rng(7)
        ks = np.linspace(-1.0, 1.0, 400)
        for _ in range(25):
            params = DecoderParams.random(rng, context_dim=3, n_maturities=2, width=8, depth=2, scale=0.7)
            ctx = rng.standard_normal(3)
            phi, _ = icnn_forward(params, ks, np.tile(ctx, (len(ks), 1)))
            second = np.diff(phi, 2)
            assert second.min() >= -1e-8

    def test_zero_convex_weights_flat_in_k(self):
        rng = np.random.default_rng(3)
        params = DecoderParams.random(rng, context_dim=2, n_maturities=2, width=6, depth=1)
        for w in params.layer_weights_z:
            w[:] = 0.0
        for w in params.layer_weights_x:
            w[:, 0] = 0.0  # remove the strike column of the context path too
        ctx = rng.standard_normal(2)
        vals = [icnn_eval(params, k, ctx) for k in (-0.5, 0.0, 0.7)]
        assert np.allclose(vals, vals[0])

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(5)
        params = DecoderParams.random(rng, context_dim=2, n_maturities=2)
        params.layer_weights_z[1][0, 0] = -0.1
        with pytest.raises(InvariantViolation):
            icnn_eval(params, 0.0, np.zeros(2))

    def test_param_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = DecoderParams.random(rng, context_dim=2, n_maturities=2, width=5, depth=2, scale=0.5)
        k = np.array([0.3, -0.2])
        ctx = rng.standard_normal((2, 2))
        _, cache = icnn_forward(params, k, ctx)
        grads, _ = icnn_backward(params, cache, np.ones(2))
        step = 1e-5
        for name in ("layer_weights_z", "layer_weights_x", "biases"):
            arrs = getattr(params, name)
            for li, arr in enumerate(arrs):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up, _ = icnn_forward(params, k, ctx)
                    arr[idx] = orig - step
                    dn, _ = icnn_forward(params, k, ctx)
                    arr[idx] = orig
                    fd = (up.sum() - dn.sum()) / (2 * step)
                    an = grads[name][li][idx]
                    assert an == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestDecodeSurface:
    def test_zero_slopes_constant_in_maturity(self):
        rng = np.random.default_rng(1)
        grid = make_grid()
        traj = make_trajectory(rng=rng)
        params = DecoderParams.random(rng, context_dim=3, n_maturities=3, slope_raw=-40.0)
        surf = decode_surface(params, traj, grid)
        c = surf.calls_matrix()
        assert np.max(np.abs(c - c[0])) < 1e-12

    def test_increment_nonnegative(self):
        rng = np.random.default_rng(2)
        grid = make_grid()
        traj = make_trajectory(rng=rng)
        params = DecoderParams.random(rng, context_dim=3, n_maturities=3, slope_raw=0.5)
        c = decode_surface(params, traj, grid).calls_matrix()
        assert np.min(c[1:] - c[:-1]) >= -1e-12

    def test_parity_identity(self):
        rng = np.random.default_rng(3)
        grid = make_grid(rate=0.03, q=0.01)
        traj = make_trajectory(rng=rng)
        params = DecoderParams.random(rng, context_dim=3, n_maturities=3)
        surf = decode_surface(params, traj, grid)
        strikes = grid.strikes
        for ell, T in enumerate(grid.maturities):
            lhs = surf.calls[ell] - surf.puts[ell]
            rhs = grid.spot * np.exp(-grid.dividend_yield * T) - np.exp(-grid.rate * T) * strikes
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_feasible_by_construction_random_params(self):
        rng = np.random.default_rng(4)
        grid = make_grid(L=4, M=40)
        for _ in range(20):
            traj = make_trajectory(L=4, rng=rng)
            params = DecoderParams.random(
                rng, context_dim=3, n_maturities=4, scale=0.8, slope_raw=float(rng.normal())
            )
            res = static_arb_residuals(decode_surface(params, traj, grid))
            assert res.convexity.max(initial=0.0) < 1e-8
            assert res.calendar.max(initial=0.0) < 1e-8


class TestLegendre:
    def test_quadratic_conjugate(self):
        # closed form: (k^2/2)* = p^2/2
        for p in (-1.0, -0.3, 0.0, 0.8, 1.5):
            val = legendre_conjugate(lambda k: 0.5 * k * k, p, None, (-4.0, 4.0))
            assert val == pytest.approx(0.5 * p * p, abs=1e-6)

    def test_affine_conjugate(self):
        a, b = 1.3, -0.7
        val = legendre_conjugate(lambda k: a * k + b, a, None, (-2.0, 2.0))
        assert val == pytest.approx(-b, abs=1e-9)
        with pytest.warns(RuntimeWarning):
            legendre_conjugate(lambda k: a * k + b, a + 0.5, None, (-2.0, 2.0))

    def test_fenchel_young(self):
        rng = np.random.default_rng(9)
        params = DecoderParams.random(rng, context_dim=2, n_maturities=2, scale=0.6)
        ctx = rng.standard_normal(2)
        dom = (-3.0, 3.0)
        for _ in range(100):
            k = rng.uniform(-1.0, 1.0)
            p = rng.uniform(-1.5, 1.5)
            phi_k = icnn_eval(params, k, ctx)
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("ignore")
                conj = legendre_conjugate(params, p, ctx, dom)
            assert phi_k + conj >= p * k - 1e-8


class TestBlDensity:
    def test_piecewise_linear_zero_curvature(self):
        grid = make_grid(L=2, M=5, rate=0.0)
        strikes = grid.strikes
        calls = np.tile(100.0 - 0.5 * strikes, (2, 1))
        surf = PriceSurface.from_matrices(grid, calls, calls)
        assert np.allclose(bl_density(surf, 0), 0.0, atol=1e-12)

    def test_black_scholes_density(self):
        s0, r, q, sigma, t = 100.0, 0.01, 0.0, 0.2, 1.0
        strikes = np.linspace(40.0, 220.0, 361)
        grid = MarketGrid(np.array([t, t + 0.5]), strikes, s0, r, q)
        calls = np.vstack(
            [bs_call(s0, strikes, tt, r, q, sigma) for tt in grid.maturities]
        )
        surf = PriceSurface.from_matrices(grid, calls, calls)
        dens = bl_density(surf, 0)
        exact = lognormal_density(strikes[1:-1], s0, t, r, q, sigma)
        mode = np.argmax(exact)
        assert dens[mode] == pytest.approx(exact[mode], rel=1e-2)

    def test_convex_surface_nonnegative_density(self):
        rng = np.random.default_rng(12)
        grid = make_grid(L=3, M=30)
        traj = make_trajectory(rng=rng)
        params = DecoderParams.random(rng, context_dim=3, n_maturities=3)
        surf = decode_surface(params, traj, grid)
        for ell in range(3):
            assert bl_density(surf, ell).min() >= -1e-10

    def test_needs_three_strikes(self):
        grid = make_grid(L=2, M=3)
        calls = np.ones((2, 3))
        surf = PriceSurface.from_matrices(grid, calls, calls)
        bl_density(surf, 0)  # exactly three is fine
        with pytest.raises(DomainError):  # fewer never reach it: the grid refuses them
            make_grid(L=2, M=2)


class TestStaticArbResiduals:
    def test_black_scholes_clean(self):
        s0, r, q, sigma = 100.0, 0.02, 0.0, 0.2
        strikes = np.linspace(60.0, 150.0, 30)
        mats = np.array([0.25, 0.5, 1.0, 2.0])
        grid = MarketGrid(mats, strikes, s0, r, q)
        calls = np.vstack([bs_call(s0, strikes, t, r, q, sigma) for t in mats])
        puts = np.vstack([bs_put(s0, strikes, t, r, q, sigma) for t in mats])
        res = static_arb_residuals(PriceSurface.from_matrices(grid, calls, puts))
        assert res.flatten().max() <= 1e-10

    def test_monotonicity_residual_arithmetic(self):
        grid = make_grid(L=2, M=3, k_lo=90.0, k_hi=110.0, rate=0.0)
        calls = np.array([[5.0, 4.0, 5.0], [5.0, 4.0, 5.0]])
        surf = PriceSurface.from_matrices(grid, calls, calls)
        res = static_arb_residuals(surf)
        # +1 price rise over a strike gap of 10 -> slope violation 0.1
        assert res.monotonicity[0, 1] == pytest.approx(0.1)
        assert res.monotonicity[0, 0] == 0.0

    def test_no_violations_all_zero(self):
        grid = make_grid(L=2, M=4, rate=0.0)
        strikes = grid.strikes
        base = np.maximum(100.0 - strikes, 0.0) + 5.0
        calls = np.vstack([base, base + 1.0])
        res = static_arb_residuals(PriceSurface.from_matrices(grid, calls, calls))
        assert np.all(res.flatten() == 0.0)

    def test_flatten_shapes(self):
        grid = make_grid(L=3, M=5)
        calls = np.ones((3, 5))
        res = static_arb_residuals(PriceSurface.from_matrices(grid, calls, calls))
        assert isinstance(res, ArbResiduals)
        n = 3 * 4 + 3 * 3 + 2 * 5 + 3 * 5
        assert res.flatten().shape == (n,)

    @pytest.mark.parametrize("L", [1, 3])
    def test_backward_matches_finite_differences(self, L):
        rng = np.random.default_rng(L)
        strikes = np.sort(rng.uniform(0.5, 1.5, 6))
        calls = rng.uniform(-0.2, 1.2, (L, 6))  # some cells outside the [0, spot] bounds
        lam = rng.uniform(0.5, 2.0, arb_residual_arrays(calls, strikes, 1.0).flatten().size)

        def value(c):
            return 0.7 * lam @ arb_residual_arrays(c, strikes, 1.0).flatten()

        grad = arb_residual_backward(arb_residual_arrays(calls, strikes, 1.0), lam, calls, strikes, 1.0, 0.7)
        step = 1e-7
        for idx in np.ndindex(calls.shape):
            up, dn = calls.copy(), calls.copy()
            up[idx] += step
            dn[idx] -= step
            assert grad[idx] == pytest.approx((value(up) - value(dn)) / (2 * step), rel=1e-5, abs=1e-6), idx


class TestPava:
    def test_two_point_pool(self):
        assert np.allclose(pava(np.array([5.0, 3.0])), [4.0, 4.0])

    def test_sorted_unchanged(self):
        y = np.array([1.0, 2.0, 2.0, 5.0])
        assert np.array_equal(pava(y), y)

    def test_matches_small_qp(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            y = rng.standard_normal(6)
            out = pava(y)
            assert np.all(np.diff(out) >= -1e-12)
            # projection optimality: <y - out, z - out> <= 0 for feasible z
            for _ in range(20):
                z = np.sort(rng.standard_normal(6))
                assert (y - out) @ (z - out) <= 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal(15)
        once = pava(y)
        assert np.allclose(pava(once), once, atol=1e-12)


class TestNoArbProject:
    def make_surface(self, calls, strikes=None, rate=0.0):
        calls = np.asarray(calls, dtype=float)
        L, M = calls.shape
        if strikes is None:
            strikes = np.linspace(90.0, 110.0, M)
        mats = np.linspace(0.5, 0.5 * L, L)
        grid = MarketGrid(mats, strikes, 100.0, rate, 0.0)
        return PriceSurface.from_matrices(grid, calls, calls, require_nonnegative=False)

    def test_feasible_unchanged(self):
        calls = np.array([[10.0, 6.0, 4.0], [11.0, 7.0, 5.0]])
        surf = self.make_surface(calls)
        out, report = noarb_project(surf)
        assert np.allclose(out.calls_matrix(), calls, atol=1e-12)
        assert report["final_violation"] <= 1e-12

    def test_calendar_pooling(self):
        calls = np.array([[10.0, 5.0, 4.0], [10.0, 3.0, 4.0]])
        surf = self.make_surface(calls)
        out, _ = noarb_project(surf)
        # strike 1 violates the calendar: 5 then 3 pools to 4, 4
        assert out.calls_matrix()[:, 1] == pytest.approx([4.0, 4.0], abs=1e-7)

    def test_convexity_violation_matches_oracle(self):
        strikes = np.array([90.0, 100.0, 110.0])
        calls = np.array([[4.0, 10.0, 4.0]])
        # single-maturity grids are not allowed; duplicate the row
        calls = np.vstack([calls[0], calls[0] + 1.0])
        surf = self.make_surface(calls, strikes)
        out, _ = noarb_project(surf)
        oracle = brute_force_projection(calls, strikes)
        assert np.allclose(out.calls_matrix(), oracle, atol=1e-7)

    def test_adversarial_set_matches_oracle(self):
        rng = np.random.default_rng(13)
        strikes4 = np.array([90.0, 95.0, 105.0, 110.0])
        instances = [
            np.array([[4.0, 10.0, 9.0, 4.0], [5.0, 10.0, 9.0, 5.0]]),
            np.array([[10.0, 4.0, 10.0, 3.0], [9.0, 5.0, 9.0, 2.0], [8.0, 6.0, 8.0, 1.0]]),
        ]
        for _ in range(4):
            instances.append(rng.normal(5.0, 3.0, size=(3, 4)))
        for calls in instances:
            surf = self.make_surface(calls, strikes4)
            out, _ = noarb_project(surf)
            oracle = brute_force_projection(calls, strikes4)
            assert np.allclose(out.calls_matrix(), oracle, atol=1e-7), calls

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        calls = rng.normal(5.0, 2.0, size=(3, 5))
        surf = self.make_surface(calls)
        once, _ = noarb_project(surf)
        twice, _ = noarb_project(once)
        assert np.max(np.abs(twice.calls_matrix() - once.calls_matrix())) < 1e-8

    def test_post_projection_residuals_clean(self):
        rng = np.random.default_rng(15)
        calls = rng.normal(5.0, 2.0, size=(4, 6))
        out, _ = noarb_project(self.make_surface(calls))
        res = static_arb_residuals(out)
        assert res.convexity.max(initial=0.0) < 1e-8
        assert res.calendar.max(initial=0.0) < 1e-8

    def test_failure_carries_residual(self):
        calls = np.array([[10.0, 4.0, 10.0], [9.0, 5.0, 9.0]])
        surf = self.make_surface(calls)
        with pytest.raises(ProjectionFailure) as err:
            noarb_project(surf, tol=1e-16, max_rounds=1)
        assert err.value.final_violation >= 0.0


class TestStrikeCoordinate:
    def test_affine_in_strike(self):
        ks = np.array([80.0, 100.0, 125.0])
        out = strike_coordinate(ks, 100.0)
        assert np.allclose(out, [-0.2, 0.0, 0.25])


class TestBlDensityMass:
    def test_density_integrates_to_one(self):
        # wide-strike feasible surface: the implied density carries unit mass
        # up to tail truncation
        s0, r, sigma = 100.0, 0.01, 0.2
        strikes = np.linspace(5.0, 600.0, 1200)
        mats = np.array([0.5, 1.0])
        grid = MarketGrid(mats, strikes, s0, r, 0.0)
        from .oracles import bs_call

        calls = np.vstack([bs_call(s0, strikes, t, r, 0.0, sigma) for t in mats])
        surf = PriceSurface.from_matrices(grid, calls, calls)
        from arbsurf.grids import strike_spacings

        dens = bl_density(surf, 1)
        dk = strike_spacings(strikes)[1:-1]
        mass = float(dens @ dk)
        assert mass == pytest.approx(1.0, abs=5e-3)


class TestProjectionScoreLink:
    def test_projection_restores_score(self):
        from arbsurf.metrics import nas

        rng = np.random.default_rng(77)
        grid = make_grid(L=3, M=8, rate=0.0)
        calls = np.abs(rng.normal(5.0, 2.0, size=(3, 8)))
        surf = PriceSurface.from_matrices(grid, calls, calls, require_nonnegative=False)
        projected, report = noarb_project(surf, tol=1e-8)
        assert report["final_violation"] < 1e-8
        # curvature and calendar terms vanish post-projection; only strike
        # monotonicity can keep the score below one
        res = static_arb_residuals(projected)
        assert res.convexity.max(initial=0.0) < 1e-8
        assert res.calendar.max(initial=0.0) < 1e-8
        assert nas(projected) > nas(surf)
