import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arbsurf.grids import DomainError, MarketGrid, PriceSurface
from arbsurf.mathutil import inv_softplus, softplus
from arbsurf.operator import (
    LatentTrajectory,
    OperatorParams,
    green_kernel,
    green_kernels,
    green_sum,
    martingale_residual,
    measure_gate,
    price_functional,
    representer_fallback,
    scan_adjoint,
    scan_forward,
    scan_recursion,
)
from arbsurf.qalign import GuardConfig, GuardLog, spec_guard_project


def make_params(L=4, m=3, d=3, p=2, M=5, rng=None, a_scale=0.4):
    rng = rng or np.random.default_rng(0)
    return OperatorParams(
        rank=m,
        transitions=rng.standard_normal((L, m, m)) * a_scale,
        injections=rng.standard_normal((L, m, d)) * 0.5,
        readouts=rng.standard_normal((L, p, m)) * 0.5,
        gate_raw=rng.standard_normal((L, M)),
    )


def uniform_grid(L=4, M=5, spot=100.0, rate=0.0, q=0.0):
    mats = np.linspace(0.25, 1.0, L)
    strikes = np.linspace(80.0, 120.0, M)
    return MarketGrid(mats, strikes, spot, rate, q)


class TestScanForward:
    def test_memoryless(self):
        L, m = 4, 3
        params = OperatorParams(
            rank=m,
            transitions=np.zeros((L, m, m)),
            injections=np.tile(np.eye(m), (L, 1, 1)),
            readouts=np.tile(np.eye(m), (L, 1, 1)),
            gate_raw=np.zeros((L, 5)),
        )
        e1 = np.zeros(m)
        e1[0] = 1.0
        traj = scan_forward(params, np.tile(e1, (L, 1)))
        for ell in range(L):
            assert np.allclose(traj.states[ell + 1], e1)

    def test_geometric_decay(self):
        L, m = 5, 2
        params = OperatorParams(
            rank=m,
            transitions=np.tile(0.5 * np.eye(m), (L, 1, 1)),
            injections=np.tile(np.eye(m), (L, 1, 1)),
            readouts=np.tile(np.eye(m), (L, 1, 1)),
            gate_raw=np.zeros((L, 5)),
        )
        v = np.array([2.0, -1.0])
        traj = scan_forward(params, np.zeros((L, m)), h0=v)
        for ell in range(L + 1):
            assert np.allclose(traj.states[ell], 0.5**ell * v)

    def test_matches_green_expansion(self):
        rng = np.random.default_rng(42)
        params = make_params(L=4, m=3, rng=rng)
        u = rng.standard_normal((4, 3))
        traj = scan_forward(params, u)
        for ell in range(4):
            expected = sum(green_kernel(params, ell, s) @ u[s] for s in range(ell + 1))
            state = traj.states[ell + 1]
            assert np.allclose(state, expected, rtol=1e-12, atol=1e-12)
            assert np.allclose(traj.outputs[ell], params.readouts[ell] @ state)

    def test_dimension_mismatch(self):
        params = make_params()
        with pytest.raises(DomainError):
            scan_forward(params, np.zeros((4, 7)))
        with pytest.raises(DomainError):
            scan_forward(params, np.full((4, 3), np.nan))

    def test_causality_future_inputs_ignored(self):
        rng = np.random.default_rng(1)
        params = make_params(L=5, rng=rng)
        u = rng.standard_normal((5, 3))
        base = scan_forward(params, u)
        u2 = u.copy()
        u2[4] += 10.0  # perturb strictly after ell = 2
        pert = scan_forward(params, u2)
        assert np.allclose(base.outputs[2], pert.outputs[2])
        assert np.allclose(base.outputs[3], pert.outputs[3])
        assert not np.allclose(base.outputs[4], pert.outputs[4])


class TestScanKernels:
    """The batched scan and its adjoint take the same products as the loop
    over maturities, so they agree bit for bit, for one window's (L, d)
    inputs and for a stack (W, L, d) of windows run side by side."""

    @staticmethod
    def _shapes(seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            L, m, d, p = (int(v) for v in rng.integers(1, 13, size=4))
            W = int(rng.integers(1, 4))
            yield (rng.standard_normal((L, m, m)), rng.standard_normal((L, m, d)),
                   rng.standard_normal((L, p, m)), rng.standard_normal((W, L, d)),
                   rng.standard_normal((W, L, p)), rng.standard_normal(m))

    @staticmethod
    def _assert_windows_equal(stacked, per_window, want):
        """stacked: the outputs of one call on (W, ...) inputs; per_window and
        want: per window, the outputs of the kernel and of its loop oracle."""
        for w, (single, oracle) in enumerate(zip(per_window, want)):
            for got in (single, [a[w] for a in stacked]):
                for g, x in zip(got, oracle):
                    assert g.shape == x.shape and np.array_equal(g, x)

    def test_recursion_equals_loop(self):
        from .oracles import loop_scan_recursion

        for trans, inj, read, u, _, h0 in self._shapes(23):
            for start in (None, h0):
                self._assert_windows_equal(
                    scan_recursion(trans, inj, read, u, start),
                    [scan_recursion(trans, inj, read, u_w, start) for u_w in u],
                    [loop_scan_recursion(trans, inj, read, u_w, start) for u_w in u])

    def test_adjoint_equals_loop(self):
        from .oracles import loop_scan_adjoint

        for trans, inj, read, _, dy, _ in self._shapes(29):
            self._assert_windows_equal(
                scan_adjoint(trans, inj, read, dy),
                [scan_adjoint(trans, inj, read, dy_w) for dy_w in dy],
                [loop_scan_adjoint(trans, inj, read, dy_w) for dy_w in dy])

    def test_adjoint_is_the_transpose(self):
        # <dy, outputs(u)> = <du, u> at h0 = 0: the adjoint of a linear map
        for trans, inj, read, u, dy, _ in self._shapes(31):
            _, y = scan_recursion(trans, inj, read, u)
            _, du = scan_adjoint(trans, inj, read, dy)
            assert float((dy * y).sum()) == pytest.approx(float((du * u).sum()), rel=1e-9, abs=1e-9)


class TestGreenKernel:
    def test_identity_transitions(self):
        L, m = 4, 3
        rng = np.random.default_rng(3)
        inj = rng.standard_normal((L, m, m))
        params = OperatorParams(
            rank=m,
            transitions=np.tile(np.eye(m), (L, 1, 1)),
            injections=inj,
            readouts=np.tile(np.eye(m), (L, 1, 1)),
            gate_raw=np.zeros((L, 5)),
        )
        for s in range(3):
            assert np.allclose(green_kernel(params, 3, s), inj[s])

    def test_zero_transitions(self):
        params = make_params()
        params.transitions[:] = 0.0
        assert np.allclose(green_kernel(params, 2, 0), 0.0)
        assert np.allclose(green_kernel(params, 2, 2), params.injections[2])

    def test_causality_error(self):
        params = make_params()
        with pytest.raises(DomainError):
            green_kernel(params, 1, 2)

    def test_stack_equals_loop_product(self):
        # the batched recurrence multiplies in the loop's order, so the two
        # agree bit for bit; the stack is zero above the diagonal (causal)
        from .oracles import loop_green_kernel

        rng = np.random.default_rng(17)
        for _ in range(50):
            L, m, d = rng.integers(1, 13), rng.integers(1, 9), rng.integers(1, 9)
            trans, inj = rng.standard_normal((L, m, m)), rng.standard_normal((L, m, d))
            G = green_kernels(trans, inj)
            assert G.shape == (L, L, m, d)
            for ell in range(L):
                for s in range(L):
                    expected = loop_green_kernel(trans, inj, ell, s) if s <= ell else np.zeros((m, d))
                    assert np.array_equal(G[ell, s], expected)

    def test_one_step_contraction(self):
        # transitions with spectral norm <= 1 - eps contract state gaps
        rng = np.random.default_rng(9)
        eps = 0.2
        params = make_params(L=4, rng=rng)
        for i in range(4):
            a = params.transitions[i]
            norm = np.linalg.svd(a, compute_uv=False)[0]
            params.transitions[i] = a / norm * (1 - eps)
        u = rng.standard_normal((4, 3))
        h0a = rng.standard_normal(3)
        h0b = rng.standard_normal(3)
        ta = scan_forward(params, u, h0a)
        tb = scan_forward(params, u, h0b)
        for ell in range(4):
            gap_next = np.linalg.norm(ta.states[ell + 1] - tb.states[ell + 1])
            gap = np.linalg.norm(ta.states[ell] - tb.states[ell])
            assert gap_next <= (1 - eps) * gap + 1e-12


class TestGreenSum:
    def test_zero_transitions(self):
        # with zero transitions every cross-maturity kernel vanishes, so the
        # per-maturity sum reduces to the injection norm at that maturity
        params = make_params()
        params.transitions[:] = 0.0
        for ell in range(4):
            expected = np.linalg.svd(params.injections[ell], compute_uv=False)[0]
            assert green_sum(params, ell) == pytest.approx(expected, rel=1e-8)

    def test_geometric_series(self):
        L, m, alpha = 40, 3, 0.6
        params = OperatorParams(
            rank=m,
            transitions=np.tile(alpha * np.eye(m), (L, 1, 1)),
            injections=np.tile(np.eye(m), (L, 1, 1)),
            readouts=np.tile(np.eye(m), (L, 1, 1)),
            gate_raw=np.zeros((L, 5)),
        )
        total = green_sum(params, L - 1)
        limit = 1.0 / (1.0 - alpha)
        tail = alpha**L / (1.0 - alpha)
        assert abs(total - limit) <= tail + 1e-9

    def test_post_guard_finite_and_monotone_in_margin(self):
        rng = np.random.default_rng(31)
        base = make_params(L=6, m=3, rng=rng, a_scale=3.0)
        dts = np.full(6, 0.5)
        sums = []
        for eps in (0.05, 0.2, 0.5):
            params = make_params(L=6, m=3, rng=np.random.default_rng(31), a_scale=3.0)
            cfg = GuardConfig(epsilon=eps, power_iters=300)
            log = GuardLog()
            for i in range(6):
                params.transitions[i] = spec_guard_project(params.transitions[i], dts[i], cfg, log)
            s = [green_sum(params, ell) for ell in range(6)]
            assert np.all(np.isfinite(s))
            sums.append(max(s))
        assert sums[0] >= sums[1] >= sums[2]
        del base


class TestMeasureGate:
    def test_uniform_gate(self):
        grid = uniform_grid()
        params = make_params(L=4, M=5)
        params.gate_raw[:] = 0.0
        w = measure_gate(params, grid)
        # flat pre-activation on a uniform grid: w is constant = 1 / sum dK,
        # with spacings (10, 10, 10, 10, 10) for linspace(80, 120, 5)
        assert np.allclose(w, 1.0 / 50.0)

    def test_dominant_cell(self):
        grid = uniform_grid()
        params = make_params(L=4, M=5)
        params.gate_raw[:] = -20.0
        params.gate_raw[:, 2] = 20.0
        w = measure_gate(params, grid)
        # softplus arithmetic: mass concentrates at the dominant cell
        dk = 10.0
        assert np.allclose(w[:, 2], 1.0 / dk, rtol=1e-6)
        assert np.all(w[:, [0, 1, 3, 4]] < 1e-8)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_normalization_exact(self, seed):
        rng = np.random.default_rng(seed)
        grid = uniform_grid()
        params = make_params(L=4, M=5, rng=rng)
        params.gate_raw[:] = rng.standard_normal((4, 5)) * 3.0
        w = measure_gate(params, grid)
        from arbsurf.grids import strike_spacings

        dk = strike_spacings(grid.strikes)
        assert np.allclose(w @ dk, 1.0, atol=1e-12)

    def test_degenerate_gate(self):
        grid = uniform_grid()
        params = make_params(L=4, M=5)
        params.gate_raw[:] = -800.0  # softplus underflows to zero
        with pytest.raises(DomainError):
            measure_gate(params, grid)


class TestPriceFunctional:
    def test_unit_payoff(self):
        grid = uniform_grid()
        params = make_params(L=4, M=5)
        w = measure_gate(params, grid)
        assert price_functional(w, np.ones(5), grid, 1) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_payoff(self):
        grid = uniform_grid()
        params = make_params(L=4, M=5)
        w = measure_gate(params, grid)
        from arbsurf.grids import strike_spacings

        dk = strike_spacings(grid.strikes)
        phi = np.zeros(5)
        phi[3] = 1.0
        assert price_functional(w, phi, grid, 0) == pytest.approx(w[0, 3] * dk[3], rel=1e-12)

    def test_lognormal_mean(self):
        # discretized lognormal gate reproduces the closed-form mean
        mu, sig = np.log(100.0), 0.2
        strikes = np.linspace(30.0, 300.0, 800)
        L = 2
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        dens = np.exp(-((np.log(strikes) - mu) ** 2) / (2 * sig**2)) / (
            strikes * sig * np.sqrt(2 * np.pi)
        )
        gate_raw = np.tile(inv_softplus(np.maximum(dens, 1e-300)), (L, 1))
        params = OperatorParams(
            rank=1,
            transitions=np.zeros((L, 1, 1)),
            injections=np.zeros((L, 1, 1)),
            readouts=np.zeros((L, 1, 1)),
            gate_raw=gate_raw,
        )
        w = measure_gate(params, grid)
        mean = price_functional(w, strikes, grid, 0)
        exact = np.exp(mu + sig**2 / 2)
        assert mean == pytest.approx(exact, rel=2e-3)


class TestMartingaleResidual:
    def test_point_mass_at_forward(self):
        grid = uniform_grid(spot=100.0, rate=0.0)
        params = make_params(L=4, M=5)
        params.gate_raw[:] = -30.0
        params.gate_raw[:, 2] = 30.0  # strike 100 = forward
        w = measure_gate(params, grid)
        assert martingale_residual(w, grid, 0) == pytest.approx(0.0, abs=1e-10)

    def test_point_mass_off_forward(self):
        strikes = np.array([55.0, 100.0, 110.0])
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        params = make_params(L=2, M=3)
        params.gate_raw[:] = -40.0
        params.gate_raw[:, 2] = 40.0  # mass at 110 = 1.1 * forward
        w = measure_gate(params, grid)
        assert martingale_residual(w, grid, 0) == pytest.approx(0.1, abs=1e-8)

    def test_centered_gate_zero(self):
        # symmetric density around the forward on a symmetric grid
        strikes = np.linspace(60.0, 140.0, 81)
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        dens = np.exp(-((strikes - 100.0) ** 2) / (2 * 15.0**2))
        params = OperatorParams(
            rank=1,
            transitions=np.zeros((2, 1, 1)),
            injections=np.zeros((2, 1, 1)),
            readouts=np.zeros((2, 1, 1)),
            gate_raw=np.tile(inv_softplus(dens), (2, 1)),
        )
        w = measure_gate(params, grid)
        assert martingale_residual(w, grid, 1) == pytest.approx(0.0, abs=1e-10)


class TestRepresenterFallback:
    def test_no_masked_cells(self):
        grid = uniform_grid()
        calls = tuple(np.linspace(20, 1, 5) for _ in range(4))
        mask = tuple(np.ones(5, dtype=bool) for _ in range(4))
        s = PriceSurface(grid, calls, calls, mask)
        filled, record = representer_fallback(s, make_params(L=4, M=5))
        assert record is None
        assert filled is s

    def test_symmetric_equal_neighbors(self):
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        calls = (np.array([7.0, np.nan, 7.0]), np.array([7.0, 7.0, 7.0]))
        mask = (np.array([True, False, True]), np.array([True, True, True]))
        s = PriceSurface(grid, calls, calls, mask)
        filled, record = representer_fallback(s, make_params(L=2, M=3), step=5)
        assert filled.calls[0][1] == pytest.approx(7.0, rel=1e-12)
        assert record.enter_representer_at_step == 5
        assert record.coverage_at_trigger == pytest.approx(5 / 6)

    def test_symmetric_weights_average(self):
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        calls = (np.array([10.0, np.nan, 20.0]), np.array([10.0, 15.0, 20.0]))
        mask = (np.array([True, False, True]), np.array([True, True, True]))
        s = PriceSurface(grid, calls, calls, mask)
        filled, _ = representer_fallback(s, make_params(L=2, M=3))
        assert filled.calls[0][1] == pytest.approx(15.0, rel=1e-10)

    def test_empty_row_unrecoverable(self):
        strikes = np.array([90.0, 100.0, 110.0])
        grid = MarketGrid(np.array([0.5, 1.0]), strikes, 100.0, 0.0, 0.0)
        calls = (np.full(3, np.nan), np.array([10.0, 15.0, 20.0]))
        mask = (np.zeros(3, dtype=bool), np.ones(3, dtype=bool))
        s = PriceSurface(grid, calls, calls, mask)
        with pytest.raises(DomainError):
            representer_fallback(s, make_params(L=2, M=3))


class TestTrajectoryValidation:
    def test_state_output_length(self):
        with pytest.raises(DomainError):
            LatentTrajectory(np.zeros((3, 2)), np.zeros((3, 2)))
