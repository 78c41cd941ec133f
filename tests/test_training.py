import multiprocessing
import os
import signal
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from arbsurf import training
from arbsurf.decoder import decode_surface
from arbsurf.generator import GeneratorConfig, make_panel
from arbsurf.grids import DomainError
from arbsurf.operator import measure_gate, scan_forward
from arbsurf.training import (
    BETA_NOV,
    GAMMA,
    XI,
    FoldData,
    SaddleState,
    TrainingConfig,
    TrainingDivergence,
    _extragradient,
    _nonnegative,
    _saddle_gap,
    apply_qalign,
    build_batch,
    decode_window,
    dual_gradient,
    empirical_gap_from_state,
    extragradient_step,
    init_state,
    load_checkpoint,
    model_forward,
    primal_gradient,
    ratio_log,
    save_checkpoint,
    stop_test,
    to_decoder_params,
    to_operator_params,
    train,
)


def tiny_panel(seed=3, **kw):
    base = dict(
        n_paths=800,
        steps_per_year=60,
        n_maturities=3,
        n_strikes=5,
        maturity_range=(0.25, 0.75),
        seed=seed,
        noise_scale=0.02,
        liq_a=0.05,
    )
    base.update(kw)
    cfg = GeneratorConfig(**base)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_panel(cfg, 0)


def tiny_cfg(**kw):
    base = dict(rank=2, feature_bins=3, readout_dim=2, width=4, seed=5)
    base.update(kw)
    return TrainingConfig(**base)


@pytest.fixture(autouse=True)
def three_slices(monkeypatch):
    """The tiny runs sample three maturities per step (a forked gap worker
    inherits the patched constant)."""
    monkeypatch.setattr(training, "N_SLICES", 3)


def loose_stop(monkeypatch, patience):
    """Stop thresholds so loose that the rule holds after `patience` pairs."""
    monkeypatch.setattr(training, "PATIENCE", patience)
    monkeypatch.setattr(training, "DELTA_GAP_TOL", 1e6)
    monkeypatch.setattr(training, "DUAL_RESIDUAL_EPS", 1e6)


def tiny_state(cfg=None, panel=None):
    cfg = cfg or tiny_cfg()
    panel = panel or tiny_panel()
    batch = build_batch([panel], cfg)
    return cfg, batch, init_state(cfg, batch)


class TestBuildBatch:
    def test_windows_on_different_strikes_rejected(self):
        # same maturities and strike count, different strike vector
        panels = [tiny_panel(seed=3), tiny_panel(seed=4, log_moneyness_range=(-0.1, 0.1))]
        with pytest.raises(DomainError, match="share the grid"):
            build_batch(panels, tiny_cfg())


class TestWindowBatch:
    """A fold's training windows run as one batch on a leading window axis:
    no window's features or scan depend on the others, its decode only in
    the last bits, and one network call decodes them all."""

    SMOKE_SHAPE = dict(panel=dict(n_maturities=6, n_strikes=11),
                       cfg=dict(rank=4, width=8, feature_bins=6))

    @staticmethod
    def _fold(n_windows, panel=None, cfg=None):
        cfg = tiny_cfg(**(cfg or {}))
        panels = [tiny_panel(seed=3 + i, **(panel or {})) for i in range(n_windows)]
        batch = build_batch(panels, cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(0)
        for _ in range(3):
            extragradient_step(state, batch, cfg, rng)
        return cfg, panels, batch, state

    @pytest.mark.parametrize("shape", [{}, SMOKE_SHAPE], ids=["tiny", "smoke"])
    def test_each_window_decodes_as_its_own_batch(self, shape):
        cfg, panels, batch, state = self._fold(2, **shape)
        fw = model_forward(state.primal, state.duals, batch, cfg)
        for w, panel in enumerate(panels):
            one = model_forward(state.primal, state.duals, build_batch([panel], cfg), cfg)
            assert np.array_equal(fw.u[w], one.u[0]) and np.array_equal(fw.hs[w], one.hs[0])
            # the network's width-1 output layer is a BLAS matrix-vector
            # product whose remainder rows round by their offset in the call,
            # so a window's potentials may move in the last bits with its rows'
            # position in the stack
            np.testing.assert_array_max_ulp(fw.cnorm[w], one.cnorm[0], maxulp=4)

    def test_one_network_call_per_forward(self, monkeypatch):
        import arbsurf.decoder as decoder

        cfg, _, batch, state = self._fold(2)
        rows = {"forward": [], "backward": []}
        forward, backward = decoder.icnn_forward, decoder.icnn_backward

        def counted_forward(params, k, context):
            rows["forward"].append(len(k))
            return forward(params, k, context)

        def counted_backward(params, cache, dphi, **kw):
            rows["backward"].append(len(dphi))
            return backward(params, cache, dphi, **kw)

        monkeypatch.setattr(decoder, "icnn_forward", counted_forward)
        monkeypatch.setattr(decoder, "icnn_backward", counted_backward)
        W, L, M = batch.cq.shape
        fw = model_forward(state.primal, state.duals, batch, cfg)
        assert rows["forward"] == [M + W * L * M]  # the shared base rows once, then every window
        primal_gradient(state.primal, state.duals, batch, cfg, fw)
        assert rows["backward"] == [W * L * M, M]


class TestSaddleObjective:
    def test_perfect_surface_zero_duals_zero_mse(self):
        # force the quoted surface to equal the decoded one: zero loss
        cfg, batch, state = tiny_state()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        batch.cq = fw.cnorm.copy()
        batch.mask = np.ones_like(batch.mask, dtype=bool)
        batch.n_obs = int(batch.mask.sum())
        fw2 = model_forward(state.primal, state.duals, batch, cfg)
        assert fw2.mse == pytest.approx(0.0, abs=1e-24)
        # duals are zero at init, so only the roughness penalty remains
        assert fw2.value == pytest.approx(BETA_NOV * np.mean(fw2.mres[fw2.slices] ** 2), rel=1e-12)

    def test_unit_residual_with_dual_two(self):
        cfg, batch, state = tiny_state()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        # plant a dual of 2 on one replication constraint: the term adds
        # exactly 2 * xi * residual
        state.duals["vix"][1] = 2.0
        fw2 = model_forward(state.primal, state.duals, batch, cfg)
        assert fw2.value - fw.value == pytest.approx(XI * 2.0 * fw.r_vix[1], rel=1e-12)

    def test_term_by_term_oracle(self):
        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(1)
        state.duals = {k: np.abs(rng.standard_normal(v.shape)) for k, v in state.duals.items()}
        slices = np.array([0, 2])
        fw = model_forward(state.primal, state.duals, batch, cfg, slices)
        expected = (
            fw.mse
            + float(state.duals["na"] @ fw.r_na)
            + GAMMA * float(state.duals["mart"][slices] @ fw.mres[slices])
            + XI * float(state.duals["vix"] @ fw.r_vix)
            + BETA_NOV * float(np.mean(fw.mres[slices] ** 2))
        )
        assert fw.value == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def _setup(self, n_windows=1, gate_enabled=True):
        cfg = tiny_cfg(gate_enabled=gate_enabled)
        batch = build_batch([tiny_panel(seed=3 + i) for i in range(n_windows)], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(0)
        state.duals = {k: np.abs(rng.standard_normal(v.shape)) for k, v in state.duals.items()}
        for k in state.primal:
            state.primal[k] = state.primal[k] + rng.standard_normal(state.primal[k].shape) * 0.05
        for k in list(state.primal):
            if k.startswith("wz"):
                state.primal[k] = np.abs(state.primal[k]) + 0.01
        return cfg, batch, state

    @pytest.mark.parametrize("gate_enabled", [True, False])
    @pytest.mark.parametrize("n_windows", [1, 2])
    def test_primal_gradient_matches_finite_differences(self, n_windows, gate_enabled):
        cfg, batch, state = self._setup(n_windows, gate_enabled)
        slices = np.array([0, 2])
        fw = model_forward(state.primal, state.duals, batch, cfg, slices)
        g = primal_gradient(state.primal, state.duals, batch, cfg, fw)
        step = 1e-5
        for name in sorted(state.primal):
            arr = state.primal[name]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = model_forward(state.primal, state.duals, batch, cfg, slices).value
                arr[idx] = orig - step
                dn = model_forward(state.primal, state.duals, batch, cfg, slices).value
                arr[idx] = orig
                fd = (up - dn) / (2 * step)
                an = g[name][idx]
                if abs(fd) > 1e-4:
                    assert an == pytest.approx(fd, rel=1e-5), (name, idx)
                else:
                    assert an == pytest.approx(fd, abs=1e-7), (name, idx)

    def test_dual_gradient_equals_residuals(self):
        cfg, batch, state = self._setup()
        slices = np.array([1])
        fw = model_forward(state.primal, state.duals, batch, cfg, slices)
        g = dual_gradient(fw)
        assert np.array_equal(g["na"], fw.r_na)
        assert g["mart"][1] == GAMMA * fw.mres[1]
        assert g["mart"][0] == 0.0  # unsampled slice
        assert np.allclose(g["vix"], XI * fw.r_vix)

    def test_zero_residual_zero_dual_gradient(self):
        cfg, batch, state = self._setup()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        fw.r_na[:] = 0.0
        fw.mres[:] = 0.0
        fw.r_vix[:] = 0.0
        g = dual_gradient(fw)
        assert all(np.all(v == 0.0) for v in g.values())


def unprojected(point):
    return point


def count_calls(monkeypatch, *names):
    """Wrap each named function of `arbsurf.training` to count its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
    return calls


class TestExtragradient:
    def test_bilinear_hand_values(self):
        # L(x, y) = x * y from (1, 1), eta = 0.1, through the package's core:
        # half point (0.9, 1.1); full step (1 - 0.1*1.1, 1 + 0.1*0.9)
        seen = []

        def oracle(x, y):  # (dL/dx, dL/dy)
            seen.append((float(x["z"]), float(y["z"])))
            return {"z": y["z"]}, {"z": x["z"]}, len(seen)

        x1, y1, aux = _extragradient({"z": np.array(1.0)}, {"z": np.array(1.0)}, oracle,
                                     unprojected, unprojected, 0.1, 0.1)
        assert seen == [(1.0, 1.0), (0.9, 1.1)]
        assert aux == 1  # the oracle's aux at the starting point
        assert float(x1["z"]) == pytest.approx(0.89)
        assert float(y1["z"]) == pytest.approx(1.09)

    def test_per_block_dual_steps_and_projections(self):
        # each dual block moves by its own step, then both points are projected
        def oracle(x, y):
            return {"p": np.array([1.0])}, {"a": np.array([-1.0]), "b": np.array([1.0])}, None

        x1, y1, _ = _extragradient({"p": np.array([0.0])}, {"a": np.array([0.5]), "b": np.array([0.5])},
                                   oracle, lambda x: {"p": np.maximum(x["p"], -0.05)}, _nonnegative,
                                   0.1, {"a": 1.0, "b": 0.25})
        assert x1["p"][0] == -0.05
        assert y1["a"][0] == 0.0 and y1["b"][0] == 0.75

    def test_two_forwards_and_reverse_passes_per_step(self, monkeypatch):
        cfg, batch, state = tiny_state()
        calls = count_calls(monkeypatch, "model_forward", "primal_gradient")
        extragradient_step(state, batch, cfg, np.random.default_rng(1))
        assert calls == {"model_forward": 2, "primal_gradient": 2}

    def test_duals_stay_nonnegative(self):
        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(2)
        for _ in range(5):
            extragradient_step(state, batch, cfg, rng)
            for v in state.duals.values():
                assert np.all(v >= 0.0)

    def test_guard_counters_monotone(self):
        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(3)
        hits, dist = [], []
        for _ in range(4):
            extragradient_step(state, batch, cfg, rng)
            hits.append(state.guard.spec_guard_hits)
            dist.append(state.guard.projection_distance)
        assert all(h2 >= h1 for h1, h2 in zip(hits, hits[1:]))
        assert all(d2 >= d1 - 1e-15 for d1, d2 in zip(dist, dist[1:]))

    def test_cfl_safe_after_every_step(self):
        from .oracles import rho_dt

        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(4)
        for _ in range(5):
            extragradient_step(state, batch, cfg, rng)
            for i in range(batch.n_maturities):
                ind = rho_dt(state.primal["transitions"][i], float(batch.dts[i]))
                assert ind <= (1 - cfg.guard.epsilon) * (1 + 1e-9)

    def test_guard_catches_non_normal_near_threshold_stack(self):
        # three eigenvalues of modulus one (e^{+-i} and -1) behind a non-normal
        # similarity: a two-vector Krylov power estimate reads about 0.64 of
        # the true radius here, which would pass rho*dt = 1.2 as 0.77 < 0.9
        from arbsurf.qalign import GuardLog

        cfg = tiny_cfg(rank=4)
        panel = tiny_panel()
        batch = build_batch([panel], cfg)
        state = init_state(cfg, batch)
        block = np.zeros((4, 4))
        block[:2, :2] = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
        block[2, 2], block[3, 3] = -1.0, 0.5
        sim = np.eye(4) + 0.5 * np.triu(np.ones((4, 4)), 1)
        a = sim @ block @ np.linalg.inv(sim)
        assert np.max(np.abs(np.linalg.eigvals(a))) == pytest.approx(1.0, rel=1e-12)
        for i, dt in enumerate(batch.dts):
            state.primal["transitions"][i] = (1.2 / dt) * a
        state.guard = GuardLog()
        bound = (1 - cfg.guard.epsilon) * (1 + 1e-9)
        rng = np.random.default_rng(6)
        for _ in range(5):
            extragradient_step(state, batch, cfg, rng)
            for i, dt in enumerate(batch.dts):
                rho = np.max(np.abs(np.linalg.eigvals(state.primal["transitions"][i])))
                assert rho * dt <= bound
        assert state.guard.spec_guard_hits >= batch.n_maturities
        assert state.guard.max_rho_dt <= bound

    def test_convex_weights_nonnegative_after_steps(self):
        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(5)
        for _ in range(5):
            extragradient_step(state, batch, cfg, rng)
        to_decoder_params(state.primal).validate_nonnegative()


class TestSolverCore:
    """The model-free solver on `oracles.QuadraticGame`, against its closed
    forms: the extragradient step is the linear map I - eta M + eta^2 M^2 on
    the distance from the saddle, and k gradient steps of the gap estimator
    are linear recursions."""

    def test_contracts_at_spectral_radius(self):
        # a = b = c = 1, eta = 0.1: M = [[1, 1], [-1, 1]] is normal, so every
        # step shrinks the distance to the saddle (0, 0) by the same factor
        from .oracles import QuadraticGame

        game, eta = QuadraticGame(1.0, 1.0, 1.0), 0.1
        rho = max(abs(np.linalg.eigvals(game.step_matrix(eta))))
        assert rho == pytest.approx(np.hypot(0.9, 0.08), rel=1e-14)  # 0.903549...
        x, y = {"v": np.array([1.0])}, {"v": np.array([1.0])}
        norms = [np.hypot(1.0, 1.0)]
        for _ in range(50):
            x, y, _ = _extragradient(x, y, game.oracle, unprojected, unprojected, eta, eta)
            norms.append(np.hypot(x["v"][0], y["v"][0]))
        assert np.allclose(np.array(norms[1:]) / norms[:-1], rho, rtol=1e-12, atol=0.0)

    def test_iterates_follow_step_matrix(self):
        # a non-normal game with its saddle away from the origin: after n steps
        # the distance from the saddle is T^n times the first one, and it
        # decays at rho(T) per step
        from .oracles import QuadraticGame

        rng = np.random.default_rng(0)
        game = QuadraticGame(1.5, rng.standard_normal((2, 3)), 0.5,
                             p=rng.standard_normal(2), q=rng.standard_normal(3))
        eta = 0.1
        T = game.step_matrix(eta)
        rho = max(abs(np.linalg.eigvals(T)))
        x_star, y_star = game.saddle()
        x, y = {"v": np.zeros(2)}, {"v": np.zeros(3)}
        z0 = -np.concatenate([x_star, y_star])
        dist = {}
        for n in range(1, 501):
            x, y, _ = _extragradient(x, y, game.oracle, unprojected, unprojected, eta, eta)
            z = np.concatenate([x["v"] - x_star, y["v"] - y_star])
            dist[n] = np.linalg.norm(z)
            if n in (1, 50, 300):
                assert np.allclose(z, np.linalg.matrix_power(T, n) @ z0, rtol=0.0, atol=1e-14)
        assert rho < 1.0
        assert (np.log(dist[500]) - np.log(dist[300])) / 200 == pytest.approx(np.log(rho), rel=1e-3)

    def test_gap_hand_value(self):
        # L = x^2/2 + xy - y^2/2 at x = 1, y = 0.5, k = 5, eta = 0.1:
        # y_5 = 1 - 0.5 * 0.9^5, x_5 = -0.5 + 1.5 * 0.9^5
        from .oracles import QuadraticGame

        game = QuadraticGame(1.0, 1.0, 1.0)
        x, y = {"v": np.array([1.0])}, {"v": np.array([0.5])}
        gap = _saddle_gap(x, y, game.value, game.grad_x, game.grad_y, unprojected, _nonnegative,
                          5, 0.1, 0.1)
        assert gap == pytest.approx(game.gap(x, y, 5, 0.1, 0.1), rel=1e-14)
        assert gap == pytest.approx(0.8141519498750001, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_gap_equals_linear_recursion(self, k):
        # both halves move toward interior optima (y stays positive, so the
        # clip at zero is inactive), with different steps in x and y
        from .oracles import QuadraticGame

        game = QuadraticGame(2.0, [[1.0, -0.5, 0.3], [0.2, 0.4, -1.0]], 0.5, q=[-2.0, -1.5, -1.0])
        x, y = {"v": np.array([1.0, -1.0])}, {"v": np.array([0.5, 1.0, 2.0])}
        gap = _saddle_gap(x, y, game.value, game.grad_x, game.grad_y, unprojected, _nonnegative,
                          k, 0.1, 0.3)
        assert gap == pytest.approx(game.gap(x, y, k, 0.1, 0.3), rel=1e-13)
        assert np.array_equal(x["v"], [1.0, -1.0]) and np.array_equal(y["v"], [0.5, 1.0, 2.0])

    def test_stochastic_noise_ball_shrinks_with_step(self):
        # the mean of six block games that differ in their linear terms, three
        # blocks drawn per step as `extragradient_step` draws maturities: the
        # exact gradient stays at the saddle, the sampled one settles in a
        # ball around it, and quartering the step shrinks the ball
        from .oracles import QuadraticGame, sampled_oracle

        rng = np.random.default_rng(11)
        n_blocks, B = 6, rng.standard_normal((2, 2))
        ps, qs = rng.standard_normal((n_blocks, 2)), rng.standard_normal((n_blocks, 2)) - 3.0
        x_star, y_star = QuadraticGame(1.0, B, 1.0, ps.mean(axis=0), qs.mean(axis=0)).saddle()
        assert np.all(y_star > 1.0)  # an interior saddle of the clipped duals

        def ball(eta, n_slices, steps=4000):
            """Mean squared distance from the saddle over the last half of the run."""
            draws = np.random.default_rng(7)
            x, y = {"v": x_star.copy()}, {"v": y_star.copy()}
            sq = []
            for t in range(steps):
                oracle = sampled_oracle(1.0, B, 1.0, ps, qs, n_slices, draws)
                x, y, _ = _extragradient(x, y, oracle, unprojected, _nonnegative, eta, eta)
                if t >= steps // 2:
                    sq.append(np.sum((x["v"] - x_star) ** 2) + np.sum((y["v"] - y_star) ** 2))
            return float(np.mean(sq))

        assert ball(0.2, n_blocks) < 1e-20
        wide, narrow = ball(0.2, 3), ball(0.05, 3)
        assert 0.0 < narrow < 0.5 * wide


class TestSafetyPass:
    def test_near_degenerate_maps_capped(self):
        # maps whose top singular direction a power iteration from the
        # all-ones start never sees; the pass must still cap every one, and
        # its distance is the clamp plus the ball distances, map by map
        from arbsurf.qalign import GuardLog

        from .oracles import near_degenerate

        cfg, batch, state = tiny_state()
        primal, tau = state.primal, cfg.guard.tau
        keys = ["injections", "readouts"] + [k for k in primal if k[:2] in ("wz", "wx")]
        for key in keys:
            shape = primal[key].shape
            if len(shape) == 3:
                primal[key][:] = near_degenerate(*shape[1:])
            elif key.startswith("wz") and min(shape) == 1:  # the clamp would zero a negative entry
                primal[key] = np.full(shape, 1.2 / np.sqrt(max(shape)))
            else:
                primal[key] = near_degenerate(*shape)
        expected = 0.0
        for key in keys:
            for w in primal[key].reshape((-1,) + primal[key].shape[-2:]):
                if key.startswith("wz"):
                    expected += np.linalg.norm(np.minimum(w, 0.0))
                    w = np.maximum(w, 0.0)
                sigma = np.linalg.norm(w, 2)
                assert sigma > tau
                expected += np.linalg.norm(w) * (1.0 - tau / sigma)
        log = GuardLog()
        apply_qalign(primal, batch, cfg, log)
        for key in keys:
            for w in primal[key].reshape((-1,) + primal[key].shape[-2:]):
                assert np.linalg.norm(w, 2) <= tau * (1 + 1e-12)
        assert log.spec_guard_hits == 0
        assert log.projection_distance == pytest.approx(expected, rel=1e-12)

    def test_unguarded_max_rho_dt_is_the_loop_max_skipping_nan(self):
        """With the guard off the pass logs max rho*dt with `np.fmax.reduce`,
        which gives what a loop of Python `max` over the stack gives: a NaN
        radius is skipped by both."""
        from arbsurf.qalign import GuardLog, spectral_radius

        cfg, batch, state = tiny_state(tiny_cfg(specguard_enabled=False))
        L, m = batch.n_maturities, cfg.rank
        transitions = np.stack([np.eye(m) * (0.5 + 3.0 * ell) for ell in range(L)])
        transitions[-1, 0, 0] = np.nan
        radii = spectral_radius(transitions) * batch.dts
        assert np.isnan(radii[-1]) and np.isfinite(radii[:-1]).all()
        for start in (0.0, float(radii[0]) * 1.5):
            want = start
            for rho_dt in radii:
                want = max(want, float(rho_dt))
            log = GuardLog(max_rho_dt=start)
            primal = {**state.primal, "transitions": transitions}
            apply_qalign(primal, batch, cfg, log)
            assert primal["transitions"] is transitions  # no guard: the stack is left alone
            assert log.max_rho_dt == want and not np.isnan(want)

    @pytest.mark.parametrize("step_primal", [3e-3, 0.3])
    def test_frobenius_shortcut_changes_no_bit(self, step_primal, monkeypatch):
        """20 steps with every map sent through the SVD equal the default,
        which skips the SVD of each map its Frobenius norm places inside the
        ball; the larger step pushes some maps past the ball."""
        from arbsurf import qalign
        from arbsurf.qalign import spectral_norms

        def run(shortcut):
            svds = []
            with monkeypatch.context() as patch:
                patch.setattr(qalign, "spectral_norms", lambda W: svds.append(1) or spectral_norms(W))
                if not shortcut:
                    patch.setattr(qalign, "_frobenius_inside", lambda W, tau: False)
                cfg, batch, state = tiny_state(tiny_cfg(step_primal=step_primal))
                rng = np.random.default_rng(6)
                for _ in range(20):
                    extragradient_step(state, batch, cfg, rng)
            return state, len(svds)

        (fast, fast_svds), (full, full_svds) = run(True), run(False)
        for name in ("primal", "duals"):
            x, y = getattr(fast, name), getattr(full, name)
            assert x.keys() == y.keys()
            for k in x:
                assert np.array_equal(x[k], y[k]), (name, k)
        assert vars(fast.guard) == vars(full.guard)
        assert fast_svds < full_svds
        assert (fast_svds > 0) == (step_primal > 0.1)


class TestGapEstimator:
    def test_shared_forward_matches_stepwise_estimator(self, monkeypatch):
        from .oracles import stepwise_gap

        cfg = tiny_cfg()
        batch = build_batch([tiny_panel()], cfg)
        heldout = build_batch([tiny_panel(seed=4)], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(8)
        for _ in range(30):
            extragradient_step(state, batch, cfg, rng)
            assert empirical_gap_from_state([state], heldout) == [stepwise_gap(state, heldout)]
        for k in (1, 3):
            monkeypatch.setattr(training, "K_INNER", k)
            assert empirical_gap_from_state([state], heldout) == [stepwise_gap(state, heldout)]

    @pytest.mark.parametrize("k_inner", [1, 5])
    def test_forwards_per_call(self, k_inner, monkeypatch):
        monkeypatch.setattr(training, "K_INNER", k_inner)
        cfg, batch, state = tiny_state()
        calls = count_calls(monkeypatch, "model_forward", "primal_gradient")
        empirical_gap_from_state([state], batch)
        assert calls == {"model_forward": k_inner + 1, "primal_gradient": k_inner}

    def test_gap_leaves_state_untouched(self):
        cfg, batch, state = tiny_state()
        extragradient_step(state, batch, cfg, np.random.default_rng(9))
        primal = {k: v.copy() for k, v in state.primal.items()}
        duals = {k: v.copy() for k, v in state.duals.items()}
        empirical_gap_from_state([state], batch)
        for k in primal:
            assert np.array_equal(state.primal[k], primal[k])
        for k in duals:
            assert np.array_equal(state.duals[k], duals[k])


class TestBatchedGap:
    """`empirical_gap_from_state` runs the states it is given as one batch on
    a point axis; each state's gap equals its own one-state gap bit for bit,
    and a state that fails gets its own exception without touching the
    others' gaps. The unbatched forward and reverse pass the step runs keep
    the bits they had before the point axis existed."""

    SHAPES = {
        "smoke": (dict(n_maturities=6, n_strikes=11), dict(rank=4, width=8, feature_bins=6, readout_dim=4)),
        "desk": (dict(n_maturities=12, n_strikes=25, maturity_range=(0.25, 2.0)),
                 dict(rank=8, width=16, feature_bins=8, readout_dim=4)),
        "four": (dict(n_maturities=4, n_strikes=7, maturity_range=(0.25, 1.0)),
                 dict(rank=3, width=6, feature_bins=4, readout_dim=2)),
    }

    @classmethod
    def _states(cls, shape, n=8):
        panel_kw, cfg_kw = cls.SHAPES[shape]
        cfg = tiny_cfg(**cfg_kw)
        batch = build_batch([tiny_panel(seed=3 + i, **panel_kw) for i in range(2)], cfg)
        heldout = build_batch([tiny_panel(seed=7, **panel_kw)], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(2)
        states = []
        for _ in range(n):
            extragradient_step(state, batch, cfg, rng)
            states.append(replace(state, primal=dict(state.primal), duals=dict(state.duals)))
        return states, heldout

    @pytest.mark.parametrize("shape", ["smoke", "desk", "four"])
    def test_batched_gaps_equal_one_state_gaps(self, shape):
        states, heldout = self._states(shape)
        alone = [empirical_gap_from_state([state], heldout)[0] for state in states]
        assert all(isinstance(gap, float) for gap in alone)
        for size in range(1, len(states) + 1):
            for start in range(len(states) - size + 1):
                assert empirical_gap_from_state(states[start:start + size], heldout) == alone[start:start + size]

    def test_failing_states_get_their_own_exceptions(self):
        states, heldout = self._states("smoke", n=5)
        alone = [empirical_gap_from_state([state], heldout)[0] for state in states]
        states[1] = replace(states[1], duals={k: np.full_like(v, np.inf) for k, v in states[1].duals.items()})
        states[3] = replace(states[3], primal={**states[3].primal,
                                                "gate_raw": np.full_like(states[3].primal["gate_raw"], -1e6)})
        with np.errstate(all="ignore"):
            gaps = empirical_gap_from_state(states, heldout)
            own = [empirical_gap_from_state([state], heldout)[0] for state in (states[1], states[3])]
        assert [gaps[i] for i in (0, 2, 4)] == [alone[i] for i in (0, 2, 4)]
        assert isinstance(gaps[1], TrainingDivergence) and str(gaps[1]).startswith("non-finite objective")
        assert isinstance(gaps[3], DomainError) and str(gaps[3]) == "degenerate gate row: softplus mass vanished"
        assert [(type(e), str(e)) for e in own] == [(type(gaps[i]), str(gaps[i])) for i in (1, 3)]

    # sha256 prefixes of the forward's and the reverse pass's arrays on the
    # tiny fold after three steps, taken before the kernels had a point axis
    TODAY = {1: ("45598c679175b690", "0b9a4c87eeba5e93"), 2: ("234ea4ec4fc26c98", "a0142fb0d06b4a4f")}

    @pytest.mark.parametrize("n_windows", [1, 2])
    def test_unbatched_forward_and_gradient_keep_their_bits(self, n_windows):
        import hashlib

        def digest(arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            return h.hexdigest()[:16]

        cfg = tiny_cfg()
        batch = build_batch([tiny_panel(seed=3 + i) for i in range(n_windows)], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(0)
        for _ in range(3):
            extragradient_step(state, batch, cfg, rng)
        fw = model_forward(state.primal, state.duals, batch, cfg, np.array([0, 2]))
        g = primal_gradient(state.primal, state.duals, batch, cfg, fw)
        got = (digest([fw.value, fw.mse, fw.r_na, fw.r_vix, fw.mres, fw.u, fw.hs, fw.cnorm, fw.vix_resid]),
               digest(list(g.values())))
        assert got == self.TODAY[n_windows]

    @pytest.mark.parametrize("n_points", [1, 3])
    def test_each_point_of_a_batched_forward_equals_its_own_call(self, n_points):
        states, _ = self._states("smoke", n=n_points)
        cfg, slices = states[0].cfg, np.array([0, 2, 5])
        batch = build_batch([tiny_panel(seed=3 + i, **self.SHAPES["smoke"][0]) for i in range(2)], cfg)
        primal, duals = ({k: np.stack([getattr(s, part)[k] for s in states]) for k in getattr(states[0], part)}
                         for part in ("primal", "duals"))
        fw = model_forward(primal, duals, batch, cfg, slices)
        g = primal_gradient(primal, duals, batch, cfg, fw)
        for p, state in enumerate(states):
            one = model_forward(state.primal, state.duals, batch, cfg, slices)
            g_one = primal_gradient(state.primal, state.duals, batch, cfg, one)
            assert fw.value[p] == one.value and fw.mse[p] == one.mse
            for name in ("r_na", "r_vix", "mres", "u", "hs", "cnorm", "vix_resid"):
                assert np.array_equal(getattr(fw, name)[p], getattr(one, name)), name
            for k in g:
                assert np.array_equal(g[k][p], g_one[k]), k


class TestStopTest:
    def test_patience_reached(self):
        history = [(5e-4, 5e-4)] * 1000
        assert stop_test(history)

    def test_patience_boundary(self):
        history = [(5e-4, 5e-4)] * 999
        assert not stop_test(history)

    def test_threshold_violation_resets(self, monkeypatch):
        monkeypatch.setattr(training, "PATIENCE", 10)
        history = [(5e-4, 5e-4)] * 9 + [(2e-3, 5e-4)] + [(5e-4, 5e-4)] * 9
        assert not stop_test(history)
        assert stop_test(history + [(5e-4, 5e-4)])


class TestRatioLog:
    def test_equal_is_zero(self):
        assert ratio_log(0.5, 0.5) == 0.0

    def test_e_ratio(self):
        assert ratio_log(np.e * 0.2, 0.2) == pytest.approx(1.0, rel=1e-12)

    def test_two_over_half(self):
        assert ratio_log(2.0, 0.5) == pytest.approx(1.3862943611198906, rel=1e-12)

    def test_sentinel(self):
        assert np.isnan(ratio_log(0.0, 1.0))
        assert np.isnan(ratio_log(1.0, -2.0))


class TestPublicKernels:
    """The reference API (gate, scan, decoder, replication) computes what the
    training forward pass computes."""

    def _trained(self):
        panel = tiny_panel()
        cfg, batch, state = tiny_state(panel=panel)
        rng = np.random.default_rng(12)
        for _ in range(3):
            extragradient_step(state, batch, cfg, rng)
        fw = model_forward(state.primal, state.duals, batch, cfg)
        return panel, cfg, batch, state, fw, decode_window(state.primal, panel, cfg)

    def test_decode_window_is_public_scan_and_decoder(self):
        panel, cfg, batch, state, fw, surf = self._trained()
        trajectory = scan_forward(to_operator_params(state.primal), fw.u[0])
        public = decode_surface(to_decoder_params(state.primal), trajectory, batch.grid)
        assert np.array_equal(surf.calls_matrix(), public.calls_matrix())
        assert np.array_equal(surf.puts_matrix(), public.puts_matrix())
        assert np.array_equal(surf.calls_matrix(), batch.grid.spot * fw.cnorm[0])
        assert np.array_equal(fw.w_den, measure_gate(to_operator_params(state.primal), batch.grid))

    def test_replication_matches_training_strip(self):
        from arbsurf.vix import replicate_surface

        panel, cfg, batch, state, fw, surf = self._trained()
        trained = batch.vix2_obs[0] - fw.vix_resid[0]
        public = replicate_surface(surf, None).vix_squared_per_maturity
        np.testing.assert_allclose(public, trained, rtol=1e-12, atol=0.0)


class TestDivergence:
    # 1e300 overflows the forward pass while the parameters stay finite; an
    # infinite step makes the parameters themselves non-finite. Either way the
    # objective check must report a divergence carrying the state, not a
    # domain error from a validating constructor on the hot path.
    @pytest.mark.parametrize("step_primal", [1e300, np.inf])
    def test_non_finite_parameters_raise_with_state(self, step_primal):
        cfg = tiny_cfg(rank=3, readout_dim=2, feature_bins=4, width=6, max_steps=5, step_primal=step_primal)
        shape = dict(n_maturities=4, n_strikes=7, maturity_range=(0.25, 1.0))
        panels = [tiny_panel(seed=s, **shape) for s in (3, 4, 5)]
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergence, match="non-finite objective") as info:
            train(cfg, FoldData(panels[:1], panels[1], panels[2:]))
        assert isinstance(info.value.state, SaddleState)
        assert info.value.state.step == 0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg, batch, state = tiny_state()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state.primal, path)
        back = load_checkpoint(path)
        assert set(back) == set(state.primal)
        for k, v in state.primal.items():
            assert back[k].shape == v.shape and back[k].dtype == v.dtype
            assert np.array_equal(back[k], v)


class TestOperatorViews:
    def test_decoder_view_shares_memory(self):
        cfg, batch, state = tiny_state()
        dec = to_decoder_params(state.primal)
        dec.layer_weights_z[0][0, 0] = 7.0
        assert state.primal["wz0"][0, 0] == 7.0

    def test_operator_view(self):
        cfg, batch, state = tiny_state()
        op = to_operator_params(state.primal)
        assert op.transitions.shape[1] == cfg.rank
        assert op.transitions.shape[0] == batch.n_maturities


class TestTrainLoop:
    @staticmethod
    def _data():
        panels = [tiny_panel(seed=3), tiny_panel(seed=4), tiny_panel(seed=5)]
        return FoldData(panels[:1], panels[1], panels[2:])

    def test_zero_steps_rejected_at_load(self, tmp_path):
        # a run that trains nothing has no gap to record: rejected before any
        # panel is generated, naming the field
        from arbsurf.cli import load_config

        path = tmp_path / "zero.ini"
        path.write_text("[training]\nmax_steps = 0\n")
        with pytest.raises(DomainError, match=r"^\[training\] max_steps must be >= 1$"):
            load_config(path)
        with pytest.raises(DomainError, match="max_steps"):
            tiny_cfg(max_steps=0)

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg(max_steps=6)
        data = self._data()
        s1, r1 = train(cfg, data)
        s2, r2 = train(cfg, data)
        assert r1.to_dict() == r2.to_dict()
        assert s1.primal.keys() == s2.primal.keys()
        for k in s1.primal:
            assert np.array_equal(s1.primal[k], s2.primal[k])

    def test_stop_pairs_consistent_when_stopped(self, monkeypatch):
        # loose thresholds so the tiny run stops quickly, then replay the
        # logged pairs against the thresholds and the stop rule
        loose_stop(monkeypatch, 5)
        state, run = train(tiny_cfg(max_steps=40), self._data())
        assert run.stopped
        pairs = state.history.stop_pairs
        tail = pairs[-5:]
        assert all(dg < training.DELTA_GAP_TOL and dr < training.DUAL_RESIDUAL_EPS for dg, dr in tail)
        first = next(k for k in range(len(pairs) + 1) if stop_test(pairs[:k]))
        assert state.history.stopped_at == first == len(pairs) == state.step

    def test_dual_gap_is_heldout_gap_of_final_state(self):
        cfg = tiny_cfg(max_steps=4)
        data = self._data()
        state, run = train(cfg, data)
        heldout = build_batch([data.val_panel], cfg)
        assert [run.DualGap] == empirical_gap_from_state([state], heldout) == state.history.gap[-1:]

    def test_ratio_log_at_duals_of_its_forward(self, monkeypatch):
        # the record's ratio_log compares the pricing loss of the last step's
        # first forward with the dual part at the duals that forward saw,
        # not at the duals the step has already updated
        seen = []

        def recorded(state, *args):
            duals = {k: v.copy() for k, v in state.duals.items()}
            fw = extragradient_step(state, *args)
            seen.append((duals, fw))
            return fw

        monkeypatch.setattr(training, "extragradient_step", recorded)
        cfg = tiny_cfg(max_steps=2)
        state, run = train(cfg, self._data())
        duals, fw = seen[-1]
        dual_part = (
            float(duals["na"] @ fw.r_na)
            + GAMMA * float(duals["mart"][fw.slices] @ fw.mres[fw.slices])
            + XI * float(duals["vix"] @ fw.r_vix)
        )
        assert len(seen) == 2
        assert not all(np.array_equal(duals[k], state.duals[k]) for k in duals)
        assert np.isfinite(run.ratio_log)
        assert run.ratio_log == ratio_log(fw.mse, dual_part)


@contextmanager
def deadline(seconds):
    """Fail the block after `seconds`: a loop blocked on a worker that never
    answers fails here instead of hanging the suite. (Not TimeoutError: it is
    an OSError, which a wait on a child process swallows.)"""

    def expire(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestPipelinedLoop:
    """`train` leaves every held-out gap to one worker process, which
    computes the steps waiting for it as one batch, while the loop runs
    steps ahead; its states, histories and records equal those of the
    serial loop in `oracles.serial_saddle_loop`, on every way a run ends and
    however the gaps fall into batches."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    _data = staticmethod(TestTrainLoop._data)

    @staticmethod
    def _train(cfg, data, monkeypatch, serial=False):
        """(state, run) of `train`, or (state of the divergence, message)."""
        from .oracles import serial_saddle_loop

        with monkeypatch.context() as patch, deadline(60):
            if serial:
                patch.setattr(training, "_saddle_loop", serial_saddle_loop)
            try:
                with np.errstate(all="ignore"):
                    return train(cfg, data)
            except TrainingDivergence as err:
                return err.state, str(err)

    @staticmethod
    def _assert_same(a, b):
        (sa, ra), (sb, rb) = a, b
        assert sa.step == sb.step
        assert sa.history.gap == sb.history.gap
        assert sa.history.stop_pairs == sb.history.stop_pairs
        assert sa.history.stopped_at == sb.history.stopped_at
        assert len(sa.history.wall) == len(sb.history.wall)
        for name in ("primal", "duals"):
            x, y = getattr(sa, name), getattr(sb, name)
            assert x.keys() == y.keys()
            for k in x:
                assert np.array_equal(x[k], y[k]), (name, k)
        assert vars(sa.guard) == vars(sb.guard)
        if isinstance(ra, str):
            assert ra == rb
        else:
            assert vars(ra) == vars(rb)

    def test_stopped_by_rule_discards_step_ahead(self, monkeypatch):
        loose_stop(monkeypatch, 5)
        cfg = tiny_cfg(max_steps=40)
        data = self._data()
        piped = self._train(cfg, data, monkeypatch)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, run = piped
        assert run.stopped
        assert state.history.stopped_at == state.step == 5 + 1 < cfg.max_steps

    def test_runs_to_max_steps(self, monkeypatch):
        cfg = tiny_cfg(max_steps=7)
        data = self._data()
        piped = self._train(cfg, data, monkeypatch)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, run = piped
        assert not run.stopped
        assert state.step == len(state.history.gap) == cfg.max_steps

    def test_divergence_after_steps(self, monkeypatch):
        # an unclipped step of 1e3 overflows the held-out gap's descent at
        # step 3, so the divergence surfaces from the worker
        monkeypatch.setattr(training, "CLIP_NORM", np.inf)
        cfg = tiny_cfg(max_steps=20, step_primal=1e3)
        data = self._data()
        piped = self._train(cfg, data, monkeypatch)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, message = piped
        assert message == "non-finite objective (inf)"
        assert state.step == 3 and len(state.history.gap) == 2

    @staticmethod
    def _patch_gap(monkeypatch, on_call, log=None):
        """Wrap the gap estimator: `on_call(state)` runs for each state of a
        batch (it may sleep or exit) and, when it returns True, plants a
        divergence of that state's gap (non-finite duals make its objective
        NaN); the batch then runs through the true estimator. Fork carries the
        patch into the worker. With a `log` path, each batch first appends
        "<pid> <step> <step> ..." to it."""
        true_gap = training.empirical_gap_from_state

        def gap(states, heldout):
            if log is not None:
                with open(log, "a") as fh:
                    fh.write(" ".join(map(str, [os.getpid()] + [state.step for state in states])) + "\n")
            planted = [replace(state, duals={k: np.full_like(v, np.nan) for k, v in state.duals.items()})
                       if on_call(state) else state for state in states]
            return true_gap(planted, heldout)

        monkeypatch.setattr(training, "empirical_gap_from_state", gap)

    @staticmethod
    def _gap_batches(log):
        """(pid, steps) of every batch that `_patch_gap` logged."""
        return [(int(line.split()[0]), [int(step) for step in line.split()[1:]])
                for line in log.read_text().splitlines()]

    PLANTED = "non-finite objective (nan)"

    def test_gap_divergence_reraised_with_state_of_its_step(self, monkeypatch):
        cfg = tiny_cfg(max_steps=10)
        data = self._data()
        self._patch_gap(monkeypatch, lambda state: state.step == 3)
        runs = [self._train(cfg, data, monkeypatch, serial=serial) for serial in (False, True)]
        self._assert_same(*runs)
        state, message = runs[0]
        assert message == self.PLANTED
        assert state.step == 3 and len(state.history.gap) == 2

    def test_divergence_of_step_ahead_dropped_when_rule_stops(self, monkeypatch):
        # a constant gap and loose thresholds stop the run at step 4
        # (patience 3 after the first pair's infinite delta); step 5 diverges
        step = training.extragradient_step

        def diverging_step(state, *args):
            if state.step == 4:
                raise TrainingDivergence("planted step divergence")
            return step(state, *args)

        monkeypatch.setattr(training, "extragradient_step", diverging_step)
        monkeypatch.setattr(training, "empirical_gap_from_state", lambda states, heldout: [0.0] * len(states))
        data = self._data()
        for patience, stopped_at in ((3, 4), (10, None)):
            loose_stop(monkeypatch, patience)
            cfg = tiny_cfg(max_steps=10)
            piped = self._train(cfg, data, monkeypatch)
            self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
            state, outcome = piped
            assert state.step == 4 and state.history.stopped_at == stopped_at
            if stopped_at is None:
                assert outcome == "planted step divergence"

    def test_dead_worker_raises_naming_the_step(self, monkeypatch, tmp_path):
        """The worker dies in a batch that holds step 2 or a later one; the
        error names the oldest step it owes, the first of that batch."""
        test_pid, owed, true_gap = os.getpid(), tmp_path / "owed", training.empirical_gap_from_state

        def die(states, heldout):
            if os.getpid() != test_pid and states[-1].step >= 2:
                owed.write_text(str(states[0].step))
                os._exit(7)
            return true_gap(states, heldout)

        monkeypatch.setattr(training, "empirical_gap_from_state", die)
        start = time.perf_counter()
        with deadline(60), pytest.raises(RuntimeError) as err:
            train(tiny_cfg(max_steps=10), self._data())
        assert int(owed.read_text()) >= 1
        assert str(err.value) == ("gap worker exited with code 7 before returning the held-out gap "
                                  f"of step {owed.read_text()}")
        assert time.perf_counter() - start < 30

    SLOW = 0.05  # seconds of a worker's gap, or of a step, that the other process outpaces

    @pytest.mark.parametrize("end", ["rule", "max_steps", "step_divergence", "gap_divergence"])
    @pytest.mark.parametrize("slow", ["worker", "loop"])
    def test_scheduling_extremes_equal_serial(self, slow, end, monkeypatch, tmp_path):
        """A slow worker finds many steps waiting and computes them as one
        batch; slow steps leave it one step at a time. Either way every gap is
        computed once, in the worker, and the run equals the serial loop, on
        each way a run ends."""
        test_pid, true_step = os.getpid(), training.extragradient_step
        cfg = tiny_cfg(max_steps={"rule": 40, "max_steps": 7}.get(end, 10))
        if end == "rule":
            loose_stop(monkeypatch, 5)

        def step(state, *args):
            if slow == "loop":
                time.sleep(self.SLOW)
            if end == "step_divergence" and state.step == 4:
                raise TrainingDivergence("planted step divergence")
            return true_step(state, *args)

        def on_gap(state):
            if slow == "worker" and os.getpid() != test_pid:
                time.sleep(self.SLOW)
            return end == "gap_divergence" and state.step == 3

        log, data = tmp_path / "gaps", self._data()
        monkeypatch.setattr(training, "extragradient_step", step)
        self._patch_gap(monkeypatch, on_gap, log)
        piped = self._train(cfg, data, monkeypatch)
        batches = self._gap_batches(log)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, outcome = piped
        steps, gaps, stopped_at, message = {
            "rule": (6, 6, 6, None),
            "max_steps": (7, 7, None, None),
            "step_divergence": (4, 4, None, "planted step divergence"),
            "gap_divergence": (3, 2, None, self.PLANTED),
        }[end]
        assert (state.step, len(state.history.gap), state.history.stopped_at) == (steps, gaps, stopped_at)
        if message is not None:
            assert outcome == message
        # every gap of a logged step, and none twice, in the worker alone
        worker = [step for pid, batch in batches if pid != test_pid for step in batch]
        assert all(pid != test_pid for pid, _ in batches) and len(set(worker)) == len(worker)
        assert set(range(1, gaps + 1)) <= set(worker)
        if slow == "worker":  # the loop runs ahead while the worker sleeps on its first batch
            assert max(len(batch) for _, batch in batches) > 1

    @pytest.mark.parametrize("depth", [(4, 2), None], ids=["lead4_queue2", "default"])
    def test_batch_gap_divergence_past_a_stop_dropped(self, depth, monkeypatch, tmp_path):
        """Step 2 waits until the worker holds step 1 alone, and while the
        worker sleeps on it the loop runs `_LEAD` steps ahead, so the worker's
        next batch is steps 2 .. _QUEUE + 1. The rule stops the run at step
        _QUEUE and the batch's last step diverges: the batch is redone state
        by state, the stop is logged and the divergence is dropped with the
        steps past the stop."""
        if depth is not None:
            monkeypatch.setattr(training, "_LEAD", depth[0])
            monkeypatch.setattr(training, "_QUEUE", depth[1])
        test_pid, queue, log = os.getpid(), training._QUEUE, tmp_path / "gaps"
        assert training._LEAD > queue  # the batch after step 1 is a full one
        true_step = training.extragradient_step

        def step(state, *args):
            if state.step == 1:
                time.sleep(0.2)
            return true_step(state, *args)

        def on_gap(state):
            if os.getpid() != test_pid and state.step == 1:
                time.sleep(1.0)
            return state.step == queue + 1

        loose_stop(monkeypatch, queue - 1)
        cfg = tiny_cfg(max_steps=training._LEAD + 6)
        data = self._data()
        monkeypatch.setattr(training, "extragradient_step", step)
        self._patch_gap(monkeypatch, on_gap, log)
        piped = self._train(cfg, data, monkeypatch)
        batches = self._gap_batches(log)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, run = piped
        assert run.stopped and state.history.stopped_at == state.step == queue
        assert batches[:2] == [(batches[0][0], [1]), (batches[0][0], list(range(2, queue + 2)))]
        assert batches[0][0] != test_pid

    def test_fold_uses_two_processes(self, monkeypatch, tmp_path):
        """Each gap is computed once, all of them in one worker: a fold uses
        exactly two processes, which a pool of folds counts on."""
        log = tmp_path / "gaps"
        self._patch_gap(monkeypatch, lambda state: False, log)
        cfg = tiny_cfg(max_steps=30)
        state, _ = self._train(cfg, self._data(), monkeypatch)
        assert state.step == cfg.max_steps
        batches = self._gap_batches(log)
        assert sorted(step for _, batch in batches for step in batch) == list(range(1, cfg.max_steps + 1))
        pids = {pid for pid, _ in batches}
        assert len(pids) == 1 and os.getpid() not in pids


class TestSigmoid:
    SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]

    @staticmethod
    def _assert_bitwise(x):
        from arbsurf.mathutil import sigmoid

        from .oracles import masked_sigmoid

        got, want = sigmoid(x), masked_sigmoid(x)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))

    def test_special_values_bitwise(self):
        self._assert_bitwise(np.array(self.SPECIAL))
        for v in self.SPECIAL:
            self._assert_bitwise(np.float64(v))

    def test_random_draws_bitwise(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8, 3, 100_000)
        self._assert_bitwise(x)
        self._assert_bitwise(x.reshape(400, 250))


class TestSoftplus:
    SPECIAL = [800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324]

    @staticmethod
    def _assert_within_ulp(x, ulps=1):
        from arbsurf.mathutil import softplus

        from .oracles import math_softplus

        got, want = softplus(x), math_softplus(x)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(np.isinf(got[ok]), np.isinf(want[ok]))
        assert np.array_equal(got[ok][np.isinf(want[ok])], want[ok][np.isinf(want[ok])])
        fin = np.isfinite(want)
        assert np.all(np.abs(got[fin] - want[fin]) <= ulps * np.spacing(np.abs(want[fin])))

    def test_special_values_within_one_ulp(self):
        from arbsurf.mathutil import softplus

        self._assert_within_ulp(np.array(self.SPECIAL))
        for v in self.SPECIAL:
            self._assert_within_ulp(np.float64(v))
        assert softplus(np.array([800.0, 1e308, -800.0, -1e308])).tolist() == [800.0, 1e308, 0.0, 0.0]

    def test_random_draws_within_two_ulps(self):
        # numpy's vector exp and log1p may each land an ulp from the C
        # library's; the exp's ulp reaches the result through log1p with a
        # gain below one, so the composite stays within two ulps
        rng = np.random.default_rng(12)
        x = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8, 3, 100_000)
        self._assert_within_ulp(x, ulps=2)
        self._assert_within_ulp(x.reshape(400, 250), ulps=2)

    def test_cached_derivative_equals_sigmoid(self):
        from arbsurf.mathutil import sigmoid, softplus_exp

        rng = np.random.default_rng(13)
        x = np.concatenate([np.array(TestSigmoid.SPECIAL),
                            rng.standard_normal(100_000) * 10.0 ** rng.uniform(-8, 3, 100_000)])
        _, e = softplus_exp(x)
        got, want = sigmoid(x, e), sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_forward_caches_carry_the_derivative(self):
        """Every softplus whose derivative the reverse pass reads keeps its
        exponential in the forward cache: the ICNN hidden layers, the
        per-maturity potentials and the gate."""
        from arbsurf.mathutil import sigmoid

        cfg, batch, state = tiny_state()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        pairs = [(fw.gate_exp, state.primal["gate_raw"])]
        dec = fw.dec_cache
        pairs.append((dec["e_phi"], dec["phi_i"]))
        for cache in (dec["cache0"], dec["cache_i"]):
            assert len(cache["exps"]) == training.DECODER_DEPTH
            pairs += list(zip(cache["exps"], cache["pres"]))
        for e, x in pairs:
            assert np.array_equal(sigmoid(x, e).view(np.int64), sigmoid(x).view(np.int64))


class TestLipschitzSurrogate:
    """`train` computes the surrogate once per fold, from the pre-pass primal
    of the last step kept; the values equal those of logging it at every
    safety pass (`oracles.surrogate_logging_pass`) on the same trajectory."""

    @pytest.mark.parametrize("max_steps", [1, 6])
    def test_once_per_fold_equals_per_pass(self, max_steps, monkeypatch):
        from .oracles import serial_saddle_loop, surrogate_logging_pass

        cfg, data = tiny_cfg(max_steps=max_steps), TestTrainLoop._data()
        with deadline(60):
            _, run = train(cfg, data)
        calls = []
        with monkeypatch.context() as patch, deadline(60):
            patch.setattr(training, "_saddle_loop", serial_saddle_loop)
            patch.setattr(training, "apply_qalign", surrogate_logging_pass(calls))
            train(cfg, data)
        assert len(calls) == 1 + 2 * max_steps  # init, then half and full pass per step
        assert (run.lambda_lip_before, run.lambda_lip_after) == calls[-1]
        assert np.isfinite(run.lambda_lip_before) and run.lambda_lip_before > 0.0

    def test_safety_pass_writes_no_array(self):
        cfg, batch, state = tiny_state()
        primal = {k: v.copy() for k, v in state.primal.items()}
        primal["wz1"][0, 0] = -1.0  # the clamp must rebind, not write
        primal["transitions"] = primal["transitions"] * 4.0  # the guard fires
        snapshot = {k: v.copy() for k, v in primal.items()}
        pre = apply_qalign(primal, batch, cfg, state.guard)
        assert pre.keys() == snapshot.keys()
        for k in snapshot:
            assert np.array_equal(pre[k], snapshot[k]), k
        assert primal["wz1"][0, 0] == 0.0
