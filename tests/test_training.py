import multiprocessing
import os
import signal
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from arbsurf.decoder import decode_surface
from arbsurf.generator import GeneratorConfig, make_panel
from arbsurf.grids import DomainError
from arbsurf.operator import measure_gate, scan_forward
from arbsurf.training import (
    FoldData,
    SaddleState,
    TrainingConfig,
    TrainingDivergence,
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
    base = dict(rank=2, feature_bins=3, readout_dim=2, width=4, depth=2, seed=5, n_slices=3)
    base.update(kw)
    return TrainingConfig(**base)


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

        def counted_backward(params, cache, dphi):
            rows["backward"].append(len(dphi))
            return backward(params, cache, dphi)

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
        assert fw2.value == pytest.approx(cfg.beta_nov * np.mean(fw2.mres[fw2.slices] ** 2), rel=1e-12)

    def test_unit_residual_with_dual_two(self):
        cfg, batch, state = tiny_state()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        # plant a dual of 2 on one replication constraint: the term adds
        # exactly 2 * xi * residual
        state.duals["vix"][1] = 2.0
        fw2 = model_forward(state.primal, state.duals, batch, cfg)
        assert fw2.value - fw.value == pytest.approx(cfg.xi * 2.0 * fw.r_vix[1], rel=1e-12)

    def test_term_by_term_oracle(self):
        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(1)
        state.duals = {k: np.abs(rng.standard_normal(v.shape)) for k, v in state.duals.items()}
        slices = np.array([0, 2])
        fw = model_forward(state.primal, state.duals, batch, cfg, slices)
        expected = (
            fw.mse
            + float(state.duals["na"] @ fw.r_na)
            + cfg.gamma * float(state.duals["mart"][slices] @ fw.mres[slices])
            + cfg.xi * float(state.duals["vix"] @ fw.r_vix)
            + cfg.beta_nov * float(np.mean(fw.mres[slices] ** 2))
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
        g = dual_gradient(fw, cfg, batch.n_maturities)
        assert np.array_equal(g["na"], fw.r_na)
        assert g["mart"][1] == cfg.gamma * fw.mres[1]
        assert g["mart"][0] == 0.0  # unsampled slice
        assert np.allclose(g["vix"], cfg.xi * fw.r_vix)

    def test_zero_residual_zero_dual_gradient(self):
        cfg, batch, state = self._setup()
        fw = model_forward(state.primal, state.duals, batch, cfg)
        fw.r_na[:] = 0.0
        fw.mres[:] = 0.0
        fw.r_vix[:] = 0.0
        g = dual_gradient(fw, cfg, batch.n_maturities)
        assert all(np.all(v == 0.0) for v in g.values())


class TestExtragradient:
    def test_bilinear_hand_values(self):
        # L(x, y) = x * y from (1, 1), eta = 0.1:
        # half point (0.9, 1.1); full step (1 - 0.1*1.1, 1 + 0.1*0.9)
        eta = 0.1
        x, y = 1.0, 1.0
        xh = x - eta * y
        yh = y + eta * x
        x1 = x - eta * yh
        y1 = y + eta * xh
        assert (xh, yh) == (0.9, 1.1)
        assert x1 == pytest.approx(0.89)
        assert y1 == pytest.approx(1.09)

    def test_bilinear_noise_ball_rate(self):
        # deterministic bilinear saddle: best residual at K=1000 is
        # far below a tenth of the best at K=100
        eta = 0.1
        z = np.array([1.0, 1.0])

        def field_op(z):
            return np.array([z[1], -z[0]])

        best = {}
        running = np.inf
        for k in range(1, 1001):
            zh = z - eta * field_op(z)
            z = z - eta * field_op(zh)
            running = min(running, float(field_op(z) @ field_op(z)))
            if k in (100, 1000):
                best[k] = running
        assert best[1000] <= 0.1 * best[100]

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
        from arbsurf.qalign import cfl_indicator

        cfg, batch, state = tiny_state()
        rng = np.random.default_rng(4)
        for _ in range(5):
            extragradient_step(state, batch, cfg, rng)
            for i in range(batch.n_maturities):
                ind = cfl_indicator(state.primal["transitions"][i], float(batch.dts[i]))
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


class TestGapEstimator:
    def test_shared_forward_matches_stepwise_estimator(self):
        from .oracles import stepwise_gap

        cfg = tiny_cfg()
        batch = build_batch([tiny_panel()], cfg)
        heldout = build_batch([tiny_panel(seed=4)], cfg)
        state = init_state(cfg, batch)
        rng = np.random.default_rng(8)
        for _ in range(30):
            extragradient_step(state, batch, cfg, rng)
            assert empirical_gap_from_state(state, heldout) == stepwise_gap(state, heldout)
        for k in (1, 3):
            at_k = replace(state, cfg=replace(cfg, k_inner=k))
            assert empirical_gap_from_state(at_k, heldout) == stepwise_gap(at_k, heldout)

    @pytest.mark.parametrize("k_inner", [1, 5])
    def test_forwards_per_call(self, k_inner, monkeypatch):
        import arbsurf.training as training

        cfg, batch, state = tiny_state(tiny_cfg(k_inner=k_inner))
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return model_forward(*args, **kwargs)

        monkeypatch.setattr(training, "model_forward", counted)
        empirical_gap_from_state(state, batch)
        assert len(calls) == k_inner + 1

    def test_gap_leaves_state_untouched(self):
        cfg, batch, state = tiny_state()
        extragradient_step(state, batch, cfg, np.random.default_rng(9))
        primal = {k: v.copy() for k, v in state.primal.items()}
        duals = {k: v.copy() for k, v in state.duals.items()}
        empirical_gap_from_state(state, batch)
        for k in primal:
            assert np.array_equal(state.primal[k], primal[k])
        for k in duals:
            assert np.array_equal(state.duals[k], duals[k])


class TestStopTest:
    def test_patience_reached(self):
        cfg = tiny_cfg(patience=1000)
        history = [(5e-4, 5e-4)] * 1000
        assert stop_test(history, cfg)

    def test_patience_boundary(self):
        cfg = tiny_cfg(patience=1000)
        history = [(5e-4, 5e-4)] * 999
        assert not stop_test(history, cfg)

    def test_threshold_violation_resets(self):
        cfg = tiny_cfg(patience=10)
        history = [(5e-4, 5e-4)] * 9 + [(2e-3, 5e-4)] + [(5e-4, 5e-4)] * 9
        assert not stop_test(history, cfg)
        assert stop_test(history + [(5e-4, 5e-4)], cfg)


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
        public = replicate_surface(surf).vix_squared_per_maturity
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
        assert op.rank == cfg.rank
        assert op.transitions.shape[0] == batch.n_maturities


class TestTrainLoop:
    @staticmethod
    def _data():
        panels = [tiny_panel(seed=3), tiny_panel(seed=4), tiny_panel(seed=5)]
        return FoldData(panels[:1], panels[1], panels[2:])

    def test_zero_steps_returns_initial(self):
        cfg = tiny_cfg(max_steps=0)
        state, run = train(cfg, self._data())
        assert state.step == 0
        assert state.history.stopped_at is None
        assert run.spec_guard_hits >= 0

    def test_deterministic_given_seed(self):
        cfg = tiny_cfg(max_steps=6)
        data = self._data()
        s1, r1 = train(cfg, data)
        s2, r2 = train(cfg, data)
        assert r1.to_dict() == r2.to_dict()
        assert s1.primal.keys() == s2.primal.keys()
        for k in s1.primal:
            assert np.array_equal(s1.primal[k], s2.primal[k])

    def test_stop_pairs_consistent_when_stopped(self):
        # loose thresholds so the tiny run stops quickly, then replay the
        # logged pairs against the thresholds and the stop rule
        cfg = tiny_cfg(max_steps=40, patience=5, delta_gap_tol=1e6, dual_residual_eps=1e6)
        state, run = train(cfg, self._data())
        assert run.stopped
        pairs = state.history.stop_pairs
        tail = pairs[-cfg.patience :]
        assert all(dg < cfg.delta_gap_tol and dr < cfg.dual_residual_eps for dg, dr in tail)
        first = next(k for k in range(len(pairs) + 1) if stop_test(pairs[:k], cfg))
        assert state.history.stopped_at == first == len(pairs) == state.step

    def test_dual_gap_is_heldout_gap_of_final_state(self):
        cfg = tiny_cfg(max_steps=4)
        data = self._data()
        state, run = train(cfg, data)
        heldout = build_batch([data.val_panel], cfg)
        assert run.DualGap == empirical_gap_from_state(state, heldout) == state.history.gap[-1]

    def test_ratio_log_at_duals_of_its_forward(self, monkeypatch):
        # the record's ratio_log compares the pricing loss of the last step's
        # first forward with the dual part at the duals that forward saw,
        # not at the duals the step has already updated
        import arbsurf.training as training

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
            + cfg.gamma * float(duals["mart"][fw.slices] @ fw.mres[fw.slices])
            + cfg.xi * float(duals["vix"] @ fw.r_vix)
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
    """`train` computes each held-out gap in a worker process one step
    behind the loop; its states, histories and records equal those of the
    serial loop in `oracles.serial_saddle_loop`, on every way a run ends."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        assert multiprocessing.active_children() == []

    _data = staticmethod(TestTrainLoop._data)

    @staticmethod
    def _train(cfg, data, monkeypatch, serial=False):
        """(state, run) of `train`, or (state of the divergence, message)."""
        import arbsurf.training as training

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
        cfg = tiny_cfg(max_steps=40, patience=5, delta_gap_tol=1e6, dual_residual_eps=1e6)
        data = self._data()
        piped = self._train(cfg, data, monkeypatch)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, run = piped
        assert run.stopped
        assert state.history.stopped_at == state.step == cfg.patience + 1 < cfg.max_steps

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
        cfg = tiny_cfg(max_steps=20, step_primal=1e3, clip_norm=np.inf)
        data = self._data()
        piped = self._train(cfg, data, monkeypatch)
        self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
        state, message = piped
        assert message == "non-finite objective (inf)"
        assert state.step == 3 and len(state.history.gap) == 2

    @staticmethod
    def _patch_gap(monkeypatch, on_call):
        """Replace the gap estimator by one that runs `on_call(n)` on its
        n-th call (n from 1) and then returns the true gap; fork carries the
        patch into the worker, which makes the calls in step order."""
        import arbsurf.training as training

        true_gap, calls = training.empirical_gap_from_state, []

        def gap(state, heldout):
            calls.append(1)
            on_call(len(calls))
            return true_gap(state, heldout)

        monkeypatch.setattr(training, "empirical_gap_from_state", gap)

    def test_gap_divergence_reraised_with_state_of_its_step(self, monkeypatch):
        def diverge(n):
            if n == 3:
                raise TrainingDivergence("planted gap divergence")

        cfg = tiny_cfg(max_steps=10)
        data = self._data()
        runs = []
        for serial in (False, True):
            self._patch_gap(monkeypatch, diverge)
            runs.append(self._train(cfg, data, monkeypatch, serial=serial))
            monkeypatch.undo()  # a fresh call count for the next run
        self._assert_same(*runs)
        state, message = runs[0]
        assert message == "planted gap divergence"
        assert state.step == 3 and len(state.history.gap) == 2

    def test_divergence_of_step_ahead_dropped_when_rule_stops(self, monkeypatch):
        # a constant gap and loose thresholds stop the run at step 4
        # (patience 3 after the first pair's infinite delta); step 5 diverges
        import arbsurf.training as training

        step = training.extragradient_step

        def diverging_step(state, *args):
            if state.step == 4:
                raise TrainingDivergence("planted step divergence")
            return step(state, *args)

        monkeypatch.setattr(training, "extragradient_step", diverging_step)
        monkeypatch.setattr(training, "empirical_gap_from_state", lambda state, heldout: 0.0)
        data = self._data()
        for patience, stopped_at in ((3, 4), (10, None)):
            cfg = tiny_cfg(max_steps=10, patience=patience, delta_gap_tol=1e6, dual_residual_eps=1e6)
            piped = self._train(cfg, data, monkeypatch)
            self._assert_same(piped, self._train(cfg, data, monkeypatch, serial=True))
            state, outcome = piped
            assert state.step == 4 and state.history.stopped_at == stopped_at
            if stopped_at is None:
                assert outcome == "planted step divergence"

    def test_dead_worker_raises_naming_the_step(self, monkeypatch):
        def die(n):
            if n == 2:
                os._exit(7)

        self._patch_gap(monkeypatch, die)
        start = time.perf_counter()
        with deadline(60), pytest.raises(RuntimeError, match="gap worker exited with code 7 "
                                         "before returning the held-out gap of step 2"):
            train(tiny_cfg(max_steps=10), self._data())
        assert time.perf_counter() - start < 30


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
            assert len(cache["exps"]) == cfg.depth
            pairs += list(zip(cache["exps"], cache["pres"]))
        for e, x in pairs:
            assert np.array_equal(sigmoid(x, e).view(np.int64), sigmoid(x).view(np.int64))


class TestLipschitzSurrogate:
    """`train` computes the surrogate once per fold, from the pre-pass primal
    of the last step kept; the values equal those of logging it at every
    safety pass (`oracles.surrogate_logging_pass`) on the same trajectory."""

    @pytest.mark.parametrize("max_steps", [0, 1, 6])
    def test_once_per_fold_equals_per_pass(self, max_steps, monkeypatch):
        import arbsurf.training as training

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
