import warnings

import numpy as np
import pytest

from arbsurf import qalign
from arbsurf.grids import DomainError
from arbsurf.qalign import (
    FROB_MARGIN,
    GuardConfig,
    GuardLog,
    lipschitz_project,
    spec_guard_project,
    spectral_norms,
    spectral_radius,
)

from .oracles import loop_guard_log, near_degenerate, rho_dt, svd_norm


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norms(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norms(np.diag([2.0, 1.0])) == pytest.approx(2.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norms(np.zeros((4, 4))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            w = rng.standard_normal((6, 6))
            assert spectral_norms(w) == pytest.approx(svd_norm(w), rel=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 9))
        assert spectral_norms(w) == pytest.approx(svd_norm(w), rel=1e-8)

    def test_nonfinite_is_nan(self):
        assert np.isnan(spectral_norms(np.array([[np.inf, 0.0], [0.0, 1.0]])))

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_scale_free(self, magnitude):
        w = np.full((3, 3), magnitude)
        assert spectral_norms(w) == pytest.approx(svd_norm(w), rel=1e-8)


class TestLipschitzProject:
    def test_inside_ball_unchanged(self):
        w = 0.5 * np.eye(2)
        w_hat, dist = lipschitz_project(w, GuardConfig(tau=1.0))
        assert np.array_equal(w_hat, w)
        assert dist == 0.0

    def test_diag_two_zero(self):
        w_hat, dist = lipschitz_project(np.diag([2.0, 0.0]), GuardConfig(tau=1.0))
        assert np.allclose(w_hat, np.diag([1.0, 0.0]), atol=1e-9)
        assert dist == pytest.approx(1.0, rel=1e-8)

    def test_two_identity(self):
        w_hat, dist = lipschitz_project(2.0 * np.eye(2), GuardConfig(tau=1.0))
        assert np.allclose(w_hat, np.eye(2), atol=1e-9)
        assert dist == pytest.approx(np.sqrt(2.0), rel=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.standard_normal((4, 4)) * 3.0
            w1, _ = lipschitz_project(w)
            w2, d2 = lipschitz_project(w1)
            assert np.allclose(w1, w2, atol=1e-12)
            assert d2 <= 1e-10

    def test_output_norm_capped(self):
        rng = np.random.default_rng(9)
        cfg = GuardConfig(tau=0.7)
        for _ in range(10):
            w = rng.standard_normal((6, 6)) * 2.0
            w_hat, _ = lipschitz_project(w, cfg)
            assert np.linalg.svd(w_hat, compute_uv=False)[0] <= cfg.tau * (1 + 1e-9)


class TestSpectralRadius:
    def test_zero(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, 0.1])) == pytest.approx(0.5, rel=1e-9)

    def test_complex_spectrum_oracle(self):
        # rotation-scaling block with known modulus 0.9, plus a weaker block
        rho, ang = 0.9, 0.7
        block = rho * np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        a = np.zeros((4, 4))
        a[:2, :2] = block
        a[2:, 2:] = np.diag([0.3, -0.2])
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 4)))
        a = q @ a @ q.T  # similarity keeps the spectrum
        assert spectral_radius(a) == pytest.approx(rho_dt(a, 1.0), abs=1e-6)

    def test_random_matrices_vs_eig_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = rng.standard_normal((5, 5))
            assert spectral_radius(a) == pytest.approx(rho_dt(a, 1.0), rel=1e-6)

    def test_dt_scaling(self):
        a = np.diag([2.0, 0.5])
        log = GuardLog()
        assert rho_dt(a, 0.25) == pytest.approx(0.5, rel=1e-9)
        assert np.array_equal(spec_guard_project(a, 0.25, GuardConfig(epsilon=0.1), log), a)
        assert log.spec_guard_hits == 0
        assert log.max_rho_dt == pytest.approx(0.5, rel=1e-9)


class TestSpecGuard:
    def test_no_trigger_inside(self):
        log = GuardLog()
        a = np.diag([0.5, 0.25])
        cfg = GuardConfig(epsilon=0.1)
        out = spec_guard_project(a, 1.0, cfg, log)
        assert np.array_equal(out, a)
        assert log.spec_guard_hits == 0
        assert log.max_rho_dt == pytest.approx(0.5, rel=1e-8)

    def test_scale_factor(self):
        # rho dt = 2, eps = 0.1 -> scale 0.45, post-indicator 0.9
        log = GuardLog()
        a = np.diag([2.0, 1.0])
        cfg = GuardConfig(epsilon=0.1)
        out = spec_guard_project(a, 1.0, cfg, log)
        assert np.allclose(out, 0.45 * a, rtol=1e-8)
        assert log.spec_guard_hits == 1
        assert rho_dt(out, 1.0) == pytest.approx(0.9, rel=1e-8)

    def test_frobenius_distance_logged(self):
        log = GuardLog()
        a = 2.0 * np.eye(2)
        cfg = GuardConfig(epsilon=0.1)
        out = spec_guard_project(a, 1.0, cfg, log)
        assert np.allclose(out, 0.9 * np.eye(2), rtol=1e-9)
        assert log.projection_distance == pytest.approx(1.1 * np.sqrt(2.0), rel=1e-8)

    def test_tie_no_projection(self):
        # exactly at the boundary: strict trigger leaves the matrix alone
        log = GuardLog()
        a = 0.9 * np.eye(2)
        out = spec_guard_project(a, 1.0, GuardConfig(epsilon=0.1), log)
        assert np.array_equal(out, a)
        assert log.spec_guard_hits == 0

    def test_guard_safety_invariant(self):
        rng = np.random.default_rng(23)
        cfg = GuardConfig(epsilon=0.15)
        log = GuardLog()
        for _ in range(25):
            a = rng.standard_normal((5, 5)) * rng.uniform(0.1, 4.0)
            dt = rng.uniform(0.05, 1.5)
            out = spec_guard_project(a, dt, cfg, log)
            assert rho_dt(out, dt) <= (1 - cfg.epsilon) * (1 + 1e-9)
        # counters are nondecreasing by construction
        assert log.spec_guard_hits >= 0 and log.projection_distance >= 0

    @pytest.mark.parametrize("dt", [0.0, -0.25, [0.25, 0.0], [0.5, -0.1]])
    def test_nonpositive_dt_rejected(self, dt):
        a = np.diag([2.0, 0.5])
        a = a if np.ndim(dt) == 0 else np.stack([a, a])
        log = GuardLog()
        with pytest.raises(DomainError, match="dt must be positive"):
            spec_guard_project(a, dt, GuardConfig(), log)
        assert vars(log) == vars(GuardLog())



class TestExactNorms:
    def test_near_degenerate_map_capped(self):
        w = near_degenerate(2, 3)
        assert np.linalg.norm(w, 2) == pytest.approx(1.2, rel=1e-14)
        cfg = GuardConfig(tau=1.0)
        w_hat, dist = lipschitz_project(w, cfg)
        assert np.linalg.norm(w_hat, 2) <= cfg.tau * (1 + 1e-12)
        assert dist == pytest.approx(np.linalg.norm(w) * (1 - 1 / 1.2), rel=1e-12)

    def test_huge_map_capped(self):
        w = np.full((3, 3), 1e200)
        w_hat, dist = lipschitz_project(w, GuardConfig(tau=1.0))
        assert np.linalg.norm(w_hat, 2) == pytest.approx(1.0, rel=1e-12)
        assert dist == pytest.approx(3e200, rel=1e-12)  # ||w||_F - ||w_hat||_F

    def test_stack_norms_match_matrix_norms(self):
        stack = np.random.default_rng(41).standard_normal((5, 3, 4))
        assert np.array_equal(spectral_norms(stack), [spectral_norms(w) for w in stack])
        np.testing.assert_allclose(spectral_norms(stack), [np.linalg.norm(w, 2) for w in stack], rtol=1e-14)

    def test_lipschitz_stack_equals_per_matrix(self):
        rng = np.random.default_rng(43)
        stack = rng.standard_normal((6, 3, 4)) * rng.uniform(0.1, 2.0, (6, 1, 1))
        stack[2] = near_degenerate(3, 4)
        cfg = GuardConfig(tau=0.8)
        out, dist = lipschitz_project(stack, cfg)
        singles = [lipschitz_project(w, cfg) for w in stack]
        assert np.array_equal(out, np.stack([w for w, _ in singles]))
        assert dist == sum(d for _, d in singles)
        assert dist > 0.0

    def test_guard_stack_equals_per_matrix(self):
        rng = np.random.default_rng(47)
        stack = rng.standard_normal((8, 4, 4)) * rng.uniform(0.1, 3.0, (8, 1, 1))
        dts = rng.uniform(0.05, 1.0, 8)
        cfg = GuardConfig(epsilon=0.1)
        log_stack, log_single = GuardLog(), GuardLog()
        out = spec_guard_project(stack, dts, cfg, log_stack)
        singles = np.stack([spec_guard_project(a, float(dt), cfg, log_single) for a, dt in zip(stack, dts)])
        assert np.array_equal(out, singles)
        assert 0 < log_stack.spec_guard_hits < len(stack)
        assert log_stack.spec_guard_hits == log_single.spec_guard_hits
        assert log_stack.projection_distance == log_single.projection_distance
        assert log_stack.max_rho_dt == log_single.max_rho_dt

    def test_nan_matrix_in_stack_left_alone(self):
        stack = np.stack([3.0 * np.eye(2), np.full((2, 2), np.nan), 0.5 * np.eye(2)])
        out, dist = lipschitz_project(stack, GuardConfig(tau=1.0))
        assert np.array_equal(out, [np.eye(2), stack[1], stack[2]], equal_nan=True)
        assert dist == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)
        log = GuardLog()
        out = spec_guard_project(stack, np.ones(3), GuardConfig(epsilon=0.1), log)
        np.testing.assert_allclose(out[0], 0.9 * np.eye(2), rtol=1e-12)
        assert np.array_equal(out[1:], stack[1:], equal_nan=True)
        assert log.spec_guard_hits == 1
        assert log.max_rho_dt == pytest.approx(0.9, rel=1e-12)


    def test_guard_counters_equal_loop_oracle(self):
        rng = np.random.default_rng(53)
        stack = rng.standard_normal((9, 3, 3)) * rng.uniform(0.1, 3.0, (9, 1, 1))
        stack[4] = np.nan
        dts = rng.uniform(0.05, 1.0, 9)
        for start in (0.0, 5.0):  # a running max below and above every radius
            cfg, log = GuardConfig(epsilon=0.1), GuardLog(max_rho_dt=start, projection_distance=0.25)
            spec_guard_project(stack, dts, cfg, log)
            want = loop_guard_log(stack, dts, cfg, GuardLog(max_rho_dt=start, projection_distance=0.25))
            assert 0 < log.spec_guard_hits < len(stack)
            assert vars(log) == vars(want)


class TestFrobeniusShortcut:
    """A map whose Frobenius norm is at most tau (1 - FROB_MARGIN) takes no
    SVD; every other map takes the SVD path, which the shortcut matches bit
    for bit."""

    TAU = 0.9

    @staticmethod
    def _no_svd(monkeypatch):
        def refuse(W):
            raise AssertionError("SVD taken")

        monkeypatch.setattr(qalign, "spectral_norms", refuse)

    @staticmethod
    def _svd_path(W, cfg, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(qalign, "_frobenius_inside", lambda W, tau: False)
            return lipschitz_project(W, cfg)

    def test_inside_by_frobenius_takes_no_svd(self, monkeypatch):
        rng = np.random.default_rng(61)
        bound = self.TAU * (1.0 - FROB_MARGIN)
        single = rng.standard_normal((4, 3))
        single *= bound / np.linalg.norm(single) * (1.0 - 1e-12)
        stack = rng.standard_normal((5, 3, 4)) * rng.uniform(0.05, 0.2, (5, 1, 1))
        stack[0] = single.T
        cfg = GuardConfig(tau=self.TAU)
        want = [self._svd_path(w, cfg, monkeypatch) for w in (single, stack)]
        self._no_svd(monkeypatch)
        for w, (w_svd, d_svd) in zip((single, stack), want):
            w_hat, dist = lipschitz_project(w, cfg)
            assert w_hat is w and dist == 0.0
            assert np.array_equal(w_svd, w) and d_svd == 0.0

    def test_frobenius_above_tau_inside_ball_through_svd(self, monkeypatch):
        w = 0.8 * np.eye(3)
        assert np.linalg.norm(w) > 1.0 >= np.linalg.norm(w, 2)
        calls = []
        monkeypatch.setattr(qalign, "spectral_norms", lambda W: calls.append(W) or spectral_norms(W))
        w_hat, dist = lipschitz_project(w, GuardConfig(tau=1.0))
        assert len(calls) == 1
        assert np.array_equal(w_hat, w) and dist == 0.0

    def test_rank_one_at_tau_equals_svd_path(self, monkeypatch):
        w = np.outer([0.6, 0.8], [1.0, 0.0, 0.0]) * self.TAU
        cfg = GuardConfig(tau=self.TAU)
        w_hat, dist = lipschitz_project(w, cfg)
        w_svd, d_svd = self._svd_path(w, cfg, monkeypatch)
        assert np.array_equal(w_hat, w_svd) and dist == d_svd

    def test_huge_map_raises_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_hat, dist = lipschitz_project(np.full((3, 3), 1e200), GuardConfig(tau=1.0))
        assert np.linalg.norm(w_hat, 2) == pytest.approx(1.0, rel=1e-12)
        assert dist == pytest.approx(3e200, rel=1e-12)
