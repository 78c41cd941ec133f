"""Independent test oracles: closed-form pricing, a brute-force projection,
reference forms of two training kernels, and a map that defeats a power
iteration started from the all-ones vector.

The pricing and projection oracles are written against scipy/numpy
primitives and stay independent of the package's own code paths. The
reference kernels are the straightforward forms that the package's
optimized ones must reproduce bit for bit: the logistic function by
boolean masks, the held-out gap estimator with one forward pass per
step of each half, and the saddle loop that runs each step and its gap
in turn in one process.
"""

import itertools

import numpy as np
from scipy.stats import norm


def bs_call(s0, k, t, r, q, sigma):
    """Black-Scholes call, continuous compounding."""
    f = s0 * np.exp((r - q) * t)
    sig_sqrt = sigma * np.sqrt(t)
    d1 = (np.log(f / k) + 0.5 * sig_sqrt**2) / sig_sqrt
    d2 = d1 - sig_sqrt
    return np.exp(-r * t) * (f * norm.cdf(d1) - k * norm.cdf(d2))


def bs_put(s0, k, t, r, q, sigma):
    f = s0 * np.exp((r - q) * t)
    sig_sqrt = sigma * np.sqrt(t)
    d1 = (np.log(f / k) + 0.5 * sig_sqrt**2) / sig_sqrt
    d2 = d1 - sig_sqrt
    return np.exp(-r * t) * (k * norm.cdf(-d2) - f * norm.cdf(-d1))


def lognormal_density(k, s0, t, r, q, sigma):
    """Risk-neutral terminal density implied by constant-vol dynamics."""
    mu = np.log(s0) + (r - q - 0.5 * sigma**2) * t
    sd = sigma * np.sqrt(t)
    return np.exp(-((np.log(k) - mu) ** 2) / (2 * sd**2)) / (k * sd * np.sqrt(2 * np.pi))


def projection_constraints(L, M, strikes):
    """Rows of A such that a feasible surface x satisfies A @ x.ravel() >= 0:
    slope-increase in strike per maturity and calendar increase per strike."""
    rows = []
    dk = np.diff(strikes)
    for ell in range(L):
        for i in range(1, M - 1):
            row = np.zeros(L * M)
            row[ell * M + i - 1] = 1.0 / dk[i - 1]
            row[ell * M + i] = -1.0 / dk[i - 1] - 1.0 / dk[i]
            row[ell * M + i + 1] = 1.0 / dk[i]
            rows.append(row)
    for ell in range(L - 1):
        for j in range(M):
            row = np.zeros(L * M)
            row[(ell + 1) * M + j] = 1.0
            row[ell * M + j] = -1.0
            rows.append(row)
    return np.array(rows)


def brute_force_projection(calls, strikes, tol=1e-9):
    """Exact projection onto {convex in K, nondecreasing in T} by enumerating
    active sets of the KKT system. Only viable for tiny instances."""
    c = np.asarray(calls, dtype=float)
    L, M = c.shape
    A = projection_constraints(L, M, strikes)
    n_con = A.shape[0]
    c_flat = c.ravel()
    best = None
    for r in range(n_con + 1):
        for subset in itertools.combinations(range(n_con), r):
            A_s = A[list(subset)]
            if r == 0:
                x = c_flat.copy()
                mu = np.zeros(0)
            else:
                gram = A_s @ A_s.T
                mu, *_ = np.linalg.lstsq(gram, -A_s @ c_flat, rcond=None)
                x = c_flat + A_s.T @ mu
                if np.max(np.abs(A_s @ x)) > 1e-8:
                    continue  # subset inconsistent with equality
            if np.any(mu < -1e-8):
                continue  # dual infeasible
            if np.min(A @ x, initial=0.0) < -1e-8:
                continue  # primal infeasible
            val = 0.5 * np.sum((x - c_flat) ** 2)
            if best is None or val < best[0] - 1e-12:
                best = (val, x)
        if best is not None:
            # KKT point of a strictly convex projection is unique and optimal
            break
    assert best is not None, "no KKT point found"
    return best[1].reshape(L, M)


def masked_sigmoid(x):
    """Logistic function evaluated branch by branch on boolean masks:
    1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def stepwise_gap(state, heldout, k_inner=None):
    """Held-out saddle gap evaluated step by step (2k + 2 forward passes).

    Each of the k dual-ascent steps runs its own forward at the current
    primal point, the ascended duals get a forward of their own, and the
    primal half runs a forward per descent step plus one at its end point.
    """
    from arbsurf.training import (
        _apply_block_steps,
        _clip_gradient,
        _dual_add,
        _pv_add,
        dual_gradient,
        model_forward,
        primal_gradient,
    )

    cfg = state.cfg
    k = k_inner or cfg.k_inner
    duals = {name: v.copy() for name, v in state.duals.items()}
    for _ in range(k):
        fw = model_forward(state.primal, duals, heldout, cfg)
        duals = _dual_add(duals, dual_gradient(fw, cfg, heldout.n_maturities), cfg.step_dual)
    sup_val = model_forward(state.primal, duals, heldout, cfg).value

    primal = {name: v.copy() for name, v in state.primal.items()}
    for _ in range(k):
        fw = model_forward(primal, state.duals, heldout, cfg)
        g = _apply_block_steps(
            _clip_gradient(primal_gradient(primal, state.duals, heldout, cfg, fw), cfg.clip_norm), cfg
        )
        primal = _pv_add(primal, g, -cfg.step_primal)
        for name in primal:
            if name.startswith("wz"):
                np.maximum(primal[name], 0.0, out=primal[name])
    inf_val = model_forward(primal, state.duals, heldout, cfg).value
    return float(sup_val - inf_val)


def serial_saddle_loop(state, batch, heldout, cfg):
    """The saddle loop with the held-out gap computed in turn after each
    step, in this process; same signature and result as
    `training._saddle_loop`. The gap estimator is looked up on the module at
    each call, so a test that patches it patches this loop too."""
    import time

    from arbsurf import training

    rng = np.random.default_rng(cfg.seed + 1)
    hist = state.history
    fw = duals = None
    t0 = time.perf_counter()
    try:
        for _ in range(cfg.max_steps):
            duals = state.duals
            fw = training.extragradient_step(state, batch, cfg, rng)
            gap = training.empirical_gap_from_state(state, heldout)
            delta_gap = abs(gap - hist.gap[-1]) if hist.gap else float("inf")
            hist.gap.append(gap)
            hist.stop_pairs.append((delta_gap, training.dual_residual_norm(fw, cfg)))
            hist.wall.append(time.perf_counter() - t0)
            if training.stop_test(hist.stop_pairs, cfg):
                hist.stopped_at = state.step
                break
    except training.TrainingDivergence as err:
        raise training.TrainingDivergence(str(err), state=state) from err
    return state, fw, duals


def near_degenerate(a, b):
    """An (a, b) map of spectral norm 1.2 whose top right singular vector
    (1, -1, 0, ...)/sqrt(2) is orthogonal to the all-ones power-iteration
    start; for a >= 2 its second singular value, 1.19, lies along that
    start, so the iteration settles on 1.19. Needs b >= 2."""
    w = np.zeros((a, b))
    w[0, :2] = 1.2 * np.array([1.0, -1.0]) / np.sqrt(2.0)
    if a >= 2:
        w[1] = 1.19 / np.sqrt(b)
    return w
