"""Independent test oracles: closed-form pricing, a brute-force projection,
spectral norms and radii by other LAPACK routes than the package's,
reference forms of the path simulation and of the model and training
kernels, a map that defeats a power iteration started from the all-ones
vector, and two statistics only the tests read (the Legendre conjugate of a
convex potential and the regression of fallback error on the saddle gap).

The pricing and projection oracles are written against scipy/numpy
primitives and stay independent of the package's own code paths. The
reference kernels are the straightforward forms that the package's
optimized ones must reproduce bit for bit: the path simulation with
path-major storage and two draws per step in one thread, the logistic
function by boolean masks, the scan and its adjoint one maturity at a
time, the held-out gap estimator with one forward pass per step of each
half, the saddle loop that runs each step and its gap in turn in one
process, and the Lipschitz surrogate logged at every safety pass. A
quadratic saddle game carries the closed forms the model-free solver is
checked against: its saddle point, the linear map of one extragradient
step and the gap of k gradient steps. `random_decoder` draws admissible
decoder parameters for the decoder tests. The softplus oracle evaluates each
element with the C library's exp and log1p, which numpy's vector loops may
round differently by an ulp. `inv_softplus` builds gate pre-activations
whose softplus is a given density.
"""

import itertools
import math
import warnings

import numpy as np
from scipy.linalg import schur, svd
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


def reference_proxy(variance, start, dt):
    """Per-path VIX^2 proxy of the window that opens at column `start` of a
    full (n_paths, N+1) variance array: the trapezoid time average of v^+
    as one whole-array matrix-vector product over a C-ordered copy of the
    window, divided by the window span."""
    from arbsurf.generator import _vix_window_steps

    width = _vix_window_steps(dt)
    w = np.full(width + 1, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    span = w.sum()
    return (np.maximum(np.ascontiguousarray(variance[:, start : start + width + 1]), 0.0) @ w) / span


def reference_payoffs(s_t, strikes):
    """Mean undiscounted call and put payoffs of the spots s_t (n_paths,)
    at each strike: whole (n_paths, M) payoff matrices averaged over the
    path axis."""
    calls = np.maximum(s_t[:, None] - strikes[None, :], 0.0).mean(axis=0)
    puts = np.maximum(strikes[None, :] - s_t[:, None], 0.0).mean(axis=0)
    return calls, puts


def reference_paths(cfg, horizon, stream=0, steps=(), strikes=()):
    """Euler full-truncation paths, one step at a time: (n_paths, N+1)
    C-ordered spot and variance, kept at every step, each step drawing z1
    then zp from the Philox stream keyed (cfg.seed, stream) and writing one
    strided column; at each of `steps` the mean payoffs at `strikes` are
    taken from the full spot and the proxy of the window opening there is
    reduced from the full variance, after the loop."""
    from arbsurf.generator import PathEnsemble

    dt = 1.0 / cfg.steps_per_year
    n_steps = int(np.ceil(horizon * cfg.steps_per_year - 1e-9))
    n = cfg.n_paths
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, stream]))

    a = np.asarray(cfg.kernel_weights, dtype=float)
    b = np.asarray(cfg.kernel_rates, dtype=float)
    decay = np.exp(-b * dt)

    spot = np.empty((n, n_steps + 1))
    variance = np.empty((n, n_steps + 1))
    spot[:, 0] = cfg.s0
    variance[:, 0] = cfg.v0

    drift_acc = np.zeros(n)  # integral of kappa (theta - v)
    conv_states = np.zeros((len(a), n))  # one exponential state per kernel term
    mu = cfg.r - cfg.q
    for step in range(n_steps):
        z1 = rng.standard_normal(n)
        zp = rng.standard_normal(n)
        z2 = cfg.rho * z1 + np.sqrt(max(0.0, 1.0 - cfg.rho**2)) * zp

        v_plus = np.maximum(variance[:, step], 0.0)
        sq_v_dt = np.sqrt(v_plus * dt)
        spot[:, step + 1] = spot[:, step] * np.exp((mu - 0.5 * v_plus) * dt + sq_v_dt * z1)

        drift_acc += cfg.kappa * (cfg.theta_mean - v_plus) * dt
        shock = cfg.sigma_volvol * sq_v_dt * z2
        conv_states = decay[:, None] * (conv_states + shock[None, :])
        variance[:, step + 1] = cfg.v0 + drift_acc + a @ conv_states

    steps = np.asarray(steps, dtype=int)
    strikes = np.asarray(strikes, dtype=float)
    calls = np.empty((len(steps), len(strikes)))
    puts = np.empty_like(calls)
    for row, i in enumerate(steps):
        calls[row], puts[row] = reference_payoffs(spot[:, i], strikes)
    proxy = np.array([reference_proxy(variance, i, dt) for i in steps]).reshape(len(steps), n)
    return PathEnsemble(times=steps * dt, strikes=strikes, call_payoffs=calls, put_payoffs=puts, proxy=proxy.T,
                        kept_times=np.arange(n_steps + 1) * dt, spot=spot, variance=variance, dt=dt)


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


def math_softplus(x):
    """max(x, 0) + log1p(exp(-|x|)), element by element with the math
    module; NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    return np.array([v if math.isnan(v) else max(v, 0.0) + math.log1p(math.exp(-abs(v)))
                     for v in x.ravel().tolist()]).reshape(x.shape)


def inv_softplus(y):
    """Inverse of softplus on (0, inf), y = softplus(x) -> x: log(expm1(y)),
    and y itself above 30, where expm1 would overflow."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))


def loop_scan_recursion(transitions, injections, readouts, inputs):
    """The latent recursion from the zero state with every product taken one
    maturity at a time."""
    L, m = transitions.shape[0], transitions.shape[1]
    states = np.zeros((L + 1, m))
    outputs = np.zeros((L, readouts.shape[1]))
    for i in range(L):
        states[i + 1] = transitions[i] @ states[i] + injections[i] @ inputs[i]
        outputs[i] = readouts[i] @ states[i + 1]
    return states, outputs


def loop_scan_adjoint(transitions, injections, readouts, dy):
    """Reverse pass of the recursion, one maturity at a time, newest first."""
    L, m = transitions.shape[0], transitions.shape[1]
    dh = np.empty((L, m))
    du = np.zeros((L, injections.shape[2]))
    dh_next = np.zeros(m)
    for i in range(L - 1, -1, -1):
        dh[i] = readouts[i].T @ dy[i] + dh_next
        du[i] = injections[i].T @ dh[i]
        dh_next = transitions[i].T @ dh[i]
    return dh, du


def surrogate_logging_pass(calls):
    """The safety pass `training.apply_qalign`, wrapped to log the Lipschitz
    surrogate at every call: the Green-kernel sum and the norm product taken
    from the primal before the pass, the product again after it. Appends
    (before, after) to calls."""
    from arbsurf import training

    apply_qalign = training.apply_qalign

    def logging_pass(primal, batch, cfg, log):
        green = float(training.green_sums(primal["transitions"], primal["injections"]).max())
        before = green * training._lip_product(primal)
        pre = apply_qalign(primal, batch, cfg, log)
        calls.append((before, min(green * training._lip_product(primal), before)))
        return pre

    return logging_pass


def stepwise_gap(state, heldout):
    """Held-out saddle gap evaluated step by step (2k + 2 forward passes).

    Each of the k dual-ascent steps runs its own forward at the current
    primal point, the ascended duals get a forward of their own, and the
    primal half runs a forward per descent step plus one at its end point.
    The model's forward and gradients come from the package; the steps and
    projections are written here in plain numpy, apart from its solver.
    """
    from arbsurf.training import K_INNER, _descent, dual_gradient, model_forward

    cfg = state.cfg
    k = K_INNER
    duals = {name: v.copy() for name, v in state.duals.items()}
    for _ in range(k):
        g = dual_gradient(model_forward(state.primal, duals, heldout, cfg))
        duals = {name: np.maximum(v + cfg.step_dual * g[name], 0.0) for name, v in duals.items()}
    sup_val = model_forward(state.primal, duals, heldout, cfg).value

    primal = {name: v.copy() for name, v in state.primal.items()}
    for _ in range(k):
        fw = model_forward(primal, state.duals, heldout, cfg)
        d = _descent(primal, state.duals, heldout, cfg, fw)
        primal = {name: v - cfg.step_primal * d[name] for name, v in primal.items()}
        for name in primal:
            if name.startswith("wz"):
                primal[name] = np.maximum(primal[name], 0.0)
    inf_val = model_forward(primal, state.duals, heldout, cfg).value
    return float(sup_val - inf_val)


def serial_saddle_loop(state, batch, heldout, cfg):
    """The saddle loop with the held-out gap of each step computed alone, in
    turn after the step, in this process; same signature and result as
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
            gap, = training.empirical_gap_from_state([state], heldout)
            if isinstance(gap, Exception):
                raise gap
            delta_gap = abs(gap - hist.gap[-1]) if hist.gap else float("inf")
            hist.gap.append(gap)
            hist.stop_pairs.append((delta_gap, training.dual_residual_norm(fw)))
            hist.wall.append(time.perf_counter() - t0)
            if training.stop_test(hist.stop_pairs):
                hist.stopped_at = state.step
                break
    except training.TrainingDivergence as err:
        raise training.TrainingDivergence(str(err), state=state) from err
    return state, training._first_forward(fw, duals)


def loop_green_kernel(transitions, injections, ell, s):
    """Green kernel G[ell, s] as the time-ordered product, one transition at a
    time: transitions[ell] ... transitions[s+1] @ injections[s]."""
    G = injections[s].copy()
    for j in range(s + 1, ell + 1):
        G = transitions[j] @ G
    return G


def random_decoder(rng, context_dim, n_maturities, width=16, depth=2, scale=0.1, slope_raw=-2.0):
    """Random admissible decoder parameters: `depth` hidden layers of
    `width`, convex-path weights folded positive, zero biases and one
    maturity slope for all maturities."""
    from arbsurf.decoder import DecoderParams

    sizes = [1] + [width] * depth + [1]
    wz = [np.abs(rng.standard_normal((sizes[i + 1], sizes[i]))) * scale for i in range(len(sizes) - 1)]
    wx = [rng.standard_normal((sizes[i + 1], 1 + context_dim)) * scale for i in range(len(sizes) - 1)]
    b = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
    return DecoderParams(wz, wx, b, np.full(n_maturities, slope_raw))


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


def svd_norm(w):
    """Largest singular value by LAPACK's QR-iteration SVD (gesvd), not the
    divide-and-conquer driver (gesdd) behind `np.linalg.svd`."""
    return float(svd(w, compute_uv=False, lapack_driver="gesvd")[0])


def rho_dt(a, dt):
    """Spectral radius times dt, the radius the largest diagonal modulus of
    the complex Schur form, not the eigenvalues of `np.linalg.eigvals`."""
    return float(np.abs(np.diag(schur(a, output="complex")[0])).max()) * dt


def loop_guard_log(A, dts, cfg, log):
    """The guard's counters matrix by matrix, in index order, with Python's
    max (which keeps the running max against a NaN radius): the reference
    `qalign.spec_guard_project` logs against."""
    from arbsurf.qalign import spectral_radius

    for a, dt in zip(A, dts):
        r = spectral_radius(a) * dt
        if r > 1.0 - cfg.epsilon:
            s = (1.0 - cfg.epsilon) / r
            log.spec_guard_hits += 1
            log.projection_distance += float(np.linalg.norm(a - s * a))
            r = r * s
        log.max_rho_dt = max(log.max_rho_dt, float(r))
    return log


class QuadraticGame:
    """L(x, y) = a|x|^2/2 + x.By - c|y|^2/2 + x.p - y.q on dict points
    {"v": vector}: strongly convex in x and strongly concave in y for a, c > 0,
    with the closed forms the solver is checked against. For a quadratic, k
    gradient steps are a linear recursion, so every answer here is exact up
    to rounding."""

    def __init__(self, a, B, c, p=None, q=None):
        self.a, self.B, self.c = float(a), np.atleast_2d(np.asarray(B, dtype=float)), float(c)
        n, m = self.B.shape
        self.p = np.zeros(n) if p is None else np.asarray(p, dtype=float)
        self.q = np.zeros(m) if q is None else np.asarray(q, dtype=float)

    def value(self, x, y):
        x, y = x["v"], y["v"]
        return float(0.5 * self.a * x @ x + x @ self.B @ y - 0.5 * self.c * y @ y + x @ self.p - y @ self.q)

    def grad_x(self, x, y):
        """Descent direction in x: dL/dx."""
        return {"v": self.a * x["v"] + self.B @ y["v"] + self.p}

    def grad_y(self, x, y):
        """Ascent direction in y: dL/dy."""
        return {"v": self.B.T @ x["v"] - self.c * y["v"] - self.q}

    def oracle(self, x, y):
        return self.grad_x(x, y), self.grad_y(x, y), None

    def operator(self):
        """(M, r) with F(z) = M z + r = (dL/dx, -dL/dy) at z = (x, y)."""
        n, m = self.B.shape
        M = np.block([[self.a * np.eye(n), self.B], [-self.B.T, self.c * np.eye(m)]])
        return M, np.concatenate([self.p, self.q])

    def saddle(self):
        """(x*, y*), the zero of F."""
        M, r = self.operator()
        z = np.linalg.solve(M, -r)
        return z[: len(self.p)], z[len(self.p):]

    def step_matrix(self, eta):
        """I - eta M + eta^2 M^2: one unprojected extragradient step at step
        eta, applied to the distance from the saddle point."""
        M, _ = self.operator()
        return np.eye(len(M)) - eta * M + eta**2 * M @ M

    def gap(self, x, y, k, eta_x, eta_y):
        """Saddle gap of k unprojected ascent steps in y at x against k descent
        steps in x at y: y_k = y* + (1 - eta c)^k (y - y*), with y* = (B'x - q)/c
        the maximizer at x, and x_k = x* + (1 - eta a)^k (x - x*), with
        x* = -(By + p)/a the minimizer at y."""
        y_star = (self.B.T @ x["v"] - self.q) / self.c
        y_k = y_star + (1.0 - eta_y * self.c) ** k * (y["v"] - y_star)
        x_star = -(self.B @ y["v"] + self.p) / self.a
        x_k = x_star + (1.0 - eta_x * self.a) ** k * (x["v"] - x_star)
        return self.value(x, {"v": y_k}) - self.value({"v": x_k}, y)


def sampled_oracle(a, B, c, ps, qs, n_slices, rng):
    """Stochastic oracle of the mean over blocks of `QuadraticGame(a, B, c,
    ps[l], qs[l])`: one draw of n_slices blocks, as `extragradient_step`
    draws maturities, and the gradient of the mean over the drawn blocks
    (the game of their mean linear terms). Both calls of one step use the
    same draw."""
    L = len(ps)
    slices = np.sort(rng.choice(L, size=min(n_slices, L), replace=False))
    return QuadraticGame(a, B, c, ps[slices].mean(axis=0), qs[slices].mean(axis=0)).oracle


def legendre_conjugate(phi, p, k_domain):
    """Convex conjugate sup_k { p k - phi(k) } of a convex phi, vectorized
    over an array of k, on a bounded domain: the best of a 512-point grid,
    refined by 80 ternary-search steps (the objective is concave). A
    maximizer at the domain boundary means the true conjugate lies outside
    the domain; the value is then truncated and a warning says so."""
    lo, hi = float(k_domain[0]), float(k_domain[1])
    ks = np.linspace(lo, hi, 512)
    obj = p * ks - phi(ks)
    j = int(np.argmax(obj))
    if j in (0, 511):
        warnings.warn("conjugate maximizer at domain boundary; value is truncated", RuntimeWarning)
        return float(obj[j])
    a, b = ks[j - 1], ks[j + 1]

    def f(k):
        return p * k - float(phi(np.array([k]))[0])

    for _ in range(80):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if f(m1) < f(m2):
            a = m1
        else:
            b = m2
    return f(0.5 * (a + b))


def gap_representer_regression(gaps, rep_errors):
    """Least squares of fallback error on the saddle gap with a 95%
    autocorrelation-robust (Newey-West, Bartlett weights, `metrics.hac_lag`
    lags) slope interval. Returns (slope, intercept, (ci_low, ci_high))."""
    from arbsurf.grids import DomainError
    from arbsurf.metrics import Z_95, hac_lag

    g = np.asarray(gaps, dtype=float)
    e = np.asarray(rep_errors, dtype=float)
    t = len(g)
    if t < 8 or g.shape != e.shape:
        raise DomainError("need matched series of length >= 8")
    if np.std(g) < 1e-14:
        raise DomainError("degenerate regressor")
    X = np.column_stack([np.ones(t), g])
    beta, *_ = np.linalg.lstsq(X, e, rcond=None)
    resid = e - X @ beta
    lag = hac_lag(t)
    scores = X * resid[:, None]
    s_mat = scores.T @ scores / t
    for k in range(1, lag + 1):
        gam = scores[k:].T @ scores[:-k] / t
        s_mat += (1.0 - k / (lag + 1.0)) * (gam + gam.T)
    xtx_inv = np.linalg.inv(X.T @ X / t)
    cov = xtx_inv @ s_mat @ xtx_inv / t
    half = Z_95 * np.sqrt(max(cov[1, 1], 0.0))
    slope = float(beta[1])
    return slope, float(beta[0]), (slope - half, slope + half)
