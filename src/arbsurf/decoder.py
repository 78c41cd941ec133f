"""
Convex-in-strike, monotone-in-maturity price decoding.

The potential is an input-convex network: a nonnegative-weight path carries
the strike coordinate, an unconstrained path carries the context (latent
readout plus maturity), and every activation on the convex path is convex
and nondecreasing (softplus on hidden layers, identity at the output).
Convexity in strike therefore holds for any admissible parameters.

The strike coordinate fed to the network is affine in K (moneyness
K/S0 - 1). An affine coordinate is required: the no-arbitrage convexity
constraint lives in K-space, and a convex function of log-moneyness is not
convex in K. Log-moneyness is still used elsewhere (noise shaping,
features); it just cannot enter the convex path.

Maturity monotonicity is built in the same way: the decoded surface is a
base slice plus a cumulative sum of nonnegative increments
softplus(slope_l) * softplus(potential(k; context_l)), so calendar spreads
are nonnegative for any parameters.

Three fixed (non-learned) decode conventions set the scale: the convex
path sees the strike coordinate divided by K_SCALE, the learned potential
is multiplied by OUT_SCALE, and a smoothed-intrinsic anchor of width
ANCHOR_WIDTH carries the base price shape. The anchor is convex in strike
and constant in maturity, so both guarantees survive, and the learned maps
can stay inside the unit spectral ball the safety pass enforces.

The decode and its reverse pass take scan outputs with leading axes (a
fold's windows) in one network call, the shared base rows in it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DomainError, MarketGrid, PriceSurface, parity_puts
from .mathutil import sigmoid, softplus, softplus_exp
from .operator import LatentTrajectory

K_SCALE = 0.1  # the convex path sees (K/S0 - 1) / K_SCALE
OUT_SCALE = 0.5  # weight of the learned potential in the decoded price
ANCHOR_WIDTH = 0.10  # width of the smoothed-intrinsic anchor
NOARB_MAX_ROUNDS = 1000  # alternating rounds before the no-arbitrage projection fails


class InvariantViolation(ValueError):
    """A structural parameter constraint (nonnegative convex-path weights) is broken."""


class ProjectionFailure(RuntimeError):
    """The no-arbitrage projection did not reach its tolerance."""

    def __init__(self, message: str, final_violation: float):
        super().__init__(message)
        self.final_violation = final_violation


@dataclass
class DecoderParams:
    """Input-convex potential weights with maturity-monotone slopes.

    layer_weights_z: convex-path matrices, all entries >= 0, shapes chaining
        (w1, 1), (w2, w1), ..., (1, wD)
    layer_weights_x: unconstrained context-path matrices, shapes
        (w_{i+1}, 1 + context_dim); the first input column is the strike
        coordinate, the rest the context
    biases: one vector per layer
    maturity_slope_raw: per-maturity reals, mapped through softplus to the
        nonnegative calendar increments
    """

    layer_weights_z: list
    layer_weights_x: list
    biases: list
    maturity_slope_raw: np.ndarray

    def __post_init__(self):
        self.layer_weights_z = [np.asarray(w, dtype=float) for w in self.layer_weights_z]
        self.layer_weights_x = [np.asarray(w, dtype=float) for w in self.layer_weights_x]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        self.maturity_slope_raw = np.asarray(self.maturity_slope_raw, dtype=float)
        n = len(self.layer_weights_z)
        if not (len(self.layer_weights_x) == len(self.biases) == n and n >= 1):
            raise DomainError("layer lists must have equal nonzero length")
        prev = 1
        for i, (wz, wx, b) in enumerate(zip(self.layer_weights_z, self.layer_weights_x, self.biases)):
            if wz.shape[1] != prev:
                raise DomainError(f"layer {i}: convex-path shape mismatch")
            if wx.shape[0] != wz.shape[0] or b.shape != (wz.shape[0],):
                raise DomainError(f"layer {i}: context-path/bias shape mismatch")
            prev = wz.shape[0]
        if prev != 1:
            raise DomainError("output layer must have width 1")
        widths = {w.shape[1] for w in self.layer_weights_x}
        if len(widths) != 1:
            raise DomainError("context-path input width must be constant")
        self.validate_nonnegative()

    def validate_nonnegative(self):
        for i, wz in enumerate(self.layer_weights_z):
            if np.any(wz < 0):
                raise InvariantViolation(f"negative entry in convex-path weights of layer {i}")

    @property
    def context_dim(self) -> int:
        return self.layer_weights_x[0].shape[1] - 1

    @property
    def n_layers(self) -> int:
        return len(self.layer_weights_z)


def icnn_forward(params: DecoderParams, k: np.ndarray, context: np.ndarray):
    """Batched potential evaluation.

    k: (n,) strike coordinates; context: (n, context_dim).
    Returns (phi (n,), cache) where the cache holds pre-activations, the
    softplus exponentials of the hidden layers and the layer inputs for the
    backward pass. Rows are independent: `_cache_rows` cuts the cache of a
    block of rows out of a stacked call.
    """
    k = np.asarray(k, dtype=float)
    context = np.asarray(context, dtype=float)
    x_full = np.concatenate([k[:, None], context], axis=1)
    z = k[:, None]
    zs, pres, exps = [z], [], []
    n_layers = params.n_layers
    for i in range(n_layers):
        a = z @ params.layer_weights_z[i].T + x_full @ params.layer_weights_x[i].T + params.biases[i]
        pres.append(a)
        if i < n_layers - 1:
            z, e = softplus_exp(a)
            exps.append(e)
        else:
            z = a
        zs.append(z)
    return z[:, 0], {"zs": zs, "pres": pres, "exps": exps, "x_full": x_full}


def _cache_rows(cache: dict, rows: slice) -> dict:
    """The `icnn_forward` cache of a block of rows, as views."""
    return {name: ([a[rows] for a in v] if isinstance(v, list) else v[rows])
            for name, v in cache.items()}


def icnn_backward(params: DecoderParams, cache: dict, dphi: np.ndarray):
    """Reverse pass for `icnn_forward`.

    dphi: (n,) upstream gradient of the potential values.
    Returns (param_grads, dcontext) where param_grads has keys
    'layer_weights_z', 'layer_weights_x', 'biases' mirroring the parameter
    lists.
    """
    zs, pres, exps, x_full = cache["zs"], cache["pres"], cache["exps"], cache["x_full"]
    n_layers = params.n_layers
    dz = dphi[:, None]
    g_wz = [None] * n_layers
    g_wx = [None] * n_layers
    g_b = [None] * n_layers
    dx_full = np.zeros_like(x_full)
    for i in range(n_layers - 1, -1, -1):
        da = dz if i == n_layers - 1 else dz * sigmoid(pres[i], exps[i])
        g_wz[i] = da.T @ zs[i]
        g_wx[i] = da.T @ x_full
        g_b[i] = da.sum(axis=0)
        dx_full += da @ params.layer_weights_x[i]
        if i:
            dz = da @ params.layer_weights_z[i]
    return {"layer_weights_z": g_wz, "layer_weights_x": g_wx, "biases": g_b}, dx_full[:, 1:]


def strike_coordinate(strikes: np.ndarray, spot: float) -> np.ndarray:
    """Affine strike coordinate fed to the convex path: K/S0 - 1."""
    return np.asarray(strikes, dtype=float) / spot - 1.0


def decode_anchor(km: np.ndarray) -> np.ndarray:
    """Fixed smoothed-intrinsic leg of the decode:
    ANCHOR_WIDTH * sp(-km / ANCHOR_WIDTH)."""
    return ANCHOR_WIDTH * softplus(-km / ANCHOR_WIDTH)


def decode_normalized(params: DecoderParams, km: np.ndarray, outputs: np.ndarray,
                      maturities: np.ndarray):
    """Spot-normalized calls C/S0 (..., L, M) on the grid for scan outputs
    (..., L, p), leading axes (the windows of a fold) side by side, plus the
    cache `decode_backward` reads.

    C/S0 (k, T_l) = anchor(k) + OUT_SCALE * [ phi(k'; 0)
                    + sum_{i<=l} sp(s_i) * sp(phi(k'; ctx_i)) ]
    with k = K/S0 - 1, k' = k / K_SCALE and ctx_i = (outputs_i, T_i).
    No validation: `decode_surface` checks its arguments first, and the
    training loop calls this directly so non-finite parameters reach its
    objective check.
    """
    M = len(km)
    k_net = km / K_SCALE
    lead = outputs.shape[:-1]
    ctx = np.concatenate([outputs, np.zeros(lead + (1,)) + maturities[:, None]], axis=-1)
    ctx = ctx.reshape(-1, ctx.shape[-1])
    # one network call: M rows of the base potential (zero context), shared
    # by every window, then M rows per maturity of each window
    phi, cache = icnn_forward(params, np.tile(k_net, len(ctx) + 1),
                              np.concatenate([np.zeros((M, ctx.shape[1])), np.repeat(ctx, M, axis=0)]))
    phi0, phi_i = phi[:M], phi[M:].reshape(lead + (M,))
    sp_slope = softplus(params.maturity_slope_raw)
    sp_phi, e_phi = softplus_exp(phi_i)
    inc = sp_slope[:, None] * sp_phi
    cnorm = decode_anchor(km) + OUT_SCALE * (phi0 + np.cumsum(inc, axis=-2))
    return cnorm, {"cache0": _cache_rows(cache, slice(None, M)), "phi_i": phi_i,
                   "cache_i": _cache_rows(cache, slice(M, None)), "sp_slope": sp_slope,
                   "sp_phi": sp_phi, "e_phi": e_phi}


def decode_backward(params: DecoderParams, cache: dict, dcnorm: np.ndarray):
    """Reverse pass of `decode_normalized` for dcnorm, the (..., L, M)
    gradient of C/S0, over the cache of that one call.

    Returns (grads, dy): grads keyed like `DecoderParams`, summed over every
    window, the context rows' part first and the shared base potential's
    last; dy the (..., L, p) gradient of the scan outputs (the maturity
    channel dropped).
    """
    L, M = dcnorm.shape[-2:]
    # OUT_SCALE chains into both learned legs
    dinc = OUT_SCALE * np.cumsum(dcnorm[..., ::-1, :], axis=-2)[..., ::-1, :]
    d_slope = (dinc * cache["sp_phi"]).sum(axis=-1).reshape(-1, L).sum(axis=0)
    dphi_i = dinc * cache["sp_slope"][:, None] * sigmoid(cache["phi_i"], cache["e_phi"])
    grads, dctx = icnn_backward(params, cache["cache_i"], dphi_i.ravel())
    g0, _ = icnn_backward(params, cache["cache0"], OUT_SCALE * dcnorm.reshape(-1, M).sum(axis=0))
    grads = {name: [g + b for g, b in zip(grads[name], g0[name])] for name in grads}
    grads["maturity_slope_raw"] = sigmoid(params.maturity_slope_raw) * d_slope
    return grads, dctx.reshape(dcnorm.shape + (-1,))[..., :-1].sum(axis=-2)


def decode_surface(
    params: DecoderParams, trajectory: LatentTrajectory, grid: MarketGrid
) -> PriceSurface:
    """Decode calls on the grid with `decode_normalized`; puts follow by
    parity. The cumulative nonnegative increments force C nondecreasing in
    maturity cell by cell.
    """
    L = grid.n_maturities
    if trajectory.outputs.shape[0] != L:
        raise DomainError("trajectory length does not match grid")
    if params.maturity_slope_raw.shape != (L,):
        raise DomainError("maturity slopes do not match grid")
    if params.context_dim != trajectory.outputs.shape[1] + 1:
        raise DomainError("decoder context dimension must be readout_dim + 1")
    km = strike_coordinate(grid.strikes, grid.spot)
    cnorm, _ = decode_normalized(params, km, trajectory.outputs, grid.maturities)
    calls = grid.spot * cnorm
    return PriceSurface.from_matrices(grid, calls, parity_puts(grid, calls), require_nonnegative=False)


def bl_density(surface: PriceSurface, ell: int) -> np.ndarray:
    """Implied density at interior strikes from the second divided
    difference of the calls, exact for quadratics on any strike spacing
    (Breeden & Litzenberger 1978):
    f(K_i) = e^{rT} 2 [(C_{i+1}-C_i)/(K_{i+1}-K_i) - (C_i-C_{i-1})/(K_i-K_{i-1})] / (K_{i+1}-K_{i-1})."""
    grid = surface.grid
    strikes = grid.strikes
    c = surface.calls[ell]
    if not np.all(surface.mask[ell]):
        raise DomainError("density needs a fully observed maturity row")
    slopes = np.diff(c) / np.diff(strikes)
    curvature = 2.0 * np.diff(slopes) / (strikes[2:] - strikes[:-2])
    return np.exp(grid.rate * grid.maturities[ell]) * curvature


@dataclass
class ArbResiduals:
    """Nonnegative static-arbitrage defect fields, on the last two axes of
    the call array (leading axes, such as windows, carried through).

    monotonicity[l][t]: positive part of the call slope on strike pair t
    convexity[l][i]: positive part of the slope decrease at interior strike i
    calendar[l][j]: positive part of the price drop from maturity l to l+1
    bounds[l][j]: price-range violations against [0, S0]
    """

    monotonicity: np.ndarray
    convexity: np.ndarray
    calendar: np.ndarray
    bounds: np.ndarray

    def fields(self) -> tuple:
        """The four defect fields, in the order `flatten` lays them out."""
        return self.monotonicity, self.convexity, self.calendar, self.bounds

    def flatten(self) -> np.ndarray:
        """The fields raveled over their last two axes and concatenated."""
        return np.concatenate([f.reshape(f.shape[:-2] + (-1,)) for f in self.fields()], axis=-1)


def arb_residual_arrays(calls: np.ndarray, strikes: np.ndarray, spot: float) -> ArbResiduals:
    """Residuals for a call array (..., L, M) (rows = maturities): the one
    static-arbitrage stencil of the package."""
    c = np.asarray(calls, dtype=float)
    ks = np.asarray(strikes, dtype=float)
    dk = ks[1:] - ks[:-1]
    slopes = (c[..., 1:] - c[..., :-1]) / dk
    mono = np.maximum(slopes, 0.0)
    conv = np.maximum(-(slopes[..., 1:] - slopes[..., :-1]), 0.0)
    cal = np.maximum(-(c[..., 1:, :] - c[..., :-1, :]), 0.0)
    bounds = np.maximum(-c, 0.0) + np.maximum(c - spot, 0.0)
    return ArbResiduals(mono, conv, cal, bounds)


def arb_residual_backward(res: ArbResiduals, lam: np.ndarray, calls: np.ndarray,
                          strikes: np.ndarray, spot: float, scale: float) -> np.ndarray:
    """Subgradient in calls (..., L, M) of scale * <lam, res.flatten()>,
    summed over the leading indices, where res = arb_residual_arrays(calls,
    strikes, spot); lam is split by the shapes of res's fields on their last
    two axes."""
    blocks, start = [], 0
    for f in res.fields():
        a, b = f.shape[-2:]
        blocks.append(lam[start:start + a * b].reshape(a, b))
        start += a * b
    lam_mono, lam_conv, lam_cal, lam_bounds = blocks
    dk = strikes[1:] - strikes[:-1]
    dc = np.zeros_like(calls)
    act_m = (res.monotonicity > 0.0) * lam_mono * scale / dk
    dc[..., 1:] += act_m
    dc[..., :-1] -= act_m
    # convexity: residual = max(0, slope_left - slope_right)
    act_c = (res.convexity > 0.0) * lam_conv * scale
    inv_l = 1.0 / dk[:-1]
    inv_r = 1.0 / dk[1:]
    dc[..., :-2] -= act_c * inv_l
    dc[..., 1:-1] += act_c * (inv_l + inv_r)
    dc[..., 2:] -= act_c * inv_r
    act_t = (res.calendar > 0.0) * lam_cal * scale
    dc[..., :-1, :] += act_t
    dc[..., 1:, :] -= act_t
    dc += ((calls > spot).astype(float) - (calls < 0.0).astype(float)) * lam_bounds * scale
    return dc


def static_arb_residuals(surface: PriceSurface) -> ArbResiduals:
    """Finite-difference static-arbitrage residuals of a call surface.

    Requires a fully observed surface (the model pipeline only scores
    decoded or oracle surfaces, which are).
    """
    if surface.n_observed() != surface.n_cells():
        raise DomainError("residuals require a fully observed surface")
    return arb_residual_arrays(surface.calls, surface.grid.strikes, surface.grid.spot)


def pava(y: np.ndarray) -> np.ndarray:
    """L2 projection onto nondecreasing sequences (pooled adjacent violators)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    means: list[float] = []
    count: list[int] = []
    for i in range(n):
        means.append(y[i])
        count.append(1)
        while len(means) >= 2 and means[-2] > means[-1]:
            m2, c2 = means.pop(), count.pop()
            m1, c1 = means.pop(), count.pop()
            means.append((m1 * c1 + m2 * c2) / (c1 + c2))
            count.append(c1 + c2)
    out = np.empty(n)
    pos = 0
    for m, c in zip(means, count):
        out[pos : pos + c] = m
        pos += c
    return out


def _convexity_rows(strikes: np.ndarray):
    """Sparse slope-difference constraint rows d_i . x >= 0."""
    dk = np.diff(strikes)
    rows = []
    for i in range(1, len(strikes) - 1):
        dl, dr = dk[i - 1], dk[i]
        coef = np.array([1.0 / dl, -1.0 / dl - 1.0 / dr, 1.0 / dr])
        rows.append(((i - 1, i, i + 1), coef, float(coef @ coef)))
    return rows


def _project_convex_1d(c: np.ndarray, strikes: np.ndarray, tol: float) -> np.ndarray:
    """Exact (to tol) L2 projection of one maturity slice onto convexity,
    by Hildreth coordinate ascent on the constraint multipliers (at most
    2000 cycles)."""
    x = np.asarray(c, dtype=float).copy()
    rows = _convexity_rows(strikes)
    if not rows:
        return x
    lam = np.zeros(len(rows))
    for _ in range(2000):
        max_move = 0.0
        for r, ((i0, i1, i2), coef, nrm2) in enumerate(rows):
            g = coef[0] * x[i0] + coef[1] * x[i1] + coef[2] * x[i2]
            new_lam = max(0.0, lam[r] - g / nrm2)
            step = new_lam - lam[r]
            if step != 0.0:
                x[i0] += step * coef[0]
                x[i1] += step * coef[1]
                x[i2] += step * coef[2]
                lam[r] = new_lam
                max_move = max(max_move, abs(step) * np.sqrt(nrm2))
        if max_move <= tol:
            break
    return x


def noarb_project(surface: PriceSurface, tol: float = 1e-8) -> tuple[PriceSurface, dict]:
    """Least-squares nearest surface that is convex in strike and
    nondecreasing in maturity.

    Alternates the per-maturity convexity projection with per-strike pooled
    adjacent violators, with Dykstra corrections carried between rounds so
    the limit is the projection onto the intersection rather than merely a
    feasible point. Puts of the output are rebuilt by parity.
    """
    grid = surface.grid
    if surface.n_observed() != surface.n_cells():
        raise DomainError("projection requires a fully observed surface")
    strikes = grid.strikes
    x = surface.calls.copy()
    L, M = x.shape
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    inner_tol = min(tol * 1e-2, 1e-10)
    viol = np.inf
    rounds = 0
    for rounds in range(1, NOARB_MAX_ROUNDS + 1):
        xp = x + p
        y = np.vstack([_project_convex_1d(xp[ell], strikes, inner_tol) for ell in range(L)])
        p = xp - y
        yq = y + q
        z = np.column_stack([pava(yq[:, j]) for j in range(M)])
        q = yq - z
        delta = float(np.max(np.abs(z - x)))
        x = z
        res = arb_residual_arrays(x, strikes, grid.spot)
        viol = float(max(res.convexity.max(initial=0.0), res.calendar.max(initial=0.0)))
        if viol <= tol and delta <= tol:
            break
    else:
        raise ProjectionFailure(
            f"no-arbitrage projection did not converge in {NOARB_MAX_ROUNDS} rounds "
            f"(violation {viol:.3e})",
            final_violation=viol,
        )
    projected = PriceSurface.from_matrices(grid, x, parity_puts(grid, x), require_nonnegative=False)
    return projected, {"projection_rounds": rounds, "final_violation": viol}
