"""
Saddle training of the scan operator plus convex-monotone decoder.

Objective (multipliers lambda >= 0, penalty weights gamma/xi/beta_nov):

    L = pricing MSE on observed cells (spot-normalized prices)
      + <lambda_na, static-arbitrage residuals of the normalized surface>
      + gamma * <lambda_mart, gate-forward defects on sampled slices>
      + xi * <lambda_vix, w(T) * squared variance-replication residuals>
      + beta_nov * mean(defect^2 on sampled slices)

    The replication block uses the squared residual with maturity weights
    (the weights tame the short end's 1/T amplification); an absolute-value
    form chatters around its kink under fixed-step saddle dynamics and
    never meets the stopping thresholds.

Constraint residuals are evaluated on the spot-normalized surface so the
stopping thresholds bite at comparable relative scales across the blocks.
The training windows of a fold share grid, operator and decoder, so
`TrainBatch` stacks them on a leading window axis: one forward runs features,
scan, decode (one network call) and stencil for all of them, and the three
residual blocks are means over the windows.

Gradients are analytic and are validated against central finite
differences in the test suite. Each layer's reverse pass sits beside its
forward (`decoder.decode_backward`, `decoder.arb_residual_backward`,
`operator.scan_adjoint`, `operator.gate_density_backward`);
`primal_gradient` chains them with the objective heads and the feature
integration. The update is a two-time-scale projected extragradient: half
step at the current point, full step evaluated at the half point,
multipliers clipped at zero, and the safety projections (nonnegativity
clamp on the convex path, spectral ball on the linear maps, spectral-radius
guard on the transitions) applied after every parameter update.

Each step also evaluates the held-out saddle gap that the stopping rule
watches. Its dual half runs no forward pass of its own: the objective is
linear in the multipliers, so the dual gradient is the residual vector at
the fixed primal point, and the one forward at the current point (shared
with the first primal-descent step) yields every ascent step and the value
at the ascended multipliers, with the arithmetic of a forward per step.

`train` is the one saddle loop: it stops on `stop_test` and records the
last logged gap as DualGap, and both extragradient halves and the gap's
primal half descend along `_descent`.
The gap estimator runs one step behind, in a worker process forked at the
start of the loop (a fold uses two processes): step t + 1 never reads gap t,
so it runs while the worker computes gap t, and it is discarded when gap t
stops the run. States, histories and records are byte-identical to running
step and gap in turn.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import (
    ArbResiduals,
    DecoderParams,
    arb_residual_arrays,
    arb_residual_backward,
    decode_backward,
    decode_normalized,
    decode_surface,
    strike_coordinate,
)
from .generator import Fold, SyntheticPanel
from .grids import DomainError, MarketGrid, PriceSurface, coverage_stats, otm_values, parity_puts, strike_spacings
from .mathutil import softplus
from .operator import (
    OperatorParams,
    gate_density,
    gate_density_backward,
    green_sums,
    representer_fallback,
    scan_adjoint,
    scan_forward,
    scan_recursion,
)
from .qalign import (
    GuardConfig,
    GuardLog,
    lipschitz_project,
    spec_guard_project,
    spectral_norms,
    spectral_radius,
)
from .runlog import RunLog
from .vix import strip_coefficients


class TrainingDivergence(RuntimeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class TrainingConfig:
    gamma: float = 1.0
    beta_nov: float = 0.1
    xi: float = 0.5
    delta_gap_tol: float = 1e-3
    dual_residual_eps: float = 1e-3
    patience: int = 1000
    max_steps: int = 20_000
    n_slices: int = 8
    seed: int = 0
    step_primal: float = 3e-3
    step_dual: float = 1e-3
    dual_ramp_steps: int = 500
    dual_ramp_start: float = 0.1
    clip_norm: float = 5.0
    gate_lr_mult: float = 50.0
    feature_scale: float = 5.0
    dual_mult_na: float = 10.0
    dual_mult_mart: float = 1.0
    dual_mult_vix: float = 20.0
    k_inner: int = 5
    rank: int = 8
    feature_bins: int = 8
    readout_dim: int = 4
    width: int = 16
    depth: int = 2
    gate_enabled: bool = True
    specguard_enabled: bool = True
    guard: GuardConfig = field(default_factory=GuardConfig)
    log_every: int = 100

    def __post_init__(self):
        if min(self.delta_gap_tol, self.dual_residual_eps) <= 0 or self.patience < 1:
            raise DomainError("invalid stopping thresholds")
        for name, low in dict(rank=1, feature_bins=1, readout_dim=1, width=1, n_slices=1, k_inner=1,
                              depth=0, max_steps=0).items():
            if getattr(self, name) < low:
                raise DomainError(f"[training] {name} must be >= {low}")
        for name in ("step_primal", "step_dual"):
            if not getattr(self, name) > 0:
                raise DomainError(f"[training] {name} must be > 0")


# --- batch assembly ----------------------------------------------------------


@dataclass
class TrainBatch:
    """A fold's training windows on one grid, stacked on a leading axis W."""

    grid: MarketGrid
    cq: np.ndarray          # observed normalized calls (W, L, M), 0 at masked cells
    mask: np.ndarray        # (W, L, M) bool
    q_feat: np.ndarray      # normalized OTM quotes for features (W, L, M), 0 at masked
    vix2_obs: np.ndarray    # (W, L)
    km: np.ndarray          # strike coordinate (M,)
    strikes: np.ndarray     # (M,)
    dk: np.ndarray          # quadrature spacings (M,)
    dts: np.ndarray         # per-maturity propagation steps (L,)
    forwards: np.ndarray    # (L,)
    vix_coef: np.ndarray    # (L, M): (2 e^{rT}/T) dK / K^2
    vix_adj: np.ndarray     # (L,): (F/K0 - 1)^2 / T
    vix_weights: np.ndarray  # (L,): maturity weights on the replication block
    bin_index: np.ndarray   # (M,) feature bin of each strike
    n_obs: int

    @property
    def n_windows(self) -> int:
        return len(self.cq)

    @property
    def n_maturities(self) -> int:
        return len(self.dts)

    @property
    def n_strikes(self) -> int:
        return len(self.strikes)


def build_batch(panels: list, cfg: TrainingConfig) -> TrainBatch:
    """Assemble the static arrays and the stacked window data the loop
    consumes."""
    if not panels:
        raise DomainError("empty batch")
    grid = panels[0].quoted_surface.grid
    strikes = grid.strikes
    L = grid.n_maturities
    spot = grid.spot
    forwards = grid.forwards()
    strip = [strip_coefficients(grid, ell) for ell in range(L)]
    T = grid.maturities
    # weights proportional to maturity tame the 1/T amplification of the
    # short-end strip, which otherwise makes that constraint so stiff that
    # fixed-step saddle updates chatter around its kink
    vix_weights = T / T.mean()
    logm = np.log(strikes / spot)
    edges = np.linspace(logm[0], logm[-1], cfg.feature_bins + 1)
    bin_index = np.clip(np.searchsorted(edges, logm, side="right") - 1, 0, cfg.feature_bins - 1)

    surfaces = [panel.quoted_surface for panel in panels]
    for qs in surfaces:
        if qs.grid is not grid and not (np.array_equal(qs.grid.maturities, grid.maturities)
                                        and np.array_equal(qs.grid.strikes, grid.strikes)):
            raise DomainError("all windows must share the grid")
    mask = np.stack([qs.mask for qs in surfaces])
    calls = np.where(mask, np.stack([qs.calls for qs in surfaces]), 0.0) / spot
    puts = np.where(mask, np.stack([qs.puts for qs in surfaces]), 0.0) / spot
    n_obs = int(mask.sum())
    if n_obs == 0:
        raise DomainError("no observed cells in batch")
    return TrainBatch(
        grid=grid,
        cq=calls,
        mask=mask,
        q_feat=otm_values(strikes, forwards, puts, calls),
        vix2_obs=np.array([panel.vix2_observed for panel in panels], dtype=float),
        km=strike_coordinate(strikes, spot),
        strikes=strikes,
        dk=strike_spacings(strikes),
        dts=grid.time_steps(),
        forwards=forwards,
        vix_coef=np.stack([coef for coef, _ in strip]),
        vix_adj=np.array([adj for _, adj in strip]),
        bin_index=bin_index,
        vix_weights=vix_weights,
        n_obs=n_obs,
    )


# --- parameter vector --------------------------------------------------------


def init_primal(cfg: TrainingConfig, batch: TrainBatch, rng: np.random.Generator) -> dict:
    """Seeded initialization.

    Transitions start inside the safety region and the gate starts as a
    bump centered near the forward, so the implied-forward defect begins
    small. Decoder weights start small and strictly inside the spectral
    ball; the option-like base shape comes from the fixed anchor term of
    the decode, not from the learned maps.
    """
    L, M = batch.n_maturities, batch.n_strikes
    m, d, p = cfg.rank, cfg.feature_bins, cfg.readout_dim
    primal = {"transitions": np.tile(0.5 * np.eye(m), (L, 1, 1))}
    primal["injections"] = rng.standard_normal((L, m, d)) * 0.1
    primal["readouts"] = rng.standard_normal((L, p, m)) * 0.1

    grid = batch.grid
    logm = np.log(batch.strikes / grid.spot)
    width = 0.3

    def implied_forward(center):
        sp = softplus(-(((logm - center) / width) ** 2))
        return float((sp * batch.strikes * batch.dk).sum() / (sp * batch.dk).sum())

    centers = np.empty(L)
    for ell in range(L):
        lo, hi = logm[0], logm[-1]
        for _ in range(60):  # bisection: implied forward is increasing in center
            mid = 0.5 * (lo + hi)
            if implied_forward(mid) < batch.forwards[ell]:
                lo = mid
            else:
                hi = mid
        centers[ell] = 0.5 * (lo + hi)
    primal["gate_raw"] = -(((logm[None, :] - centers[:, None]) / width) ** 2)

    sizes = [1] + [cfg.width] * cfg.depth + [1]
    ctx = p + 1
    for i in range(len(sizes) - 1):
        primal[f"wz{i}"] = np.abs(rng.standard_normal((sizes[i + 1], sizes[i]))) * 0.05
        primal[f"wx{i}"] = rng.standard_normal((sizes[i + 1], 1 + ctx)) * 0.05
        primal[f"b{i}"] = np.zeros(sizes[i + 1])
    # near-zero output layer: the decoded surface starts essentially at the
    # anchor plus the small calendar lift, the layer wakes up through its
    # gradients, and the logged Lipschitz product stays positive (an exact
    # zero factor would annihilate it)
    out = len(sizes) - 2
    primal[f"wz{out}"][:] = np.abs(rng.standard_normal(primal[f"wz{out}"].shape)) * 1e-3
    primal[f"wx{out}"][:] = rng.standard_normal(primal[f"wx{out}"].shape) * 1e-3
    primal["slope_raw"] = np.full(L, -4.0)
    return primal


def _decoder_layer_names(primal: dict):
    n = 0
    while f"wz{n}" in primal:
        n += 1
    return n


def to_decoder_params(primal: dict) -> DecoderParams:
    n = _decoder_layer_names(primal)
    return DecoderParams(
        layer_weights_z=[primal[f"wz{i}"] for i in range(n)],
        layer_weights_x=[primal[f"wx{i}"] for i in range(n)],
        biases=[primal[f"b{i}"] for i in range(n)],
        maturity_slope_raw=primal["slope_raw"],
    )


def to_operator_params(primal: dict) -> OperatorParams:
    return OperatorParams(
        rank=primal["transitions"].shape[1],
        transitions=primal["transitions"],
        injections=primal["injections"],
        readouts=primal["readouts"],
        gate_raw=primal["gate_raw"],
    )


def _pv_add(a: dict, b: dict, alpha: float) -> dict:
    return {k: a[k] + alpha * b[k] for k in a}


def _apply_block_steps(g: dict, cfg: "TrainingConfig") -> dict:
    """Per-block step multipliers: the gate's normalization shrinks its
    gradients by the softplus mass, so its block runs a larger fixed step."""
    if cfg.gate_lr_mult == 1.0:
        return g
    out = dict(g)
    out["gate_raw"] = g["gate_raw"] * cfg.gate_lr_mult
    return out


def _clip_gradient(g: dict, clip_norm: float) -> dict:
    """Global-norm clip; inactive when the norm is inside the budget."""
    if not np.isfinite(clip_norm):
        return g
    total = np.sqrt(sum(float((v**2).sum()) for v in g.values()))
    if total <= clip_norm:
        return g
    scale = clip_norm / total
    return {k: v * scale for k, v in g.items()}


# --- checkpoints -------------------------------------------------------------


def save_checkpoint(primal: dict, path) -> None:
    """Write the primal parameters to one `.npz` archive keyed by parameter
    name (numpy appends `.npz` to a path without it)."""
    np.savez(path, **primal)


def load_checkpoint(path) -> dict:
    """The parameters written by `save_checkpoint`, keyed by name."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


# --- state -------------------------------------------------------------------


@dataclass
class TrainHistory:
    """Per step: held-out gap, the stop rule's (|delta gap|, dual residual)
    pair and seconds since the loop began."""

    gap: list = field(default_factory=list)
    stop_pairs: list = field(default_factory=list)
    wall: list = field(default_factory=list)
    stopped_at: int | None = None


@dataclass
class SaddleState:
    primal: dict
    duals: dict
    cfg: TrainingConfig
    step: int = 0
    guard: GuardLog = field(default_factory=GuardLog)
    history: TrainHistory = field(default_factory=TrainHistory)
    pre_pass: dict | None = None  # the primal before the last safety pass on it

    def dual_step_now(self) -> float:
        cfg = self.cfg
        ramp = cfg.dual_ramp_start + (1.0 - cfg.dual_ramp_start) * min(
            1.0, self.step / max(cfg.dual_ramp_steps, 1)
        )
        return cfg.step_dual * ramp


def init_state(cfg: TrainingConfig, batch: TrainBatch) -> SaddleState:
    rng = np.random.default_rng(cfg.seed)
    primal = init_primal(cfg, batch, rng)
    L, M = batch.n_maturities, batch.n_strikes
    n_na = arb_residual_arrays(np.zeros((L, M)), batch.strikes, 1.0).flatten().size
    duals = {"na": np.zeros(n_na), "mart": np.zeros(L), "vix": np.zeros(L)}
    state = SaddleState(primal=primal, duals=duals, cfg=cfg)
    state.pre_pass = apply_qalign(state.primal, batch, cfg, state.guard)
    return state


# --- forward / objective -----------------------------------------------------


def _gate_density(primal: dict, batch: TrainBatch, cfg: TrainingConfig):
    """(w, softplus mass, softplus exponential) of the gate; the ablation's
    uniform density has neither."""
    if not cfg.gate_enabled:
        L, M = primal["gate_raw"].shape
        return np.full((L, M), 1.0 / batch.dk.sum()), None, None
    return gate_density(primal["gate_raw"], batch.dk)


def _features(w_den, batch: TrainBatch, cfg: TrainingConfig):
    """Integrated bin features u (W, L, d) of every window."""
    if cfg.gate_enabled:
        omega = w_den * batch.dk * batch.mask
    else:
        raw = batch.dk * batch.mask
        denom = np.maximum(raw.sum(axis=-1, keepdims=True), 1e-300)
        omega = raw / denom
    weighted = omega * batch.q_feat
    u = np.zeros(batch.mask.shape[:-1] + (cfg.feature_bins,))
    np.add.at(u.T, batch.bin_index, weighted.T)
    # fixed input scaling keeps features O(1) so the norm-capped injections
    # can actually transmit them
    return cfg.feature_scale * u


@dataclass
class ForwardCache:
    """One forward over every window: the objective parts and what the reverse pass reuses."""

    value: float
    mse: float
    w_den: np.ndarray
    mres: np.ndarray
    r_na: np.ndarray
    r_vix: np.ndarray
    u: np.ndarray          # scan inputs (W, L, d)
    hs: np.ndarray         # latent states (W, L+1, m)
    cnorm: np.ndarray      # decoded normalized calls (W, L, M)
    diff: np.ndarray       # masked pricing residual (W, L, M)
    res: ArbResiduals      # static-arbitrage residuals of cnorm
    vix_resid: np.ndarray  # replication residual (W, L)
    dec_cache: dict        # the one `decode_normalized` cache
    slices: np.ndarray
    gate_mass: np.ndarray | None
    gate_exp: np.ndarray | None  # exp(-|gate_raw|), for the gate's softplus derivative
    dec: DecoderParams  # the decoder of the primal point, built and checked once


def model_forward(primal: dict, duals: dict, batch: TrainBatch, cfg: TrainingConfig,
                  slices: np.ndarray | None = None) -> ForwardCache:
    """Objective value plus everything the reverse pass reuses; the training
    windows run as one batch through features, scan, decode and stencil, and
    the residual blocks are averaged over them."""
    if slices is None:
        slices = np.arange(batch.n_maturities)
    w_den, gate_mass, gate_exp = _gate_density(primal, batch, cfg)
    fwd_gate = (w_den * batch.strikes[None, :] * batch.dk[None, :]).sum(axis=1)
    mres = np.abs(fwd_gate - batch.forwards) / batch.forwards

    dec = to_decoder_params(primal)
    u = _features(w_den, batch, cfg)
    hs, y = scan_recursion(primal["transitions"], primal["injections"], primal["readouts"], u)
    cnorm, dec_cache = decode_normalized(dec, batch.km, y, batch.grid.maturities)
    diff = (cnorm - batch.cq) * batch.mask
    res = arb_residual_arrays(cnorm, batch.strikes, 1.0)
    # replication residual: observed minus the strip variance of the decoded surfaces
    calls = batch.grid.spot * cnorm
    q = otm_values(batch.strikes, batch.forwards, parity_puts(batch.grid, calls), calls)
    vix_resid = batch.vix2_obs - ((batch.vix_coef * q).sum(axis=-1) - batch.vix_adj)
    W = batch.n_windows
    fw = ForwardCache(0.0, float((diff**2).sum()) / batch.n_obs, w_den, mres,
                      res.flatten().sum(axis=0) / W, (batch.vix_weights * vix_resid**2).sum(axis=0) / W,
                      u, hs, cnorm, diff, res, vix_resid, dec_cache, slices, gate_mass, gate_exp, dec)
    fw.value = _objective_value(fw, duals, cfg)
    return fw


def _objective_value(fw: ForwardCache, duals: dict, cfg: TrainingConfig) -> float:
    """Objective at the duals given, from the residuals of a forward pass.

    The objective is linear in the duals, so one forward serves any duals at
    the same primal point; every objective value is summed here, in one
    operand order, so values computed either way agree bit for bit.
    """
    s = fw.slices
    value = (
        fw.mse
        + float(duals["na"] @ fw.r_na)
        + cfg.gamma * float(duals["mart"][s] @ fw.mres[s])
        + cfg.xi * float(duals["vix"] @ fw.r_vix)
        + cfg.beta_nov * float(np.mean(fw.mres[s] ** 2))
    )
    if not np.isfinite(value):
        raise TrainingDivergence(f"non-finite objective ({value})")
    return value


def dual_gradient(fw: ForwardCache, cfg: TrainingConfig, n_mart: int) -> dict:
    g_mart = np.zeros(n_mart)
    g_mart[fw.slices] = cfg.gamma * fw.mres[fw.slices]
    return {"na": fw.r_na, "mart": g_mart, "vix": cfg.xi * fw.r_vix}


def dual_residual_norm(fw: ForwardCache, cfg: TrainingConfig) -> float:
    """Infinity norm of the full constraint-residual vector (all slices)."""
    return float(
        max(
            fw.r_na.max(initial=0.0),
            cfg.gamma * fw.mres.max(initial=0.0),
            cfg.xi * fw.r_vix.max(initial=0.0),
        )
    )


# --- backward ----------------------------------------------------------------


def primal_gradient(primal: dict, duals: dict, batch: TrainBatch, cfg: TrainingConfig,
                    fw: ForwardCache) -> dict:
    """Analytic reverse pass over the forward cache: the objective heads,
    then `decode_backward`, `scan_adjoint`, the feature integration and
    `gate_density_backward`, every window at once; the weight gradients sum
    over the windows."""
    L = batch.n_maturities
    W = batch.n_windows
    grads = {k: np.zeros_like(v) for k, v in primal.items()}

    # martingale and roughness-penalty paths (gate only)
    sign = np.sign(
        (fw.w_den * batch.strikes[None, :] * batch.dk[None, :]).sum(axis=1) - batch.forwards
    )
    coef = np.zeros(L)
    coef[fw.slices] = (
        cfg.gamma * duals["mart"][fw.slices]
        + 2.0 * cfg.beta_nov * fw.mres[fw.slices] / len(fw.slices)
    )
    dw_den = (coef * sign / batch.forwards)[:, None] * (batch.strikes * batch.dk)[None, :]

    dcnorm = 2.0 * fw.diff / batch.n_obs
    dcnorm += arb_residual_backward(fw.res, duals["na"], fw.cnorm, batch.strikes, 1.0, 1.0 / W)
    # squared-residual head: R = obs - v2m, v2m linear in spot * cnorm
    dv2m = -(cfg.xi / W) * duals["vix"] * batch.vix_weights * 2.0 * fw.vix_resid
    dcnorm += dv2m[..., None] * batch.vix_coef * batch.grid.spot
    g_dec, dy = decode_backward(fw.dec, fw.dec_cache, dcnorm)
    grads["slope_raw"] = g_dec["maturity_slope_raw"]
    for i in range(fw.dec.n_layers):
        grads[f"wz{i}"] = g_dec["layer_weights_z"][i]
        grads[f"wx{i}"] = g_dec["layer_weights_x"][i]
        grads[f"b{i}"] = g_dec["biases"][i]

    # the weight gradients are outer products, formed for all windows and
    # maturities at once
    dh, du = scan_adjoint(primal["transitions"], primal["injections"], primal["readouts"], dy)
    grads["readouts"] += (dy[..., None] * fw.hs[:, 1:, None, :]).sum(axis=0)
    grads["transitions"] += (dh[..., None] * fw.hs[:, :-1, None, :]).sum(axis=0)
    grads["injections"] += (dh[..., None] * fw.u[:, :, None, :]).sum(axis=0)

    # a disabled (uniform) gate has no parameter path
    if cfg.gate_enabled:
        # gated feature integration: u = feature_scale * bin sums of w * dk * mask * q
        dw_den += (cfg.feature_scale * du[..., batch.bin_index] * batch.q_feat * batch.dk
                   * batch.mask).sum(axis=0)
        grads["gate_raw"] += gate_density_backward(primal["gate_raw"], batch.dk, fw.w_den, fw.gate_mass,
                                                   fw.gate_exp, dw_den)
    return grads


def _descent(primal: dict, duals: dict, batch: TrainBatch, cfg: TrainingConfig,
             fw: ForwardCache) -> dict:
    """Primal descent direction at the forward's point: the reverse pass,
    clipped to the global norm budget, then scaled block by block."""
    return _apply_block_steps(
        _clip_gradient(primal_gradient(primal, duals, batch, cfg, fw), cfg.clip_norm), cfg
    )


# --- safety pass -------------------------------------------------------------


def _decoder_map_keys(primal: dict):
    return [f"{kind}{i}" for i in range(_decoder_layer_names(primal)) for kind in ("wz", "wx")]


def _lip_product(primal: dict) -> float:
    """Product of the spectral norms of every linear map of the model."""
    prod = float(np.prod([spectral_norms(primal[k]) for k in ("transitions", "injections", "readouts")]))
    for key in _decoder_map_keys(primal):
        prod *= spectral_norms(primal[key])
    return prod


def apply_qalign(primal: dict, batch: TrainBatch, cfg: TrainingConfig, log: GuardLog) -> dict:
    """Safety pass on the primal dict: convex-path clamp, spectral ball of
    radius tau on every decoder map, injection and readout, and the
    spectral-radius guard on the transitions; all three distances add to
    log.projection_distance. Each changed map is rebound to a new array, no
    array is written, so the returned shallow copy of the dict taken before
    the pass is the pre-pass primal `lipschitz_surrogate` reads."""
    before = dict(primal)
    for key in _decoder_map_keys(primal) + ["injections", "readouts"]:
        if key.startswith("wz"):
            neg = np.minimum(primal[key], 0.0)
            if np.any(neg < 0.0):
                log.projection_distance += float(np.linalg.norm(neg))
                log.clamp_hits += 1
                primal[key] = np.maximum(primal[key], 0.0)
        primal[key], dist = lipschitz_project(primal[key], cfg.guard)
        log.projection_distance += dist

    if cfg.specguard_enabled:
        primal["transitions"] = spec_guard_project(primal["transitions"], batch.dts, cfg.guard, log)
    else:
        for rho_dt in spectral_radius(primal["transitions"]) * batch.dts:
            log.max_rho_dt = max(log.max_rho_dt, float(rho_dt))
    return before


def lipschitz_surrogate(pre: dict, post: dict) -> tuple:
    """(before, after) Lipschitz surrogate of one safety pass, from the
    primal before it and after it: the largest Green-kernel sum over
    maturities (taken before the pass) times the product of the exact norms
    of every map, with after capped at before."""
    green = float(green_sums(pre["transitions"], pre["injections"]).max())
    before = green * _lip_product(pre)
    return before, min(green * _lip_product(post), before)


# --- extragradient -----------------------------------------------------------


def _dual_add(duals: dict, g: dict, eta: float, mults: dict | None = None) -> dict:
    """Projected dual step: the multipliers clipped at zero."""
    mults = mults or {}
    return {k: np.maximum(duals[k] + eta * mults.get(k, 1.0) * g[k], 0.0) for k in duals}


def _dual_mults(cfg: TrainingConfig) -> dict:
    return {"na": cfg.dual_mult_na, "mart": cfg.dual_mult_mart, "vix": cfg.dual_mult_vix}


def extragradient_step(state: SaddleState, batch: TrainBatch, cfg: TrainingConfig,
                       rng: np.random.Generator) -> ForwardCache:
    """One predict-then-correct update; returns the step's first forward
    cache, taken at the pre-step primal and duals (the stop diagnostics and
    the record's ratio_log and martingale residual read it)."""
    L = batch.n_maturities
    slices = np.sort(rng.choice(L, size=min(cfg.n_slices, L), replace=False))
    eta_p = state.cfg.step_primal
    eta_d = state.dual_step_now()

    fw0 = model_forward(state.primal, state.duals, batch, cfg, slices)
    gp0 = _descent(state.primal, state.duals, batch, cfg, fw0)
    gd0 = dual_gradient(fw0, cfg, L)

    half_primal = _pv_add(state.primal, gp0, -eta_p)
    apply_qalign(half_primal, batch, cfg, state.guard)
    half_duals = _dual_add(state.duals, gd0, eta_d, _dual_mults(cfg))

    fw1 = model_forward(half_primal, half_duals, batch, cfg, slices)
    gp1 = _descent(half_primal, half_duals, batch, cfg, fw1)
    gd1 = dual_gradient(fw1, cfg, L)

    state.primal = _pv_add(state.primal, gp1, -eta_p)
    state.pre_pass = apply_qalign(state.primal, batch, cfg, state.guard)
    state.duals = _dual_add(state.duals, gd1, eta_d, _dual_mults(cfg))
    state.step += 1
    return fw0


# --- empirical saddle gap ----------------------------------------------------


def empirical_gap_from_state(state: SaddleState, heldout: TrainBatch) -> float:
    """Model-bound gap estimator on a held-out batch (all maturities).

    k projected ascent steps on the duals at the current primal point, minus
    k descent steps on the primal at the current duals. The dual half needs
    no forward of its own: the dual gradient is the residual vector, which
    depends on the primal point only, so the one forward at the current
    point gives every ascent step and, the objective being linear in the
    duals, the value at the ascended duals too. That forward is also the
    first step of the primal half, so a call runs k + 1 forwards and k
    reverse passes, with the same arithmetic as evaluating each step anew.
    """
    cfg = state.cfg
    k = cfg.k_inner
    eta_p, eta_d = cfg.step_primal, cfg.step_dual

    fw0 = model_forward(state.primal, state.duals, heldout, cfg)
    g = dual_gradient(fw0, cfg, heldout.n_maturities)
    duals = state.duals
    for _ in range(k):
        duals = _dual_add(duals, g, eta_d)
    sup_val = _objective_value(fw0, duals, cfg)

    primal, fw = state.primal, fw0
    for _ in range(k):
        primal = _pv_add(primal, _descent(primal, state.duals, heldout, cfg, fw), -eta_p)
        for key in primal:
            if key.startswith("wz"):
                np.maximum(primal[key], 0.0, out=primal[key])
        fw = model_forward(primal, state.duals, heldout, cfg)
    return float(sup_val - fw.value)


# --- stopping ----------------------------------------------------------------


def stop_test(pairs, cfg: TrainingConfig) -> bool:
    """True iff both stopping statistics stayed below their thresholds for
    the `patience` most recent (|delta gap|, dual residual) pairs.

    Walks back from the newest pair and returns at the first one that misses
    a threshold, so a call costs at most the current streak and copies
    nothing."""
    streak = 0
    for dg, dr in reversed(pairs):
        if not (dg < cfg.delta_gap_tol and dr < cfg.dual_residual_eps):
            return False
        streak += 1
        if streak >= cfg.patience:
            return True
    return False


def ratio_log(primal_value: float, dual_value: float) -> float:
    """log(primal/dual) bias diagnostic; NaN sentinel outside the domain."""
    if primal_value <= 0.0 or dual_value <= 0.0:
        return float("nan")
    return float(np.log(primal_value / dual_value))


# --- fold training -----------------------------------------------------------


@dataclass
class FoldData:
    train_panels: list
    val_panel: SyntheticPanel
    oos_panels: list

    @classmethod
    def from_fold(cls, panels: list, fold: Fold) -> "FoldData":
        return cls(
            train_panels=[panels[i] for i in fold.train],
            val_panel=panels[fold.val],
            oos_panels=[panels[i] for i in fold.oos],
        )


def window_features(primal: dict, panel: SyntheticPanel, cfg: TrainingConfig) -> tuple:
    """(grid, u): the window's grid and its (L, d) scan inputs under the
    current gate."""
    batch = build_batch([panel], cfg)
    return batch.grid, _features(_gate_density(primal, batch, cfg)[0], batch, cfg)[0]


def decode_window(primal: dict, panel: SyntheticPanel, cfg: TrainingConfig) -> PriceSurface:
    """Decoded currency surface for one window under the current parameters:
    the public scan and decoder on the window's features."""
    grid, u = window_features(primal, panel, cfg)
    trajectory = scan_forward(to_operator_params(primal), u)
    return decode_surface(to_decoder_params(primal), trajectory, grid)


class _GapWorker:
    """The held-out gap estimator in a forked process, one step behind the
    saddle loop: `submit` hands it the primal and duals of a step, `result`
    waits for that step's gap and raises what the estimator raised.

    Fork gives the child the held-out batch and cfg without pickling them,
    and the module attributes as they are when `train` starts. The child
    closes its inherited copy of the parent's end, so closing that end (or
    the parent dying) reaches it as EOF and it exits; a worker that dies
    reaches the parent as EOF and raises an error naming the step."""

    def __init__(self, heldout: TrainBatch, cfg: TrainingConfig):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        # daemon: a worker that a fault leaves running is ended at interpreter
        # exit instead of being waited for
        self._proc = ctx.Process(target=_gap_worker, args=(child_end, self._conn, heldout, cfg),
                                 name="arbsurf-gap-worker", daemon=True)
        self._proc.start()
        child_end.close()
        self.pending = None  # the step whose gap the worker owes

    def submit(self, state: SaddleState) -> None:
        self.pending = state.step
        self._conn.send((state.primal, state.duals))

    def result(self) -> float:
        try:
            ok, value = self._conn.recv()
        except EOFError as err:
            self._proc.join()
            raise RuntimeError(f"gap worker exited with code {self._proc.exitcode} before "
                               f"returning the held-out gap of step {self.pending}") from err
        self.pending = None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        self._conn.close()
        if self.pending is not None:  # left mid-gap by an error: its result is not wanted
            self._proc.terminate()
        self._proc.join()


def _gap_worker(conn, parent_end, heldout: TrainBatch, cfg: TrainingConfig) -> None:
    parent_end.close()
    while True:
        try:
            primal, duals = conn.recv()
        except EOFError:  # the loop closed its end: no more steps
            return
        try:
            reply = True, empirical_gap_from_state(SaddleState(primal, duals, cfg), heldout)
        except Exception as err:  # the loop raises it as the serial loop would
            reply = False, err
        conn.send(reply)


def _saddle_loop(state: SaddleState, batch: TrainBatch, heldout: TrainBatch,
                 cfg: TrainingConfig):
    """Extragradient steps until `stop_test` holds or cfg.max_steps, the
    held-out gap of step t computed by a `_GapWorker` while step t + 1 runs
    on a copy of the state. Step t + 1 is kept only once gap t is logged and
    the rule has not stopped the run; a stop, or a divergence of gap t, leaves
    the state of step t, as a loop running the two in turn would. Returns
    (state, the last logged step's first forward, the duals that forward
    saw); the forward and duals are None when no step ran."""
    rng = np.random.default_rng(cfg.seed + 1)
    hist = state.history
    fw = duals = None
    t0 = time.perf_counter()
    gaps = _GapWorker(heldout, cfg)
    try:
        while True:
            ahead = replace(state, guard=replace(state.guard))
            ahead_fw = error = None
            if ahead.step < cfg.max_steps:
                try:
                    ahead_fw = extragradient_step(ahead, batch, cfg, rng)
                except Exception as err:  # raised only if gap t does not stop the run
                    error = err
            if gaps.pending is not None:
                gap = gaps.result()
                delta_gap = abs(gap - hist.gap[-1]) if hist.gap else float("inf")
                hist.gap.append(gap)
                hist.stop_pairs.append((delta_gap, dual_residual_norm(fw, cfg)))
                hist.wall.append(time.perf_counter() - t0)
                if stop_test(hist.stop_pairs, cfg):
                    hist.stopped_at = state.step
                    break
            if error is not None:
                state = ahead
                raise error
            if ahead_fw is None:
                break
            state, fw, duals = ahead, ahead_fw, state.duals
            gaps.submit(state)
    except TrainingDivergence as err:
        raise TrainingDivergence(str(err), state=state) from err
    finally:
        gaps.close()
    return state, fw, duals


def train(cfg: TrainingConfig, data: FoldData):
    """Run the saddle loop on one fold; returns (state, run log record).

    The record holds what training measures; `train` decodes no surface,
    and `cli.run_fold` fills in NAS, CNAS, Stability and the OOS fields.

    Stops at the first step where `stop_test` holds on the logged pairs, or
    after cfg.max_steps. The held-out gap of each step runs in a forked
    worker process while the next step runs, so a fold uses two processes;
    when the rule stops the run, the step taken past it is discarded. The
    state and record are those of running step and gap in turn. The
    record's Lipschitz surrogate is computed once, after the loop, for the
    last safety pass kept (`SaddleState.pre_pass` and the state's primal).
    Deterministic given cfg.seed. Divergence raises TrainingDivergence with
    the last valid state attached.
    """
    panels = list(data.train_panels)
    cover = coverage_stats([p.quoted_surface for p in panels + [data.val_panel]])
    representer_record = None

    batch = build_batch(panels, cfg)
    state = init_state(cfg, batch)

    if cover.flagged:
        filled = []
        op = to_operator_params(state.primal)
        for p in panels:
            surf, rec = representer_fallback(p.quoted_surface, op, step=0)
            if rec is not None:
                representer_record = rec
            filled.append(replace(p, quoted_surface=surf))
        panels = filled
        batch = build_batch(panels, cfg)

    heldout = build_batch([data.val_panel], cfg)
    state, fw, duals = _saddle_loop(state, batch, heldout, cfg)
    hist = state.history
    # the initial safety pass when no step ran
    state.guard.lambda_lip_before, state.guard.lambda_lip_after = lipschitz_surrogate(
        state.pre_pass, state.primal)

    final_ratio = None
    if fw is None:  # no step ran: the defect at the initial point, all maturities
        fw = model_forward(state.primal, state.duals, batch, cfg)
    else:
        dual_part = (
            float(duals["na"] @ fw.r_na)
            + cfg.gamma * float(duals["mart"][fw.slices] @ fw.mres[fw.slices])
            + cfg.xi * float(duals["vix"] @ fw.r_vix)
        )
        final_ratio = ratio_log(fw.mse, dual_part)
    run = RunLog(
        DualGap=hist.gap[-1] if hist.gap else None,
        spec_guard_hits=state.guard.spec_guard_hits,
        projection_distance=state.guard.projection_distance,
        max_rho_dt=state.guard.max_rho_dt,
        ratio_log=final_ratio,
        enter_representer_at_step=(
            representer_record.enter_representer_at_step if representer_record else None
        ),
        coverage_min=cover.coverage_min,
        coverage_mean=cover.coverage_mean,
        coverage_at_trigger=(
            representer_record.coverage_at_trigger if representer_record else None
        ),
        martingale_residual=float(fw.mres.mean()),
        lambda_lip_before=state.guard.lambda_lip_before,
        lambda_lip_after=state.guard.lambda_lip_after,
        filter_rate=float(np.mean([p.filter_rate for p in data.train_panels + [data.val_panel]])),
    )
    run.stopped = hist.stopped_at is not None
    return state, run
