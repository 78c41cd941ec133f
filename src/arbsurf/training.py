"""
Saddle training of the scan operator plus convex-monotone decoder.

Objective (multipliers lambda >= 0, fixed penalty weights GAMMA/XI/BETA_NOV):

    L = pricing MSE on observed cells (spot-normalized prices)
      + <lambda_na, static-arbitrage residuals of the normalized surface>
      + GAMMA * <lambda_mart, gate-forward defects on N_SLICES sampled slices>
      + XI * <lambda_vix, w(T) * squared variance-replication residuals>
      + BETA_NOV * mean(defect^2 on sampled slices)

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
integration.

The solver is written once, as two model-free functions over dict-valued
points that the tests also drive on games with known answers.
`_extragradient` is one two-time-scale projected extragradient step: half
step at the current point, full step evaluated at the half point, each new
point projected. `extragradient_step` binds it to the model: a forward and
`_descent` as the oracle, the multipliers clipped at zero with per-block
steps, and the safety projections (nonnegativity clamp on the convex path,
spectral ball on the linear maps, spectral-radius guard on the transitions)
after every parameter update. `_saddle_gap` is the gap estimator, k
projected ascent steps in the duals against k descent steps in the primal;
`empirical_gap_from_state` binds it to the model on a held-out batch.

Each step also evaluates the held-out saddle gap that the stopping rule
watches. Its dual half runs no forward pass of its own: the objective is
linear in the multipliers, so the dual gradient is the residual vector at
the fixed primal point, and the one forward at the current point (shared
with the first primal-descent step) yields every ascent step and the value
at the ascended multipliers, with the arithmetic of a forward per step.

The forward, the reverse pass, the objective and the clip take an optional
leading point axis on the primal and duals (see `mathutil`). The step runs
without it; the gap estimator stacks the states it is given on it and runs
them as one batch, each point bit-equal to its own unbatched run.

`train` is the one saddle loop: it runs at least one step, stops on
`stop_test` and records the last logged gap as DualGap. The penalty weights,
the stopping rule and the solver's inner settings are module constants, not
`TrainingConfig` fields, so no config can change them.
No step reads a gap, so the loop runs up to sixteen steps past the last
logged gap and leaves every gap to a worker process forked at the start of
the loop (a fold uses two processes): the worker takes the steps waiting for
it, up to eight, and computes their gaps as one batch. Gaps are logged in
step order, and the steps past a stop are discarded. States, histories and
records are byte-identical to running step and gap in turn.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import (
    ArbResiduals,
    DecodeRows,
    DecoderParams,
    arb_residual_arrays,
    arb_residual_backward,
    decode_backward,
    decode_normalized,
    decode_rows,
    decode_surface,
    strike_coordinate,
)
from .generator import Fold, SyntheticPanel
from .grids import (
    DomainError,
    MarketGrid,
    PriceSurface,
    coverage_stats,
    otm_is_put,
    otm_values,
    parity_terms,
    strike_spacings,
)
from .mathutil import softplus, window_axis
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


# Fixed protocol of the saddle loop: step policy, penalty weights and stopping
# rule. None of these is a config key.
FEATURE_SCALE = 5.0  # input scaling that keeps the bin features O(1)
GATE_LR_MULT = 50.0  # larger fixed step of the gate block
DUAL_MULTS = {"na": 10.0, "mart": 1.0, "vix": 20.0}  # per-block dual step multipliers
DUAL_RAMP_START, DUAL_RAMP_STEPS = 0.1, 500  # dual step ramps from 0.1x to 1x over 500 steps
N_SLICES = 8  # maturities sampled per step for the martingale and roughness terms
CLIP_NORM = 5.0  # global-norm budget of the primal descent direction
K_INNER = 5  # ascent and descent steps of each held-out gap
GAMMA = 1.0  # weight of the martingale dual term
XI = 0.5  # weight of the replication dual term
BETA_NOV = 0.1  # weight of the roughness penalty
DELTA_GAP_TOL = 1e-3  # stop threshold on |change of the held-out gap|
DUAL_RESIDUAL_EPS = 1e-3  # stop threshold on the dual residual's infinity norm
PATIENCE = 1000  # consecutive steps both statistics must stay below their thresholds

# The decoder's layout: DECODER_DEPTH hidden layers and the output layer, each
# with a convex-path map wz (kept nonnegative), an input map wx and a bias b.
DECODER_DEPTH = 2
CONVEX_MAPS = tuple(f"wz{i}" for i in range(DECODER_DEPTH + 1))
INPUT_MAPS = tuple(f"wx{i}" for i in range(DECODER_DEPTH + 1))
BIASES = tuple(f"b{i}" for i in range(DECODER_DEPTH + 1))
DECODER_MAPS = tuple(k for pair in zip(CONVEX_MAPS, INPUT_MAPS) for k in pair)  # wz0, wx0, wz1, ...


class TrainingDivergence(RuntimeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class TrainingConfig:
    """The settings a run may vary: seed, step budget, step sizes, the
    scan's and the decoder's widths, the two ablation switches and the
    safety guard. The decoder's depth, the objective's weights, the stopping
    rule and the solver's inner settings are the module constants above."""

    seed: int = 0
    max_steps: int = 20_000
    step_primal: float = 3e-3
    step_dual: float = 1e-3
    rank: int = 8
    feature_bins: int = 8
    readout_dim: int = 4
    width: int = 16
    gate_enabled: bool = True
    specguard_enabled: bool = True
    guard: GuardConfig = field(default_factory=GuardConfig)

    def __post_init__(self):
        for name, low in dict(seed=0, rank=1, feature_bins=1, readout_dim=1, width=1, max_steps=1).items():
            if getattr(self, name) < low:
                raise DomainError(f"[training] {name} must be >= {low}")
        for name in ("step_primal", "step_dual"):  # NaN fails the comparison
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
    decode: DecodeRows      # the decode's fixed inputs for W windows
    strikes: np.ndarray     # (M,)
    dk: np.ndarray          # quadrature spacings (M,)
    strikes_dk: np.ndarray  # strikes * dk (M,)
    parity_spot: np.ndarray     # S0 e^{-qT} (L, 1) and
    parity_strikes: np.ndarray  # e^{-rT} K (L, M): puts = calls - parity_spot + parity_strikes
    otm_put: np.ndarray     # (L, M) bool: K < F, where the out-of-the-money quote is the put
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
    consumes, with every per-batch constant of the forward (the decode's
    fixed inputs, the parity rows, the out-of-the-money mask) computed once."""
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
    dk = strike_spacings(strikes)
    parity_spot, parity_strikes = parity_terms(grid)
    return TrainBatch(
        grid=grid,
        cq=calls,
        mask=mask,
        q_feat=otm_values(strikes, forwards, puts, calls),
        vix2_obs=np.array([panel.vix2_observed for panel in panels], dtype=float),
        decode=decode_rows(strike_coordinate(strikes, spot), T, len(panels), cfg.readout_dim + 1),
        strikes=strikes,
        dk=dk,
        strikes_dk=strikes * dk,
        parity_spot=parity_spot,
        parity_strikes=parity_strikes,
        otm_put=otm_is_put(strikes, forwards),
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

    sizes = [1] + [cfg.width] * DECODER_DEPTH + [1]
    ctx = p + 1
    for i, (wz, wx, b) in enumerate(zip(CONVEX_MAPS, INPUT_MAPS, BIASES)):
        primal[wz] = np.abs(rng.standard_normal((sizes[i + 1], sizes[i]))) * 0.05
        primal[wx] = rng.standard_normal((sizes[i + 1], 1 + ctx)) * 0.05
        primal[b] = np.zeros(sizes[i + 1])
    # near-zero output layer: the decoded surface starts essentially at the
    # anchor plus the small calendar lift, the layer wakes up through its
    # gradients, and the logged Lipschitz product stays positive (an exact
    # zero factor would annihilate it)
    wz, wx = CONVEX_MAPS[-1], INPUT_MAPS[-1]
    primal[wz][:] = np.abs(rng.standard_normal(primal[wz].shape)) * 1e-3
    primal[wx][:] = rng.standard_normal(primal[wx].shape) * 1e-3
    primal["slope_raw"] = np.full(L, -4.0)
    return primal


def to_decoder_params(primal: dict) -> DecoderParams:
    return DecoderParams(
        layer_weights_z=[primal[k] for k in CONVEX_MAPS],
        layer_weights_x=[primal[k] for k in INPUT_MAPS],
        biases=[primal[k] for k in BIASES],
        maturity_slope_raw=primal["slope_raw"],
    )


def to_operator_params(primal: dict) -> OperatorParams:
    return OperatorParams(
        transitions=primal["transitions"],
        injections=primal["injections"],
        readouts=primal["readouts"],
        gate_raw=primal["gate_raw"],
    )


def _pv_add(a: dict, b: dict, alpha) -> dict:
    """a + alpha * b block by block; alpha is one step or a dict of steps per block."""
    steps = alpha if isinstance(alpha, dict) else dict.fromkeys(a, alpha)
    return {k: a[k] + steps[k] * b[k] for k in a}


def _clip_gradient(g: dict) -> dict:
    """Global-norm clip to CLIP_NORM, one norm per point; inactive where the
    norm is inside the budget. Each norm adds its block sums from zero in the
    primal's block order, as a Python `sum` over the blocks would."""
    points = g["slope_raw"].shape[:-1]
    total = 0.0
    for v in g.values():
        total = total + (v**2).reshape(points + (-1,)).sum(axis=-1)
    total = np.sqrt(total)
    if np.all(total <= CLIP_NORM):
        return g
    scale = np.where(total <= CLIP_NORM, 1.0, CLIP_NORM / total)
    return {k: v * scale.reshape(points + (1,) * (v.ndim - len(points))) for k, v in g.items()}


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
    pair and seconds since the loop began, taken when the gap is logged."""

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
        ramp = DUAL_RAMP_START + (1.0 - DUAL_RAMP_START) * min(1.0, self.step / DUAL_RAMP_STEPS)
        return self.cfg.step_dual * ramp


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
        return np.full(primal["gate_raw"].shape, 1.0 / batch.dk.sum()), None, None
    return gate_density(primal["gate_raw"], batch.dk)


def _features(w_den, batch: TrainBatch, cfg: TrainingConfig):
    """Integrated bin features u (W, L, d) of every window, (P, W, L, d) for
    a gate with a point axis; the ablation's features have none."""
    if cfg.gate_enabled:
        omega = window_axis(w_den, 2) * batch.dk * batch.mask
    else:
        raw = batch.dk * batch.mask
        denom = np.maximum(raw.sum(axis=-1, keepdims=True), 1e-300)
        omega = raw / denom
    weighted = omega * batch.q_feat
    u = np.zeros(weighted.shape[:-1] + (cfg.feature_bins,))
    np.add.at(u.T, batch.bin_index, weighted.T)
    # fixed input scaling keeps features O(1) so the norm-capped injections
    # can actually transmit them
    return FEATURE_SCALE * u


@dataclass
class ForwardCache:
    """One forward over every window: the objective parts and what the
    reverse pass reuses. For a primal with a point axis, the values are (P,)
    arrays and the arrays that depend on the primal gain a leading P axis."""

    value: float
    mse: float
    w_den: np.ndarray
    defect: np.ndarray     # signed gate-implied forward minus forward (L,)
    mres: np.ndarray       # |defect| / forward (L,)
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
    the residual blocks are averaged over them. A primal and duals with a
    leading point axis run every point at once, each point bit-equal to a
    call of its own."""
    if slices is None:
        slices = np.arange(batch.n_maturities)
    w_den, gate_mass, gate_exp = _gate_density(primal, batch, cfg)
    defect = (w_den * batch.strikes * batch.dk).sum(axis=-1) - batch.forwards

    dec = to_decoder_params(primal)
    u = _features(w_den, batch, cfg)
    hs, y = scan_recursion(primal["transitions"], primal["injections"], primal["readouts"], u)
    cnorm, dec_cache = decode_normalized(dec, batch.decode, y)
    diff = (cnorm - batch.cq) * batch.mask
    res = arb_residual_arrays(cnorm, batch.strikes, 1.0)
    # replication residual: observed minus the strip variance of the decoded
    # surfaces, whose out-of-the-money puts follow by parity
    calls = batch.grid.spot * cnorm
    q = np.where(batch.otm_put, calls - batch.parity_spot + batch.parity_strikes, calls)
    vix_resid = batch.vix2_obs - ((batch.vix_coef * q).sum(axis=-1) - batch.vix_adj)
    W = batch.n_windows
    sq = diff**2
    fw = ForwardCache(0.0, sq.reshape(sq.shape[:-3] + (-1,)).sum(axis=-1) / batch.n_obs, w_den, defect,
                      np.abs(defect) / batch.forwards, res.flatten().sum(axis=-2) / W,
                      (batch.vix_weights * vix_resid**2).sum(axis=-2) / W,
                      u, hs, cnorm, diff, res, vix_resid, dec_cache, slices, gate_mass, gate_exp, dec)
    fw.value = _objective_value(fw, duals)
    return fw


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis, one per point: the BLAS dot that
    `a @ b` takes on two vectors."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _dual_terms(fw: ForwardCache, duals: dict) -> tuple:
    """(no-arbitrage, martingale, replication) dual terms of the objective,
    from the residuals of a forward pass."""
    s = fw.slices
    return (
        _dot(duals["na"], fw.r_na),
        GAMMA * _dot(duals["mart"][..., s], fw.mres[..., s]),
        XI * _dot(duals["vix"], fw.r_vix),
    )


def _objective_value(fw: ForwardCache, duals: dict):
    """Objective at the duals given, from the residuals of a forward pass;
    one value per point.

    The objective is linear in the duals, so one forward serves any duals at
    the same primal point; every objective value is summed here, in one
    operand order, so values computed either way agree bit for bit.
    """
    na, mart, vix = _dual_terms(fw, duals)
    value = fw.mse + na + mart + vix + BETA_NOV * np.mean(fw.mres[..., fw.slices] ** 2, axis=-1)
    finite = np.isfinite(value)
    if not np.all(finite):
        raise TrainingDivergence(f"non-finite objective ({np.extract(~finite, value)[0]})")
    return value


def dual_gradient(fw: ForwardCache) -> dict:
    g_mart = np.zeros(fw.mres.shape)
    g_mart[..., fw.slices] = GAMMA * fw.mres[..., fw.slices]
    return {"na": fw.r_na, "mart": g_mart, "vix": XI * fw.r_vix}


def dual_residual_norm(fw: ForwardCache) -> float:
    """Infinity norm of the full constraint-residual vector (all slices)."""
    return float(
        max(
            fw.r_na.max(initial=0.0),
            GAMMA * fw.mres.max(initial=0.0),
            XI * fw.r_vix.max(initial=0.0),
        )
    )


# --- backward ----------------------------------------------------------------


def primal_gradient(primal: dict, duals: dict, batch: TrainBatch, cfg: TrainingConfig,
                    fw: ForwardCache) -> dict:
    """Analytic reverse pass over the forward cache: the objective heads,
    then `decode_backward`, `scan_adjoint`, the feature integration and
    `gate_density_backward`, every window at once; the weight gradients sum
    over the windows, each point's over its own."""
    W = batch.n_windows
    s = fw.slices
    grads = dict.fromkeys(primal)  # the primal's block order, which the clip norm sums in

    # martingale and roughness-penalty paths (gate only)
    coef = np.zeros(fw.mres.shape)
    coef[..., s] = GAMMA * duals["mart"][..., s] + 2.0 * BETA_NOV * fw.mres[..., s] / len(s)
    dw_den = (coef * np.sign(fw.defect) / batch.forwards)[..., None] * batch.strikes_dk

    dcnorm = 2.0 * fw.diff / batch.n_obs
    dcnorm += arb_residual_backward(fw.res, duals["na"], fw.cnorm, batch.strikes, 1.0, 1.0 / W)
    # squared-residual head: R = obs - v2m, v2m linear in spot * cnorm
    dv2m = -(XI / W) * window_axis(duals["vix"], 1) * batch.vix_weights * 2.0 * fw.vix_resid
    dcnorm += dv2m[..., None] * batch.vix_coef * batch.grid.spot
    g_dec, dy = decode_backward(fw.dec, fw.dec_cache, dcnorm)
    grads["slope_raw"] = g_dec["maturity_slope_raw"]
    for names, part in ((CONVEX_MAPS, "layer_weights_z"), (INPUT_MAPS, "layer_weights_x"), (BIASES, "biases")):
        grads.update(zip(names, g_dec[part]))

    # the weight gradients are outer products, formed for all windows and
    # maturities at once
    dh, du = scan_adjoint(primal["transitions"], primal["injections"], primal["readouts"], dy)
    grads["readouts"] = (dy[..., None] * fw.hs[..., 1:, None, :]).sum(axis=-4)
    grads["transitions"] = (dh[..., None] * fw.hs[..., :-1, None, :]).sum(axis=-4)
    grads["injections"] = (dh[..., None] * fw.u[..., None, :]).sum(axis=-4)

    # a disabled (uniform) gate has no parameter path
    if cfg.gate_enabled:
        # gated feature integration: u = FEATURE_SCALE * bin sums of w * dk * mask * q
        dw_den += (FEATURE_SCALE * du[..., batch.bin_index] * batch.q_feat * batch.dk
                   * batch.mask).sum(axis=-3)
        grads["gate_raw"] = gate_density_backward(primal["gate_raw"], batch.dk, fw.w_den, fw.gate_mass,
                                                  fw.gate_exp, dw_den)
    else:
        grads["gate_raw"] = np.zeros_like(primal["gate_raw"])
    return grads


def _descent(primal: dict, duals: dict, batch: TrainBatch, cfg: TrainingConfig,
             fw: ForwardCache) -> dict:
    """Primal descent direction at the forward's point: the reverse pass,
    clipped to the global norm budget, with the gate block scaled up (the
    gate's normalization shrinks its gradients by the softplus mass)."""
    g = _clip_gradient(primal_gradient(primal, duals, batch, cfg, fw))
    return {**g, "gate_raw": g["gate_raw"] * GATE_LR_MULT}


# --- safety pass -------------------------------------------------------------


def _lip_product(primal: dict) -> float:
    """Product of the spectral norms of every linear map of the model."""
    prod = float(np.prod([spectral_norms(primal[k]) for k in ("transitions", "injections", "readouts")]))
    for key in DECODER_MAPS:
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
    for key in DECODER_MAPS + ("injections", "readouts"):
        if key in CONVEX_MAPS:
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
        log.max_rho_dt = float(np.fmax.reduce(spectral_radius(primal["transitions"]) * batch.dts,
                                              initial=log.max_rho_dt))
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


def _nonnegative(duals: dict) -> dict:
    """Projection of the multipliers: clipped at zero."""
    return {k: np.maximum(v, 0.0) for k, v in duals.items()}


def _extragradient(x: dict, y: dict, oracle, project_x, project_y, eta_x: float, eta_y) -> tuple:
    """One projected extragradient (Korpelevich) step of min over x, max over
    y, on dict points and free of any model.

    `oracle(x, y)` returns (descent direction in x, ascent direction in y,
    aux). The oracle at (x, y) gives the half point, the oracle at the half
    point moves (x, y), and each new point is projected. eta_y is one step or
    a dict of steps per block. Returns (x', y', aux at (x, y))."""
    gx, gy, aux = oracle(x, y)
    x_half, y_half = project_x(_pv_add(x, gx, -eta_x)), project_y(_pv_add(y, gy, eta_y))
    gx, gy, _ = oracle(x_half, y_half)
    return project_x(_pv_add(x, gx, -eta_x)), project_y(_pv_add(y, gy, eta_y)), aux


def extragradient_step(state: SaddleState, batch: TrainBatch, cfg: TrainingConfig,
                       rng: np.random.Generator) -> ForwardCache:
    """One `_extragradient` step of the model: the oracle is a forward, the
    clipped reverse pass `_descent` and `dual_gradient` on one draw of
    slices, the primal projection is the safety pass `apply_qalign` and the
    duals take their per-block steps `DUAL_MULTS`. Returns the step's first
    forward cache, taken at the pre-step primal and duals (the stop
    diagnostics and the record's ratio_log and martingale residual read it)."""
    L = batch.n_maturities
    slices = np.sort(rng.choice(L, size=min(N_SLICES, L), replace=False))
    eta_d = state.dual_step_now()

    def oracle(primal, duals):
        fw = model_forward(primal, duals, batch, cfg, slices)
        return _descent(primal, duals, batch, cfg, fw), dual_gradient(fw), fw

    passes = []  # the pre-pass primal of each safety pass; the state keeps the last

    def safety_pass(primal):
        passes.append(apply_qalign(primal, batch, cfg, state.guard))
        return primal

    state.primal, state.duals, fw0 = _extragradient(
        state.primal, state.duals, oracle, safety_pass, _nonnegative, state.cfg.step_primal,
        {k: eta_d * DUAL_MULTS[k] for k in state.duals})
    state.pre_pass = passes[-1]
    state.step += 1
    return fw0


# --- empirical saddle gap ----------------------------------------------------


def _saddle_gap(x: dict, y: dict, value, grad_x, grad_y, project_x, project_y, k: int,
                eta_x: float, eta_y: float):
    """Model-free saddle gap at (x, y): the value after k projected ascent
    steps in y at x, minus the value after k projected descent steps in x at
    y. `grad_x` is a descent direction, `grad_y` an ascent direction. On
    points with a leading point axis it is one gap per point."""
    x_k, y_k = x, y
    for _ in range(k):
        y_k = project_y(_pv_add(y_k, grad_y(x, y_k), eta_y))
    sup_val = value(x, y_k)
    for _ in range(k):
        x_k = project_x(_pv_add(x_k, grad_x(x_k, y), -eta_x))
    return sup_val - value(x_k, y)


def _stacked_gaps(states: list, heldout: TrainBatch) -> np.ndarray:
    """`_saddle_gap` of the model at the states of one run, stacked on a
    point axis: one array of gaps, or the first exception any point raised."""
    cfg = states[0].cfg
    primal, duals = ({k: np.stack([getattr(s, part)[k] for s in states]) for k in getattr(states[0], part)}
                     for part in ("primal", "duals"))
    last = [None, None]  # the latest primal point and its forward

    def forward(point):
        if last[0] is not point:
            last[:] = point, model_forward(point, duals, heldout, cfg)
        return last[1]

    def clamp(point):
        for key in CONVEX_MAPS:
            np.maximum(point[key], 0.0, out=point[key])
        return point

    return _saddle_gap(
        primal, duals,
        lambda point, y: _objective_value(forward(point), y),
        lambda point, y: _descent(point, y, heldout, cfg, forward(point)),
        lambda point, y: dual_gradient(forward(point)),
        clamp, _nonnegative, K_INNER, cfg.step_primal, cfg.step_dual)


def empirical_gap_from_state(states: list, heldout: TrainBatch) -> list:
    """`_saddle_gap` of the model on a held-out batch (all maturities) at
    each of the states of one run, with K_INNER steps of cfg.step_primal and
    cfg.step_dual, the convex-path clamp as the primal projection and the
    multipliers clipped at zero. Returns one entry per state: its gap, or
    the exception its estimator raised.

    The states run as one batch on a point axis, each bit-equal to running
    it alone. If the batch raises, each state is redone alone, so every
    state gets exactly its own gap or its own exception.

    The dual half needs no forward of its own: the dual gradient is the
    residual vector, which depends on the primal point only, and the
    objective is linear in the duals, so the one forward at the current
    point gives every ascent step and the value at the ascended duals. That
    forward is also the first step of the primal half: the closures share
    one forward per primal point, so a call runs k + 1 forwards and k reverse
    passes, with the same arithmetic as evaluating each step anew.
    """
    if len(states) > 1:
        try:
            return [float(gap) for gap in _stacked_gaps(states, heldout)]
        except Exception:  # some state raised: each is redone alone
            pass
    return [_gap_alone(state, heldout) for state in states]


def _gap_alone(state: SaddleState, heldout: TrainBatch):
    """The gap of one state, or the exception its estimator raised."""
    try:
        return float(_stacked_gaps([state], heldout)[0])
    except Exception as err:
        return err


# --- stopping ----------------------------------------------------------------


def stop_test(pairs) -> bool:
    """True iff the PATIENCE most recent (|delta gap|, dual residual) pairs
    all have |delta gap| < DELTA_GAP_TOL and dual residual <
    DUAL_RESIDUAL_EPS: the paper's fixed, falsifiable stopping rule.

    Walks back from the newest pair and returns at the first one that misses
    a threshold, so a call costs at most the current streak and copies
    nothing."""
    streak = 0
    for dg, dr in reversed(pairs):
        if not (dg < DELTA_GAP_TOL and dr < DUAL_RESIDUAL_EPS):
            return False
        streak += 1
        if streak >= PATIENCE:
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


_LEAD = 16  # most steps the loop runs ahead of the last logged gap
_QUEUE = 8  # most gaps the worker computes as one batch


def _first_forward(fw: ForwardCache, duals: dict) -> tuple:
    """What the loop and `train` read of a step's first forward, taken at the
    duals it saw: (dual residual norm, mse, dual terms, mres). The reverse
    pass's caches are left behind."""
    return dual_residual_norm(fw), fw.mse, _dual_terms(fw, duals), fw.mres


@dataclass
class _Pending:
    """A step taken past the last logged gap: its state, `_first_forward` of
    it, and its gap once known (a float, or the exception the estimator
    raised)."""

    state: SaddleState
    first: tuple
    gap: float | Exception | None = None


class _GapWorker:
    """A forked process that computes the held-out gaps of the loop's steps:
    `feed` hands it every step it does not owe yet, `collect` stores the gaps
    it has returned without waiting, and `wait` waits for the oldest gap it
    owes, raising an error naming that step if the worker died. The worker
    takes the steps waiting on its pipe, up to `_QUEUE`, and answers them as
    one `empirical_gap_from_state` batch, in step order.

    Fork gives the child the held-out batch and cfg without pickling them,
    and the module attributes as they are when `train` starts. The child
    closes its inherited copy of the parent's end, so closing that end (or
    the parent dying) reaches it as EOF and it exits; a worker that dies
    reaches the parent as EOF after its last batch."""

    def __init__(self, heldout: TrainBatch, cfg: TrainingConfig):
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        # daemon: a worker that a fault leaves running is ended at interpreter
        # exit instead of being waited for
        self._proc = ctx.Process(target=_gap_worker, args=(child_end, self._conn, heldout, cfg),
                                 name="arbsurf-gap-worker", daemon=True)
        self._proc.start()
        child_end.close()
        self.owed = collections.deque()  # the pending steps whose gaps the worker owes, in order
        self.dead = False  # EOF read: no further gap will come

    def feed(self, ahead) -> None:
        """`ahead` starts with the steps the worker owes, in order; the steps
        after them are handed over in one message."""
        new = list(itertools.islice(ahead, len(self.owed), None))
        if not new:
            return
        self.owed.extend(new)
        try:
            self._conn.send([(p.state.step, p.state.primal, p.state.duals) for p in new])
        except OSError:  # the worker died: its gaps are read up to EOF, then `wait` raises
            pass

    def _receive(self) -> None:
        try:
            gaps = self._conn.recv()
        except (EOFError, ConnectionResetError):  # reset: it died with a task unread
            self.dead = True
            return
        for gap in gaps:
            self.owed.popleft().gap = gap

    def collect(self) -> None:
        while self.owed and not self.dead and self._conn.poll():
            self._receive()

    def wait(self) -> None:
        if not self.dead:
            self._receive()
        if self.dead:
            self._proc.join()
            raise RuntimeError(f"gap worker exited with code {self._proc.exitcode} before returning "
                               f"the held-out gap of step {self.owed[0].state.step}")

    def close(self) -> None:
        self._conn.close()
        if self.owed:  # left mid-batch by a stop or an error: its results are not wanted
            self._proc.terminate()
        self._proc.join()


def _gap_worker(conn, parent_end, heldout: TrainBatch, cfg: TrainingConfig) -> None:
    parent_end.close()
    tasks = []  # (step, primal, duals) received and not yet computed, in step order
    while True:
        try:
            if not tasks:
                tasks += conn.recv()
            while len(tasks) < _QUEUE and conn.poll():  # the steps waiting join the batch
                tasks += conn.recv()
        except EOFError:  # the loop closed its end: no more steps
            return
        batch, tasks = tasks[:_QUEUE], tasks[_QUEUE:]
        conn.send(empirical_gap_from_state([SaddleState(primal, duals, cfg, step) for step, primal, duals in batch],
                                           heldout))


def _saddle_loop(state: SaddleState, batch: TrainBatch, heldout: TrainBatch,
                 cfg: TrainingConfig):
    """Extragradient steps until `stop_test` holds or cfg.max_steps, the
    held-out gaps computed by a `_GapWorker`.

    No step reads a gap, so the loop runs up to `_LEAD` steps past the last
    logged gap, each on a copy of the state before it, and hands the worker
    the oldest gaps it does not owe; when the loop cannot step, it waits
    for the worker. Gaps are logged strictly in step order. A stop discards
    every step past it, and a divergence of a step or of a gap, or a dead
    worker, is raised at that step's turn with that step's state, as a loop
    running step and gap in turn would. Returns (state, `_first_forward` of
    the last logged step)."""
    rng = np.random.default_rng(cfg.seed + 1)
    hist = state.history
    t0 = time.perf_counter()
    ahead = collections.deque()  # the steps past `state`, oldest first
    last, error = state, None  # the newest state, and the divergence of the step after it
    gaps = _GapWorker(heldout, cfg)
    try:
        while True:
            gaps.collect()
            while ahead and ahead[0].gap is not None:
                done = ahead.popleft()
                state = done.state
                if isinstance(done.gap, Exception):
                    raise done.gap
                delta_gap = abs(done.gap - hist.gap[-1]) if hist.gap else float("inf")
                first = done.first
                hist.gap.append(done.gap)
                hist.stop_pairs.append((delta_gap, first[0]))  # its dual residual norm
                hist.wall.append(time.perf_counter() - t0)
                if stop_test(hist.stop_pairs):
                    hist.stopped_at = state.step
                    return state, first
            gaps.feed(ahead)
            if error is None and last.step < cfg.max_steps and len(ahead) < _LEAD:
                nxt = replace(last, guard=replace(last.guard))
                try:
                    first_step = _first_forward(extragradient_step(nxt, batch, cfg, rng), last.duals)
                    ahead.append(_Pending(nxt, first_step))
                except Exception as err:  # raised only if no gap before it stops the run
                    error = err
                last = nxt
            elif ahead:  # the worker owes the oldest gap
                gaps.wait()
            elif error is not None:
                state = last
                raise error
            else:
                return state, first
    except TrainingDivergence as err:
        raise TrainingDivergence(str(err), state=state) from err
    finally:
        gaps.close()


def train(cfg: TrainingConfig, data: FoldData):
    """Run the saddle loop on one fold; returns (state, run log record).

    The record holds what training measures; `train` decodes no surface,
    and `cli.run_fold` fills in NAS, CNAS, Stability and the OOS fields.

    Stops at the first step where `stop_test` holds on the logged pairs, or
    after cfg.max_steps (at least 1). The loop runs up to `_LEAD` steps ahead
    and a forked worker process computes every held-out gap, in batches of
    the steps waiting for it, so a fold uses two processes; when the rule
    stops the run, the steps taken past it are discarded. The state and
    record are those of running step and gap in turn. The record's
    Lipschitz surrogate is computed once, after the loop, for the last
    safety pass kept (`SaddleState.pre_pass` and the state's primal).
    Deterministic given cfg.seed. Divergence raises TrainingDivergence with
    the last valid state attached.
    """
    panels = list(data.train_panels)
    cover = coverage_stats([p.quoted_surface for p in panels + [data.val_panel]])
    trigger_coverage = None

    batch = build_batch(panels, cfg)
    state = init_state(cfg, batch)

    if cover.flagged:
        filled = []
        op = to_operator_params(state.primal)
        for p in panels:
            surf, coverage = representer_fallback(p.quoted_surface, op)
            if coverage is not None:
                trigger_coverage = coverage
            filled.append(replace(p, quoted_surface=surf))
        panels = filled
        batch = build_batch(panels, cfg)

    heldout = build_batch([data.val_panel], cfg)
    state, (_, mse, (na, mart, vix), mres) = _saddle_loop(state, batch, heldout, cfg)
    state.guard.lambda_lip_before, state.guard.lambda_lip_after = lipschitz_surrogate(
        state.pre_pass, state.primal)
    run = RunLog(
        DualGap=state.history.gap[-1],
        spec_guard_hits=state.guard.spec_guard_hits,
        projection_distance=state.guard.projection_distance,
        max_rho_dt=state.guard.max_rho_dt,
        ratio_log=ratio_log(mse, na + mart + vix),
        enter_representer_at_step=None if trigger_coverage is None else 0,
        coverage_min=cover.coverage_min,
        coverage_mean=cover.coverage_mean,
        coverage_at_trigger=trigger_coverage,
        martingale_residual=float(mres.mean()),
        lambda_lip_before=state.guard.lambda_lip_before,
        lambda_lip_after=state.guard.lambda_lip_after,
        filter_rate=float(np.mean([p.filter_rate for p in data.train_panels + [data.val_panel]])),
    )
    run.stopped = state.history.stopped_at is not None
    return state, run
