"""
Risk-neutral scan operator: latent recursion over maturities, the discrete
Green kernel it unrolls into, the strike-normalized measure gate, the
discounted price functional and the martingale defect of the gate-implied
forward.

Indexing convention (0-based): states[0] is the initial latent state, zero;
transitions[i] propagates the state across (T_{i-1}, T_i] (with T_{-1} = 0),
injections[i] feeds the maturity-i features into the state read at T_i:

    states[i+1] = transitions[i] @ states[i] + injections[i] @ u[i]
    outputs[i]  = readouts[i] @ states[i+1]

so the kernel mapping u[s] to the state at maturity ell is
injections[ell] for s == ell and transitions[ell] ... transitions[s+1] @
injections[s] for s < ell. Runtime of the scan is O(L m^2) (dense
transitions).

`scan_recursion`, `gate_density` and `green_kernels` are the unvalidated
kernels behind `scan_forward`, `measure_gate` and `green_kernel`, and
`scan_adjoint` and `gate_density_backward` are the reverse passes of the
scan and the gate; the training loop calls them directly, so non-finite
parameters reach its objective check instead of raising here. These four
take an optional leading point axis on the parameters (see `mathutil`), so
the held-out gaps of several points run as one batch. `green_sums`,
the per-maturity sum of Green-kernel norms, is the summability factor of
the training loop's Lipschitz surrogate. Every Green kernel (`green_kernel`,
`green_sums`, the representer's similarity) is read from the one
`green_kernels` stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DomainError, MarketGrid, PriceSurface, forward_price, strike_spacings
from .mathutil import sigmoid, softplus_exp, window_axis
from .qalign import spectral_norms


@dataclass
class OperatorParams:
    """Per-maturity transition/injection/readout maps plus the measure gate.

    transitions: (L, m, m); injections: (L, m, d) storing the composed
    injection-times-embedding map; readouts: (L, p, m); gate_raw: (L, M)
    pre-activation of the measure gate on the strike grid. The rank m is
    read off the transitions.
    """

    transitions: np.ndarray
    injections: np.ndarray
    readouts: np.ndarray
    gate_raw: np.ndarray

    def __post_init__(self):
        self.transitions = np.asarray(self.transitions, dtype=float)
        self.injections = np.asarray(self.injections, dtype=float)
        self.readouts = np.asarray(self.readouts, dtype=float)
        self.gate_raw = np.asarray(self.gate_raw, dtype=float)
        L, m, m2 = self.transitions.shape
        if m != m2 or m < 1:
            raise DomainError("transitions must be (L, m, m) with m >= 1")
        if self.injections.shape[0] != L or self.injections.shape[1] != m:
            raise DomainError("injections must be (L, m, d)")
        if self.readouts.shape[0] != L or self.readouts.shape[2] != m:
            raise DomainError("readouts must be (L, p, m)")
        if self.gate_raw.shape[0] != L:
            raise DomainError("gate_raw must have one row per maturity")
        for arr in (self.transitions, self.injections, self.readouts, self.gate_raw):
            if not np.all(np.isfinite(arr)):
                raise DomainError("operator parameters must be finite")

    @property
    def n_maturities(self) -> int:
        return self.transitions.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.injections.shape[2]


@dataclass
class LatentTrajectory:
    """Scan results: L+1 latent states and L readout vectors."""

    states: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        if self.states.shape[0] != self.outputs.shape[0] + 1:
            raise DomainError("need exactly one more state than outputs")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.outputs))):
            raise DomainError("trajectory must be finite")


def scan_recursion(transitions: np.ndarray, injections: np.ndarray, readouts: np.ndarray,
                   inputs: np.ndarray):
    """The latent recursion from the zero state over inputs (..., L, d),
    leading axes (the windows of a fold) run side by side; returns (states
    (..., L+1, m), outputs (..., L, p)). The maps may carry a leading point
    axis, (P, L, m, m) against inputs (P, W, L, d) (see `mathutil`). Only
    the transition product is sequential; the injection drive and the
    readouts are one batched product each, and every product is bit-equal
    to the loop over maturities of one window."""
    L, m = transitions.shape[-3], transitions.shape[-2]
    trans, inj, read = (window_axis(a, 3) for a in (transitions, injections, readouts))
    drive = (inj @ inputs[..., None])[..., 0]
    states = np.zeros(drive.shape[:-2] + (L + 1, m))
    for i in range(L):
        states[..., i + 1, :] = (trans[..., i, :, :] @ states[..., i, :, None])[..., 0] + drive[..., i, :]
    outputs = (read @ states[..., 1:, :, None])[..., 0]
    return states, outputs


def scan_adjoint(transitions: np.ndarray, injections: np.ndarray, readouts: np.ndarray,
                 dy: np.ndarray):
    """Reverse pass of `scan_recursion` for output gradients dy (..., L, p):
    returns (dh (..., L, m), du (..., L, d)), the gradients of states[1:]
    (through every later output) and of the inputs. Only the transposed
    transition product is sequential; read^T dy and inj^T dh are one batched
    product each, and every product is bit-equal to the loop of one window."""
    L = transitions.shape[-3]
    trans, inj, read = (window_axis(a, 3).swapaxes(-1, -2) for a in (transitions, injections, readouts))
    read_dy = (read @ dy[..., None])[..., 0]
    dh = np.empty(read_dy.shape)
    dh_next = 0.0
    for i in range(L - 1, -1, -1):
        dh[..., i, :] = read_dy[..., i, :] + dh_next
        dh_next = (trans[..., i, :, :] @ dh[..., i, :, None])[..., 0]
    return dh, (inj @ dh[..., None])[..., 0]


def scan_forward(params: OperatorParams, inputs: np.ndarray) -> LatentTrajectory:
    """Run the latent recursion over all maturities from the zero state.

    inputs: (L, d) one feature vector per maturity; states[0] is zero.
    """
    inputs = np.asarray(inputs, dtype=float)
    L = params.n_maturities
    if inputs.shape != (L, params.feature_dim):
        raise DomainError(f"inputs must be (L, d) = ({L}, {params.feature_dim})")
    if not np.all(np.isfinite(inputs)):
        raise DomainError("inputs must be finite")
    states, outputs = scan_recursion(params.transitions, params.injections, params.readouts, inputs)
    return LatentTrajectory(states, outputs)


def green_kernels(transitions: np.ndarray, injections: np.ndarray) -> np.ndarray:
    """(L, L, m, d) stack of the Green kernels: G[ell, s] maps the maturity-s
    features to the maturity-ell state, zero for s > ell (causal)."""
    L = transitions.shape[0]
    G = np.zeros((L, L) + injections.shape[1:])
    for ell in range(L):
        G[ell, :ell] = transitions[ell] @ G[ell - 1, :ell]
        G[ell, ell] = injections[ell]
    return G


def green_kernel(params: OperatorParams, ell: int, s: int) -> np.ndarray:
    """Kernel mapping the maturity-s features to the maturity-ell state.

    Causal: s must not exceed ell. Equals injections[ell] at s == ell and
    the time-ordered transition product applied to injections[s] otherwise.
    """
    L = params.n_maturities
    if not (0 <= ell < L) or not (0 <= s < L):
        raise DomainError("indices out of range")
    if s > ell:
        raise DomainError("green kernel is causal: need s <= ell")
    return green_kernels(params.transitions[: ell + 1], params.injections[: ell + 1])[ell, s]


def green_sums(transitions: np.ndarray, injections: np.ndarray) -> np.ndarray:
    """(L,) sums of the spectral norms of the Green kernels feeding each
    maturity, from one batched norm call over the stacked kernels."""
    return spectral_norms(green_kernels(transitions, injections)).sum(axis=1)


def measure_gate(params: OperatorParams, grid: MarketGrid) -> np.ndarray:
    """Strike-normalized gate density w(K, T) with sum_j w[l, j] dK_j = 1.

    Softplus squashing followed by per-maturity normalization against the
    quadrature spacings.
    """
    if params.gate_raw.shape != (grid.n_maturities, len(grid.strikes)):
        raise DomainError("gate_raw shape does not match grid")
    w, _, _ = gate_density(params.gate_raw, strike_spacings(grid.strikes))
    return w


def gate_density(gate_raw: np.ndarray, dk: np.ndarray) -> tuple:
    """(w, mass, e): softplus(gate_raw) normalized per maturity by its mass
    against the quadrature spacings dk, and e = exp(-|gate_raw|) from the
    softplus, for its derivative. Raises only when a row's softplus mass
    vanishes."""
    sp, e = softplus_exp(gate_raw)
    mass = sp @ dk
    if np.any(mass <= 0.0):
        raise DomainError("degenerate gate row: softplus mass vanished")
    return sp / mass[..., None], mass, e


def gate_density_backward(gate_raw: np.ndarray, dk: np.ndarray, w: np.ndarray, mass: np.ndarray,
                          e: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Reverse pass of `gate_density` (whose (w, mass, e) it takes): the
    gradient in gate_raw for dw, the gradient in w, through the
    normalization w_j = sp_j / sum_i sp_i dk_i."""
    inner = (dw * w).sum(axis=-1, keepdims=True)
    return sigmoid(gate_raw, e) * (dw - inner * dk) / mass[..., None]


def price_functional(w: np.ndarray, payoff: np.ndarray, grid: MarketGrid, ell: int) -> float:
    """Quadrature of the payoff against the gate density at maturity ell:
    sum_j payoff[j] * w[ell, j] * dK_j."""
    strikes = grid.strikes
    payoff = np.asarray(payoff, dtype=float)
    if payoff.shape != (len(strikes),):
        raise DomainError("payoff shape does not match strike list")
    if not np.all(np.isfinite(payoff)):
        raise DomainError("payoff must be finite")
    dk = strike_spacings(strikes)
    return float(np.sum(payoff * w[ell] * dk))


def martingale_residual(w: np.ndarray, grid: MarketGrid, ell: int) -> float:
    """Relative defect of the gate-implied forward at maturity ell:
    |sum_j K_j w[l, j] dK_j - F_T| / F_T."""
    f_gate = price_functional(w, grid.strikes, grid, ell)
    f = forward_price(grid, grid.maturities[ell])
    return abs(f_gate - f) / f


def _maturity_similarity(params: OperatorParams) -> np.ndarray:
    """Cosine similarity between maturities in Green-kernel feature space."""
    L = params.n_maturities
    # one norm per kernel (a batched norm over the stack rounds differently)
    feats = np.array([[np.linalg.norm(G) for G in row]
                      for row in green_kernels(params.transitions, params.injections)])
    sim = np.eye(L)
    norms = np.linalg.norm(feats, axis=1)
    for a in range(L):
        for b in range(L):
            if norms[a] > 0 and norms[b] > 0:
                sim[a, b] = float(feats[a] @ feats[b] / (norms[a] * norms[b]))
    return sim


def representer_fallback(surface: PriceSurface, params: OperatorParams) -> tuple[PriceSurface, float | None]:
    """Fill masked cells by kernel-weighted interpolation over observed cells;
    returns (filled surface, observed fraction before the fill).

    Training calls it before its first step, so a fired fallback is logged
    at step 0. Weights combine the Green-kernel similarity between
    maturities with a Gaussian kernel in strike. A surface with no masked
    cells is returned unchanged with coverage None. A maturity row with no
    observed cell at all cannot be recovered.
    """
    grid = surface.grid
    n_masked = surface.n_cells() - surface.n_observed()
    if n_masked == 0:
        return surface, None
    empty = np.nonzero(~surface.mask.any(axis=1))[0]
    if len(empty):
        raise DomainError(f"maturity row {empty[0]} has no observed cells; coverage unrecoverable")
    coverage = surface.observed_fraction()
    sim = _maturity_similarity(params)
    ks = grid.strikes
    spacing = np.median(np.diff(ks))
    bw = max(2.0 * spacing, 1e-12)

    obs_ell, obs_j = np.nonzero(surface.mask)
    obs_k = ks[obs_j]
    obs_c = surface.calls[surface.mask]
    obs_p = surface.puts[surface.mask]

    calls = surface.calls.copy()
    puts = surface.puts.copy()
    for ell, j in zip(*np.nonzero(~surface.mask)):
        w = sim[ell, obs_ell] * np.exp(-0.5 * ((ks[j] - obs_k) / bw) ** 2)
        total = w.sum()
        if total <= 0:
            raise DomainError("interpolation weights vanished")
        calls[ell, j] = float(w @ obs_c / total)
        puts[ell, j] = float(w @ obs_p / total)
    filled = PriceSurface.from_matrices(grid, calls, puts,
                                        require_nonnegative=surface.require_nonnegative)
    return filled, coverage
