"""Arbitrage-free surface learning with a risk-neutral scan operator."""

from .grids import CoverageStats, MarketGrid, PriceSurface, coverage_stats, forward_price
from .operator import LatentTrajectory, OperatorParams, green_kernel, measure_gate, scan_forward
from .qalign import GuardConfig, GuardLog, lipschitz_project, spec_guard_project, spectral_norms, spectral_radius
from .decoder import DecoderParams, bl_density, decode_surface, noarb_project, pava, static_arb_residuals
from .vix import ReplicationResult, replicate_surface, vix_squared
from .generator import GeneratorConfig, SyntheticPanel, blocked_folds, make_panel, simulate_paths
from .training import SaddleState, TrainingConfig, extragradient_step, train
from .metrics import cnas, effective_dimension, hac_ci, holm_bonferroni, nas, ni, surface_wasserstein
from .runlog import RunLog, SCHEMA_FIELDS, emit_log

__all__ = [
    "CoverageStats", "MarketGrid", "PriceSurface", "coverage_stats", "forward_price",
    "LatentTrajectory", "OperatorParams", "green_kernel", "measure_gate", "scan_forward",
    "GuardConfig", "GuardLog", "lipschitz_project", "spec_guard_project", "spectral_norms", "spectral_radius",
    "DecoderParams", "bl_density", "decode_surface", "noarb_project", "pava", "static_arb_residuals",
    "ReplicationResult", "replicate_surface", "vix_squared",
    "GeneratorConfig", "SyntheticPanel", "blocked_folds", "make_panel", "simulate_paths",
    "SaddleState", "TrainingConfig", "extragradient_step", "train",
    "cnas", "effective_dimension", "hac_ci", "holm_bonferroni", "nas", "ni", "surface_wasserstein",
    "RunLog", "SCHEMA_FIELDS", "emit_log",
]
