"""
Experiment harness: reproduce, sweep, ablations, stress-to-fail, external
validity, and report rendering, all emitting the locked audit-log schema.

Config files are flat key=value INI text with one section per module
([generator], [training], [run], [stress]); every key mirrors a dataclass
field. All outputs land under --out together with a manifest per record.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import platform
import sys
import time
from configparser import ConfigParser
from configparser import Error as ConfigError
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import bl_density
from .generator import GeneratorConfig, SyntheticPanel, blocked_folds, make_panel, write_panel
from .grids import DomainError, MarketGrid, PriceSurface, parity_puts
from .metrics import (
    CnasShape,
    cnas,
    effective_dimension,
    gen_gap_p95,
    holm_bonferroni,
    mean_interval,
    nas,
    ni,
    novikov_kazamaki_rate,
    stability,
    surface_wasserstein,
)
from .operator import scan_forward
from .runlog import RunLog, SweepLedger, SweepRow, config_hash, emit_log
from .training import (
    FoldData,
    TrainingConfig,
    TrainingDivergence,
    decode_window,
    to_operator_params,
    train,
    window_features,
)

LOGGER = logging.getLogger("arbsurf")

STRESS_RATE_SHIFT = 0.01  # numeraire-shift axis: r -> r + 0.01 * strength
CNAS_TUNE_TAUS = (0.0, 1e-5, 1e-4, 1e-3)  # tolerance grid of the in-window CNAS tuning


@dataclass
class RunConfig:
    n_windows: int = 4
    stress_strengths: tuple = (0.0, 1.0, 2.0, 4.0, 8.0)
    stress_draws: int = 8
    nas_failure_threshold: float = 0.9
    sweep_lr_multipliers: tuple = (0.5, 1.0, 2.0)
    sweep_seeds: tuple = (0, 1, 2)
    ablation_seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.n_windows < 3:
            raise DomainError("[run] n_windows must be >= 3 (blocked folds need three windows)")
        if self.stress_draws < 1:
            raise DomainError("[run] stress_draws must be >= 1")


@dataclass
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def hash(self) -> str:
        return config_hash(dataclasses.asdict(self))


def _coerce(value: str, like):
    """value read as the type of like; ValueError when it cannot be."""
    if isinstance(like, bool):
        word = value.strip().lower()
        if word not in ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean (one of {', '.join(ConfigParser.BOOLEAN_STATES)})")
        return ConfigParser.BOOLEAN_STATES[word]
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, tuple):
        parts = [p for p in value.replace(",", " ").split() if p]
        if not parts:
            return ()
        sample = like[0] if like else 0.0
        return tuple(_coerce(p, sample) for p in parts)
    return value


def load_config(path=None, seed=None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        parser = ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
            sections = {name: parser.items(name) for name in parser.sections()}
        except OSError as err:
            raise DomainError(f"cannot read config file {path}: {err.strerror}") from err
        except ConfigError as err:  # no section header, a duplicate key, a bad interpolation
            raise DomainError(f"malformed config file {path}: {err.message.splitlines()[0]}") from err
        for section, target in (
            ("generator", cfg.generator),
            ("training", cfg.training),
            ("run", cfg.run),
        ):
            for key, raw in sections.get(section, ()):
                if not hasattr(target, key):
                    raise DomainError(f"unknown config key [{section}] {key}")
                current = getattr(target, key)
                if dataclasses.is_dataclass(current):
                    raise DomainError(
                        f"config key [{section}] {key} names a nested settings group, "
                        "which a config file cannot set"
                    )
                try:
                    value = _coerce(raw, current)
                except ValueError as err:
                    raise DomainError(f"config key [{section}] {key} = {raw!r}: {err}") from err
                setattr(target, key, value)
        cfg.generator.__post_init__()
        cfg.training.__post_init__()
        cfg.run.__post_init__()
    if seed is not None:
        cfg.generator.seed = seed
        cfg.training.seed = seed
    return cfg


# --- shared pipeline pieces --------------------------------------------------


def _model_surfaces(primal, panels, tcfg) -> list:
    return [decode_window(primal, p, tcfg) for p in panels]


def _cell_errors(model: PriceSurface, oracle: PriceSurface) -> np.ndarray:
    return np.abs(model.calls - oracle.calls).ravel()


def _gate_log_density_blocks(surfaces) -> list:
    """Per-window increment series of the log implied density at the money;
    the blocked input of the roughness-switch monitor."""
    blocks = []
    for surf in surfaces:
        grid = surf.grid
        j = int(np.argmin(np.abs(grid.strikes - grid.spot)))
        dens = []
        for ell in range(grid.n_maturities):
            row = bl_density(surf, ell)
            dens.append(max(float(row[min(j - 1, len(row) - 1)]), 1e-12))
        blocks.append(np.diff(np.log(dens)))
    return blocks


def external_validity_drop(surfaces) -> tuple:
    """Mean in-window-tuned minus frozen shaped score over reuse windows.

    Tuning searches the tolerance over CNAS_TUNE_TAUS. The frozen shape is
    the one tuned on the first window, reused on the remaining ones;
    identical windows then give a drop of exactly zero.
    """
    if len(surfaces) < 1:
        raise DomainError("need at least one window")

    base = CnasShape()

    def tune(surf):
        best_tau = max(CNAS_TUNE_TAUS, key=lambda tau: cnas(surf, CnasShape(base.kappa, tau, base.scale)))
        return CnasShape(base.kappa, best_tau, base.scale)

    frozen = tune(surfaces[0])
    reuse = surfaces[1:] or surfaces[:1]
    drops = []
    per_window = []
    for surf in reuse:
        frozen_val = cnas(surf, frozen)
        tuned_val = cnas(surf, tune(surf))
        per_window.append(frozen_val)
        drops.append(tuned_val - frozen_val)
    return float(np.mean(drops)), per_window


def effective_dims_of_fold(primal, panels, tcfg) -> tuple:
    """Spectral ranks of the readout-feature covariance across windows."""
    op = to_operator_params(primal)
    feats = []
    for p in panels:
        _, u = window_features(primal, p, tcfg)
        feats.append(scan_forward(op, u).outputs)
    stacked = np.vstack(feats)
    gram = stacked.T @ stacked
    return effective_dimension(gram)


def run_fold(panels, fold, tcfg: TrainingConfig) -> tuple:
    """Train one fold and assemble the complete record; returns (state,
    record, decoded surfaces of the validation then the OOS windows)."""
    data = FoldData.from_fold(panels, fold)
    state, run = train(tcfg, data)

    eval_panels = [data.val_panel] + list(data.oos_panels)
    model_surfs = _model_surfaces(state.primal, eval_panels, tcfg)
    oracle_surfs = [p.oracle_surface for p in eval_panels]
    run.NAS = nas(model_surfs[0])
    run.CNAS = cnas(model_surfs[0], CnasShape())
    run.Stability = stability([run])

    if len(eval_panels) >= 2:
        run.NI = ni(model_surfs, oracle_surfs)
    else:
        run.NI = 0.0
    oos_model = model_surfs[1:] or model_surfs
    oos_oracle = oracle_surfs[1:] or oracle_surfs
    run.SurfaceWasserstein = float(
        np.mean([surface_wasserstein(m, o) for m, o in zip(oos_model, oos_oracle)])
    )

    train_surfs = _model_surfaces(state.primal, data.train_panels, tcfg)
    train_err = np.mean(
        [_cell_errors(m, p.oracle_surface) for m, p in zip(train_surfs, data.train_panels)],
        axis=0,
    )
    oos_err = np.mean(
        [_cell_errors(m, o) for m, o in zip(oos_model, oos_oracle)], axis=0
    )
    run.GenGap_p95 = gen_gap_p95(train_err, oos_err)

    rate, _, _ = novikov_kazamaki_rate(_gate_log_density_blocks(model_surfs))
    run.novik_to_kazamaki_rate = rate
    drop, _ = external_validity_drop(oos_model)
    run.cnas_frozen_drop = drop
    return state, run, model_surfs


def run_reproduce(cfg: ExperimentConfig, out_dir, emit_panels: bool = False) -> list:
    """Full protocol: panels, blocked folds, training, metrics, records."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
    if emit_panels:
        for p in panels:
            write_panel(p, os.path.join(out_dir, f"window_{p.window_index}"), cfg.generator)
    folds = blocked_folds(cfg.run.n_windows)
    ledger = SweepLedger()
    records = []
    for fi, fold in enumerate(folds):
        state, run, _ = run_fold(panels, fold, cfg.training)
        path = os.path.join(out_dir, f"runlog_fold{fi}.json")
        manifest = {
            "config_hash": cfg.hash(),
            "fold": dataclasses.asdict(fold),
            "seed": cfg.training.seed,
            "wall_clock_seconds": time.perf_counter() - t0,
            "hardware": platform.processor() or platform.machine(),
            "effective_dims": effective_dims_of_fold(
                state.primal, [panels[i] for i in fold.train], cfg.training
            ),
        }
        record = emit_log(run, path, manifest)
        records.append((path, record))
        ledger.append(
            SweepRow(
                seed=cfg.training.seed,
                gamma=cfg.training.gamma,
                beta_nov=cfg.training.beta_nov,
                xi=cfg.training.xi,
                lr_multiplier=1.0,
                cfg_hash=cfg.hash(),
                run_log_path=path,
            )
        )
    ledger.write_csv(os.path.join(out_dir, "sweep_ledger.csv"))
    report([p for p, _ in records], os.path.join(out_dir, "report"))
    return records


def run_sweep(cfg: ExperimentConfig, out_dir) -> list:
    """Seed x learning-rate grid, every trial logged for exact replay."""
    os.makedirs(out_dir, exist_ok=True)
    ledger = SweepLedger()
    records = []
    for seed in cfg.run.sweep_seeds:
        for mult in cfg.run.sweep_lr_multipliers:
            trial = ExperimentConfig(
                generator=replace(cfg.generator, seed=seed),
                training=replace(
                    cfg.training,
                    seed=seed,
                    step_primal=cfg.training.step_primal * mult,
                    step_dual=cfg.training.step_dual * mult,
                ),
                run=cfg.run,
            )
            panels = [make_panel(trial.generator, w) for w in range(cfg.run.n_windows)]
            fold = blocked_folds(cfg.run.n_windows)[0]
            state, run, _ = run_fold(panels, fold, trial.training)
            path = os.path.join(out_dir, f"runlog_seed{seed}_lr{mult}.json")
            emit_log(run, path, {"config_hash": trial.hash(), "lr_multiplier": mult})
            ledger.append(
                SweepRow(seed, trial.training.gamma, trial.training.beta_nov,
                         trial.training.xi, mult, trial.hash(), path)
            )
            records.append(path)
    ledger.write_csv(os.path.join(out_dir, "sweep_ledger.csv"))
    return records


ABLATION_SWITCHES = ("gate_off", "rank_half", "specguard_off")


def ablation_config(which: str, tcfg: TrainingConfig) -> TrainingConfig:
    """The named structural switch, everything else identical to base."""
    if which == "gate_off":
        return replace(tcfg, gate_enabled=False)
    if which == "rank_half":
        return replace(tcfg, rank=int(np.ceil(tcfg.rank / 2)))
    if which == "specguard_off":
        return replace(tcfg, specguard_enabled=False)
    raise DomainError(f"unknown ablation {which!r}")


def run_ablation(which: str, cfg: ExperimentConfig, out_dir) -> list:
    """Run the structural switch across the configured seeds."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for seed in cfg.run.ablation_seeds:
        trial_gen = replace(cfg.generator, seed=seed)
        tcfg = replace(ablation_config(which, cfg.training), seed=seed)
        panels = [make_panel(trial_gen, w) for w in range(cfg.run.n_windows)]
        fold = blocked_folds(cfg.run.n_windows)[0]
        try:
            state, run, _ = run_fold(panels, fold, tcfg)
        except TrainingDivergence as err:  # divergence is a valid logged outcome here
            LOGGER.warning("ablation %s seed %d failed: %s", which, seed, err)
            run = RunLog(
                NAS=float("-inf"), NI=0.0, CNAS=float("-inf"), DualGap=float("inf"),
                Stability=0.0, SurfaceWasserstein=float("inf"), GenGap_p95=float("inf"),
                spec_guard_hits=0, projection_distance=0.0, max_rho_dt=float("inf"),
                ratio_log=float("nan"), coverage_min=0.0, coverage_mean=0.0,
                martingale_residual=float("inf"), novik_to_kazamaki_rate=float("nan"),
                lambda_lip_before=float("nan"), lambda_lip_after=float("nan"),
                filter_rate=0.0, cnas_frozen_drop=float("nan"),
            )
        path = os.path.join(out_dir, f"runlog_{which}_seed{seed}.json")
        emit_log(run, path, {"ablation": which, "seed": seed, "config_hash": cfg.hash()})
        records.append((path, run))
    return records


def distorted_panel(panel: SyntheticPanel, gen: GeneratorConfig, strength: float,
                    draw: int) -> SyntheticPanel:
    """One stress draw of the baseline panel: quotes redrawn with the noise
    amplitude scaled by `strength`, on the grid shifted by the numeraire
    shift r -> r + 0.01 * strength. strength 0 returns the baseline panel
    itself (no redraw)."""
    from .generator import add_noise_censor

    if strength == 0.0:
        return panel
    noisy_cfg = replace(gen, noise_scale=gen.noise_scale * strength)
    redraw = add_noise_censor(panel.oracle_surface, noisy_cfg, stream=90_000 + 101 * draw).quoted_surface
    grid = panel.quoted_surface.grid
    shifted = MarketGrid(grid.maturities, grid.strikes, grid.spot,
                         grid.rate + STRESS_RATE_SHIFT * strength, grid.dividend_yield)
    return replace(panel, quoted_surface=PriceSurface(shifted, redraw.calls, redraw.puts, redraw.mask))


def requote_surface(surface: PriceSurface, gen: GeneratorConfig, strength: float,
                    draw: int) -> PriceSurface:
    """Push a decoded surface through the microstructure quote channel with
    noise amplitude scaled by `strength`, on the surface's own grid (a
    stressed panel's decode already carries the shifted rate).

    The evaluation inputs of the arbitrage score are exactly these cells
    and their discounting context; distorting them is what produces a
    finite failure threshold (the operator itself degrades too gracefully
    against input-side noise for the score to cross any level)."""
    if strength == 0.0:
        return surface
    grid = surface.grid
    rng = np.random.Generator(np.random.Philox(key=[gen.seed, 70_000 + draw]))
    logm = np.log(grid.strikes / grid.spot)
    calls = surface.calls
    sd = strength * gen.noise_scale * np.maximum(calls, gen.noise_floor) * (1.0 + np.abs(logm))[None, :]
    noisy = np.maximum(calls + sd * rng.standard_normal(calls.shape), 0.0)
    return PriceSurface.from_matrices(grid, noisy, parity_puts(grid, noisy), require_nonnegative=False)


def run_stress_to_fail(cfg: ExperimentConfig, out_dir, state=None, panels=None) -> dict:
    """Score the trained model under increasing distortion strengths.

    Both axes of the distortion family act on the evaluation inputs of the
    score: quote noise with amplitude scaled by the strength re-quotes the
    model-implied cells, and the numeraire shift moves the discount rate of
    the scoring context (and of the feature path feeding the decode).
    Returns {strength: (mean NAS, lo, hi)} plus the failure threshold (the
    smallest strength whose mean drops below the configured level).
    """
    os.makedirs(out_dir, exist_ok=True)
    if panels is None:
        panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
    if state is None:
        fold = blocked_folds(cfg.run.n_windows)[0]
        state, _, _ = run_fold(panels, fold, cfg.training)
    eval_panel = panels[-1]
    strengths = sorted(cfg.run.stress_strengths)
    curve = {}
    threshold = float("inf")
    for s in strengths:
        vals = []
        n_draws = 1 if s == 0.0 else cfg.run.stress_draws
        for draw in range(n_draws):
            stressed = distorted_panel(eval_panel, cfg.generator, s, draw)
            surf = decode_window(state.primal, stressed, cfg.training)
            vals.append(nas(requote_surface(surf, cfg.generator, s, draw)))
        mean, lo, hi = mean_interval(vals)
        curve[s] = (mean, lo, hi)
        if mean < cfg.run.nas_failure_threshold and threshold == float("inf"):
            threshold = s
    out = {
        "definition": (
            "distortion family: multiplicative quote-noise amplitude x strength, "
            f"numeraire shift r -> r + {STRESS_RATE_SHIFT} x strength"
        ),
        "curve": {str(k): v for k, v in curve.items()},
        "failure_threshold": threshold,
        "nas_failure_level": cfg.run.nas_failure_threshold,
    }
    with open(os.path.join(out_dir, "stress_curve.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    with open(os.path.join(out_dir, "stress_curve.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strength", "nas_mean", "nas_lo", "nas_hi"])
        for s, (m, lo, hi) in curve.items():
            writer.writerow([s, f"{m:.10g}", f"{lo:.10g}", f"{hi:.10g}"])
    return out


def run_external_validity(cfg: ExperimentConfig, out_dir) -> dict:
    """Frozen-shape reuse across disjoint OOS windows."""
    fold = blocked_folds(cfg.run.n_windows)[0]
    if len(fold.oos) < 2:
        raise DomainError("need at least 2 OOS windows for external validity")
    os.makedirs(out_dir, exist_ok=True)
    panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
    _, _, model_surfs = run_fold(panels, fold, cfg.training)
    drop, per_window = external_validity_drop(model_surfs[1:])
    _, lo, hi = mean_interval(per_window)
    out = {
        "cnas_frozen_drop": drop,
        "window_cnas": per_window,
        "ci": [lo, hi],
        "windows": fold.oos,
    }
    with open(os.path.join(out_dir, "external_validity.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    return out


# --- report rendering --------------------------------------------------------


def report(runlog_paths, out_dir) -> None:
    """CSV tables and plot-ready data from emitted records. Deterministic
    bytes for identical inputs."""
    rows = []
    for path in runlog_paths:
        try:
            with open(path, encoding="utf-8") as fh:
                rows.append((os.path.basename(path), json.load(fh)))
        except OSError as err:
            raise DomainError(f"cannot read run log {path}: {err.strerror}") from err
        except json.JSONDecodeError as err:
            raise DomainError(f"run log {path} is not JSON: {err}") from err
    os.makedirs(out_dir, exist_ok=True)
    from .runlog import SCHEMA_FIELDS

    # headline metrics: finite values and (mean, lo, hi) over the runs
    headline = ["NAS", "CNAS", "NI", "DualGap", "Stability", "SurfaceWasserstein", "GenGap_p95"]
    headline_ci = [m for m in headline if m != "Stability"]
    finite, interval = {}, {}
    for metric in headline:
        vals = np.array([r.get(metric) for _, r in rows if r.get(metric) is not None], dtype=float)
        finite[metric] = vals[np.isfinite(vals)]
        interval[metric] = mean_interval(finite[metric]) if len(finite[metric]) else None

    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["run"] + list(SCHEMA_FIELDS)
        for metric in headline_ci:
            header += [f"{metric}_lo", f"{metric}_hi"]
        writer.writerow(header)
        for name, rec in rows:
            row = [name] + [rec.get(k) for k in SCHEMA_FIELDS]
            for metric in headline_ci:
                row += list(interval[metric][1:]) if interval[metric] else ["", ""]
            writer.writerow(row)

    # headline table with intervals where enough runs exist
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mean", "ci_lo", "ci_hi", "n"])
        p_values = []
        for metric in headline:
            vals = finite[metric]
            if interval[metric] is None:
                writer.writerow([metric, "", "", "", 0])
                continue
            mean, lo, hi = interval[metric]
            writer.writerow([metric, f"{mean:.10g}", f"{lo:.10g}", f"{hi:.10g}", len(vals)])
            if metric in ("NAS", "CNAS") and len(vals) >= 2 and vals.std(ddof=1) > 0:
                from scipy.stats import norm as _n

                z = (vals.mean() - 0.9) / (vals.std(ddof=1) / np.sqrt(len(vals)))
                p_values.append((metric, float(1.0 - _n.cdf(z))))
        if p_values:
            rejections = holm_bonferroni([p for _, p in p_values])
            with open(os.path.join(out_dir, "holm.csv"), "w", newline="", encoding="utf-8") as fh2:
                w2 = csv.writer(fh2)
                w2.writerow(["hypothesis", "p_value", "rejected"])
                for (name, p), rej in zip(p_values, rejections):
                    w2.writerow([f"{name}_above_0.9", f"{p:.6g}", bool(rej)])

    # guard-effect series with the contraction ratio and safety headroom
    with open(os.path.join(out_dir, "guard_effects.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "spec_guard_hits", "projection_distance", "max_rho_dt",
                         "lambda_lip_before", "lambda_lip_after", "contraction_ratio",
                         "headroom"])
        for name, rec in rows:
            before = rec.get("lambda_lip_before")
            after = rec.get("lambda_lip_after")
            ratio = after / before if before not in (None, 0) and after is not None else ""
            headroom = 1.0 - after if after is not None else ""
            writer.writerow([name, rec.get("spec_guard_hits"), rec.get("projection_distance"),
                             rec.get("max_rho_dt"), before, after, ratio, headroom])


# --- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="arbsurf", description=__doc__)
    parser.add_argument("--config", default=None, help="INI config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reproduce")
    sub.add_parser("sweep")
    ab = sub.add_parser("ablate")
    ab.add_argument("--which", choices=ABLATION_SWITCHES, required=True)
    sub.add_parser("stress")
    sub.add_parser("external-validity")
    rep = sub.add_parser("report")
    rep.add_argument("runlogs", nargs="+")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config, args.seed)
        if args.command == "reproduce":
            run_reproduce(cfg, args.out, emit_panels=True)
        elif args.command == "sweep":
            run_sweep(cfg, args.out)
        elif args.command == "ablate":
            run_ablation(args.which, cfg, args.out)
        elif args.command == "stress":
            run_stress_to_fail(cfg, args.out)
        elif args.command == "external-validity":
            run_external_validity(cfg, args.out)
        elif args.command == "report":
            report(args.runlogs, args.out)
    except (DomainError, TrainingDivergence) as err:  # bad input or a diverged fold: one line
        LOGGER.error("stage %s failed: %s", args.command, err)
        return 1
    except Exception as err:  # a programming error: keep its traceback
        LOGGER.error("stage %s failed: %s", args.command, err, exc_info=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
