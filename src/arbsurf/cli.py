"""
Experiment harness: reproduce, sweep, ablations, stress-to-fail, external
validity, and report rendering, all emitting the locked audit-log schema.

`reproduce` trains every blocked fold through `run_fold`. The other run
commands train fold 0 through `_train_fold0`; `sweep` and `ablate` run their
seeded trials through one loop, `_run_trials`, which writes each record with
a manifest carrying that trial's own config hash, so every trial can be
replayed. The sweep ledger, the stress curve and the report tables are
written by one CSV writer.

Config files are flat key=value INI text with one section per module
([generator], [training], [run]); every key mirrors a dataclass field. All
outputs land under --out together with a manifest per record.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import platform
import sys
import time
from configparser import ConfigParser
from configparser import Error as ConfigError
from dataclasses import dataclass, field, replace

import numpy as np

from .decoder import bl_density
from .generator import (
    GeneratorConfig,
    SyntheticPanel,
    add_noise_censor,
    blocked_folds,
    make_panel,
    quote_noise_sd,
    write_panel,
)
from .grids import DomainError, MarketGrid, PriceSurface, parity_puts
from .metrics import (
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
from .runlog import SCHEMA_FIELDS, RunLog, config_hash, emit_log
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
NAS_FAILURE_LEVEL = 0.9  # stress-to-fail: first strength whose mean NAS drops below this
CNAS_TUNE_TAUS = (0.0, 1e-5, 1e-4, 1e-3)  # tolerance grid of the in-window CNAS tuning
LEDGER_HEADER = ("seed", "lr_multiplier", "config_hash", "run_log")


@dataclass
class RunConfig:
    n_windows: int = 4
    stress_strengths: tuple = (0.0, 1.0, 2.0, 4.0, 8.0)
    stress_draws: int = 8
    sweep_lr_multipliers: tuple = (0.5, 1.0, 2.0)
    sweep_seeds: tuple = (0, 1, 2)
    ablation_seeds: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.n_windows < 3:
            raise DomainError("[run] n_windows must be >= 3 (blocked folds need three windows)")
        if self.stress_draws < 1:
            raise DomainError("[run] stress_draws must be >= 1")
        for name, positive in (("stress_strengths", False), ("sweep_lr_multipliers", True),
                               ("sweep_seeds", False), ("ablation_seeds", False)):
            values = getattr(self, name)
            if not values:
                raise DomainError(f"[run] {name} must not be empty")
            if not all(v > 0 if positive else v >= 0 for v in values):  # NaN fails the comparison
                raise DomainError(f"[run] {name} must all be {'> 0' if positive else '>= 0'}")


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
        targets = {"generator": cfg.generator, "training": cfg.training, "run": cfg.run}
        if parser.defaults():  # ConfigParser merges [DEFAULT] into every section, or drops it when none follows
            raise DomainError(f"unknown config section [{parser.default_section}]")
        for section, items in sections.items():
            target = targets.get(section)
            if target is None:
                raise DomainError(f"unknown config section [{section}]")
            for key, raw in items:
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
    if seed is not None:
        if seed < 0:
            raise DomainError("--seed must be >= 0")
        cfg.generator.seed = cfg.training.seed = seed
        cfg.run.sweep_seeds = cfg.run.ablation_seeds = (seed,)
    cfg.generator.__post_init__()
    cfg.training.__post_init__()
    cfg.run.__post_init__()
    return cfg


# --- shared pipeline pieces --------------------------------------------------


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ledger_row(cfg: ExperimentConfig, lr_multiplier: float, path) -> list:
    return [cfg.training.seed, lr_multiplier, cfg.hash(), path]


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
            dens.append(max(float(row[min(max(j - 1, 0), len(row) - 1)]), 1e-12))
        blocks.append(np.diff(np.log(dens)))
    return blocks


def external_validity_drop(surfaces) -> tuple:
    """Mean in-window-tuned minus frozen shaped score over reuse windows.

    Only the CNAS tolerance is tuned, over CNAS_TUNE_TAUS; the hinge's
    stiffness and cap are the frozen constants of `metrics.cnas`. The frozen
    tolerance is the one tuned on the first window, reused on the remaining
    ones; identical windows then give a drop of exactly zero. Returns (mean
    drop, frozen-tolerance score per reuse window).
    """
    if len(surfaces) < 2:
        raise DomainError("external validity needs at least two windows: one to tune, one to reuse")

    def tune(surf):
        return max(CNAS_TUNE_TAUS, key=lambda tau: cnas(surf, tau))

    frozen = tune(surfaces[0])
    drops = []
    per_window = []
    for surf in surfaces[1:]:
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
    if not fold.oos:
        raise DomainError("a fold needs at least one out-of-sample window")
    data = FoldData.from_fold(panels, fold)
    state, run = train(tcfg, data)

    eval_panels = [data.val_panel] + list(data.oos_panels)
    model_surfs = [decode_window(state.primal, p, tcfg) for p in eval_panels]
    oracle_surfs = [p.oracle_surface for p in eval_panels]
    run.NAS = nas(model_surfs[0])
    run.CNAS = cnas(model_surfs[0])
    run.Stability = stability([run])

    run.NI = ni(model_surfs, oracle_surfs)
    oos_model, oos_oracle = model_surfs[1:], oracle_surfs[1:]
    run.SurfaceWasserstein = float(
        np.mean([surface_wasserstein(m, o) for m, o in zip(oos_model, oos_oracle)])
    )

    train_err = np.mean(
        [np.abs(decode_window(state.primal, p, tcfg).calls - p.oracle_surface.calls).ravel()
         for p in data.train_panels],
        axis=0,
    )
    oos_err = np.mean([np.abs(m.calls - o.calls).ravel() for m, o in zip(oos_model, oos_oracle)], axis=0)
    run.GenGap_p95 = gen_gap_p95(train_err, oos_err)

    rate, _, _ = novikov_kazamaki_rate(_gate_log_density_blocks(model_surfs))
    run.novik_to_kazamaki_rate = rate
    # one OOS window leaves nothing to reuse the frozen tolerance on: not
    # measured (the one shared NaN object, so equal records compare equal)
    run.cnas_frozen_drop = external_validity_drop(oos_model)[0] if len(oos_model) >= 2 else math.nan
    return state, run, model_surfs


def run_reproduce(cfg: ExperimentConfig, out_dir) -> list:
    """Full protocol: panels (written under window_<i>/), blocked folds,
    training, metrics, records."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
    for p in panels:
        write_panel(p, os.path.join(out_dir, f"window_{p.window_index}"), cfg.generator)
    folds = blocked_folds(cfg.run.n_windows)
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
        records.append((path, emit_log(run, path, manifest)))
    _write_csv(os.path.join(out_dir, "sweep_ledger.csv"), LEDGER_HEADER,
               [_ledger_row(cfg, 1.0, path) for path, _ in records])
    report([p for p, _ in records], os.path.join(out_dir, "report"))
    return records


def _trial(cfg: ExperimentConfig, seed: int, training: TrainingConfig) -> ExperimentConfig:
    """One seeded trial: cfg's generator and the given training config, both
    under seed."""
    return ExperimentConfig(replace(cfg.generator, seed=seed), replace(training, seed=seed), cfg.run)


def _train_fold0(cfg: ExperimentConfig, panels=None) -> tuple:
    """Fold 0 of the blocked folds trained through `run_fold`, on the given
    panels or on cfg's windows; returns (panels, fold, state, record,
    decoded surfaces of the validation then the OOS windows)."""
    fold = blocked_folds(cfg.run.n_windows)[0]
    if panels is None:
        panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
    return (panels, fold, *run_fold(panels, fold, cfg.training))


def _run_trials(trials, out_dir) -> list:
    """Train fold 0 of each (name, trial config, manifest) and emit its record
    as runlog_<name>.json, the manifest completed with the trial's own
    config_hash. A diverged trial is a valid logged outcome: its record is
    the placeholder. Returns [(record path, record)]."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for name, trial, manifest in trials:
        try:
            _, _, _, run, _ = _train_fold0(trial)
        except TrainingDivergence as err:
            LOGGER.warning("trial %s failed: %s", name, err)
            run = RunLog(
                NAS=float("-inf"), NI=0.0, CNAS=float("-inf"), DualGap=float("inf"),
                Stability=0.0, SurfaceWasserstein=float("inf"), GenGap_p95=float("inf"),
                spec_guard_hits=0, projection_distance=0.0, max_rho_dt=float("inf"),
                ratio_log=float("nan"), coverage_min=0.0, coverage_mean=0.0,
                martingale_residual=float("inf"), novik_to_kazamaki_rate=float("nan"),
                lambda_lip_before=float("nan"), lambda_lip_after=float("nan"),
                filter_rate=0.0, cnas_frozen_drop=float("nan"),
            )
        path = os.path.join(out_dir, f"runlog_{name}.json")
        emit_log(run, path, {**manifest, "config_hash": trial.hash()})
        records.append((path, run))
    return records


def run_sweep(cfg: ExperimentConfig, out_dir) -> list:
    """Seed x learning-rate grid, every trial logged for exact replay."""
    t = cfg.training
    trials = [(f"seed{seed}_lr{mult}",
               _trial(cfg, seed, replace(t, step_primal=t.step_primal * mult, step_dual=t.step_dual * mult)),
               {"lr_multiplier": mult})
              for seed in cfg.run.sweep_seeds for mult in cfg.run.sweep_lr_multipliers]
    records = _run_trials(trials, out_dir)
    _write_csv(os.path.join(out_dir, "sweep_ledger.csv"), LEDGER_HEADER,
               [_ledger_row(trial, manifest["lr_multiplier"], path)
                for (_, trial, manifest), (path, _) in zip(trials, records)])
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
    switched = ablation_config(which, cfg.training)
    return _run_trials([(f"{which}_seed{seed}", _trial(cfg, seed, switched), {"ablation": which, "seed": seed})
                        for seed in cfg.run.ablation_seeds], out_dir)


def distorted_panel(panel: SyntheticPanel, gen: GeneratorConfig, strength: float,
                    draw: int) -> SyntheticPanel:
    """One stress draw of the baseline panel: quotes redrawn with the noise
    amplitude scaled by `strength`, on the grid shifted by the numeraire
    shift r -> r + 0.01 * strength. strength 0 returns the baseline panel
    itself (no redraw)."""
    if strength == 0.0:
        return panel
    noisy_cfg = replace(gen, noise_scale=gen.noise_scale * strength)
    redraw, _ = add_noise_censor(panel.oracle_surface, noisy_cfg, stream=90_000 + 101 * draw)
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
    calls = surface.calls
    sd = quote_noise_sd(gen, calls, np.log(grid.strikes / grid.spot), strength)
    noisy = np.maximum(calls + sd * rng.standard_normal(calls.shape), 0.0)
    return PriceSurface.from_matrices(grid, noisy, parity_puts(grid, noisy), require_nonnegative=False)


def run_stress_to_fail(cfg: ExperimentConfig, out_dir, state=None, panels=None) -> dict:
    """Score the trained model under increasing distortion strengths.

    Both axes of the distortion family act on the evaluation inputs of the
    score: quote noise with amplitude scaled by the strength re-quotes the
    model-implied cells, and the numeraire shift moves the discount rate of
    the scoring context (and of the feature path feeding the decode).
    Returns {strength: (mean NAS, lo, hi)} plus the failure threshold (the
    smallest strength whose mean drops below NAS_FAILURE_LEVEL). A given
    state comes with the panels it is scored on; without one, fold 0 is
    trained on the given panels or on cfg's windows.
    """
    os.makedirs(out_dir, exist_ok=True)
    if state is None:
        panels, _, state, _, _ = _train_fold0(cfg, panels)
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
        if mean < NAS_FAILURE_LEVEL and threshold == float("inf"):
            threshold = s
    out = {
        "definition": (
            "distortion family: multiplicative quote-noise amplitude x strength, "
            f"numeraire shift r -> r + {STRESS_RATE_SHIFT} x strength"
        ),
        "curve": {str(k): v for k, v in curve.items()},
        "failure_threshold": threshold,
        "nas_failure_level": NAS_FAILURE_LEVEL,
    }
    with open(os.path.join(out_dir, "stress_curve.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    _write_csv(os.path.join(out_dir, "stress_curve.csv"), ["strength", "nas_mean", "nas_lo", "nas_hi"],
               [[s, f"{m:.10g}", f"{lo:.10g}", f"{hi:.10g}"] for s, (m, lo, hi) in curve.items()])
    return out


def run_external_validity(cfg: ExperimentConfig, out_dir) -> dict:
    """Frozen-tolerance CNAS reuse across disjoint OOS windows."""
    if cfg.run.n_windows < 4:  # fold 0 scores windows 2, 3, ... out of sample
        raise DomainError("need at least 2 OOS windows for external validity")
    os.makedirs(out_dir, exist_ok=True)
    _, fold, _, _, model_surfs = _train_fold0(cfg)
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

    # headline metrics: finite values and (mean, lo, hi) over the runs
    headline = ["NAS", "CNAS", "NI", "DualGap", "Stability", "SurfaceWasserstein", "GenGap_p95"]
    headline_ci = [m for m in headline if m != "Stability"]
    finite, interval = {}, {}
    for metric in headline:
        vals = np.array([r.get(metric) for _, r in rows if r.get(metric) is not None], dtype=float)
        finite[metric] = vals[np.isfinite(vals)]
        interval[metric] = mean_interval(finite[metric]) if len(finite[metric]) else None

    header, bounds = ["run"] + list(SCHEMA_FIELDS), []
    for metric in headline_ci:
        header += [f"{metric}_lo", f"{metric}_hi"]
        bounds += list(interval[metric][1:]) if interval[metric] else ["", ""]
    _write_csv(os.path.join(out_dir, "metrics.csv"), header,
               [[name] + [rec.get(k) for k in SCHEMA_FIELDS] + bounds for name, rec in rows])

    # headline table with intervals where enough runs exist
    summary, p_values = [], []
    for metric in headline:
        vals = finite[metric]
        if interval[metric] is None:
            summary.append([metric, "", "", "", 0])
            continue
        mean, lo, hi = interval[metric]
        summary.append([metric, f"{mean:.10g}", f"{lo:.10g}", f"{hi:.10g}", len(vals)])
        if metric in ("NAS", "CNAS") and len(vals) >= 2 and vals.std(ddof=1) > 0:
            z = (vals.mean() - 0.9) / (vals.std(ddof=1) / np.sqrt(len(vals)))
            p_values.append((metric, 0.5 * math.erfc(z / math.sqrt(2.0))))  # upper tail, no cancellation
    _write_csv(os.path.join(out_dir, "summary.csv"), ["metric", "mean", "ci_lo", "ci_hi", "n"], summary)
    if p_values:
        rejections = holm_bonferroni([p for _, p in p_values])
        _write_csv(os.path.join(out_dir, "holm.csv"), ["hypothesis", "p_value", "rejected"],
                   [[f"{name}_above_0.9", f"{p:.6g}", bool(rej)] for (name, p), rej in zip(p_values, rejections)])

    # guard-effect series with the contraction ratio and safety headroom
    guard = []
    for name, rec in rows:
        before = rec.get("lambda_lip_before")
        after = rec.get("lambda_lip_after")
        ratio = after / before if before not in (None, 0) and after is not None else ""
        headroom = 1.0 - after if after is not None else ""
        guard.append([name, rec.get("spec_guard_hits"), rec.get("projection_distance"),
                      rec.get("max_rho_dt"), before, after, ratio, headroom])
    _write_csv(os.path.join(out_dir, "guard_effects.csv"),
               ["run", "spec_guard_hits", "projection_distance", "max_rho_dt", "lambda_lip_before",
                "lambda_lip_after", "contraction_ratio", "headroom"], guard)


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
            run_reproduce(cfg, args.out)
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
