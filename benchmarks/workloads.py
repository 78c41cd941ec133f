"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, does one unit of
timed program work in `run`, and checks and fingerprints that unit in
`finish`, outside the timed region. The program is reached through module
attributes (`cli.run_fold`, not a bound name) so that an installed tracer
sees every call.
"""

from __future__ import annotations

import configparser
import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from arbsurf import cli, generator, grids, metrics, runlog

import checks

DESK_STEPS = 400  # fixed step budget of desk_fold (below the 1000-step patience)
SMOKE_STEP_CAP = 4000  # smoke.ini's own cap (1500) cuts some seeds before their stopping rule
PANEL_WINDOWS = 4


@dataclass
class Unit:
    """Outcome of one unit of work."""

    wall_s: float | None = None
    fingerprint: str | None = None
    detail: dict = field(default_factory=dict)  # what the fingerprint covers
    nas: float | None = None
    surface_w1: float | None = None
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def generated_config(root: Path, name: str, seed: int, training: dict, path: Path) -> Path:
    """configs/<name> with the workload seed and the given [training] keys."""
    parser = configparser.ConfigParser()
    with open(root / "configs" / name, encoding="utf-8") as fh:
        parser.read_file(fh)
    for section in ("generator", "training"):
        if not parser.has_section(section):
            parser.add_section(section)
    parser.set("generator", "seed", str(seed))
    parser.set("training", "seed", str(seed))
    for key, value in training.items():
        parser.set("training", key, str(value))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


@contextmanager
def capture(module, attr: str, sink: list):
    """Record (args, result) of every call of module.attr while active."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, result))
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def _fold_checks(record: dict, state, run, tcfg, grid, unit: Unit, expect_stop: bool) -> None:
    unit.failures += checks.check_record_schema(record)
    if expect_stop and not run.stopped:
        unit.failures.append(f"fold ran to max_steps={tcfg.max_steps} without meeting its stopping rule")
    if not expect_stop and (run.stopped or state.step != tcfg.max_steps):
        unit.failures.append(f"fold ran {state.step} steps, expected exactly {tcfg.max_steps}")
    rho_dt, fails = checks.check_guard(state.primal, grid.time_steps(), tcfg.guard.epsilon)
    unit.failures += fails + checks.check_martingale(record, state.primal, grid)
    unit.fingerprint, unit.detail = checks.record_fingerprint(record, state.history.stopped_at)
    unit.nas = record["NAS"]
    unit.surface_w1 = record["SurfaceWasserstein"]
    train_s = state.history.wall[-1] if state.history.wall else float("nan")
    unit.info.update(
        steps=state.step,
        steps_to_stop=state.history.stopped_at if run.stopped else state.step,
        stopped=bool(run.stopped),
        train_steps_per_s=state.step / train_s,
        rho_dt_true_max=rho_dt,
        rho_dt_logged_max=record["max_rho_dt"],
        spec_guard_hits=record["spec_guard_hits"],
    )


class Workload:
    name = ""
    trains = True
    required_spans: tuple = ()

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root, self.seed, self.workdir = root, seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, out_dir: Path):
        raise NotImplementedError

    def finish(self, raw, out_dir: Path) -> Unit:
        raise NotImplementedError


class DeskFold(Workload):
    """cli.run_fold on configs/desk.ini, fold 0, DESK_STEPS extragradient
    steps, plus the emitted 22-field record. Set-up builds the four desk
    windows."""

    name = "desk_fold"
    required_spans = ("training.model_forward", "qalign.spec_guard_project")

    def setup(self) -> None:
        ini = generated_config(self.root, "desk.ini", self.seed, {"max_steps": DESK_STEPS},
                               self.workdir / "desk.ini")
        self.cfg = cli.load_config(ini)
        self.panels = [generator.make_panel(self.cfg.generator, w)
                       for w in range(self.cfg.run.n_windows)]
        self.fold = generator.blocked_folds(self.cfg.run.n_windows)[0]

    def run(self, out_dir: Path):
        state, run, _ = cli.run_fold(self.panels, self.fold, self.cfg.training)
        path = out_dir / "runlog_fold0.json"
        runlog.emit_log(run, path, {"config_hash": self.cfg.hash(), "seed": self.seed})
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        return state, run, record

    def finish(self, raw, out_dir: Path) -> Unit:
        state, run, record = raw
        unit = Unit()
        grid = self.panels[0].quoted_surface.grid
        _fold_checks(record, state, run, self.cfg.training, grid, unit, expect_stop=False)
        for p in self.panels:
            unit.failures += checks.check_oracle_arbitrage(p.oracle_surface, f"window {p.window_index}")
        return unit


class SmokeReproduce(Workload):
    """`arbsurf --config <generated smoke.ini> --out <dir> reproduce`, run
    in-process through cli.main, then the records, ledger and report are
    read back."""

    name = "smoke_reproduce"
    required_spans = ("training.model_forward", "qalign.spec_guard_project",
                      "operator.representer_fallback", "runlog.emit_log")

    def setup(self) -> None:
        self.ini = generated_config(self.root, "smoke.ini", self.seed,
                                    {"max_steps": SMOKE_STEP_CAP}, self.workdir / "smoke.ini")
        self.cfg = cli.load_config(self.ini)

    def run(self, out_dir: Path):
        folds = []
        with capture(cli, "run_fold", folds):
            rc = cli.main(["--config", str(self.ini), "--out", str(out_dir), "reproduce"])
        with open(out_dir / "runlog_fold0.json", encoding="utf-8") as fh:
            record = json.load(fh)
        tables = {}
        for rel in ("sweep_ledger.csv", "report/metrics.csv", "report/summary.csv",
                    "report/guard_effects.csv"):
            with open(out_dir / rel, newline="", encoding="utf-8") as fh:
                tables[rel] = list(csv.reader(fh))
        return rc, folds, record, tables

    def finish(self, raw, out_dir: Path) -> Unit:
        rc, folds, record, tables = raw
        unit = Unit()
        if rc != 0:
            unit.failures.append(f"arbsurf reproduce exited with {rc}")
        n_folds = len(generator.blocked_folds(self.cfg.run.n_windows))
        if len(folds) != n_folds:
            unit.failures.append(f"{len(folds)} folds trained, expected {n_folds}")
        for rel, rows in tables.items():
            if len(rows) < 1 + (1 if rel.startswith("report/summary") else n_folds):
                unit.failures.append(f"{rel} has {len(rows)} rows")
        (panels, _fold, tcfg), (state, run, _) = folds[0]
        grid = panels[0].quoted_surface.grid
        _fold_checks(record, state, run, tcfg, grid, unit, expect_stop=True)
        g = self.cfg.generator
        for p in panels:
            label = f"window {p.window_index}"
            quoted = grids.read_surface_csv(out_dir / f"window_{p.window_index}" / "quoted.csv",
                                            g.s0, g.r, g.q)
            unit.failures += checks.check_csv_roundtrip(p.quoted_surface, quoted, label)
            unit.failures += checks.check_oracle_arbitrage(p.oracle_surface, label)
        return unit


class PanelGen(Workload):
    """Four windows with the GeneratorConfig defaults (what `arbsurf
    reproduce` builds without --config), each written with write_panel and
    its quoted CSV read back. (oracle.csv is not read back: a repaired
    oracle carries negative parity puts, which read_surface_csv rejects.)"""

    name = "panel_gen"
    trains = False
    required_spans = ("generator.simulate_paths", "grids.read_surface_csv")

    def setup(self) -> None:
        self.cfg = cli.load_config(None, self.seed).generator

    def run(self, out_dir: Path):
        g = self.cfg
        panels, read_back = [], []
        for w in range(PANEL_WINDOWS):
            panel = generator.make_panel(g, w)
            wdir = out_dir / f"window_{w}"
            generator.write_panel(panel, wdir, g)
            read_back.append(grids.read_surface_csv(wdir / "quoted.csv", g.s0, g.r, g.q))
            panels.append(panel)
        return panels, read_back

    def finish(self, raw, out_dir: Path) -> Unit:
        panels, read_back = raw
        unit = Unit()
        nas_vals, w1_vals = [], []
        for p, quoted in zip(panels, read_back):
            label = f"window {p.window_index}"
            oracle = p.oracle_surface
            unit.failures += checks.check_csv_roundtrip(p.quoted_surface, quoted, label)
            unit.failures += checks.check_oracle_arbitrage(oracle, label)
            vix2 = np.asarray(p.vix2_observed, dtype=float)
            if not (np.all(np.isfinite(vix2)) and np.all(vix2 > 0)):
                unit.failures.append(f"{label}: variance proxy not finite and positive")
            # quality: arbitrage score of the oracle, and the distance of the
            # quotes as read back (oracle at censored cells) from it
            mask = quoted.mask_matrix()
            filled = grids.PriceSurface.from_matrices(
                oracle.grid,
                np.where(mask, quoted.calls_matrix(), oracle.calls_matrix()),
                np.where(mask, quoted.puts_matrix(), oracle.puts_matrix()),
                require_nonnegative=False,
            )
            nas_vals.append(metrics.nas(oracle))
            w1_vals.append(metrics.surface_wasserstein(filled, oracle))
        unit.nas = float(np.mean(nas_vals))
        unit.surface_w1 = float(np.mean(w1_vals))
        unit.fingerprint, unit.detail = checks.panel_fingerprint(panels)
        return unit


WORKLOADS = {w.name: w for w in (DeskFold, SmokeReproduce, PanelGen)}
