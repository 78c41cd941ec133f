import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from arbsurf import cli
from arbsurf.cli import (
    ABLATION_SWITCHES,
    ExperimentConfig,
    RunConfig,
    ablation_config,
    distorted_panel,
    external_validity_drop,
    load_config,
    report,
    requote_surface,
    run_ablation,
    run_external_validity,
    run_reproduce,
    run_stress_to_fail,
)
from arbsurf.generator import Fold, GeneratorConfig, make_panel
from arbsurf.grids import DomainError
from arbsurf.metrics import nas
from arbsurf.runlog import NULLABLE_FIELDS, SCHEMA_FIELDS, RunLog, config_hash, emit_log
from arbsurf.training import TrainingConfig, TrainingDivergence

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

SMOKE_GEN = dict(
    n_paths=800, steps_per_year=60, n_maturities=4, n_strikes=7,
    maturity_range=(0.25, 1.0), seed=11,
)
SMOKE_TRAIN = dict(rank=3, feature_bins=4, readout_dim=2, width=6, max_steps=25, seed=11)


def smoke_cfg(**run_kw):
    return ExperimentConfig(
        generator=GeneratorConfig(**SMOKE_GEN),
        training=TrainingConfig(**SMOKE_TRAIN),
        run=RunConfig(n_windows=4, stress_strengths=(0.0, 2.0), stress_draws=2, **run_kw),
    )


class TestRunLogSchema:
    def test_exact_field_list_golden(self):
        golden = (
            "NAS", "NI", "CNAS", "DualGap", "Stability", "SurfaceWasserstein",
            "GenGap_p95", "spec_guard_hits", "projection_distance", "max_rho_dt",
            "ratio_log", "enter_representer_at_step", "coverage_min",
            "coverage_mean", "coverage_at_trigger", "mfm_mse",
            "martingale_residual", "novik_to_kazamaki_rate", "lambda_lip_before",
            "lambda_lip_after", "filter_rate", "cnas_frozen_drop",
        )
        assert SCHEMA_FIELDS == golden
        assert len(SCHEMA_FIELDS) == 22

    def test_emit_rejects_incomplete(self, tmp_path):
        run = RunLog(NAS=1.0)
        with pytest.raises(DomainError):
            emit_log(run, tmp_path / "run.json")

    def test_emit_and_field_order(self, tmp_path):
        run = RunLog(**{f: 0.5 for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS})
        path = tmp_path / "run.json"
        record = emit_log(run, path, manifest={"seed": 1})
        assert tuple(record.keys()) == SCHEMA_FIELDS
        on_disk = json.loads(path.read_text())
        assert tuple(on_disk.keys()) == SCHEMA_FIELDS
        assert on_disk["mfm_mse"] is None  # placeholder retained for schema fidelity
        assert (tmp_path / "run.json.manifest.json").exists()

    def test_config_hash_deterministic(self):
        cfg = {"a": 1, "b": [1, 2]}
        assert config_hash(cfg) == config_hash({"b": [1, 2], "a": 1})
        assert config_hash(cfg) != config_hash({"a": 2, "b": [1, 2]})

    def test_sweep_ledger(self, tmp_path):
        cfg = smoke_cfg()
        path = tmp_path / "ledger.csv"
        cli._write_csv(path, cli.LEDGER_HEADER, [cli._ledger_row(cfg, 1.0, "run.json")])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "seed,lr_multiplier,config_hash,run_log"
        assert lines[1] == f"11,1.0,{cfg.hash()},run.json"
        assert len(lines) == 2


class TestConfigFile:
    def test_load_and_coerce(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[generator]\nn_paths = 1234\nrho = -0.5\n"
            "[training]\nmax_steps = 7\ngate_enabled = false\n"
            "[run]\nn_windows = 5\nstress_strengths = 0 1 2\n"
        )
        cfg = load_config(path)
        assert cfg.generator.n_paths == 1234
        assert cfg.generator.rho == -0.5
        assert cfg.training.max_steps == 7
        assert cfg.training.gate_enabled is False
        assert cfg.run.n_windows == 5
        assert cfg.run.stress_strengths == (0.0, 1.0, 2.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nbogus_key = 1\n")
        with pytest.raises(DomainError, match=r"unknown config key \[training\] bogus_key$"):
            load_config(path)

    @pytest.mark.parametrize("text,section", [
        ("[trainng]\nmax_steps = 3\n", "trainng"),
        ("[training]\nrank = 4\n[run]\nn_windows = 5\n[stress]\ndraws = 2\n", "stress"),
        ("[DEFAULT]\nmax_steps = 3\n", "DEFAULT"),
        ("[DEFAULT]\nmax_steps = 3\n[training]\nrank = 4\n", "DEFAULT"),
    ])
    def test_unknown_section_rejected(self, tmp_path, text, section):
        path = tmp_path / "typo.ini"
        path.write_text(text)
        with pytest.raises(DomainError, match=rf"^unknown config section \[{section}\]$"):
            load_config(path)

    # fixed conventions are module constants, not settings; log_every was read by nothing
    @pytest.mark.parametrize("section,key", [
        ("training", "gate_lr_mult"), ("training", "feature_scale"), ("training", "dual_mult_vix"),
        ("training", "dual_ramp_steps"), ("generator", "vix_proxy_factor"), ("run", "nas_failure_threshold"),
        ("generator", "delta_days"), ("training", "log_every"),
    ])
    def test_fixed_convention_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "fixed.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(DomainError, match=rf"unknown config key \[{section}\] {key}$"):
            load_config(path)

    @pytest.mark.parametrize("section,key", [("training", "guard")])
    def test_nested_group_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "nested.ini"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        with pytest.raises(DomainError, match=rf"\[{section}\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("n_windows", 2), ("stress_draws", 0), ("stress_strengths", "0 -1"), ("stress_strengths", "0 nan"),
        ("stress_strengths", ""), ("sweep_seeds", ""), ("ablation_seeds", ""), ("sweep_lr_multipliers", ""),
        ("sweep_lr_multipliers", "0 1"), ("sweep_lr_multipliers", "1 -0.5"), ("sweep_lr_multipliers", "nan"),
        ("sweep_seeds", "0 -1"), ("ablation_seeds", "-2"),
    ])
    def test_run_keys_validated_at_load(self, tmp_path, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{key} = {value}\n")
        with pytest.raises(DomainError, match=rf"\[run\] {key}"):
            load_config(path)

    # a bad [training] value fails at load in one line naming the key; the
    # decoder's depth, the penalty weights, the stopping rule and the solver's
    # inner settings are constants of `training`, not fields, so a config that
    # sets one fails as an unknown key, whatever its value
    @pytest.mark.parametrize("key,value", [
        ("rank", 0), ("feature_bins", 0), ("readout_dim", 0), ("width", 0), ("n_slices", 0),
        ("k_inner", 0), ("depth", -1), ("seed", -1), ("max_steps", -5), ("step_primal", -1.0), ("step_primal", 0.0),
        ("step_dual", 0.0), ("step_dual", float("nan")), ("clip_norm", -5.0), ("clip_norm", 0.0),
        ("clip_norm", float("nan")), ("gamma", -1.0), ("xi", -2.0), ("beta_nov", -1.0), ("gamma", float("nan")),
        ("delta_gap_tol", float("nan")), ("dual_residual_eps", float("nan")), ("delta_gap_tol", 0.0),
        ("patience", 0),
    ])
    def test_training_shape_and_steps_validated(self, tmp_path, key, value):
        field = key in {f.name for f in dataclasses.fields(TrainingConfig)}
        with pytest.raises(DomainError if field else TypeError, match=rf"\b{key}\b"):
            TrainingConfig(**{key: value})
        path = tmp_path / "training.ini"
        path.write_text(f"[training]\n{key} = {value}\n")
        message = rf"^\[training\] {key} must be" if field else rf"^unknown config key \[training\] {key}$"
        with pytest.raises(DomainError, match=message):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("maturity_range", (0.5, 0.1)), ("maturity_range", (0.0, 1.0)), ("maturity_range", (float("nan"), 1.0)),
        ("maturity_range", (0.1, 0.5, 1.0)), ("log_moneyness_range", (0.6, -0.6)),
        ("log_moneyness_range", (0.2, 0.2)), ("noise_scale", -0.01), ("noise_scale", float("nan")),
        ("noise_floor", -0.05), ("liq_a", float("nan")), ("liq_a", -0.1), ("liq_b", -1.0),
        ("liq_c", float("nan")), ("n_maturities", 1), ("n_maturities", 0), ("n_strikes", 2),
    ])
    def test_generator_ranges_and_noise_validated(self, tmp_path, key, value):
        with pytest.raises(DomainError, match=rf"\[generator\] {key}"):
            GeneratorConfig(**{key: value})
        raw = " ".join(map(str, value)) if isinstance(value, tuple) else value
        path = tmp_path / "generator.ini"
        path.write_text(f"[generator]\n{key} = {raw}\n")
        with pytest.raises(DomainError, match=rf"\[generator\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("s0", -100.0), ("s0", 0.0), ("s0", float("nan")), ("r", float("nan")), ("q", float("inf")),
        ("v0", -0.01), ("v0", float("nan")), ("kappa", float("nan")), ("theta_mean", -0.04),
        ("sigma_volvol", float("nan")), ("rho", float("nan")), ("rho", 1.5), ("rho", -1.01),
        ("kernel_weights", (float("nan"), 0.4)), ("kernel_weights", (0.6, -0.4)),
        ("kernel_rates", (float("nan"), 0.5)), ("kernel_rates", (5.0, 0.0)), ("seed", -1),
    ])
    def test_generator_model_parameters_validated(self, tmp_path, key, value):
        # NaN used to load and fail later in make_panel with an unrelated message
        with pytest.raises(DomainError, match=rf"\[generator\] {key}"):
            GeneratorConfig(**{key: value})
        raw = " ".join(map(str, value)) if isinstance(value, tuple) else value
        path = tmp_path / "generator.ini"
        path.write_text(f"[generator]\n{key} = {raw}\n")
        with pytest.raises(DomainError, match=rf"\[generator\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("rho", 1.0), ("rho", -1.0), ("v0", 0.0), ("sigma_volvol", 0.0), ("kernel_weights", (0.0, 0.0)),
    ])
    def test_generator_boundary_values_accepted(self, key, value):
        assert getattr(GeneratorConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("section,key,raw", [
        ("training", "max_steps", "abc"),
        ("generator", "rho", "-0.5x"),
        ("run", "stress_strengths", "0 1 two"),
    ])
    def test_coercion_error_names_key(self, tmp_path, section, key, raw):
        path = tmp_path / "typed.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(DomainError, match=rf"\[{section}\] {key} = '{raw}'"):
            load_config(path)

    @pytest.mark.parametrize("raw", ["maybe", "Ture", "2", ""])
    def test_boolean_typo_rejected(self, tmp_path, raw):
        path = tmp_path / "bool.ini"
        path.write_text(f"[training]\ngate_enabled = {raw}\n")
        with pytest.raises(DomainError, match=r"\[training\] gate_enabled"):
            load_config(path)

    @pytest.mark.parametrize("raw,value", [("Yes", True), ("on", True), ("1", True), ("TRUE", True),
                                           ("no", False), ("Off", False), ("0", False), ("false", False)])
    def test_boolean_words(self, tmp_path, raw, value):
        path = tmp_path / "bool.ini"
        path.write_text(f"[training]\nspecguard_enabled = {raw}\n")
        assert load_config(path).training.specguard_enabled is value

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        load_config(path)  # a key that no config field mirrors raises

    def test_seed_override(self):
        cfg = load_config(None, seed=42)
        assert cfg.generator.seed == 42 and cfg.training.seed == 42
        assert cfg.run.sweep_seeds == (42,) and cfg.run.ablation_seeds == (42,)

    def test_negative_seed_override_rejected(self, tmp_path):
        with pytest.raises(DomainError, match=r"^--seed must be >= 0$"):
            load_config(None, seed=-1)
        path = tmp_path / "seeded.ini"
        path.write_text("[generator]\nseed = 3\n[training]\nseed = 3\n")
        with pytest.raises(DomainError, match=r"^--seed must be >= 0$"):
            load_config(path, seed=-1)


class TestAblationConfig:
    def test_rank_half(self):
        t = TrainingConfig(rank=8)
        assert ablation_config("rank_half", t).rank == 4
        t2 = TrainingConfig(rank=7)
        assert ablation_config("rank_half", t2).rank == 4  # ceil

    def test_exactly_one_switch_differs(self):
        import dataclasses

        base = TrainingConfig()
        expected = {"gate_off": {"gate_enabled"}, "rank_half": {"rank"},
                    "specguard_off": {"specguard_enabled"}}
        for which in ABLATION_SWITCHES:
            mod = ablation_config(which, base)
            diff = {
                f.name
                for f in dataclasses.fields(TrainingConfig)
                if getattr(mod, f.name) != getattr(base, f.name)
            }
            assert diff == expected[which]

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            ablation_config("nonsense", TrainingConfig())


@pytest.fixture(scope="module")
def reproduce_records(tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    cfg = smoke_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_reproduce(cfg, out), out


class TestReproduceSmoke:

    def test_all_fields_emitted(self, reproduce_records):
        recs, _ = reproduce_records
        assert len(recs) == 2  # 4 windows -> 2 folds
        for _, rec in recs:
            assert tuple(rec.keys()) == SCHEMA_FIELDS
            for name in SCHEMA_FIELDS:
                if name in NULLABLE_FIELDS:
                    continue
                assert rec[name] is not None, name

    def test_trigger_fields_null_when_unfired(self, reproduce_records):
        recs, _ = reproduce_records
        for _, rec in recs:
            if rec["coverage_min"] >= 0.75:
                assert rec["enter_representer_at_step"] is None
                assert rec["coverage_at_trigger"] is None
            assert rec["mfm_mse"] is None

    def test_outputs_written(self, reproduce_records):
        _, out = reproduce_records
        for w in range(4):
            assert (out / f"window_{w}" / "quoted.csv").exists()
        assert (out / "sweep_ledger.csv").exists()
        assert (out / "report" / "metrics.csv").exists()
        assert (out / "report" / "summary.csv").exists()

    def test_one_oos_window_drop_not_measured(self, reproduce_records):
        # fold 0 reuses its frozen tolerance on window 3; fold 1 has window 3 alone
        recs, out = reproduce_records
        assert np.isfinite(recs[0][1]["cnas_frozen_drop"])
        assert np.isnan(recs[1][1]["cnas_frozen_drop"])
        assert np.isnan(json.loads(Path(recs[1][0]).read_text())["cnas_frozen_drop"])
        # the NaN stays out of every interval of the report
        with open(out / "report" / "summary.csv", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        assert all(np.isfinite(float(row[k])) for row in summary for k in ("mean", "ci_lo", "ci_hi"))
        with open(out / "report" / "metrics.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        bounds = [k for k in rows[0] if k.endswith(("_lo", "_hi"))]
        assert all(np.isfinite(float(row[k])) for row in rows for k in bounds)

    def test_determinism(self, reproduce_records, tmp_path):
        recs, out = reproduce_records
        cfg = smoke_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = run_reproduce(cfg, tmp_path / "again")
        for (_, a), (_, b) in zip(recs, again):
            assert a == b
        # the protocol's byte-identity, which holds for a NaN field whatever float object carries it
        emitted = [Path(path).relative_to(out) for path, _ in recs]
        emitted += sorted(p.relative_to(out) for p in out.glob("report/*.csv"))
        assert len(emitted) == 2 + 4  # two folds; metrics, summary, holm and guard_effects tables
        for rel in emitted:
            assert (out / rel).read_bytes() == (tmp_path / "again" / rel).read_bytes(), rel


class TestRunFold:
    def test_fold_without_oos_rejected_before_training(self, monkeypatch):
        trained = []
        train = cli.train
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args) or train(*args))
        cfg = smoke_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panels = [make_panel(cfg.generator, w) for w in range(2)]
            with pytest.raises(DomainError, match="out-of-sample"):
                cli.run_fold(panels, Fold(train=[0], val=1, oos=[]), cfg.training)
        assert trained == []

    def test_density_blocks_clamp_to_first_interior_strike(self):
        # every strike above spot: the strike nearest spot is the first, whose
        # density is the first interior one, not the far tail's
        from arbsurf.decoder import bl_density
        from arbsurf.grids import MarketGrid, PriceSurface

        from .oracles import bs_call

        mats = np.array([0.25, 0.5, 1.0])
        strikes = 100.0 * np.exp(np.linspace(0.05, 0.6, 9))
        grid = MarketGrid(mats, strikes, 100.0, 0.01, 0.0)
        calls = np.vstack([bs_call(100.0, strikes, t, 0.01, 0.0, 0.2) for t in mats])
        surf = PriceSurface.from_matrices(grid, calls, calls)
        first = [bl_density(surf, ell)[0] for ell in range(len(mats))]
        [block] = cli._gate_log_density_blocks([surf])
        assert np.array_equal(block, np.diff(np.log(first)))


class TestStress:
    def test_zero_strength_exact(self, tmp_path):
        cfg = smoke_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_stress_to_fail(cfg, tmp_path)
        assert "0.0" in out["curve"]
        assert np.isfinite(out["curve"]["0.0"][0])
        assert (tmp_path / "stress_curve.csv").exists()
        assert "definition" in out

    def test_requote_identity_at_zero(self):
        from arbsurf.generator import make_panel

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel = make_panel(GeneratorConfig(**SMOKE_GEN), 0)
        surf = panel.oracle_surface
        out = requote_surface(surf, GeneratorConfig(**SMOKE_GEN), 0.0, 0)
        assert np.array_equal(out.calls_matrix(), surf.calls_matrix())

    def test_distorted_panel_zero_is_baseline(self):
        from arbsurf.generator import make_panel

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel = make_panel(GeneratorConfig(**SMOKE_GEN), 0)
        same = distorted_panel(panel, GeneratorConfig(**SMOKE_GEN), 0.0, 0)
        assert same is panel

    def test_stressed_panel_is_the_baseline_requoted(self):
        from arbsurf.generator import make_panel

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel = make_panel(GeneratorConfig(**SMOKE_GEN), 2)
        stressed = distorted_panel(panel, GeneratorConfig(**SMOKE_GEN), 2.0, 0)
        assert stressed.window_index == panel.window_index
        assert np.array_equal(stressed.vix2_observed, panel.vix2_observed)
        assert stressed.quoted_surface.grid.rate == panel.quoted_surface.grid.rate + cli.STRESS_RATE_SHIFT * 2.0

    def test_scored_grid_shifted_once(self, tmp_path, monkeypatch):
        from arbsurf.generator import make_panel
        from arbsurf.training import build_batch, init_state

        cfg = smoke_cfg()
        cfg.run = replace(cfg.run, stress_strengths=(0.0, 1.0, 4.0), stress_draws=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panels = [make_panel(cfg.generator, w) for w in range(cfg.run.n_windows)]
        state = init_state(cfg.training, build_batch(panels[:1], cfg.training))
        rates = []
        monkeypatch.setattr(cli, "nas", lambda surface: rates.append(surface.grid.rate) or 1.0)
        run_stress_to_fail(cfg, tmp_path, state=state, panels=panels)
        r = panels[-1].quoted_surface.grid.rate
        assert rates == [r + cli.STRESS_RATE_SHIFT * s for s in (0.0, 1.0, 4.0)]


class TestAblationRun:
    def test_gate_off_one_seed(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_ablation("gate_off", smoke_cfg(ablation_seeds=(11,)), tmp_path)
        (path, run), = records
        assert path.endswith("runlog_gate_off_seed11.json")
        rec = json.loads(open(path).read())
        assert tuple(rec) == SCHEMA_FIELDS
        assert json.dumps(rec) == json.dumps(run.to_dict())
        assert np.isfinite(rec["NAS"])

    def test_manifests_name_their_trial(self, tmp_path):
        cfg = smoke_cfg(ablation_seeds=(11, 12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_ablation("gate_off", cfg, tmp_path)
        hashes = []
        for (path, _), seed in zip(records, (11, 12)):
            manifest = json.loads(Path(path + ".manifest.json").read_text())
            trial = ExperimentConfig(
                generator=replace(cfg.generator, seed=seed),
                training=replace(ablation_config("gate_off", cfg.training), seed=seed),
                run=cfg.run,
            )
            assert manifest == {"ablation": "gate_off", "seed": seed, "config_hash": trial.hash()}
            hashes.append(manifest["config_hash"])
        assert len(set(hashes)) == 2 and cfg.hash() not in hashes

    def test_divergence_writes_placeholder(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergence("non-finite objective (nan)")

        monkeypatch.setattr(cli, "run_fold", diverge)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_ablation("gate_off", smoke_cfg(ablation_seeds=(11,)), tmp_path)
        (path, run), = records
        rec = json.loads(open(path).read())
        assert tuple(rec) == SCHEMA_FIELDS
        assert all(rec[f] is not None for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS)
        assert rec["NAS"] == float("-inf") and rec["Stability"] == 0.0
        emit_log(run, tmp_path / "again.json")  # complete: emit_log accepts it

    def test_programming_error_fails_the_stage(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("run_fold() got an unexpected keyword argument")

        monkeypatch.setattr(cli, "run_fold", broken)
        monkeypatch.setattr(cli, "load_config", lambda path, seed: smoke_cfg(ablation_seeds=(11,)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(["--out", str(tmp_path), "ablate", "--which", "gate_off"])
        assert code == 1
        assert not list(tmp_path.glob("runlog_*.json"))


class TestExternalValidity:
    def test_drop_equals_fold_record(self, tmp_path, monkeypatch):
        runs = []
        run_fold = cli.run_fold

        def recorded(*args):
            out = run_fold(*args)
            runs.append(out[1])
            return out

        monkeypatch.setattr(cli, "run_fold", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = run_external_validity(smoke_cfg(), tmp_path)
        assert len(runs) == 1
        assert out["cnas_frozen_drop"] == runs[0].cnas_frozen_drop
        assert out["windows"] == [2, 3]
        assert (tmp_path / "external_validity.json").exists()

    def test_three_windows_rejected_before_panels(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "make_panel", lambda *args: calls.append(args))
        cfg = smoke_cfg()
        cfg.run.n_windows = 3
        with pytest.raises(DomainError, match="2 OOS windows"):
            run_external_validity(cfg, tmp_path)
        assert calls == []

    def test_identical_windows_zero_drop(self):
        from .oracles import bs_call
        from arbsurf.grids import MarketGrid, PriceSurface

        mats = np.array([0.5, 1.0])
        strikes = np.linspace(70, 130, 13)
        grid = MarketGrid(mats, strikes, 100.0, 0.01, 0.0)
        calls = np.vstack([bs_call(100.0, strikes, t, 0.01, 0.0, 0.2) for t in mats])
        surf = PriceSurface.from_matrices(grid, calls, calls)
        drop, _ = external_validity_drop([surf, surf, surf])
        assert drop == pytest.approx(0.0, abs=1e-15)

    def test_one_window_rejected(self):
        from .oracles import bs_call
        from arbsurf.grids import MarketGrid, PriceSurface

        mats = np.array([0.5, 1.0])
        strikes = np.linspace(70, 130, 13)
        grid = MarketGrid(mats, strikes, 100.0, 0.01, 0.0)
        calls = np.vstack([bs_call(100.0, strikes, t, 0.01, 0.0, 0.2) for t in mats])
        surf = PriceSurface.from_matrices(grid, calls, calls)
        # scoring the one window against itself would read 0.0 by construction
        with pytest.raises(DomainError, match="at least two windows"):
            external_validity_drop([surf])

    def test_planted_mismatch_positive_drop(self):
        from arbsurf.grids import MarketGrid, PriceSurface

        mats = np.array([0.5, 1.0])
        strikes = np.linspace(90, 110, 5)
        grid = MarketGrid(mats, strikes, 100.0, 0.0, 0.0)
        clean = np.vstack([np.linspace(10, 2, 5), np.linspace(11, 3, 5)])
        kinked = clean.copy()
        kinked[0, 2] += 0.4  # curvature violation on the reuse window only
        s_clean = PriceSurface.from_matrices(grid, clean, clean)
        s_kinked = PriceSurface.from_matrices(grid, kinked, kinked, require_nonnegative=False)
        drop, _ = external_validity_drop([s_clean, s_kinked])
        assert drop >= 0.0


class TestReport:
    def test_nulls_do_not_crash(self, tmp_path):
        run = RunLog(**{f: 0.5 for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS})
        p = tmp_path / "a.json"
        emit_log(run, p)
        report([p], tmp_path / "rep")
        lines = (tmp_path / "rep" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_deterministic_bytes(self, tmp_path):
        run = RunLog(**{f: 0.25 for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS})
        p = tmp_path / "a.json"
        emit_log(run, p)
        report([p], tmp_path / "r1")
        report([p], tmp_path / "r2")
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == (tmp_path / "r2" / "metrics.csv").read_bytes()

    def test_tail_p_values_keep_precision(self, tmp_path, monkeypatch):
        # NAS z ~ 7 and CNAS z ~ 9 over two records: 1 - Phi(z) cancels to a
        # wrong sixth digit at 7 and to exactly 0 past about 8.3
        from scipy.special import ndtr

        pairs = {"NAS": (0.96, 0.98), "CNAS": (0.98, 1.0)}
        paths = []
        for i in range(2):
            run = RunLog(**{f: 0.5 for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS})
            run = replace(run, **{m: v[i] for m, v in pairs.items()})
            paths.append(tmp_path / f"r{i}.json")
            emit_log(run, paths[-1])
        seen, holm = [], cli.holm_bonferroni
        monkeypatch.setattr(cli, "holm_bonferroni", lambda ps: seen.extend(ps) or holm(ps))
        report(paths, tmp_path / "rep")
        z = [(np.mean(v) - 0.9) / (np.std(v, ddof=1) / np.sqrt(2)) for v in pairs.values()]
        np.testing.assert_allclose(z, [7.0, 9.0], atol=1e-6)
        expected = [float(ndtr(-zi)) for zi in z]
        np.testing.assert_allclose(seen, expected, rtol=1e-12, atol=0.0)
        with open(tmp_path / "rep" / "holm.csv", newline="") as fh:
            written = [row["p_value"] for row in csv.DictReader(fh)]
        assert written == [f"{p:.6g}" for p in expected]


class TestBlasThreads:
    # a fold trained in a fresh process prints the digests of its record
    # file, its decoded surfaces and its primal parameters
    SCRIPT = """
import hashlib, json, sys
from dataclasses import replace
from arbsurf import cli
from arbsurf.runlog import emit_log

cfg = cli.load_config(sys.argv[1], None)
cfg = replace(cfg, training=replace(cfg.training, max_steps=100))
panels, fold, state, run, surfaces = cli._train_fold0(cfg)
emit_log(run, sys.argv[2])
with open(sys.argv[2], "rb") as fh:
    record = hashlib.sha256(fh.read()).hexdigest()
decoded = hashlib.sha256(b"".join(s.calls.tobytes() + s.puts.tobytes() for s in surfaces)).hexdigest()
primal = hashlib.sha256(b"".join(k.encode() + state.primal[k].tobytes() for k in sorted(state.primal))).hexdigest()
print(json.dumps({"record": record, "decoded": decoded, "primal": primal}))
"""

    def test_smoke_fold_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        ini = str(Path(__file__).resolve().parents[1] / "configs" / "smoke.ini")
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            out = subprocess.run([sys.executable, "-c", self.SCRIPT, ini, str(tmp_path / f"runlog_{threads}.json")],
                                 env=env, capture_output=True, text=True, check=True)
            digests[threads] = json.loads(out.stdout)
        assert digests["1"] == digests["2"]


class TestCliMain:
    def test_import_leaves_out_scipy(self):
        # the runtime needs numpy alone: scipy.special would add about 26 MiB
        # of RSS and a quarter second of import for one constant and one tail
        script = "import sys, arbsurf.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_reproduce_and_report_run_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every scipy import raise
        ini = tmp_path / "smoke5.ini"
        smoke = (Path(__file__).resolve().parents[1] / "configs" / "smoke.ini").read_text()
        assert "max_steps = 4000" in smoke
        ini.write_text(smoke.replace("max_steps = 4000", "max_steps = 5"))
        for i, nas_value in enumerate((0.96, 0.98)):
            emit_log(RunLog(**{f: nas_value for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS}), tmp_path / f"r{i}.json")
        script = """
import sys
sys.modules["scipy"] = None
from arbsurf import cli
out, ini, a, b = sys.argv[1:]
sys.exit(cli.main(["--config", ini, "--out", out + "/smoke", "reproduce"])
         or cli.main(["--out", out + "/report", "report", a, b]))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(ini),
                              str(tmp_path / "r0.json"), str(tmp_path / "r1.json")],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "smoke" / "report" / "summary.csv").exists()
        assert (tmp_path / "report" / "holm.csv").exists()

    def test_report_subcommand(self, tmp_path):
        from arbsurf.cli import main

        run = RunLog(**{f: 0.5 for f in SCHEMA_FIELDS if f not in NULLABLE_FIELDS})
        p = tmp_path / "a.json"
        emit_log(run, p)
        rc = main(["--out", str(tmp_path / "rep"), "report", str(p)])
        assert rc == 0
        assert (tmp_path / "rep" / "metrics.csv").exists()

    def test_failing_stage_nonzero_exit(self, tmp_path, caplog):
        log, ini = str(tmp_path / "missing.json"), str(tmp_path / "missing.ini")
        headless, truncated = tmp_path / "nosection.ini", tmp_path / "truncated.json"
        headless.write_text("max_steps = 3\n")
        truncated.write_text('{"NAS": 0.5, ')
        for bad, argv in ((log, ["report", log]), (ini, ["--config", ini, "reproduce"]),
                          (str(headless), ["--config", str(headless), "reproduce"]),
                          (str(truncated), ["report", str(truncated)])):
            caplog.clear()
            rc = cli.main(["--out", str(tmp_path / "out")] + argv)
            assert rc == 1
            (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
            assert bad in rec.getMessage()
            assert rec.exc_info is None
            assert not (tmp_path / "out").exists()  # nothing ran

    def test_nan_generator_value_is_one_line(self, tmp_path, caplog):
        path = tmp_path / "nanrho.ini"
        path.write_text("[generator]\nrho = nan\n[training]\nmax_steps = 3\n")
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "reproduce"])
        assert rc == 1
        (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
        assert "[generator] rho" in rec.getMessage()
        assert rec.exc_info is None
        assert not (tmp_path / "out").exists()  # nothing ran

    @pytest.mark.parametrize("text,fragment", [
        ("[trainng]\nmax_steps = 3\n", "unknown config section [trainng]"),
        ("[generator]\nn_maturities = 1\n[training]\nmax_steps = 3\n", "[generator] n_maturities"),
    ])
    def test_load_error_is_one_line(self, tmp_path, caplog, text, fragment):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "reproduce"])
        assert rc == 1
        (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
        assert fragment in rec.getMessage()
        assert rec.exc_info is None
        assert not (tmp_path / "out").exists()  # nothing ran

    def test_negative_seed_is_one_line_before_panels(self, tmp_path, monkeypatch, caplog):
        calls = []
        monkeypatch.setattr(cli, "make_panel", lambda *args: calls.append(args))
        rc = cli.main(["--seed", "-1", "--out", str(tmp_path / "out"), "reproduce"])
        assert rc == 1
        (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
        assert "--seed must be >= 0" in rec.getMessage()
        assert rec.exc_info is None
        assert calls == []
        assert not (tmp_path / "out").exists()  # nothing ran

    def test_config_error_is_one_line(self, tmp_path, caplog):
        path = tmp_path / "typed.ini"
        path.write_text("[training]\nmax_steps = abc\n")
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "reproduce"])
        assert rc == 1
        (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
        assert "[training] max_steps = 'abc'" in rec.getMessage()
        assert rec.exc_info is None
        assert not (tmp_path / "out").exists()  # nothing ran

    def test_programming_error_keeps_traceback(self, tmp_path, monkeypatch, caplog):
        def broken(*args, **kwargs):
            raise TypeError("run_fold() got an unexpected keyword argument")

        monkeypatch.setattr(cli, "run_fold", broken)
        monkeypatch.setattr(cli, "load_config", lambda path, seed: smoke_cfg(ablation_seeds=(11,)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["--out", str(tmp_path), "ablate", "--which", "gate_off"])
        assert rc == 1
        (rec,) = [r for r in caplog.records if r.name == "arbsurf" and r.levelname == "ERROR"]
        assert rec.exc_info is not None and rec.exc_info[0] is TypeError
        assert "Traceback (most recent call last)" in caplog.text
        assert "in broken" in caplog.text


class TestSweepSmoke:
    def test_minimal_grid(self, tmp_path):
        from arbsurf.cli import run_sweep

        cfg = ExperimentConfig(
            generator=GeneratorConfig(**SMOKE_GEN),
            training=TrainingConfig(**SMOKE_TRAIN),
            run=RunConfig(n_windows=3, sweep_seeds=(11,), sweep_lr_multipliers=(1.0,)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep(cfg, tmp_path)
        assert len(records) == 1
        assert (tmp_path / "sweep_ledger.csv").exists()
        (path, run), = records
        rec = json.loads(open(path).read())
        assert tuple(rec.keys()) == SCHEMA_FIELDS
        # three windows leave cnas_frozen_drop NaN, which a plain == of the dicts rejects
        assert json.dumps(rec) == json.dumps(run.to_dict())

    def test_seed_option_sets_the_trial_seed(self, tmp_path):
        four = Path(__file__).resolve().parents[1] / "configs" / "four.ini"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["--config", str(four), "--seed", "5", "--out", str(tmp_path), "sweep"])
        assert rc == 0
        with open(tmp_path / "sweep_ledger.csv", newline="", encoding="utf-8") as fh:
            ledger = list(csv.DictReader(fh))
        assert [row["seed"] for row in ledger] == ["5"]
        assert Path(ledger[0]["run_log"]).name == "runlog_seed5_lr1.0.json"

    def test_divergence_is_a_logged_trial(self, tmp_path, monkeypatch, caplog):
        run_fold, base = cli.run_fold, TrainingConfig(**SMOKE_TRAIN)

        def diverge_at_lr2(panels, fold, tcfg):
            if tcfg.step_primal == 2.0 * base.step_primal:
                raise TrainingDivergence("non-finite objective (nan)")
            return run_fold(panels, fold, tcfg)

        cfg = ExperimentConfig(
            generator=GeneratorConfig(**SMOKE_GEN),
            training=base,
            run=RunConfig(n_windows=3, sweep_seeds=(11,), sweep_lr_multipliers=(1.0, 2.0)),
        )
        monkeypatch.setattr(cli, "run_fold", diverge_at_lr2)
        monkeypatch.setattr(cli, "load_config", lambda path, seed: cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["--out", str(tmp_path), "sweep"])
        assert rc == 0
        assert any("seed11_lr2.0" in r.getMessage() for r in caplog.records if r.levelname == "WARNING")
        real = json.loads((tmp_path / "runlog_seed11_lr1.0.json").read_text())
        placeholder = json.loads((tmp_path / "runlog_seed11_lr2.0.json").read_text())
        assert np.isfinite(real["NAS"])
        assert placeholder["NAS"] == float("-inf") and placeholder["Stability"] == 0.0
        with open(tmp_path / "sweep_ledger.csv", newline="", encoding="utf-8") as fh:
            ledger = list(csv.DictReader(fh))
        assert [row["lr_multiplier"] for row in ledger] == ["1.0", "2.0"]
        assert [Path(row["run_log"]).name for row in ledger] == [
            "runlog_seed11_lr1.0.json", "runlog_seed11_lr2.0.json"]
