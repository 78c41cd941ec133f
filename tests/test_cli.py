import json
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
from arbsurf.generator import GeneratorConfig
from arbsurf.grids import DomainError
from arbsurf.metrics import CnasShape, nas
from arbsurf.runlog import NULLABLE_FIELDS, SCHEMA_FIELDS, RunLog, SweepLedger, SweepRow, config_hash, emit_log
from arbsurf.training import TrainingConfig, TrainingDivergence

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))

SMOKE_GEN = dict(
    n_paths=800, steps_per_year=60, n_maturities=4, n_strikes=7,
    maturity_range=(0.25, 1.0), seed=11,
)
SMOKE_TRAIN = dict(rank=3, feature_bins=4, readout_dim=2, width=6, depth=2,
                   max_steps=25, seed=11)


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
        ledger = SweepLedger()
        ledger.append(SweepRow(0, 1.0, 0.1, 0.5, 1.0, "abc", "run.json"))
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("seed,gamma,beta_nov,xi")
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
        with pytest.raises(DomainError):
            load_config(path)

    @pytest.mark.parametrize("section,key", [("training", "guard")])
    def test_nested_group_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "nested.ini"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        with pytest.raises(DomainError, match=rf"\[{section}\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [("n_windows", 2), ("stress_draws", 0)])
    def test_run_keys_validated_at_load(self, tmp_path, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\n{key} = {value}\n")
        with pytest.raises(DomainError, match=rf"\[run\] {key}"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [
        ("rank", 0), ("feature_bins", 0), ("readout_dim", 0), ("width", 0), ("n_slices", 0),
        ("k_inner", 0), ("depth", -1), ("max_steps", -5), ("step_primal", -1.0), ("step_primal", 0.0),
        ("step_dual", 0.0), ("step_dual", float("nan")),
    ])
    def test_training_shape_and_steps_validated(self, tmp_path, key, value):
        with pytest.raises(DomainError, match=rf"\[training\] {key}"):
            TrainingConfig(**{key: value})
        path = tmp_path / "training.ini"
        path.write_text(f"[training]\n{key} = {value}\n")
        with pytest.raises(DomainError, match=rf"\[training\] {key}"):
            load_config(path)

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
        assert (out / "sweep_ledger.csv").exists()
        assert (out / "report" / "metrics.csv").exists()
        assert (out / "report" / "summary.csv").exists()

    def test_determinism(self, reproduce_records, tmp_path):
        recs, _ = reproduce_records
        cfg = smoke_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = run_reproduce(cfg, tmp_path / "again")
        for (_, a), (_, b) in zip(recs, again):
            assert a == b


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
        assert rec == run.to_dict()
        assert np.isfinite(rec["NAS"])

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


class TestCliMain:
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
        rec = json.loads((tmp_path / records[0].split("/")[-1]).read_text()) if False else json.loads(open(records[0]).read())
        assert tuple(rec.keys()) == SCHEMA_FIELDS
