"""Self-tests of the benchmark harness: `python3 -m pytest benchmarks`."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Span, Tracer, aggregate, child_calls, self_times_ns  # noqa: E402


def _span(name, start, end, parent=-1, error=None):
    return Span(name, start, end, parent, "test", error)


def test_self_time_nested_and_sibling_spans():
    spans = [
        _span("a", 0, 100),
        _span("b", 10, 30, parent=0),   # sibling of c
        _span("c", 40, 70, parent=0),
        _span("d", 45, 50, parent=2),   # nested in c
    ]
    assert self_times_ns(spans) == [50, 20, 25, 5]


def test_self_time_uses_union_of_overlapping_children():
    spans = [_span("a", 0, 100), _span("b", 10, 40, parent=0), _span("c", 30, 60, parent=0),
             _span("d", 90, 130, parent=0)]  # clipped to the parent's end
    assert self_times_ns(spans)[0] == 100 - 50 - 10


def test_aggregate_counts_calls_and_errors():
    spans = [_span("a", 0, 10), _span("b", 2, 4, parent=0, error="ValueError"),
             _span("b", 5, 6, parent=0)]
    agg = aggregate(spans)
    assert agg["a"].calls == 1 and agg["b"].calls == 2 and agg["b"].errors == 1
    assert agg["a"].self_s == pytest.approx(7e-9)
    assert child_calls(spans, "b", "a") == 2


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")
    exec("def work(x):\n    return 2 * x\n"
         "def boom():\n    raise KeyError('x')\n"
         "def _private():\n    return 0\n", lib.__dict__)
    user.__dict__["work"] = lib.work  # imported by name, as training imports qalign
    exec("def go(x):\n    return work(x) + 1\n", user.__dict__)
    for mod in (pkg, lib, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return lib, user


def test_tracer_wraps_every_reference_and_restores(fake_package):
    lib, user = fake_package
    original = lib.work
    with Tracer("t1", package="fakepkg", layers=("lib", "user")) as tracer:
        assert user.work is not original and lib.work is not original
        assert lib._private.__name__ == "_private" and not hasattr(lib._private, "__wrapped__")
        assert user.go(3) == 7
        with pytest.raises(KeyError):
            lib.boom()
    assert lib.work is original and user.work is original
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("user.go", -1, None), ("lib.work", 0, None), ("lib.boom", -1, "KeyError")]
    assert all(s.run_id == "t1" for s in tracer.spans)


def test_tracer_reaches_program_call_sites():
    import arbsurf.generator
    import arbsurf.qalign
    import arbsurf.training

    original = arbsurf.qalign.spec_guard_project
    tracer = Tracer("t2")
    with tracer:
        assert arbsurf.training.spec_guard_project is not original
        cfg = arbsurf.generator.GeneratorConfig(n_paths=1000, n_maturities=3, n_strikes=5,
                              maturity_range=(0.25, 0.5))
        arbsurf.generator.make_panel(cfg, 0)
    assert arbsurf.training.spec_guard_project is original
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent >= 0}
    assert parents["generator.simulate_paths"] == "generator.make_panel"


def _workload(required):
    return SimpleNamespace(name="desk_fold", required_spans=required)


def test_guard_fails_loudly_without_model_forward_or_guard_calls():
    from workloads import DeskFold

    agg = aggregate([_span("training.model_forward", 0, 1)])
    with pytest.raises(run.HarnessError, match="qalign.spec_guard_project"):
        run.guard_trace(_workload(DeskFold.required_spans), {"trace.coverage": 1.0}, agg)
    agg = aggregate([_span("qalign.spec_guard_project", 0, 1)])
    with pytest.raises(run.HarnessError, match="training.model_forward"):
        run.guard_trace(_workload(DeskFold.required_spans), {"trace.coverage": 1.0}, agg)


def test_guard_fails_on_low_coverage_and_passes_otherwise():
    agg = aggregate([_span("x.f", 0, 1)])
    with pytest.raises(run.HarnessError, match="95%"):
        run.guard_trace(_workload(("x.f",)), {"trace.coverage": 0.9}, agg)
    run.guard_trace(_workload(("x.f",)), {"trace.coverage": 0.97}, agg)


def test_metric_names_match_benchmark_json():
    from workloads import Unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = run.per_layer(Tracer("t3"), {}, Unit(), 1.0, 1.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    e2e = run.end_to_end(1.0, [0.5], [Unit(wall_s=2.0, nas=1.0, surface_w1=0.1)])
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)


def test_fingerprint_diff_names_moved_fields():
    from checks import diff_detail, record_fingerprint
    from arbsurf.runlog import SCHEMA_FIELDS

    record = {name: 1.0 for name in SCHEMA_FIELDS}
    fp, detail = record_fingerprint(record, 10)
    assert fp == record_fingerprint(dict(record), 10)[0]
    moved_record = dict(record, NAS=0.5)
    fp2, detail2 = record_fingerprint(moved_record, 10)
    assert fp2 != fp
    assert diff_detail(detail2, detail) == [
        {"field": "NAS", "new": 0.5, "reference": 1.0, "abs": 0.5, "rel": 0.5}]


def test_units_that_disagree_within_one_invocation_fail():
    from workloads import Unit

    units = [Unit(fingerprint="a", detail={"NAS": 1.0}), Unit(fingerprint="a", detail={"NAS": 1.0}),
             Unit(fingerprint="b", detail={"NAS": 0.5})]
    run.check_determinism(units)
    assert [bool(u.failures) for u in units] == [False, False, True]
    assert "NAS" in units[2].failures[0]
