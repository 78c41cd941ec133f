#!/usr/bin/env python3
"""arbsurf benchmark harness.

    python3 benchmarks/run.py --workload desk_fold --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src. Each
workload is closed-loop with one client: it repeats its unit of work until
`--seconds` have passed (at least twice), in this one process, with the
BLAS/OpenMP thread environment left as the caller set it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
one untraced unit, then one traced set-up plus unit with every public
function of the arbsurf layers wrapped, and reports the per-layer metrics
and the tracing overhead. Human-readable lines go to stdout first; the last
line is one JSON object with keys correct, attempted, failed and metrics.
A results file (and, when traced, the spans) is written to .bench_out/.
See benchmarks/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MIN_UNITS = 2
SETUP_REPEATS = 3


class HarnessError(RuntimeError):
    """The benchmark cannot measure this tree (not a program failure)."""


def import_program() -> float:
    """Import arbsurf from ./src; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "arbsurf" / "__init__.py").is_file():
        raise HarnessError(f"no arbsurf package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import arbsurf.cli  # noqa: F401  (first import: numpy, scipy and every layer)

    import_s = time.perf_counter() - t0
    if not Path(arbsurf.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise HarnessError(f"arbsurf imported from {arbsurf.cli.__file__}, not {src}")
    return import_s


# --- measuring ---------------------------------------------------------------


def run_unit(workload, out_dir: Path, tracer=None):
    """One unit: timed run, then untimed checks. Exceptions become failures.
    With a tracer, the set-up is redone inside the traced, timed region."""
    from workloads import Unit

    out_dir.mkdir(parents=True)
    try:
        with tracer if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            if tracer is not None:
                workload.setup()
            raw = workload.run(out_dir)
            wall = time.perf_counter() - t0
        unit = workload.finish(raw, out_dir)
        unit.wall_s = wall
    except Exception as err:  # a failing unit is counted, the run goes on
        traceback.print_exc()
        unit = Unit(failures=[f"unit raised {type(err).__name__}: {err}"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return unit


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def measure(workload, seconds: float) -> tuple:
    setups = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
    units = []
    t_start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - t_start < seconds:
        units.append(run_unit(workload, workload.workdir / f"unit{len(units)}"))
    return setups, units


def _observers() -> dict:
    def path_bytes(tracer, args, kwargs, result):
        tracer.counters["generator.path_bytes"] += result.spot.nbytes + result.variance.nbytes

    def csv_bytes(tracer, args, kwargs, result):
        tracer.counters["grids.csv_bytes"] += os.path.getsize(args[1])

    def log_bytes(tracer, args, kwargs, result):
        path = str(args[1])
        sidecar = path + ".manifest.json"
        tracer.counters["runlog.bytes_written"] += os.path.getsize(path) + (
            os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)

    return {"generator.simulate_paths": path_bytes, "grids.write_surface_csv": csv_bytes,
            "runlog.emit_log": log_bytes}


def measure_traced(workload, run_id: str) -> tuple:
    """One untraced set-up plus unit, then one traced set-up plus unit."""
    from tracing import Tracer

    untraced_setup = timed_setup(workload)
    untraced = run_unit(workload, workload.workdir / "unit0")
    tracer = Tracer(run_id, _observers())
    traced = run_unit(workload, workload.workdir / "unit1", tracer)
    return untraced_setup, untraced, traced, tracer


# --- metrics -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(import_s: float, setups: list, units: list) -> dict:
    done = [u for u in units if u.wall_s is not None and u.nas is not None]
    if not done:
        raise HarnessError("no unit completed; nothing to report")
    return {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(u.wall_s for u in done),
        "peak_rss_mb": peak_rss_mb(),
        "nas": statistics.median(u.nas for u in done),
        "surface_w1": statistics.median(u.surface_w1 for u in done),
    }


SELF_S = ("generator.simulate_paths", "generator.oracle_prices", "generator.vix2_proxy",
          "generator.add_noise_censor", "decoder.noarb_project", "grids.write_surface_csv",
          "grids.read_surface_csv", "training.extragradient_step",
          "training.empirical_gap_from_state", "training.model_forward",
          "training.primal_gradient", "training.apply_qalign", "training.build_batch",
          "qalign.spec_guard_project", "operator.green_sum", "runlog.emit_log", "cli.report")
CALLS = ("generator.make_panel", "decoder.noarb_project", "decoder.bl_density",
         "training.model_forward", "training.primal_gradient", "training.decode_window",
         "qalign.spec_guard_project", "operator.green_sum", "operator.representer_fallback",
         "operator.scan_forward", "operator.measure_gate", "vix.vix_squared",
         "vix.replicate_surface", "runlog.emit_log")


def per_layer(tracer, agg: dict, unit, trace_wall: float, untraced_wall: float) -> dict:
    from tracing import FnStats, child_calls

    spans = tracer.spans

    def st(name):
        return agg.get(name, FnStats())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{n}.self_s": st(n).self_s for n in SELF_S}
    m.update({f"{n}.calls": st(n).calls for n in CALLS})
    eg, gap = st("training.extragradient_step"), st("training.empirical_gap_from_state")
    train, fold = st("training.train"), st("cli.run_fold")
    starts = [s.start for s in spans if s.name == "training.extragradient_step"]
    gaps_ns = [b - a for a, b in zip(starts, starts[1:])]
    metric_fns = [v for k, v in agg.items() if k.startswith("metrics.")]
    roots_ns = sum(s.end - s.start for s in spans if s.parent < 0)
    info = unit.info
    m.update({
        "generator.path_bytes": tracer.counters["generator.path_bytes"],
        "generator.repair_rate": ratio(
            child_calls(spans, "decoder.noarb_project", "generator.oracle_prices"),
            st("generator.oracle_prices").calls),
        "decoder.projection_failures": st("decoder.noarb_project").errors,
        "grids.csv_bytes": tracer.counters["grids.csv_bytes"],
        "training.step_ms": 1e-6 * statistics.median(gaps_ns) if gaps_ns else 0.0,
        "training.forwards_per_step":
            ratio(child_calls(spans, "training.model_forward", "training.extragradient_step"), eg.calls)
            + ratio(child_calls(spans, "training.model_forward", "training.empirical_gap_from_state"), gap.calls),
        "training.backwards_per_step":
            ratio(child_calls(spans, "training.primal_gradient", "training.extragradient_step"), eg.calls)
            + ratio(child_calls(spans, "training.primal_gradient", "training.empirical_gap_from_state"), gap.calls),
        "training.gap_share": ratio(gap.total_s, train.total_s),
        "training.divergences": sum(1 for s in spans
                                    if s.name == "training.train" and s.error == "TrainingDivergence"),
        "training.steps_to_stop": info.get("steps_to_stop", 0),
        "training.steps_per_s": ratio(info.get("steps", 0), train.total_s),
        "qalign.guard_hit_rate": ratio(info.get("spec_guard_hits", 0), st("qalign.spec_guard_project").calls),
        "qalign.rho_dt_logged_max": info.get("rho_dt_logged_max", 0.0),
        "qalign.rho_dt_true_max": info.get("rho_dt_true_max", 0.0),
        "metrics.calls": sum(f.calls for f in metric_fns),
        "metrics.self_s": sum(f.self_s for f in metric_fns),
        "runlog.bytes_written": tracer.counters["runlog.bytes_written"],
        "cli.run_fold.eval_s": fold.total_s - sum(
            (s.end - s.start) * 1e-9 for s in spans
            if s.name == "training.train" and s.parent >= 0 and spans[s.parent].name == "cli.run_fold"),
        "trace.wall_s": trace_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": trace_wall - untraced_wall,
        "trace.coverage": ratio(roots_ns * 1e-9, trace_wall),
        "trace.spans": len(spans),
    })
    return m


def guard_trace(workload, layer: dict, agg: dict) -> None:
    """Fail loudly when the trace cannot be trusted: a required layer saw no
    calls (a moved call site would read as a free layer), or the top-level
    spans miss more than 5% of the traced wall time."""
    missing = [n for n in workload.required_spans if n not in agg or agg[n].calls == 0]
    if missing:
        raise HarnessError(f"traced {workload.name} saw zero calls of {missing}; "
                           "the tracer no longer reaches these call sites")
    if layer["trace.coverage"] < 0.95:
        raise HarnessError(f"top-level spans cover {layer['trace.coverage']:.1%} of the traced "
                           f"{workload.name} wall time (< 95%)")


# --- reporting ---------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(name: str, seed: int, units: list) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"].get(name, {}).get(str(seed))
    first = next((u for u in units if u.fingerprint), None)
    if first is None:
        return {"status": "no fingerprint"}
    if ref is None:
        return {"status": "no reference for this seed", "fingerprint": first.fingerprint}
    if first.fingerprint == ref["fingerprint"]:
        return {"status": "match", "fingerprint": first.fingerprint}
    from checks import diff_detail

    return {"status": "MISMATCH", "fingerprint": first.fingerprint,
            "reference": ref["fingerprint"], "moved": diff_detail(first.detail, ref["detail"])}


def check_determinism(units: list) -> None:
    """Units of the same code in one invocation must agree byte for byte."""
    done = [u for u in units if u.fingerprint]
    for i, u in enumerate(done[1:], start=1):
        if u.fingerprint != done[0].fingerprint:
            from checks import diff_detail

            moved = [d["field"] for d in diff_detail(u.detail, done[0].detail)]
            u.failures.append(f"non-deterministic: unit {i} differs from unit 0 in {moved}")


def headline_table(workload, e2e: dict, units: list) -> list:
    """The eight headline metrics, n/a where the workload does no training."""
    done = [u for u in units if u.info]
    failed = sum(1 for u in units if u.failures)

    def med(key):
        return statistics.median(u.info[key] for u in done) if done else None

    rows = [("setup_s", "s", e2e["setup_s"]), ("wall_s", "s", e2e["wall_s"]),
            ("train_steps_per_s", "steps/s", med("train_steps_per_s") if workload.trains else None),
            ("steps_to_stop", "count", med("steps_to_stop") if workload.trains else None),
            ("peak_rss_mb", "MiB", e2e["peak_rss_mb"]), ("nas", "1", e2e["nas"]),
            ("surface_w1", "1", e2e["surface_w1"]),
            ("fail_rate", "runs failed / runs attempted", failed / len(units))]
    return [{"metric": n, "unit": u, "value": v} for n, u, v in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.time()
    try:
        import_s = import_program()
        spec = load_spec()
        import checks
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise HarnessError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        workdir = OUT / "work" / run_id
        shutil.rmtree(workdir, ignore_errors=True)  # left behind by a killed run
        workdir.mkdir(parents=True)
        try:
            workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
            result = _run(args, spec, workload, import_s, run_id)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["environment"] = checks.environment(ROOT)
        result["started_unix"] = started
    except (HarnessError, OSError, ImportError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


def _run(args, spec, workload, import_s: float, run_id: str) -> dict:
    if args.trace:
        untraced_setup, untraced, traced, tracer = measure_traced(workload, run_id)
        units = [untraced, traced]
        if untraced.wall_s is None or traced.wall_s is None:
            raise HarnessError("a unit of the traced run failed; no per-layer figures")
        from tracing import aggregate

        agg = aggregate(tracer.spans)
        layer = per_layer(tracer, agg, traced, traced.wall_s, untraced_setup + untraced.wall_s)
        guard_trace(workload, layer, agg)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        extra = {"functions": {k: vars(v) for k, v in sorted(agg.items())}}
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        with gzip.open(OUT / "results" / f"{run_id}.spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.run_id, s.error] for s in tracer.spans], fh)
    else:
        setups, units = measure(workload, args.seconds)
        e2e = end_to_end(import_s, setups, units)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        extra = {"setups_s": setups, "import_s": import_s,
                 "headline_metrics": headline_table(workload, e2e, units)}
    check_determinism(units)
    reference = compare_reference(workload.name, args.seed, units)
    failed = sum(1 for u in units if u.failures)
    for i, u in enumerate(units):
        wall = f"{u.wall_s:.3f} s" if u.wall_s is not None else "n/a"
        print(f"unit {i}: wall {wall}, fingerprint {u.fingerprint}, "
              f"{'FAILED: ' + '; '.join(u.failures) if u.failures else 'checks passed'}")
    print(f"fingerprint vs reference: {reference['status']}")
    for moved in reference.get("moved", []):
        print(f"  moved: {json.dumps(moved)}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    else:
        for row in extra["headline_metrics"]:
            v = row["value"]
            print(f"{row['metric']:20s} {'n/a' if v is None else f'{v:.6g}':>12s} {row['unit']}")
    return {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": [{"wall_s": u.wall_s, "fingerprint": u.fingerprint, "failures": u.failures,
                   "info": u.info} for u in units],
        "fingerprint_detail": next((u.detail for u in units if u.fingerprint), None),
        "reference": reference,
        **extra,
    }


if __name__ == "__main__":
    sys.exit(main())
