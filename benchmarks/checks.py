"""Correctness checks, behaviour fingerprints and the environment record.

Each check tests a guarantee of the program with a different estimator from
the one the program uses to enforce it, and returns a list of failure
messages (empty when the guarantee holds).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from arbsurf.decoder import static_arb_residuals
from arbsurf.operator import martingale_residual, measure_gate
from arbsurf.runlog import NULLABLE_FIELDS, SCHEMA_FIELDS
from arbsurf.training import to_operator_params

MARTINGALE_BOUND = 1e-2  # the record's Stability criterion
ORACLE_REPAIR_TOL = 1e-6  # generator.oracle_prices repair tolerance
CSV_REL_TOL = 1e-11  # write_surface_csv keeps 12 significant digits


# --- checks ------------------------------------------------------------------


def check_record_schema(record: dict) -> list:
    fails = []
    if tuple(record) != SCHEMA_FIELDS:
        fails.append(f"record fields {list(record)} differ from SCHEMA_FIELDS")
    for name, val in record.items():
        if val is None and name not in NULLABLE_FIELDS:
            fails.append(f"record field {name} is null but not nullable")
    return fails


def true_rho_dt_max(transitions: np.ndarray, dts: np.ndarray) -> float:
    """max_i rho(transitions[i]) * dts[i], rho from a full eigendecomposition
    rather than the power iteration the guard uses."""
    eig = np.linalg.eigvals(np.asarray(transitions, dtype=float))
    return float((np.abs(eig).max(axis=1) * np.asarray(dts, dtype=float)).max())


def check_guard(primal: dict, dts: np.ndarray, epsilon: float) -> tuple:
    rho_dt = true_rho_dt_max(primal["transitions"], dts)
    fails = []
    if not rho_dt <= 1.0 - epsilon:
        fails.append(f"true rho*dt {rho_dt:.6g} exceeds 1 - epsilon = {1.0 - epsilon:.6g}")
    return rho_dt, fails


def check_martingale(record: dict, primal: dict, grid) -> list:
    """The record's defect and the defect of the trained gate recomputed with
    the public measure-gate kernel, worst maturity, both within the bound."""
    fails = []
    logged = record["martingale_residual"]
    if not logged <= MARTINGALE_BOUND:
        fails.append(f"record martingale_residual {logged:.6g} > {MARTINGALE_BOUND}")
    w = measure_gate(to_operator_params(primal), grid)
    worst = max(martingale_residual(w, grid, ell) for ell in range(grid.n_maturities))
    if not worst <= MARTINGALE_BOUND:
        fails.append(f"recomputed gate martingale defect {worst:.6g} > {MARTINGALE_BOUND}")
    return fails


def check_oracle_arbitrage(surface, label: str) -> list:
    res = static_arb_residuals(surface)
    fails = []
    for part in ("monotonicity", "convexity", "calendar", "bounds"):
        worst = float(getattr(res, part).max(initial=0.0))
        if not worst <= ORACLE_REPAIR_TOL:
            fails.append(f"{label}: oracle {part} residual {worst:.3g} > {ORACLE_REPAIR_TOL}")
    return fails


def _same_cells(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> bool:
    if not np.all(np.isnan(a[~mask]) & np.isnan(b[~mask])):
        return False
    x, y = a[mask], b[mask]
    return bool(np.all(np.abs(x - y) <= CSV_REL_TOL * np.maximum(np.abs(x), 1.0)))


def check_csv_roundtrip(original, read_back, label: str) -> list:
    """Calls, puts and mask of a surface read back from its CSV."""
    mask = original.mask_matrix()
    if read_back.mask_matrix().shape != mask.shape or not np.array_equal(read_back.mask_matrix(), mask):
        return [f"{label}: CSV round trip changed the mask"]
    fails = []
    for part in ("calls", "puts"):
        a = getattr(original, f"{part}_matrix")()
        b = getattr(read_back, f"{part}_matrix")()
        if not _same_cells(a, b, mask):
            fails.append(f"{label}: CSV round trip changed the {part}")
    return fails


# --- fingerprints ------------------------------------------------------------


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True).encode()


def record_fingerprint(record: dict, stopped_at) -> tuple:
    """sha256 over the 22 schema fields plus the stopping step."""
    detail = {name: record[name] for name in SCHEMA_FIELDS}
    detail["stopped_at"] = stopped_at
    return hashlib.sha256(_canonical(detail)).hexdigest(), detail


def _array_summary(arr: np.ndarray) -> dict:
    finite = arr[np.isfinite(arr)]
    return {
        "sha256": hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest(),
        "sum": float(finite.sum()),
        "max": float(finite.max(initial=0.0)),
    }


def panel_fingerprint(panels) -> tuple:
    """sha256 over the oracle calls, quoted calls, mask and variance-proxy
    bytes of every window, plus a per-array summary for diffs."""
    digest = hashlib.sha256()
    detail = {}
    for p in panels:
        arrays = {
            "oracle_calls": p.oracle_surface.calls_matrix(),
            "quoted_calls": p.quoted_surface.calls_matrix(),
            "mask": p.quoted_surface.mask_matrix().astype(np.uint8),
            "vix2_observed": np.asarray(p.vix2_observed, dtype=float),
        }
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            digest.update(arr.tobytes())
            detail[f"window{p.window_index}.{name}"] = _array_summary(arr.astype(float))
    return digest.hexdigest(), detail


def _num(v):
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def diff_detail(current: dict, reference: dict) -> list:
    """Fields (or arrays) that moved against the reference, each with its
    absolute and relative change (for arrays: of their sum and max)."""
    moved = []
    for name in sorted(set(current) | set(reference)):
        a, b = current.get(name), reference.get(name)
        if isinstance(a, dict) and isinstance(b, dict):
            if a.get("sha256") == b.get("sha256"):
                continue
            changes = {k: _change(a.get(k), b.get(k)) for k in ("sum", "max")}
            moved.append({"field": name, **{f"{k}_change": v for k, v in changes.items()}})
        elif _canonical(a) != _canonical(b):
            moved.append({"field": name, **_change(a, b)})
    return moved


def _change(new, old) -> dict:
    x, y = _num(new), _num(old)
    if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
        return {"new": new, "reference": old}
    abs_change = abs(x - y)
    rel = abs_change / abs(y) if y != 0 else math.inf
    return {"new": x, "reference": y, "abs": abs_change, "rel": rel}


# --- environment -------------------------------------------------------------


def _git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*args) -> str:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                             timeout=30, check=True)
        return out.stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError) as err:
        return {"commit": None, "dirty": None, "note": f"git failed: {err}"}


def environment(root: Path) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": np.show_config(mode="dicts"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git": _git_state(root),
    }
