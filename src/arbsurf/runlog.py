"""
The consolidated per-run audit record and the sweep ledger.

The record schema is locked: exactly the fields of `RunLog`, in their
declared order (`SCHEMA_FIELDS`), one value (or null) each per run. Nulls
are reserved for fields whose trigger never fired (the representer fallback
timestamps) and for placeholders kept for schema fidelity (the
matched-budget route error).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from .grids import DomainError

# fields that may legitimately be null in an emitted record
NULLABLE_FIELDS = frozenset(
    {"enter_representer_at_step", "coverage_at_trigger", "mfm_mse"}
)


@dataclass
class RunLog:
    NAS: float | None = None
    NI: float | None = None
    CNAS: float | None = None
    DualGap: float | None = None
    Stability: float | None = None
    SurfaceWasserstein: float | None = None
    GenGap_p95: float | None = None
    spec_guard_hits: int | None = None
    projection_distance: float | None = None
    max_rho_dt: float | None = None
    ratio_log: float | None = None
    enter_representer_at_step: int | None = None
    coverage_min: float | None = None
    coverage_mean: float | None = None
    coverage_at_trigger: float | None = None
    mfm_mse: float | None = None
    martingale_residual: float | None = None
    novik_to_kazamaki_rate: float | None = None
    lambda_lip_before: float | None = None
    lambda_lip_after: float | None = None
    filter_rate: float | None = None
    cnas_frozen_drop: float | None = None

    def to_dict(self) -> dict:
        """Stable field order, plain JSON-serializable values."""
        out = {}
        for name in SCHEMA_FIELDS:
            val = getattr(self, name)
            if val is not None and hasattr(val, "item"):
                val = val.item()
            out[name] = val
        return out

    def validate_complete(self) -> None:
        """Schema completeness for emission: null only where allowed."""
        for name in SCHEMA_FIELDS:
            if getattr(self, name) is None and name not in NULLABLE_FIELDS:
                raise DomainError(f"run log field {name!r} is unset")


SCHEMA_FIELDS = tuple(f.name for f in fields(RunLog))


def config_hash(config: dict) -> str:
    """Deterministic digest over a flattened config mapping."""
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SweepRow:
    seed: int
    gamma: float
    beta_nov: float
    xi: float
    lr_multiplier: float
    cfg_hash: str
    run_log_path: str


class SweepLedger:
    """Append-only record of sweep configurations for exact replay."""

    def __init__(self):
        self.rows: list[SweepRow] = []

    def append(self, row: SweepRow) -> None:
        self.rows.append(row)

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["seed", "gamma", "beta_nov", "xi", "lr_multiplier", "config_hash", "run_log"]
            )
            for r in self.rows:
                writer.writerow(
                    [r.seed, r.gamma, r.beta_nov, r.xi, r.lr_multiplier, r.cfg_hash, r.run_log_path]
                )


def emit_log(run: RunLog, path, manifest: dict | None = None) -> dict:
    """Write one consolidated record (exact schema) plus a sidecar manifest.

    Returns the serialized record dictionary.
    """
    run.validate_complete()
    record = run.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if manifest is not None:
        sidecar = str(path) + ".manifest.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    return record
