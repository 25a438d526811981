"""Experiment runner: configuration in, deterministic report bundle out.

report.json is byte-identical for a fixed config and master seed no matter
how many worker threads are used; anything time- or host-dependent lives in
metadata.json next to it.  Exit semantics: 0 when every check meets its
expectation (checks listed under expected_fail must fail), 1 otherwise, 2
for configuration errors (raised as ConfigError before any work starts).
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import harness
from .checks import CHECKS, Check, _write_finiteness_csv, resolve
from .config import ExperimentConfig
from .errors import PerpetuaError, PreconditionViolation

__all__ = ["run_experiment", "write_report", "simulate_paths"]


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    checks: list[str] | None = None,
    threads: int = 1,
) -> tuple[dict, int]:
    """Run the selected checks and return (report, exit_code)."""
    selected = list(checks) if checks is not None else list(config.checks)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise PreconditionViolation("UNKNOWN_CHECK", ", ".join(unknown))
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    created_at = datetime.now(timezone.utc).isoformat()

    report: dict = {"config": config.to_dict(), "checks": []}
    durations = {}
    for check in CHECKS.values():
        if check.key in selected:
            check_started = time.monotonic()
            report["checks"].append(_run_one(check, config, threads, out, report))
            durations[check.key] = time.monotonic() - check_started

    # expected_fail speaks the config vocabulary (check keys), not report names
    expected_fail = set(config.expected_fail)
    all_pass = True
    meets = True
    for entry in report["checks"]:
        passed = bool(entry["passed"])
        all_pass &= passed
        meets &= (not passed) if entry["check"] in expected_fail else passed
    report["expected_fail"] = sorted(expected_fail)
    report["all_pass"] = all_pass
    report["meets_expectations"] = meets

    exit_code = 0 if meets else 1
    if out is not None:
        from . import __version__

        write_report(out, report)
        metadata = {
            "created_at": created_at,
            "duration_seconds": time.monotonic() - started,
            "check_duration_seconds": durations,
            "threads": threads,
            "version": __version__,
            "checks_run": selected,
        }
        (out / "metadata.json").write_text(
            json.dumps(metadata, indent=2, sort_keys=True) + "\n"
        )
    return report, exit_code


def _run_one(check: Check, config: ExperimentConfig, threads: int, out, report: dict) -> dict:
    """Run one check; a package error becomes a failed entry, not a crash."""
    failed = {"name": check.name, "check": check.key, "passed": False,
              "statistic": None, "threshold": None, "artifacts": []}
    try:
        rep = check.run(config, resolve(check, config), threads, out, report)
    except PreconditionViolation as exc:
        return {**failed, "notes": f"precondition violated: {exc}", "precondition": exc.reason}
    except PerpetuaError as exc:
        return {**failed, "notes": f"{type(exc).__name__}: {exc}"}
    return {**rep.to_dict(), "name": check.name, "check": check.key}


def write_report(out_dir: Path, report: dict) -> Path:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    path = Path(out_dir) / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def simulate_paths(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Write per-path time,value CSV dumps plus the partial-integral table."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    partials = []
    for i in range(config.n_paths):
        path, partial = harness.finiteness_path(config, i)
        partials.append(partial)
        csv_path = out / f"path_{i:04d}.csv"
        lines = ["time,value"] + [
            f"{float(t)!r},{float(v)!r}" for t, v in zip(path.times, path.values)
        ]
        csv_path.write_text("\n".join(lines) + "\n")
        written.append(csv_path)

    table = out / "partial_integrals.csv"
    _write_finiteness_csv(table, np.asarray(partials), config.checkpoints)
    written.append(table)
    return written
