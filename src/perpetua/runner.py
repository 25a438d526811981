"""Experiment runner: configuration in, deterministic report bundle out.

report.json is byte-identical for a fixed config and master seed at any
number of threads (every ensemble runs through rng.ensemble); anything
time- or host-dependent lives in metadata.json.  Exit semantics: 0 when
every check meets its expectation (checks under expected_fail must fail),
1 otherwise, 2 for configuration errors (ConfigError, before any work).
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, harness
from .checks import CHECKS, Check, resolve
from .config import ExperimentConfig
from .errors import ConfigError, PerpetuaError, PreconditionViolation
from .rng import ensemble
from .simulate import path_pieces

__all__ = ["run_experiment", "write_report", "simulate_paths"]


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    threads: int = 1,
) -> tuple[dict, int]:
    """Run the checks the config lists and return (report, exit_code)."""
    if threads < 1:
        raise ConfigError([f"threads: must be >= 1, got {threads}"])
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    created_at = datetime.now(timezone.utc).isoformat()

    report: dict = {"config": config.to_dict(), "checks": []}
    durations = {}
    for check in CHECKS.values():
        if check.key in config.checks:
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
        write_report(out, report)
        metadata = {
            "created_at": created_at,
            "duration_seconds": time.monotonic() - started,
            "check_duration_seconds": durations,
            "threads": threads,
            "version": __version__,
            "checks_run": list(config.checks),
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
    """Write zero_one's ensemble: a time,value CSV per path, then the partial-integral table.

    The paths are drawn through rng.ensemble at one thread, in its blocks
    and with its seeds, so each path and its partials are the finiteness
    check's.  A block's files are written once finiteness_block returns, so
    a block that ensemble runs again path by path still writes them in path
    order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def work(seeds):
        block, partials = harness.finiteness_block(config, seeds)
        for r in range(block.rows):
            path, csv_path = block.path(r), out / f"path_{len(written):04d}.csv"
            harness.write_csv(csv_path, "time,value", path.times, path.values)
            written.append(csv_path)
        return partials

    partials = ensemble(work, config.master_seed, "finiteness", config.n_paths,
                        path_pieces(config.triplet, config.horizon, config.dt), 1)
    table = out / "partial_integrals.csv"
    harness.write_partials_csv(table, partials, config.checkpoints)
    written.append(table)
    return written
