"""The check table: one row per Monte Carlo check.

A row gives the config key, the report name, the parameter schema and the
adapter that calls the harness.  Config validation reads the schema and the
runner reads the adapters, so adding a check means adding one row.

Adapters call the harness through its module (``harness.lln_envelope_check``)
so that anything rebinding a harness function also sees these calls.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import harness
from .rng import derive_seed

__all__ = ["Param", "Check", "CHECKS", "resolve"]


@dataclass(frozen=True)
class Param:
    """One entry of check_params.<check>.

    kind is int, float, bool or list (a non-empty list of numbers).  Numbers
    must lie in (low, high).  default is an immutable value, or a callable
    (config, params resolved so far) -> value.
    """

    name: str
    kind: type
    default: object = None
    low: float = 0.0
    high: float = math.inf


@dataclass(frozen=True)
class Check:
    key: str  # the config vocabulary: checks, check_params, expected_fail
    name: str  # the report's name
    params: tuple[Param, ...]
    run: Callable  # (config, params, threads, out, report) -> harness.CheckReport
    steps: Callable | None = None  # (params) -> steps per path, held to the step budget


def resolve(check: Check, config) -> dict:
    """check_params.<check> as written, converted and filled with defaults."""
    raw = config.check_params.get(check.key, {})
    out: dict = {}
    for p in check.params:
        if p.name in raw:
            val = raw[p.name]
            out[p.name] = [float(x) for x in val] if p.kind is list else p.kind(val)
        elif callable(p.default):
            out[p.name] = p.default(config, out)
        else:
            out[p.name] = p.default
    return out


def _write_finiteness_csv(path: Path, partials: np.ndarray, checkpoints) -> None:
    lines = ["path_id,checkpoint,partial_integral"]
    for i in range(partials.shape[0]):
        for j, t in enumerate(checkpoints):
            lines.append(f"{i},{float(t)!r},{float(partials[i, j])!r}")
    path.write_text("\n".join(lines) + "\n")


def _auto_level(config, p) -> float:
    mu = config.triplet.mean()
    if not mu.is_finite_positive:
        return 1.0  # the check itself refuses with MEAN_RANGE
    sigma_eff = math.sqrt(config.triplet.effective_volatility_sq())
    return max(20.0 * sigma_eff / mu.as_float(), 1.0)


def _auto_lln_t0(config, p) -> float:
    mu = config.triplet.mean()
    if mu.is_finite_positive:
        sigma_auto = 50.0 * config.triplet.effective_volatility_sq() / mu.as_float() ** 2
    else:
        sigma_auto = 0.0
    return max(sigma_auto, 10.0 * config.t0)


def _config_dt(config, p) -> float:
    return config.dt


def _run_zero_one(config, p, threads, out, report):
    estimate = harness.finiteness_probability(config, threads=threads)
    report["finiteness"] = {
        "p_hat": estimate.p_hat,
        "checkpoints": [float(t) for t in estimate.checkpoints],
        "growth_curve": [float(v) for v in estimate.growth_curve],
        "verdict_counts": {v: estimate.per_path_verdicts.count(v)
                           for v in (harness.FINITE_LIKE, harness.INFINITE_LIKE,
                                     harness.INCONCLUSIVE)},
        "inconclusive_fraction": estimate.inconclusive_fraction,
        "flagged": estimate.flagged,
    }
    if out is not None:
        _write_finiteness_csv(out / "finiteness.csv", estimate.partials, estimate.checkpoints)
    rep = harness.zero_one_check(estimate, config.thresholds["delta_01"])
    return rep if out is None else dataclasses.replace(rep, artifacts=("finiteness.csv",))


def _run_occupation(config, p, threads, out, report):
    return harness.occupation_identity_check(config, threads=threads, **p)


def _run_overshoot(config, p, threads, out, report):
    return harness.overshoot_stationarity_check(
        config.triplet, p["z1"], p["z2"], p["n"],
        seed=derive_seed(config.master_seed, "overshoot-check"),
        ks_alpha=config.thresholds["ks_alpha"], dt=p["dt"], artifact_dir=out,
    )


def _run_invariance(config, p, threads, out, report):
    return harness.local_time_law_invariance_check(
        config.triplet, seed=derive_seed(config.master_seed, "invariance-check"),
        threads=threads, **p,
    )


def _run_lln(config, p, threads, out, report):
    return harness.lln_envelope_check(
        config.triplet, seed=derive_seed(config.master_seed, "lln-check"),
        threads=threads, **p,
    )


# Rows run in this order, whatever order the config lists them in.
CHECKS = {c.key: c for c in (
    Check("zero_one", "zero_one", (), _run_zero_one),
    Check("occupation", "occupation_identity", (
        Param("n_paths", int, 50),
        Param("bandwidth", float, 0.05),
    ), _run_occupation),
    Check("overshoot", "overshoot_stationarity", (
        Param("z1", float, _auto_level),
        Param("z2", float, lambda config, p: 2.0 * p["z1"]),
        Param("n", int, 400),
        Param("dt", float, _config_dt),
    ), _run_overshoot),
    Check("invariance", "local_time_invariance", (
        Param("x_list", list, (1.0, 2.0, 5.0)),
        Param("n", int, 200),
        Param("bandwidth", float, 0.05),
        Param("dt", float, _config_dt),
        Param("threshold", float, None),  # None: max(0.05, KS critical value at n)
        Param("ks_alpha", float, 0.01, high=1.0),
        Param("n_rho", int, 1000),
        Param("start_from_rho", bool, True),
    ), _run_invariance),
    Check("lln", "lln_envelope", (
        Param("t0", float, _auto_lln_t0),
        Param("n", int, 200),
        Param("dt", float, _config_dt),
        Param("horizon", float, lambda config, p: 4.0 * p["t0"]),
    ), _run_lln, steps=lambda p: p["horizon"] / p["dt"]),
)}
