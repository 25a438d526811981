"""The check table: one row per Monte Carlo check.

A row gives the config key, the report name, the parameter schema, the
refusal hook that config validation reads and the adapter that calls the
harness for the runner, so adding a check means adding one row.

Adapters call the harness through its module (``harness.lln_envelope_check``)
so that anything rebinding a harness function also sees these calls.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from . import harness
from .passage import passage_cap_refusal
from .rng import derive_seed
from .simulate import path_refusal

__all__ = ["Param", "Check", "CHECKS", "resolve"]


@dataclass(frozen=True)
class Param:
    """One entry of check_params.<check>.

    kind is int, float, bool or list (a non-empty list of numbers).  Numbers
    must be positive, and above the parameter named by above.  default is an
    immutable value, or a callable (config, params resolved so far) -> value.
    """

    name: str
    kind: type
    default: object = None
    above: str | None = None


@dataclass(frozen=True)
class Check:
    key: str  # the config vocabulary: checks, check_params, expected_fail
    name: str  # the report's name
    params: tuple[Param, ...]
    run: Callable  # (config, params, threads, out, report) -> harness.CheckReport
    refusal: Callable | None = None  # (config, params) -> the (reason, problem) run would raise, or None


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


# These four need a mean in (0, inf), the invariance hook once past its level rule;
# without one they raise the check's own MEAN_RANGE.
def _auto_level(config, p) -> float:
    return max(harness.overshoot_recommended_z1(config.triplet), 1.0)


def _auto_lln_t0(config, p) -> float:
    return max(harness.lln_t0_floor(config.triplet), 10.0 * config.t0)


def _overshoot_refusal(config, p):
    return passage_cap_refusal(config.triplet, p["z2"])


def _invariance_refusal(config, p):
    return harness.invariance_level_refusal(p["x_list"]) or path_refusal(
        config.triplet, harness.invariance_horizon(config.triplet, p["x_list"], config.dt)[1], config.dt
    ) or harness.bandwidth_refusal(config.triplet, config.dt, p["bandwidth"])


def _occupation_refusal(config, p):
    return (harness.level_budget(config.triplet, config.horizon, p["bandwidth"])
            or harness.bandwidth_refusal(config.triplet, config.dt, p["bandwidth"]))


def _lln_refusal(config, p):
    return (harness.lln_t0_refusal(config.triplet, p["t0"])
            or path_refusal(config.triplet, p["horizon"], config.dt))


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
        harness.write_partials_csv(out / "finiteness.csv", estimate.partials, estimate.checkpoints)
    rep = harness.zero_one_check(estimate, config.thresholds["delta_01"])
    return rep if out is None else dataclasses.replace(rep, artifacts=("finiteness.csv",))


def _run_occupation(config, p, threads, out, report):
    return harness.occupation_identity_check(config, threads=threads, **p)


def _run_overshoot(config, p, threads, out, report):
    return harness.overshoot_stationarity_check(
        config.triplet, p["z1"], p["z2"], p["n"],
        seed=derive_seed(config.master_seed, "overshoot-check"),
        ks_alpha=config.thresholds["ks_alpha"], dt=config.dt, artifact_dir=out, threads=threads,
    )


def _run_invariance(config, p, threads, out, report):
    return harness.local_time_law_invariance_check(
        config.triplet, seed=derive_seed(config.master_seed, "invariance-check"),
        dt=config.dt, ks_alpha=config.thresholds["ks_alpha"], threads=threads, **p,
    )


def _run_lln(config, p, threads, out, report):
    return harness.lln_envelope_check(
        config.triplet, seed=derive_seed(config.master_seed, "lln-check"),
        dt=config.dt, threads=threads, **p,
    )


# Rows run in this order, whatever order the config lists them in.
CHECKS = {c.key: c for c in (
    Check("zero_one", "zero_one", (), _run_zero_one),
    Check("occupation", "occupation_identity", (
        Param("n_paths", int, 50),
        Param("bandwidth", float, 0.05),
    ), _run_occupation, _occupation_refusal),
    Check("overshoot", "overshoot_stationarity", (
        Param("z1", float, _auto_level),
        Param("z2", float, lambda config, p: 2.0 * p["z1"], above="z1"),
        Param("n", int, 400),
    ), _run_overshoot, _overshoot_refusal),
    Check("invariance", "local_time_invariance", (
        Param("x_list", list, (1.0, 2.0, 5.0)),
        Param("n", int, 200),
        Param("bandwidth", float, 0.05),
        Param("n_rho", int, 1000),
        Param("start_from_rho", bool, True),
    ), _run_invariance, _invariance_refusal),
    Check("lln", "lln_envelope", (
        Param("t0", float, _auto_lln_t0),
        Param("n", int, 200),
        Param("horizon", float, lambda config, p: 4.0 * p["t0"], above="t0"),
    ), _run_lln, _lln_refusal),
)}
