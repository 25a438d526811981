"""Experiment configuration: a validated view of one JSON file.

Validation collects every problem it can find before raising, so a bad file
reports all its mistakes at once instead of one per run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .checks import CHECKS, Check, resolve
from .errors import ConfigError, NonFiniteParameter
from .testfunctions import TestFunction, test_function_from_dict, test_function_to_dict
from .triplet import LevyTriplet

__all__ = ["ExperimentConfig", "load_config"]

_DEFAULT_THRESHOLDS = {"delta_01": 0.05, "ks_alpha": 0.01}

# STEP_BUDGET: no path of any check may take more steps than this.  Paths
# are held in memory whole, so a tiny dt is refused here rather than by a
# MemoryError halfway through a run.  A precondition, not a setting.
MAX_STEPS_PER_PATH = 2**24


@dataclass(frozen=True)
class ExperimentConfig:
    triplet: LevyTriplet
    f: TestFunction
    n_paths: int
    dt: float
    t0: float
    doublings: int  # checkpoints are t0 * 2^k for k = 0..doublings
    master_seed: int
    thresholds: dict = field(default_factory=lambda: dict(_DEFAULT_THRESHOLDS))
    checks: tuple[str, ...] = tuple(CHECKS)
    check_params: dict = field(default_factory=dict)
    expected_fail: tuple[str, ...] = ()

    @property
    def checkpoints(self) -> list[float]:
        return [self.t0 * 2.0**k for k in range(self.doublings + 1)]

    @property
    def horizon(self) -> float:
        return self.t0 * 2.0**self.doublings

    def to_dict(self) -> dict:
        return {
            "triplet": self.triplet.to_dict(),
            "f": test_function_to_dict(self.f),
            "n_paths": self.n_paths,
            "dt": self.dt,
            "horizon": {"t0": self.t0, "doublings": self.doublings},
            "master_seed": self.master_seed,
            "thresholds": dict(self.thresholds),
            "checks": list(self.checks),
            "check_params": dict(self.check_params),
            "expected_fail": list(self.expected_fail),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        problems: list[str] = []

        triplet = None
        try:
            triplet = LevyTriplet.from_dict(d["triplet"])
        except KeyError:
            problems.append("triplet: missing")
        except (NonFiniteParameter, TypeError, ValueError) as exc:
            problems.append(f"triplet: {exc}")

        f = None
        try:
            f = test_function_from_dict(d["f"])
        except KeyError as exc:
            problems.append("f: missing" if exc.args == ("f",) else f"f: {exc}")
        except (NonFiniteParameter, TypeError, ValueError) as exc:
            problems.append(f"f: {exc}")

        n_paths = _as_int(d, "n_paths", problems)
        if n_paths is not None and n_paths < 100:
            problems.append(f"n_paths: must be >= 100, got {n_paths}")

        dt = _as_float(d, "dt", problems)
        if dt is not None and not 0.0 < dt:
            problems.append(f"dt: must be positive, got {dt}")

        horizon = d.get("horizon")
        t0 = doublings = None
        if not isinstance(horizon, dict):
            problems.append("horizon: missing or not an object with t0/doublings")
        else:
            t0 = _as_float(horizon, "t0", problems, prefix="horizon.")
            doublings = _as_int(horizon, "doublings", problems, prefix="horizon.")
            if t0 is not None and t0 <= 0.0:
                problems.append(f"horizon.t0: must be positive, got {t0}")
            if doublings is not None and doublings < 3:
                problems.append(f"horizon.doublings: must be >= 3, got {doublings}")
        if t0 is not None and dt is not None and dt > t0 / 10.0:
            problems.append(f"dt: must be <= t0/10 = {t0 / 10.0:g}, got {dt}")
        elif None not in (t0, dt, doublings) and dt > 0.0:
            # 2^64 steps are over budget already; the cap keeps 2.0**k finite
            _step_budget("horizon", t0 / dt * 2.0 ** min(doublings, 64), problems)

        master_seed = _as_int(d, "master_seed", problems)
        if master_seed is not None and not 0 <= master_seed < 2**64:
            problems.append(f"master_seed: must fit in uint64, got {master_seed}")

        thresholds = dict(_DEFAULT_THRESHOLDS)
        raw_thr = d.get("thresholds", {})
        if not isinstance(raw_thr, dict):
            problems.append("thresholds: must be an object")
        else:
            for key, val in raw_thr.items():
                if key not in _DEFAULT_THRESHOLDS:
                    problems.append(f"thresholds.{key}: unknown threshold")
                    continue
                try:
                    val = float(val)
                except (TypeError, ValueError):
                    problems.append(f"thresholds.{key}: not a number")
                    continue
                if not 0.0 < val < 1.0:
                    problems.append(f"thresholds.{key}: must lie in (0, 1), got {val}")
                else:
                    thresholds[key] = val

        known = f"(known: {', '.join(CHECKS)})"
        checks = _check_names(d, "checks", list(CHECKS), known, problems)
        expected_fail = _check_names(d, "expected_fail", [], known, problems)

        check_params = d.get("check_params", {})
        if not isinstance(check_params, dict):
            problems.append("check_params: must be an object")
            check_params = {}
        for name, raw in check_params.items():
            if name not in CHECKS:
                problems.append(f"check_params.{name}: unknown check {known}")
            elif not isinstance(raw, dict):
                problems.append(f"check_params.{name}: must be an object, got {raw!r}")
            else:
                _check_params(CHECKS[name], raw, problems)

        unknown = set(d) - {
            "triplet", "f", "n_paths", "dt", "horizon", "master_seed",
            "thresholds", "checks", "check_params", "expected_fail",
        }
        for key in sorted(unknown):
            problems.append(f"{key}: unknown field")

        if problems:
            raise ConfigError(problems)
        config = cls(
            triplet=triplet,
            f=f,
            n_paths=n_paths,
            dt=dt,
            t0=t0,
            doublings=doublings,
            master_seed=master_seed,
            thresholds=thresholds,
            checks=tuple(checks),
            check_params=check_params,
            expected_fail=tuple(expected_fail),
        )
        for name in config.checks:
            check = CHECKS[name]
            if check.steps is not None:
                _step_budget(f"check_params.{name}", check.steps(resolve(check, config)), problems)
        if problems:
            raise ConfigError(problems)
        return config


def _step_budget(key: str, steps: float, problems: list[str]) -> None:
    if not steps <= MAX_STEPS_PER_PATH:
        problems.append(f"{key}: {steps:.3g} steps per path exceed STEP_BUDGET "
                        f"{MAX_STEPS_PER_PATH} (horizon/dt)")


def _check_names(d: dict, key: str, default: list, known: str, problems: list[str]) -> list:
    names = d.get(key, default)
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        problems.append(f"{key}: must be a list of check names")
        return default
    for name in names:
        if name not in CHECKS:
            problems.append(f"{key}: unknown check {name!r} {known}")
    return names


def _check_params(check: Check, raw: dict, problems: list[str]) -> None:
    """Validate check_params.<check> against the check's row of the table."""
    prefix = f"check_params.{check.key}."
    schema = {p.name: p for p in check.params}
    for name in raw:
        p = schema.get(name)
        if p is None:
            problems.append(f"{prefix}{name}: unknown parameter "
                            f"(known: {', '.join(schema) or 'none'})")
            continue
        if p.kind is bool:
            if not isinstance(raw[name], bool):
                problems.append(f"{prefix}{name}: must be true or false, got {raw[name]!r}")
            continue
        if p.kind is list:
            values = raw[name] if isinstance(raw[name], list) else []
            items = {f"{name}[{i}]": v for i, v in enumerate(values)}
            parsed = [_as_float(items, key, problems, prefix) for key in items]
            if not values:
                problems.append(f"{prefix}{name}: must be a non-empty list of numbers, "
                                f"got {raw[name]!r}")
        else:
            parsed = [(_as_int if p.kind is int else _as_float)(raw, name, problems, prefix)]
        for val in parsed:
            if val is not None and not p.low < val < p.high:
                bound = f"> {p.low:g}" if p.high == math.inf else f"in ({p.low:g}, {p.high:g})"
                problems.append(f"{prefix}{name}: must be {bound}, got {val!r}")


def _as_int(d: dict, key: str, problems: list[str], prefix: str = "") -> int | None:
    if key not in d:
        problems.append(f"{prefix}{key}: missing")
        return None
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, int):
        problems.append(f"{prefix}{key}: must be an integer, got {val!r}")
        return None
    return val


def _as_float(d: dict, key: str, problems: list[str], prefix: str = "") -> float | None:
    if key not in d:
        problems.append(f"{prefix}{key}: missing")
        return None
    val = d[key]
    try:
        out = float(val)
    except (TypeError, ValueError):
        out = math.nan
    if isinstance(val, bool) or not math.isfinite(out):
        problems.append(f"{prefix}{key}: must be a finite number, got {val!r}")
        return None
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(payload, dict):
        raise ConfigError(["json: top level must be an object"])
    return ExperimentConfig.from_dict(payload)
