"""Experiment configuration: a validated view of one JSON file.

Validation collects every problem it can find before raising, so a bad file
reports all its mistakes at once instead of one per run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .checks import CHECKS, Check, resolve
from .errors import ConfigError, NonFiniteParameter
from .simulate import path_budget
from .testfunctions import TestFunction, test_function_from_dict
from .triplet import LevyTriplet
from .validation import finite_real

__all__ = ["ExperimentConfig", "load_config"]

_DEFAULT_THRESHOLDS = {"delta_01": 0.05, "ks_alpha": 0.01}

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
            "f": self.f.to_dict(),
            "n_paths": self.n_paths,
            "dt": self.dt,
            "horizon": {"t0": self.t0, "doublings": self.doublings},
            "master_seed": self.master_seed,
            "thresholds": dict(self.thresholds),
            "checks": list(self.checks),
            "check_params": dict(self.check_params),
            "expected_fail": list(self.expected_fail),
        }

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """This config with another master seed, checked like master_seed."""
        problems: list[str] = []
        _check_seed("--seed", seed, problems)
        if problems:
            raise ConfigError(problems)
        return dataclasses.replace(self, master_seed=seed)

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
        except KeyError:
            problems.append("f: missing")
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
        # the checks' defaults and path budgets read the triplet, t0 and dt
        timed = triplet is not None and None not in (t0, dt) and 0.0 < dt <= t0 / 10.0
        if t0 is not None and dt is not None and dt > t0 / 10.0:
            problems.append(f"dt: must be <= t0/10 = {t0 / 10.0:g}, got {dt}")
        elif None not in (t0, dt, doublings) and dt > 0.0:
            # 2.0**1023 is the largest power of two below the float range
            horizon = t0 * 2.0 ** min(doublings, 1023)
            if math.isinf(horizon):
                problems.append("horizon: t0 * 2^doublings overflows a float")
            if triplet is not None:  # the budget depends on the kind of path
                _path_budget("horizon", triplet, horizon, dt, problems)

        master_seed = _as_int(d, "master_seed", problems)
        if master_seed is not None:
            _check_seed("master_seed", master_seed, problems)

        thresholds = dict(_DEFAULT_THRESHOLDS)
        raw_thr = d.get("thresholds", {})
        if not isinstance(raw_thr, dict):
            problems.append("thresholds: must be an object")
        else:
            for key in raw_thr:
                if key not in _DEFAULT_THRESHOLDS:
                    problems.append(f"thresholds.{key}: unknown threshold")
                    continue
                val = _as_float(raw_thr, key, problems, prefix="thresholds.")
                if val is None:
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
        unsound = set()  # checks whose written parameters have problems
        for name, raw in check_params.items():
            if name not in CHECKS:
                problems.append(f"check_params.{name}: unknown check {known}")
            elif not isinstance(raw, dict):
                problems.append(f"check_params.{name}: must be an object, got {raw!r}")
                unsound.add(name)
            elif _check_params(CHECKS[name], raw, problems):
                unsound.add(name)

        unknown = set(d) - {
            "triplet", "f", "n_paths", "dt", "horizon", "master_seed",
            "thresholds", "checks", "check_params", "expected_fail",
        }
        for key in sorted(unknown):
            problems.append(f"{key}: unknown field")

        # a field that failed is None here; then the config is never returned
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
        for name in (config.checks if timed else ()):
            if name not in CHECKS or name in unsound:
                continue
            check = CHECKS[name]
            params = resolve(check, config)
            problems += _order_problems(check, params)
            if check.path is not None:
                _path_budget(f"check_params.{name}", triplet, check.path(config, params),
                             config.dt, problems)
        if problems:
            raise ConfigError(problems)
        return config


def _check_seed(key: str, seed: int, problems: list[str]) -> None:
    if not 0 <= seed < 2**64:
        problems.append(f"{key}: must fit in uint64, got {seed}")


def _path_budget(key: str, triplet, horizon: float, dt: float, problems: list[str]) -> None:
    """A path of this horizon within the budget of simulate.path_budget."""
    over = path_budget(triplet, horizon, dt)
    if over is not None:
        problems.append(f"{key}: {over[1]}")


def _check_names(d: dict, key: str, default: list, known: str, problems: list[str]) -> list:
    names = d.get(key, default)
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        problems.append(f"{key}: must be a list of check names")
        return default
    for name in names:
        if name not in CHECKS:
            problems.append(f"{key}: unknown check {name!r} {known}")
    return names


def _check_params(check: Check, raw: dict, problems: list[str]) -> bool:
    """Validate check_params.<check> against the check's row of the table; True when it fails."""
    before = len(problems)
    prefix = f"check_params.{check.key}."
    schema = {p.name: p for p in check.params}
    written: dict = {}
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
            if val is not None and not val > 0.0:
                problems.append(f"{prefix}{name}: must be > 0, got {val!r}")
            elif val is not None and p.kind is not list:
                written[name] = val
    problems += _order_problems(check, written)
    return len(problems) > before


def _order_problems(check: Check, values: dict) -> list[str]:
    """Each parameter with an `above` rule against its partner, where values holds both."""
    return [f"check_params.{check.key}.{p.name}: must be > {p.above} = {values[p.above]:g}, "
            f"got {values[p.name]:g}"
            for p in check.params
            if p.above in values and p.name in values and not values[p.name] > values[p.above]]


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
    """d[key] as a float when it is a finite number (see validation.finite_real)."""
    if key not in d:
        problems.append(f"{prefix}{key}: missing")
        return None
    out = finite_real(d[key])
    if out is None:
        problems.append(f"{prefix}{key}: must be a finite number, got {d[key]!r}")
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
