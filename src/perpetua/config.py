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
from .errors import ConfigError, NonFiniteParameter, PreconditionViolation
from .rng import sample_size_refusal
from .simulate import path_refusal
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
        return [math.ldexp(self.t0, k) for k in range(self.doublings + 1)]

    @property
    def horizon(self) -> float:
        return _last_checkpoint(self.t0, self.doublings)

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
        _number({"--seed": seed}, "--seed", int, problems, _uint64, "fit in uint64")
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
        except RecursionError:
            problems.append("f: nested too deeply")
        except (NonFiniteParameter, TypeError, ValueError) as exc:
            problems.append(f"f: {exc}")

        n_paths = _number(d, "n_paths", int, problems, lambda v: v >= 100, "be >= 100")
        _sample_size(n_paths, "n_paths", problems)
        dt = _number(d, "dt", float, problems, _positive, "be positive")

        horizon = d.get("horizon")
        t0 = doublings = None
        if not isinstance(horizon, dict):
            problems.append("horizon: missing or not an object with t0/doublings")
        else:
            t0 = _number(horizon, "t0", float, problems, _positive, "be positive", "horizon.")
            doublings = _number(horizon, "doublings", int, problems, lambda v: v >= 3,
                                "be >= 3", "horizon.")
        if None not in (t0, dt) and dt > t0 / 10.0:
            problems.append(f"dt: must be <= t0/10 = {t0 / 10.0:g}, got {dt}")
            dt = None
        if None not in (t0, dt, doublings):
            horizon = _last_checkpoint(t0, doublings)
            if math.isinf(horizon):
                problems.append("horizon: t0 * 2^doublings overflows a float")
            over = None if triplet is None else path_refusal(triplet, horizon, dt)
            if over is not None:  # the zero_one and occupation paths
                problems.append(f"horizon: {over[1]}")

        master_seed = _number(d, "master_seed", int, problems, _uint64, "fit in uint64")

        thresholds = dict(_DEFAULT_THRESHOLDS)
        raw_thr = d.get("thresholds", {})
        if not isinstance(raw_thr, dict):
            problems.append("thresholds: must be an object")
        else:
            for key in raw_thr:
                if key not in _DEFAULT_THRESHOLDS:
                    problems.append(f"thresholds.{key}: unknown threshold")
                    continue
                val = _number(raw_thr, key, float, problems, lambda v: 0.0 < v < 1.0,
                              "lie in (0, 1)", "thresholds.")
                if val is not None:
                    thresholds[key] = val

        known = f"(known: {', '.join(CHECKS)})"
        checks = _check_names(d, "checks", list(CHECKS), known, problems)
        expected_fail = _check_names(d, "expected_fail", [], known, problems)
        for name in expected_fail:
            if name in CHECKS and name not in checks:  # its expectation would never be read
                problems.append(f"expected_fail: check {name!r} does not run "
                                f"(checks: {', '.join(checks)})")

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
        # the checks' defaults and refusal hooks read the triplet, t0, doublings and dt
        for name in config.checks if None not in (triplet, t0, doublings, dt) else ():
            if name not in CHECKS or name in unsound:
                continue
            check = CHECKS[name]
            try:
                params = resolve(check, config)
                over = None if check.refusal is None else check.refusal(config, params)
            except PreconditionViolation:
                continue  # a default that needs a mean in (0, inf): the check refuses when run
            problems += _order_problems(check, params)
            if over is not None:
                problems.append(f"check_params.{name}: {over[1]}")
        if problems:
            raise ConfigError(problems)
        return config


def _last_checkpoint(t0: float, doublings: int) -> float:
    """t0 * 2^doublings, exactly; inf past the float range."""
    try:
        return math.ldexp(t0, doublings)
    except OverflowError:
        return math.inf


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
            for key in items:
                _number(items, key, float, problems, _positive, "be > 0", prefix)
            if not values:
                problems.append(f"{prefix}{name}: must be a non-empty list of numbers, "
                                f"got {raw[name]!r}")
        else:
            val = _number(raw, name, p.kind, problems, _positive, "be > 0", prefix)
            if p.kind is int:  # every integer parameter counts paths
                _sample_size(val, prefix + name, problems)
            if val is not None:
                written[name] = val
    problems += _order_problems(check, written)
    return len(problems) > before


def _order_problems(check: Check, values: dict) -> list[str]:
    """Each parameter with an `above` rule against its partner, where values holds both."""
    return [f"check_params.{check.key}.{p.name}: must be > {p.above} = {values[p.above]:g}, "
            f"got {values[p.name]:g}"
            for p in check.params
            if p.above in values and p.name in values and not values[p.name] > values[p.above]]


def _number(d: dict, key: str, kind: type, problems: list[str], ok, rule: str,
            prefix: str = "") -> int | float | None:
    """d[key] as an int, or a finite float (see validation.finite_real), for which ok holds.

    Any failure adds one problem (missing, the wrong type, or "must {rule}") and gives None.
    """
    if key not in d:
        problems.append(f"{prefix}{key}: missing")
        return None
    val = d[key]
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            problems.append(f"{prefix}{key}: must be an integer, got {val!r}")
            return None
    else:
        val = finite_real(val)
        if val is None:
            problems.append(f"{prefix}{key}: must be a finite number, got {d[key]!r}")
            return None
    if not ok(val):
        problems.append(f"{prefix}{key}: must {rule}, got {val!r}")
        return None
    return val


def _sample_size(n: int | None, key: str, problems: list[str]) -> None:
    """A problem at key when the path count n (None: already refused) passes SAMPLE_SIZE."""
    over = None if n is None else sample_size_refusal(n)
    if over is not None:
        problems.append(f"{key}: {over[1]}")


def _positive(val) -> bool:
    return val > 0


def _uint64(val) -> bool:
    return 0 <= val < 2**64


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(payload, dict):
        raise ConfigError(["json: top level must be an object"])
    return ExperimentConfig.from_dict(payload)
