"""Machine-readable validation issues, and the one place values are checked: when built."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteParameter

# concrete types, not numbers.Real: an ABC isinstance costs about 1 us, and a
# value is checked each time one is built, in inner loops too (TwoSidedExponentialJump._sides)
_REALS = (float, int, np.floating, np.integer)


@dataclass(frozen=True)
class Issue:
    code: str
    field: str
    message: str


def finite_real(value) -> float | None:
    """value as a float when it is a finite real number (not bool, not str), else None.

    The one test of what counts as a number, for config files and every
    family's parameters alike: a string or a boolean is refused, never coerced.
    """
    if not isinstance(value, _REALS) or isinstance(value, bool):
        return None
    try:
        out = float(value)
    except OverflowError:  # an integer past the float range
        return None
    return out if math.isfinite(out) else None


def require_finite(value, field: str, code: str) -> list[Issue]:
    if finite_real(value) is None:
        return [Issue(code, field, f"{field} must be a finite number, got {value!r}")]
    return []


def require_positive(value, field: str, code: str) -> list[Issue]:
    """require_finite, then value > 0, both reported under code."""
    issues = require_finite(value, field, code)
    if not issues and value <= 0:
        issues.append(Issue(code, field, f"{field} must be > 0"))
    return issues


class Validated:
    """Frozen values that check themselves when built: NonFiniteParameter lists every issue."""

    def __post_init__(self):
        issues = self.validate()
        if issues:
            raise NonFiniteParameter(issues)


def json_object(value, field: str) -> dict:
    """value when it is a JSON object; otherwise NonFiniteParameter naming field."""
    if not isinstance(value, dict):
        raise NonFiniteParameter([Issue("FIELD_TYPE", field,
                                        f"{field} must be an object, got {value!r}")])
    return value


def json_field(d: dict, name: str):
    """d[name]; a missing field raises NonFiniteParameter naming it."""
    if name not in d:
        raise NonFiniteParameter([Issue("FIELD_MISSING", name, f"missing field {name!r}")])
    return d[name]
