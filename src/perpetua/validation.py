"""Machine-readable validation issues shared by triplets and test functions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# concrete types, not numbers.Real: an ABC isinstance costs about 1 us, and
# char_exponent validates its triplet on every call
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
