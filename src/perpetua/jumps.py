"""Jump size laws for the compound Poisson family.

Each law exposes the closed forms the rest of the package needs: the
characteristic function less one, E e^{i lam J} - 1 (char_minus_one,
written so that it does not cancel at small lam), the mean, the second
moment (whole and below a threshold, for the small-jump variance), an
exact sampler and charges(sign): whether it puts mass on the side sign
(+1 or -1) of 0.  No law here has a heavy tail; means and second moments are
always finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import (Issue, Validated, build, family_class, json_object, require_finite,
                         require_positive)

__all__ = [
    "JumpLaw",
    "ConstantJump",
    "ExponentialJump",
    "TwoSidedExponentialJump",
    "UniformJump",
    "jump_law_from_dict",
]


class JumpLaw(Validated):
    """A law of jump sizes, written flat: {"kind": ..., <fields>}."""

    flat = True


@dataclass(frozen=True)
class ConstantJump(JumpLaw):
    """Every jump has the fixed size c (c may be negative)."""

    size: float

    kind = "constant"

    def validate(self):
        return require_finite(self.size, "size", "JUMP_SIZE_FINITE")

    def mean(self) -> float:
        return self.size

    def second_moment(self) -> float:
        return self.size ** 2

    def char_minus_one(self, lam):
        return _expi_minus_one(np.asarray(lam, dtype=float) * self.size)

    def second_moment_abs_below(self, a: float) -> float:
        return self.size ** 2 if abs(self.size) <= a else 0.0

    def charges(self, sign: int) -> bool:
        return sign * self.size > 0

    def sample(self, rng, n: int):
        return np.full(n, self.size)


def _expi_minus_one(x):
    """e^{ix} - 1 = -2 sin^2(x/2) + i sin x."""
    return -2.0 * np.sin(0.5 * x) ** 2 + 1j * np.sin(x)


# sin(x)/x - 1 = sum over k >= 1 of (-1)^k x^(2k) / (2k + 1)!, highest power first
_SINC_SERIES = [(-1) ** k / math.factorial(2 * k + 1) for k in range(6, 0, -1)] + [0.0]


def _sinc_minus_one(x):
    """sin(x)/x - 1, by its Taylor series through x^12 where |x| < 0.5."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.5
    safe = np.where(small, 1.0, x)
    return np.where(small, np.polyval(_SINC_SERIES, x * x), np.sin(safe) / safe - 1.0)


def _exp_char_minus_one(theta, sign, lam):
    """E e^{i lam J} - 1 for J = sign * Exp(theta): i sign lam / (theta - i sign lam)."""
    z = 1j * sign * np.asarray(lam, dtype=float)
    return z / (theta - z)


def _exp_second_moment_below(theta, a: float) -> float:
    """E[J^2; |J| <= a] for |J| ~ Exp(theta)."""
    if a <= 0:
        return 0.0
    t = theta * a
    return (2.0 - np.exp(-t) * (t * t + 2 * t + 2.0)) / theta ** 2


@dataclass(frozen=True)
class ExponentialJump(JumpLaw):
    """One-sided exponential jumps: |J| ~ Exp(theta), sign fixed by `sign`."""

    theta: float
    sign: int = 1

    kind = "exponential"

    def validate(self):
        issues = require_positive(self.theta, "theta", "THETA_POSITIVE")
        if require_finite(self.sign, "sign", "SIGN_VALUE") or self.sign not in (-1, 1):
            issues.append(Issue("SIGN_VALUE", "sign", "sign must be +1 or -1"))
        return issues

    def mean(self) -> float:
        return self.sign / self.theta

    def second_moment(self) -> float:
        return 2.0 / self.theta ** 2

    def char_minus_one(self, lam):
        return _exp_char_minus_one(self.theta, self.sign, lam)

    def second_moment_abs_below(self, a: float) -> float:
        return _exp_second_moment_below(self.theta, a)

    def charges(self, sign: int) -> bool:
        return sign * self.sign > 0

    def sample(self, rng, n: int):
        return self.sign * rng.exponential(1.0 / self.theta, n)


@dataclass(frozen=True)
class TwoSidedExponentialJump(JumpLaw):
    """Mixture: +Exp(theta_plus) w.p. p_plus, -Exp(theta_minus) otherwise."""

    theta_plus: float
    theta_minus: float
    p_plus: float

    kind = "two_sided_exponential"

    def validate(self):
        issues = require_positive(self.theta_plus, "theta_plus", "THETA_POSITIVE")
        issues += require_positive(self.theta_minus, "theta_minus", "THETA_POSITIVE")
        if require_finite(self.p_plus, "p_plus", "PROB_RANGE") or not 0.0 <= self.p_plus <= 1.0:
            issues.append(Issue("PROB_RANGE", "p_plus", "p_plus must lie in [0, 1]"))
        return issues

    def mean(self) -> float:
        return self.p_plus / self.theta_plus - (1 - self.p_plus) / self.theta_minus

    def second_moment(self) -> float:
        return 2 * self.p_plus / self.theta_plus ** 2 + 2 * (1 - self.p_plus) / self.theta_minus ** 2

    def char_minus_one(self, lam):
        return (self.p_plus * _exp_char_minus_one(self.theta_plus, 1, lam)
                + (1 - self.p_plus) * _exp_char_minus_one(self.theta_minus, -1, lam))

    def second_moment_abs_below(self, a: float) -> float:
        return (self.p_plus * _exp_second_moment_below(self.theta_plus, a)
                + (1 - self.p_plus) * _exp_second_moment_below(self.theta_minus, a))

    def charges(self, sign: int) -> bool:
        return self.p_plus > 0 if sign > 0 else self.p_plus < 1

    def sample(self, rng, n: int):
        signs = np.where(rng.random(n) < self.p_plus, 1.0, -1.0)
        mags = np.where(signs > 0,
                        rng.exponential(1.0 / self.theta_plus, n),
                        rng.exponential(1.0 / self.theta_minus, n))
        return signs * mags


@dataclass(frozen=True)
class UniformJump(JumpLaw):
    """Jump sizes uniform on [a, b]."""

    a: float
    b: float

    kind = "uniform"

    def validate(self):
        issues = require_finite(self.a, "a", "UNIFORM_BOUNDS")
        issues += require_finite(self.b, "b", "UNIFORM_BOUNDS")
        if not issues and not self.a < self.b:
            issues.append(Issue("UNIFORM_BOUNDS", "a", "need a < b"))
        return issues

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def second_moment(self) -> float:
        return (self.a ** 2 + self.a * self.b + self.b ** 2) / 3.0

    def char_minus_one(self, lam):
        # E e^{i lam J} = e^{i lam m} sinc(lam h), m the midpoint and h the half-width
        lam = np.asarray(lam, dtype=float)
        shift = _expi_minus_one(lam * 0.5 * (self.a + self.b))
        spread = _sinc_minus_one(lam * 0.5 * (self.b - self.a))
        return shift + spread + shift * spread

    def second_moment_abs_below(self, c: float) -> float:
        # int x^2 dx / (b - a) over [-c, c] restricted to [a, b]
        lo, hi = max(-c, self.a), min(c, self.b)
        return (hi ** 3 - lo ** 3) / (3 * (self.b - self.a)) if hi > lo else 0.0

    def charges(self, sign: int) -> bool:
        return self.b > 0 if sign > 0 else self.a < 0

    def sample(self, rng, n: int):
        return rng.uniform(self.a, self.b, n)


_LAWS = {cls.kind: cls for cls in
         (ConstantJump, ExponentialJump, TwoSidedExponentialJump, UniformJump)}


def jump_law_from_dict(d: dict) -> JumpLaw:
    """The law {"kind": ..., <fields>} describes; every problem raised together."""
    params = dict(json_object(d, "jump_law"))
    cls = family_class(_LAWS, params.pop("kind", None), "kind", "JUMP_KIND", "jump law")
    return build(cls, params)
