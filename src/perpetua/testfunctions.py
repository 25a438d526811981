"""Nonnegative test functions f whose running integral along a path is studied.

Every family is measurable, locally integrable and >= 0 on the whole line,
which is all the theory asks of f.  On top of evaluation each family states
one closed form, ``integral_between(a, b)``: the exact value of ``int_a^b f``
for a <= b, where a may be -inf and b inf (inf when the integral diverges,
finite on every finite piece).  The :class:`TestFunction` base class derives
the rest from it once: ``integral_above(x)`` is ``int_x^inf f`` and
``integral_full()`` is ``int f`` over the whole line.  So the tail test reads
its verdict and its block sums from the family and never extrapolates.
``integral_between`` also takes numpy arrays of ends, so an exact path
integrates all its linear pieces in one call; a call with plain numbers
returns a float, computed with the math module's functions.

Families compose through :class:`Scaled` and :class:`SumOf`.  A value whose
int_0^inf f is finite but past the float range is refused when built, since
the tail test would read its inf as divergence.

Building an invalid test function raises NonFiniteParameter with all its issues.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .validation import (Issue, Validated, build, family_class, family_params, finite_real,
                         require_finite)

__all__ = [
    "ExpDecay",
    "PowerTail",
    "LogPower",
    "Indicator",
    "Tabulated",
    "Scaled",
    "SumOf",
    "TestFunction",
    "test_function_from_dict",
]


class _Floats:
    """The math module's functions under numpy's names, for plain-number arguments.

    numpy's exp, log, log1p and expm1 differ from math's in the last bit on a
    few percent of inputs, so scalar closed forms (the tail test's
    certificate) stay on math's.
    """

    exp, log, log1p, expm1 = math.exp, math.log, math.log1p, math.expm1
    maximum, minimum = max, min


def _lift(*xs):
    """(ops, xs): numpy and float arrays when any x is an array, else _Floats and xs as given."""
    if any(np.ndim(x) for x in xs):
        return np, [np.asarray(x, dtype=float) for x in xs]
    return _Floats, xs


def _power_integral(m, v, dv, p: float):
    """int_v^(v+dv) t^-p dt for v > 0 and dv >= 0; log(1 + dv/v) at p = 1."""
    log_ratio = m.log1p(dv / v)
    if p == 1.0:
        return log_ratio
    return v ** (1.0 - p) * m.expm1((1.0 - p) * log_ratio) / (1.0 - p)


class TestFunction(Validated):
    """A test function: a family states __call__, validate and integral_between."""

    __test__ = False  # not a pytest class, whatever its name

    def integral_above(self, x):
        """int_x^inf f, inf when it diverges."""
        return self.integral_between(x, math.inf)

    def integral_full(self) -> float:
        """int f over the whole line, inf when it diverges."""
        return self.integral_between(-math.inf, math.inf)


def _even_integral(m, piece, a, b):
    """int_a^b f of an even f for a <= b, from piece(lo, hi) = int_lo^hi f on 0 <= lo <= hi.

    The positive part of [a, b] plus the mirror of its negative part; the
    part a side lacks is an empty piece, which adds an exact 0.
    """
    return piece(m.maximum(a, 0.0), m.maximum(b, 0.0)) + piece(m.maximum(-b, 0.0), m.maximum(-a, 0.0))


@dataclass(frozen=True)
class ExpDecay(TestFunction):
    """f(x) = exp(-rate * max(x, 0)) for x >= 0, constant left_level for x < 0.

    With the default left_level=1 this is the continuous bounded extension of
    the right-tail exponential.  left_level=0 restricts support to [0, inf).
    """

    rate: float
    left_level: float = 1.0

    kind = "exp_decay"

    def validate(self) -> list[Issue]:
        issues = require_finite(self.rate, "rate", "RATE_NONFINITE")
        issues += require_finite(self.left_level, "left_level", "LEVEL_NONFINITE")
        if issues:
            return issues
        if self.rate <= 0.0:
            issues.append(Issue("RATE_POSITIVE", "rate", "decay rate must be > 0"))
        elif math.isinf(1.0 / float(self.rate)):
            issues.append(Issue("RATE_RANGE", "rate", "rate too small: 1/rate overflows a float"))
        if self.left_level < 0.0:
            issues.append(Issue("LEVEL_NEGATIVE", "left_level", "f must be >= 0"))
        return issues

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.maximum(x, 0.0, out=np.empty(x.shape))
        out *= -self.rate
        np.exp(out, out=out)
        np.putmask(out, x < 0.0, self.left_level)
        return out if out.ndim else float(out)

    def integral_between(self, a, b):
        # e^(-rate lo) (1 - e^(-rate (hi - lo))) / rate right of 0, with no
        # cancellation on a narrow piece, plus the flat part left of 0, which
        # a zero level leaves out: its width may be inf
        m, (a, b) = _lift(a, b)
        lo, hi = m.maximum(a, 0.0), m.maximum(b, 0.0)
        out = m.exp(-self.rate * lo) * -m.expm1(-self.rate * (hi - lo)) / self.rate
        if self.left_level:
            out = out + self.left_level * (m.minimum(b, 0.0) - m.minimum(a, 0.0))
        return out


@dataclass(frozen=True)
class PowerTail(TestFunction):
    """f(x) = 1 / (shift + |x|)**p.  Integrable tail iff p > 1."""

    p: float
    shift: float = 1.0

    kind = "power_tail"

    def validate(self) -> list[Issue]:
        issues = require_finite(self.p, "p", "P_NONFINITE")
        issues += require_finite(self.shift, "shift", "SHIFT_NONFINITE")
        if issues:
            return issues
        if self.p <= 0.0:
            issues.append(Issue("P_POSITIVE", "p", "exponent must be > 0"))
        if self.shift < 1.0:
            issues.append(Issue("SHIFT_RANGE", "shift", "shift must be >= 1"))
        return issues

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = (self.shift + np.abs(x)) ** (-self.p)
        return out if out.ndim else float(out)

    def integral_between(self, a, b):
        m, (a, b) = _lift(a, b)
        return _even_integral(
            m, lambda lo, hi: _power_integral(m, self.shift + lo, hi - lo, self.p), a, b)


# the largest p at which log(2)^(1 - p), a factor of f(0) and of every closed form, is a float
_LOG_POWER_P_MAX = 1 + math.floor(math.log(sys.float_info.max) / -math.log(math.log(2.0)))


@dataclass(frozen=True)
class LogPower(TestFunction):
    """f(x) = 1 / ((2 + |x|) * log(2 + |x|)**p).

    The borderline family: tails thinner than any 1/(shift+|x|) yet the
    integral converges only for p > 1 (antiderivative log(2+x)**(1-p)/(1-p)).
    """

    p: float

    kind = "log_power"

    def validate(self) -> list[Issue]:
        issues = require_finite(self.p, "p", "P_NONFINITE")
        if not issues and self.p <= 0.0:
            issues.append(Issue("P_POSITIVE", "p", "exponent must be > 0"))
        elif not issues and self.p > _LOG_POWER_P_MAX:
            issues.append(Issue("P_RANGE", "p", f"exponent must be <= {_LOG_POWER_P_MAX}, "
                                                "past which f(0) and its integrals overflow a float"))
        return issues

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        base = 2.0 + np.abs(x)
        out = 1.0 / (base * np.log(base) ** self.p)
        return out if out.ndim else float(out)

    def integral_between(self, a, b):
        m, (a, b) = _lift(a, b)

        # u = log(2 + t) turns the integral into int u^-p du
        def piece(lo, hi):
            return _power_integral(m, m.log(2.0 + lo), m.log1p((hi - lo) / (2.0 + lo)), self.p)

        return _even_integral(m, piece, a, b)


@dataclass(frozen=True)
class Indicator(TestFunction):
    """Indicator of the closed interval [a, b]."""

    a: float
    b: float

    kind = "indicator"

    def validate(self) -> list[Issue]:
        issues = require_finite(self.a, "a", "A_NONFINITE")
        issues += require_finite(self.b, "b", "B_NONFINITE")
        if not issues and self.b < self.a:
            issues.append(Issue("INTERVAL_ORDER", "b", "need a <= b"))
        return issues

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.a) & (x <= self.b), 1.0, 0.0)
        return out if out.ndim else float(out)

    def integral_between(self, a, b):
        m, (a, b) = _lift(a, b)
        return m.maximum(m.minimum(b, self.b) - m.maximum(a, self.a), 0.0)


@dataclass(frozen=True)
class Tabulated(TestFunction):
    """Piecewise-linear interpolant of (knots, values) with an explicit tail.

    Zero below the first knot.  Beyond the last knot the tail model takes
    over: "zero" cuts the function off, "exp" continues with
    values[-1] * exp(-tail_rate * (x - knots[-1])).  The tail is part of the
    definition, not an extrapolation; integrals use its closed form.
    """

    knots: tuple[float, ...]
    values: tuple[float, ...]
    tail_model: str = "zero"
    tail_rate: float = 1.0

    kind = "tabulated"

    def __post_init__(self):  # stored as tuples, so a list-built table hashes too
        object.__setattr__(self, "knots", tuple(self.knots))
        object.__setattr__(self, "values", tuple(self.values))
        super().__post_init__()

    def validate(self) -> list[Issue]:
        issues: list[Issue] = []
        if len(self.knots) < 2:
            issues.append(Issue("KNOTS_COUNT", "knots", "need at least 2 knots"))
        if len(self.knots) != len(self.values):
            issues.append(Issue("SHAPE_MISMATCH", "values", "one value per knot"))
        if issues:
            return issues
        if any(finite_real(x) is None for x in (*self.knots, *self.values)):
            issues.append(Issue("TABLE_NONFINITE", "knots",
                                "knots and values must be finite numbers"))
            return issues
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if np.any(np.diff(k) <= 0.0):
            issues.append(Issue("KNOTS_ORDER", "knots", "knots must be strictly increasing"))
        if np.any(v < 0.0):
            issues.append(Issue("VALUES_NEGATIVE", "values", "f must be >= 0"))
        if self.tail_model not in ("zero", "exp"):
            issues.append(Issue("TAIL_MODEL", "tail_model", "tail_model must be 'zero' or 'exp'"))
        elif self.tail_model == "exp" and (require_finite(self.tail_rate, "tail_rate", "TAIL_RATE")
                                           or self.tail_rate <= 0.0):
            issues.append(Issue("TAIL_RATE", "tail_rate", "exp tail needs rate > 0"))
        elif self.tail_model == "exp" and math.isinf(float(v[-1]) / float(self.tail_rate)):
            issues.append(Issue("TAIL_RANGE", "tail_rate", "tail_rate too small: tail integral overflows"))
        if not issues:
            with np.errstate(over="ignore", invalid="ignore"):
                if not math.isfinite(self.integral_full()):
                    issues.append(Issue("TABLE_RANGE", "values",
                                        "values too large: the table's integral overflows a float"))
        return issues

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        out = np.interp(x, k, v, left=0.0, right=0.0)
        if self.tail_model == "exp":
            tail = v[-1] * np.exp(-self.tail_rate * np.maximum(x - k[-1], 0.0))
            out = np.where(x > k[-1], tail, out)
        return out if out.ndim else float(out)

    def _above(self, x):
        """int_x^inf f: the table's trapezoids from x on, then the tail's closed form."""
        k = np.asarray(self.knots, dtype=float)
        v = np.asarray(self.values, dtype=float)
        xs = np.asarray(x, dtype=float)
        # ahead[j] = int from knot j to the last knot
        ahead = np.concatenate((np.cumsum((np.diff(k) * (v[1:] + v[:-1]) / 2.0)[::-1])[::-1], [0.0]))
        a = np.clip(xs, k[0], k[-1])
        j = np.minimum(np.searchsorted(k, a, side="right"), k.size - 1)  # the knot after a
        out = ahead[j] + (k[j] - a) * (self(a) + v[j]) / 2.0
        if self.tail_model == "exp":
            out = out + v[-1] * np.exp(-self.tail_rate * (np.maximum(xs, k[-1]) - k[-1])) / self.tail_rate
        return out

    def integral_between(self, a, b):
        """int_a^b f.  A piece inside one table segment is its own trapezoid
        (b - a)(f(a) + f(b)) / 2, and one inside the exp tail its own closed
        form, so a narrow piece does not cancel; a piece across knots is
        _above(a) - _above(b).  The trapezoid takes the ends clipped to the
        table: that changes no piece it is used for, and keeps an infinite end
        out of it."""
        k = np.asarray(self.knots, dtype=float)
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        seg = np.searchsorted(k, a, side="right")  # 0 below the table, k.size in the tail
        fa = self(a)
        # f is at most values[-1] in the tail, so the cap keeps every piece
        # there and only stops the discarded ones from overflowing
        tail = (np.minimum(fa, self.values[-1]) * -np.expm1(-self.tail_rate * (b - a)) / self.tail_rate
                if self.tail_model == "exp" else 0.0)
        lo, hi = np.clip(a, k[0], k[-1]), np.clip(b, k[0], k[-1])
        piece = np.select([seg == 0, seg == k.size], [0.0, tail], (hi - lo) * (fa + self(hi)) / 2.0)
        out = np.where(seg == np.searchsorted(k, b, side="left"), piece, self._above(a) - self._above(b))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Scaled(TestFunction):
    """c * f for a constant c > 0."""

    factor: float
    inner: "TestFunction"

    kind = "scaled"

    def validate(self) -> list[Issue]:
        issues = require_finite(self.factor, "factor", "FACTOR_NONFINITE")
        if not issues and self.factor <= 0.0:
            issues.append(Issue("FACTOR_POSITIVE", "factor", "scale factor must be > 0"))
        elif not issues and _overflows((self.inner,), self.factor):
            issues.append(Issue("FACTOR_RANGE", "factor", "factor too large: its integral overflows"))
        return issues

    def __call__(self, x):
        return self.factor * self.inner(x)

    def integral_between(self, a, b):
        return self.factor * self.inner.integral_between(a, b)


@dataclass(frozen=True)
class SumOf(TestFunction):
    """Pointwise sum of finitely many test functions."""

    parts: tuple["TestFunction", ...]

    kind = "sum"

    def __post_init__(self):  # stored as a tuple, so a list-built sum hashes too
        object.__setattr__(self, "parts", tuple(self.parts))
        super().__post_init__()

    def validate(self) -> list[Issue]:
        if len(self.parts) == 0:
            return [Issue("EMPTY_SUM", "parts", "need at least one summand")]
        if _overflows(self.parts):
            return [Issue("SUM_RANGE", "parts", "parts too large: their integrals' sum overflows")]
        return []

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for part in self.parts:
            out = out + part(x)
        return out if out.ndim else float(out)

    def integral_between(self, a, b):
        return sum(part.integral_between(a, b) for part in self.parts)


def _overflows(parts, factor: float = 1.0) -> bool:
    """Whether each part's int_0^inf is a float but factor times their sum is not (parts built)."""
    values = [part.integral_above(0.0) for part in parts if isinstance(part, TestFunction)]
    return len(values) == len(parts) and all(map(math.isfinite, values)) \
        and math.isinf(factor * sum(values))


_FAMILIES = {cls.kind: cls for cls in
             (ExpDecay, PowerTail, LogPower, Indicator, Tabulated, Scaled, SumOf)}


def test_function_from_dict(payload: dict) -> TestFunction:
    """The function {"family": ..., "params": {<fields>}} describes; every problem raised together."""
    family, params = family_params(payload, "f")
    cls = family_class(_FAMILIES, family, "family", "FAMILY_UNKNOWN", "test function family")
    return build(cls, params, {"inner": test_function_from_dict, "parts": test_function_from_dict})
