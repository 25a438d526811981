"""Levy measure families.

Each family carries closed forms for everything the analytic and Monte Carlo
layers need:

* ``char_integral(lam)``: the jump contribution to the characteristic
  exponent, under the package-wide drift convention (see triplet module):
  finite-activity families enter uncompensated, infinite-activity families
  enter in the |x| <= 1 truncated form.
* tail mass ``nu(|x| > 1)`` and tail mean ``int_{|x|>1} x nu(dx)``.
* small-jump variance ``int_{|x|<=eps} x^2 nu(dx)`` and the partial mean
  ``int_{lo<|x|<=hi} x nu(dx)`` used as the compensator adjustment when a
  simulation cuts jumps below eps.
* exact (or rejection) samplers for jumps above a cutoff.

Power-law integrals against an exponential taper reduce to incomplete gamma
functions; the upper one is extended to negative shape by the usual downward
recurrence since scipy only covers positive shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, gamma as gamma_fn, gammainc

from .extended import ExtendedReal
from .jumps import JumpLaw, jump_law_from_dict
from .validation import Issue, require_finite

__all__ = [
    "LevyMeasureSpec",
    "NoJumps",
    "CompoundPoisson",
    "StableLike",
    "TemperedStable",
    "measure_from_dict",
    "upper_gamma",
]


def upper_gamma(s: float, x: float) -> float:
    """Generalized upper incomplete gamma int_x^inf t^{s-1} e^{-t} dt, x > 0.

    Valid for any real s via Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s.
    """
    if x <= 0:
        raise ValueError("upper_gamma needs x > 0")
    if abs(s) < 1e-12:
        return float(exp1(x))
    if s > 0:
        from scipy.special import gammaincc
        return float(gammaincc(s, x) * gamma_fn(s))
    return (upper_gamma(s + 1.0, x) - x ** s * math.exp(-x)) / s


def lower_gamma(s: float, x: float) -> float:
    """Regular lower incomplete gamma, s > 0, x >= 0."""
    if s <= 0:
        raise ValueError("lower_gamma needs s > 0")
    if x <= 0:
        return 0.0
    return float(gammainc(s, x) * gamma_fn(s))


def _alpha_issues(alpha, lo=0.0, hi=2.0):
    issues = require_finite(alpha, "alpha", "ALPHA_RANGE")
    if not issues and not lo < alpha < hi:
        issues.append(Issue("ALPHA_RANGE", "alpha",
                            f"alpha must lie in ({lo}, {hi}), got {alpha}"))
    return issues


@dataclass(frozen=True)
class NoJumps:
    """Empty Levy measure: Brownian motion with drift, or pure drift."""

    kind = "none"
    is_finite_activity = True
    finite_variation = True

    def validate(self):
        return []

    def char_integral(self, lam):
        return np.zeros_like(np.asarray(lam, dtype=float), dtype=complex)

    def tail_mass(self) -> float:
        return 0.0

    def tail_mean(self) -> ExtendedReal:
        return ExtendedReal.finite(0.0)

    def jump_mean_full(self) -> ExtendedReal:
        return ExtendedReal.finite(0.0)

    def small_jump_variance(self, eps: float) -> float:
        return 0.0

    def inner_mean(self, lo: float, hi: float) -> float:
        return 0.0

    def rate_above(self, eps: float) -> float:
        return 0.0

    def sample_jumps_above(self, rng, eps: float, n: int):
        return np.zeros(n)

    def default_cutoff(self, dt: float) -> float:
        return 0.0

    def has_positive_jumps(self) -> bool:
        return False

    def has_negative_jumps(self) -> bool:
        return False

    def params(self):
        return {}


@dataclass(frozen=True)
class CompoundPoisson:
    """Finitely many jumps per unit time: rate * law(dx).

    Enters the characteristic exponent uncompensated, so the companion drift
    field is the literal slope of the path between jumps.
    """

    rate: float
    jump_law: JumpLaw

    kind = "compound_poisson"
    is_finite_activity = True
    finite_variation = True

    def validate(self):
        issues = require_finite(self.rate, "rate", "RATE_POSITIVE")
        if not issues and self.rate <= 0:
            issues.append(Issue("RATE_POSITIVE", "rate", "rate must be > 0"))
        return issues + self.jump_law.validate()

    def char_integral(self, lam):
        return self.rate * (1.0 - self.jump_law.char(lam))

    def tail_mass(self) -> float:
        return self.rate * self.jump_law.prob_abs_above(1.0)

    def tail_mean(self) -> ExtendedReal:
        return ExtendedReal.finite(self.rate * self.jump_law.mean_abs_above(1.0))

    def jump_mean_full(self) -> ExtendedReal:
        return ExtendedReal.finite(self.rate * self.jump_law.mean())

    def small_jump_variance(self, eps: float) -> float:
        return self.rate * self.jump_law.second_moment_abs_below(eps)

    def inner_mean(self, lo: float, hi: float) -> float:
        return self.rate * (self.jump_law.mean_abs_above(lo) - self.jump_law.mean_abs_above(hi))

    def rate_above(self, eps: float) -> float:
        return self.rate if eps <= 0 else self.rate * self.jump_law.prob_abs_above(eps)

    def sample_jumps_above(self, rng, eps: float, n: int):
        if eps > 0:
            raise ValueError("compound Poisson jumps are simulated exactly; no cutoff")
        return self.jump_law.sample(rng, n)

    def default_cutoff(self, dt: float) -> float:
        return 0.0

    def has_positive_jumps(self) -> bool:
        return self.jump_law.positive_mass()

    def has_negative_jumps(self) -> bool:
        return self.jump_law.negative_mass()

    def params(self):
        return {"rate": self.rate,
                "jump_law": {"kind": self.jump_law.kind, **self.jump_law.params()}}


def _stable_sided_weights(skew: float):
    return 0.5 * (1.0 + skew), 0.5 * (1.0 - skew)


@dataclass(frozen=True)
class StableLike:
    """Pure power-law Levy density scale * |x|^{-1-alpha}, sides weighted by skew.

    nu(dx) = scale * (p+ 1_{x>0} + p- 1_{x<0}) |x|^{-1-alpha} dx,
    p+- = (1 +- skew)/2.  Closed-form characteristic integral in the
    |x| <= 1 truncated convention, for alpha != 1:

        scale * C(alpha) |lam|^alpha (1 - i skew sgn(lam) tan(pi alpha/2))
          + i lam scale skew / (1 - alpha),
        C(alpha) = Gamma(2-alpha) cos(pi alpha/2) / (alpha (1-alpha)) > 0.

    alpha = 1 is supported only for skew = 0 (the integral is then
    pi/2 * scale * |lam| and no compensator term survives).
    """

    alpha: float
    scale: float
    skew: float = 0.0

    kind = "stable"
    is_finite_activity = False

    def validate(self):
        issues = _alpha_issues(self.alpha)
        issues += require_finite(self.scale, "scale", "SCALE_POSITIVE")
        if not any(i.field == "scale" for i in issues) and self.scale <= 0:
            issues.append(Issue("SCALE_POSITIVE", "scale", "scale must be > 0"))
        issues += require_finite(self.skew, "skew", "SKEW_RANGE")
        if not any(i.field == "skew" for i in issues) and not -1.0 <= self.skew <= 1.0:
            issues.append(Issue("SKEW_RANGE", "skew", "skew must lie in [-1, 1]"))
        if self.alpha == 1.0 and self.skew != 0.0:
            issues.append(Issue("SKEW_ALPHA_ONE", "skew",
                                "alpha = 1 supported only with skew = 0"))
        return issues

    @property
    def finite_variation(self) -> bool:
        return self.alpha < 1.0

    def char_integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        a, s = self.alpha, self.scale
        if a == 1.0:
            return (0.5 * math.pi * s) * np.abs(lam) + 0j
        c = gamma_fn(2.0 - a) / (a * (1.0 - a))
        mag = s * c * math.cos(0.5 * math.pi * a) * np.abs(lam) ** a
        out = mag * (1.0 - 1j * self.skew * np.sign(lam) * math.tan(0.5 * math.pi * a))
        out = out + 1j * lam * (s * self.skew / (1.0 - a))
        return out

    def tail_mass(self) -> float:
        return self.scale / self.alpha

    def tail_mean(self) -> ExtendedReal:
        if self.alpha > 1.0:
            return ExtendedReal.finite(self.scale * self.skew / (self.alpha - 1.0))
        if self.skew == 1.0:
            return ExtendedReal.pos_inf()
        if self.skew == -1.0:
            return ExtendedReal.neg_inf()
        return ExtendedReal.undefined()

    def small_jump_variance(self, eps: float) -> float:
        return self.scale * eps ** (2.0 - self.alpha) / (2.0 - self.alpha)

    def inner_mean(self, lo: float, hi: float) -> float:
        if self.skew == 0.0 or hi <= lo:
            return 0.0
        a = self.alpha
        if a >= 1.0 and lo <= 0.0:
            raise ValueError("inner mean diverges at 0 for alpha >= 1")
        if a == 1.0:
            return self.scale * self.skew * math.log(hi / lo)
        p = 1.0 - a
        return self.scale * self.skew * (hi ** p - lo ** p) / p

    def rate_above(self, eps: float) -> float:
        return self.scale * eps ** (-self.alpha) / self.alpha

    def sample_jumps_above(self, rng, eps: float, n: int):
        # magnitude is Pareto: P(|J| > y | |J| > eps) = (y/eps)^{-alpha}
        mags = eps * rng.random(n) ** (-1.0 / self.alpha)
        p_plus, _ = _stable_sided_weights(self.skew)
        signs = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        return mags * signs

    def default_cutoff(self, dt: float) -> float:
        # budget of at most 0.5 simulated jumps per step, never above 0.5
        eps = (2.0 * self.scale * dt / self.alpha) ** (1.0 / self.alpha)
        return min(eps, 0.5)

    def has_positive_jumps(self) -> bool:
        return self.skew > -1.0

    def has_negative_jumps(self) -> bool:
        return self.skew < 1.0

    def params(self):
        return {"alpha": self.alpha, "scale": self.scale, "skew": self.skew}


@dataclass(frozen=True)
class TemperedStable:
    """Power-law density with exponential taper exp(-tempering * |x|).

    All moments are finite.  The characteristic integral uses the analytic
    continuation (theta -+ i lam)^alpha with the principal branch; alpha = 1
    is excluded (the closed form degenerates to logarithms there).
    """

    alpha: float
    scale: float
    tempering: float
    skew: float = 0.0

    kind = "tempered_stable"
    is_finite_activity = False

    def validate(self):
        issues = _alpha_issues(self.alpha)
        if self.alpha == 1.0:
            issues.append(Issue("ALPHA_RANGE", "alpha",
                                "alpha = 1 not supported for the tempered family"))
        for name, code in (("scale", "SCALE_POSITIVE"), ("tempering", "TEMPERING_POSITIVE")):
            v = getattr(self, name)
            issues += require_finite(v, name, code)
            if math.isfinite(v) and v <= 0:
                issues.append(Issue(code, name, f"{name} must be > 0"))
        issues += require_finite(self.skew, "skew", "SKEW_RANGE")
        if not -1.0 <= self.skew <= 1.0:
            issues.append(Issue("SKEW_RANGE", "skew", "skew must lie in [-1, 1]"))
        return issues

    @property
    def finite_variation(self) -> bool:
        return self.alpha < 1.0

    def char_integral(self, lam):
        lam = np.asarray(lam, dtype=float)
        a, th, s = self.alpha, self.tempering, self.scale
        p_plus, p_minus = _stable_sided_weights(self.skew)
        neg_gamma = -gamma_fn(-a)  # positive for a < 1, negative for a > 1
        zp = (th - 1j * lam) ** a - th ** a
        zm = (th + 1j * lam) ** a - th ** a
        if a < 1.0:
            base = s * neg_gamma * (p_plus * zp + p_minus * zm)
            m1 = s * self.skew * th ** (a - 1.0) * lower_gamma(1.0 - a, th)
            return base + 1j * lam * m1
        corr = 1j * lam * a * th ** (a - 1.0)
        base = s * neg_gamma * (p_plus * (zp + corr) + p_minus * (zm - corr))
        t1 = s * self.skew * th ** (a - 1.0) * upper_gamma(1.0 - a, th)
        return base - 1j * lam * t1

    def tail_mass(self) -> float:
        return self.scale * self.tempering ** self.alpha * upper_gamma(-self.alpha, self.tempering)

    def tail_mean(self) -> ExtendedReal:
        th, a = self.tempering, self.alpha
        return ExtendedReal.finite(self.scale * self.skew * th ** (a - 1.0)
                                   * upper_gamma(1.0 - a, th))

    def small_jump_variance(self, eps: float) -> float:
        th, a = self.tempering, self.alpha
        return self.scale * th ** (a - 2.0) * lower_gamma(2.0 - a, th * eps)

    def inner_mean(self, lo: float, hi: float) -> float:
        if self.skew == 0.0 or hi <= lo:
            return 0.0
        th, a = self.tempering, self.alpha
        if a < 1.0:
            val = lower_gamma(1.0 - a, th * hi) - lower_gamma(1.0 - a, th * lo)
        else:
            if lo <= 0.0:
                raise ValueError("inner mean diverges at 0 for alpha >= 1")
            val = upper_gamma(1.0 - a, th * lo) - upper_gamma(1.0 - a, th * hi)
        return self.scale * self.skew * th ** (a - 1.0) * val

    def rate_above(self, eps: float) -> float:
        th, a = self.tempering, self.alpha
        return self.scale * th ** a * upper_gamma(-a, th * eps)

    def sample_jumps_above(self, rng, eps: float, n: int):
        """Rejection from the pure power tail with acceptance exp(-theta(x - eps))."""
        th, a = self.tempering, self.alpha
        p_plus, _ = _stable_sided_weights(self.skew)
        out = np.empty(n)
        filled = 0
        guard = 0
        while filled < n:
            guard += 1
            if guard > 10_000:
                raise RuntimeError("tempered jump sampler failed to accept; "
                                   "tempering too strong for this cutoff")
            m = max(2 * (n - filled), 64)
            cand = eps * rng.random(m) ** (-1.0 / a)
            keep = cand[rng.random(m) < np.exp(-th * (cand - eps))]
            take = min(len(keep), n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        signs = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        return out * signs

    def default_cutoff(self, dt: float) -> float:
        # the untapered rate bounds the tapered one, so the stable budget works
        proxy = StableLike(self.alpha, self.scale, self.skew if self.alpha != 1 else 0.0)
        return proxy.default_cutoff(dt)

    def has_positive_jumps(self) -> bool:
        return self.skew > -1.0

    def has_negative_jumps(self) -> bool:
        return self.skew < 1.0

    def params(self):
        return {"alpha": self.alpha, "scale": self.scale,
                "tempering": self.tempering, "skew": self.skew}


LevyMeasureSpec = NoJumps | CompoundPoisson | StableLike | TemperedStable

_FAMILIES = {cls.kind: cls for cls in
             (NoJumps, CompoundPoisson, StableLike, TemperedStable)}


def measure_from_dict(d: dict) -> LevyMeasureSpec:
    from .errors import NonFiniteParameter
    family = d.get("family")
    params = dict(d.get("params", {}))
    if family == "spectrally_negative_stable":
        # an alias: {alpha, scale} with alpha in (1, 2) is StableLike at skew -1
        spec = StableLike(**params, skew=-1.0)
        issues = spec.validate() or _alpha_issues(spec.alpha, lo=1.0, hi=2.0)
    elif family in _FAMILIES:
        if family == "compound_poisson":
            params["jump_law"] = jump_law_from_dict(params["jump_law"])
        spec = _FAMILIES[family](**params)
        issues = spec.validate()
    else:
        raise NonFiniteParameter([Issue("FAMILY_UNKNOWN", "family",
                                        f"unknown Levy measure family {family!r}")])
    if issues:
        raise NonFiniteParameter(issues)
    return spec
