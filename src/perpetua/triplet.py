"""Levy triplets and the operations defined directly on them.

A process is described by (drift, gaussian_coef, levy_measure).  The
characteristic exponent is the minus-log characteristic function of the
time-1 marginal,

    Psi(lam) = -log E[exp(i lam xi_1)],

so Psi(0) = 0, Re Psi >= 0 and Psi(-lam) = conj(Psi(lam)).

Drift convention.  The |x| <= 1 truncation cutoff is fixed globally, and each
family documents its closed-form compensator.  The two activity classes read
the drift field differently:

* finite-activity families (no jumps, compound Poisson): the jump part is
  finite, so no compensation is applied and ``drift`` is the literal slope of
  the path between jumps.  E.g. zero drift plus unit-rate jumps of size 1
  gives Psi(lam) = 1 - exp(i lam).
* infinite-activity families (stable-like, tempered): jumps in |x| <= 1 are
  compensated and ``drift`` is the linear term of the truncated
  representation.

Under either reading the mean of xi_1 is drift plus the appropriate jump
mean: the full jump mean for finite activity, the |x| > 1 tail mean for
infinite activity (compensated small jumps contribute nothing).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteParameter
from .extended import ExtendedReal
from .measures import LevyMeasureSpec, NoJumps, measure_from_dict
from .validation import Issue, require_finite

__all__ = ["LevyTriplet", "ClassificationFlags", "triplet_from_json"]


@dataclass(frozen=True)
class ClassificationFlags:
    is_compound_poisson: bool
    is_subordinator: bool
    is_spectrally_negative: bool
    mean: ExtendedReal

    @property
    def mean_is_finite_positive(self) -> bool:
        return self.mean.is_finite_positive

    def to_dict(self) -> dict:
        return {
            "is_compound_poisson": self.is_compound_poisson,
            "is_subordinator": self.is_subordinator,
            "is_spectrally_negative": self.is_spectrally_negative,
            "mean_kind": self.mean.kind,
            "mean_value": self.mean.value,
            "mean_is_finite_positive": self.mean_is_finite_positive,
        }


@dataclass(frozen=True)
class LevyTriplet:
    drift: float
    gaussian_coef: float = 0.0
    levy_measure: LevyMeasureSpec = NoJumps()

    def validate(self) -> list[Issue]:
        """Collect machine-readable parameter problems; empty list means valid."""
        issues = require_finite(self.drift, "drift", "NONFINITE_DRIFT")
        issues += require_finite(self.gaussian_coef, "gaussian_coef", "NEGATIVE_GAUSSIAN")
        if math.isfinite(self.gaussian_coef) and self.gaussian_coef < 0:
            issues.append(Issue("NEGATIVE_GAUSSIAN", "gaussian_coef",
                                "gaussian coefficient must be >= 0"))
        issues += self.levy_measure.validate()
        return issues

    def _require_valid(self):
        issues = self.validate()
        if issues:
            raise NonFiniteParameter(issues)

    # ------------------------------------------------------------------
    # characteristic exponent

    def char_exponent(self, lam):
        """Psi(lam) for scalar or array lam; complex output, vectorized."""
        self._require_valid()
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        out = (-1j * self.drift * arr
               + 0.5 * self.gaussian_coef * arr * arr
               + self.levy_measure.char_integral(arr))
        if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
            raise NonFiniteParameter([Issue("CHAR_NONFINITE", "lam",
                                            "characteristic exponent overflowed")])
        if np.isscalar(lam) or np.ndim(lam) == 0:
            return complex(out[0])
        return out

    # ------------------------------------------------------------------
    # moments and structure

    def mean(self) -> ExtendedReal:
        """E[xi_1] as an extended real; infinite tails are reported, not faked."""
        self._require_valid()
        nu = self.levy_measure
        jump = nu.jump_mean_full() if nu.is_finite_activity else nu.tail_mean()
        return jump.shifted(self.drift)

    def natural_drift(self) -> float:
        """Slope of the path between jumps; defined for finite-variation processes."""
        nu = self.levy_measure
        if nu.is_finite_activity:
            return self.drift
        if not nu.finite_variation:
            raise ValueError("no pathwise drift for infinite-variation jump part")
        return self.drift - nu.inner_mean(0.0, 1.0)

    def effective_volatility_sq(self) -> float:
        """sigma^2 + int_{|x|<=1} x^2 nu(dx): the scale used for rule-of-thumb horizons."""
        return self.gaussian_coef + self.levy_measure.small_jump_variance(1.0)

    def classify(self) -> ClassificationFlags:
        self._require_valid()
        nu = self.levy_measure
        mean = self.mean()

        pure_jump = self.gaussian_coef == 0.0 and nu.is_finite_activity \
            and nu.tail_mass() + nu.rate_above(0.0) > 0.0
        is_cp = pure_jump and self.drift == 0.0

        if self.gaussian_coef > 0.0 or nu.has_negative_jumps() or not nu.finite_variation:
            is_sub = False
        else:
            is_sub = self.natural_drift() >= 0.0

        is_sn = not nu.has_positive_jumps()
        return ClassificationFlags(is_cp, is_sub, is_sn, mean)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "drift": self.drift,
            "gaussian": self.gaussian_coef,
            "levy_measure": {"family": self.levy_measure.kind,
                             "params": self.levy_measure.params()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def digest(self) -> str:
        """Short stable identifier used to tag path samples."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    @classmethod
    def from_dict(cls, d: dict) -> "LevyTriplet":
        t = cls(drift=float(d["drift"]),
                gaussian_coef=float(d.get("gaussian", 0.0)),
                levy_measure=measure_from_dict(d.get("levy_measure",
                                                     {"family": "none", "params": {}})))
        issues = t.validate()
        if issues:
            raise NonFiniteParameter(issues)
        return t


def triplet_from_json(text: str) -> LevyTriplet:
    return LevyTriplet.from_dict(json.loads(text))
