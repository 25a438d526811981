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

Under either reading the mean of xi_1 is drift plus the measure's
jump_mean(): the full jump mean for finite activity, the |x| > 1 tail mean
for infinite activity (compensated small jumps contribute nothing).  The
slope of the path between jumps is drift minus the measure's
compensator(0), which is 0 for finite activity.

The theorem's first hypothesis, a mean in (0, inf), is checked in one place:
positive_mean(what) returns mu or raises the MEAN_RANGE precondition.

Building an invalid triplet raises NonFiniteParameter with all of its issues.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteParameter, PreconditionViolation
from .extended import ExtendedReal
from .measures import LevyMeasure, NoJumps, measure_from_dict
from .validation import Issue, Validated, build, json_object, require_finite

__all__ = ["LevyTriplet", "ClassificationFlags"]


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
class LevyTriplet(Validated):
    drift: float
    gaussian_coef: float = field(default=0.0, metadata={"key": "gaussian"})
    levy_measure: LevyMeasure = NoJumps()

    def validate(self) -> list[Issue]:
        """Problems of drift and gaussian_coef; the measure checked itself when built."""
        issues = require_finite(self.drift, "drift", "NONFINITE_DRIFT")
        # named by its config key, the one a user wrote
        bad = require_finite(self.gaussian_coef, "gaussian", "NEGATIVE_GAUSSIAN")
        if not bad and self.gaussian_coef < 0:
            bad.append(Issue("NEGATIVE_GAUSSIAN", "gaussian", "gaussian coefficient must be >= 0"))
        return issues + bad

    # ------------------------------------------------------------------
    # characteristic exponent

    def char_exponent(self, lam):
        """Psi(lam) for real scalar or array lam; complex output, vectorized."""
        if np.iscomplexobj(lam):  # a cast to float would drop the imaginary part
            raise NonFiniteParameter([Issue("CHAR_NONREAL", "lam", "need a real argument, not a complex one")])
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
        return self.levy_measure.jump_mean().shifted(self.drift)

    def positive_mean(self, what: str) -> float:
        """mu = E[xi_1] when it lies in (0, inf); else MEAN_RANGE, saying what needed it."""
        mean = self.mean()
        if not mean.is_finite_positive:
            raise PreconditionViolation("MEAN_RANGE", f"{what} needs mean in (0, inf)")
        return mean.as_float()

    def natural_drift(self) -> float:
        """Slope of the path between jumps; defined for finite-variation processes."""
        if not self.levy_measure.finite_variation:
            raise ValueError("no pathwise drift for infinite-variation jump part")
        return self.drift - self.levy_measure.compensator(0.0)

    def effective_volatility_sq(self) -> float:
        """sigma^2 + int_{|x|<=1} x^2 nu(dx): the scale used for rule-of-thumb horizons."""
        return self.gaussian_coef + self.levy_measure.small_jump_variance(1.0)

    def classify(self) -> ClassificationFlags:
        nu = self.levy_measure
        mean = self.mean()

        pure_jump = self.gaussian_coef == 0.0 and nu.is_finite_activity \
            and nu.rate_above(0.0) > 0.0
        is_cp = pure_jump and self.drift == 0.0

        if self.gaussian_coef > 0.0 or nu.charges(-1) or not nu.finite_variation:
            is_sub = False
        else:
            is_sub = self.natural_drift() >= 0.0

        is_sn = not nu.charges(1)
        return ClassificationFlags(is_cp, is_sub, is_sn, mean)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {"drift": self.drift, "gaussian": self.gaussian_coef,
                "levy_measure": self.levy_measure.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def digest(self) -> str:
        """Short stable identifier of the triplet value."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    @classmethod
    def from_dict(cls, d: dict) -> "LevyTriplet":
        """The triplet d describes; its own problems and the measure's are raised together."""
        return build(cls, json_object(d, "triplet"), {"levy_measure": measure_from_dict})
