"""First passage over a level, overshoots, and the stationary restart law.

Passage is detected on the simulated skeleton: between jumps the path moves
linearly (drift plus the step's Gaussian increment spread over the step), and
every resolved jump is applied at its exact time, so a crossing is attributed
either to a continuous piece (overshoot zero) or to one specific jump
(overshoot = post-jump value minus level).  Diffusion excursions between grid
points are not bridged; that bias vanishes with dt and oracles use dt/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReachedError, PreconditionViolation
from .rng import derive_seed, stream
from .simulate import PathSample, StepEngine, sample_path
from .triplet import LevyTriplet

__all__ = [
    "FirstPassageSample",
    "EmpiricalDistribution",
    "first_passage",
    "overshoot_ensemble",
    "stationary_overshoot",
    "RestartedPathSource",
]


@dataclass(frozen=True)
class FirstPassageSample:
    level: float
    passage_time: float | None  # None encodes NOT_REACHED
    overshoot: float | None

    @property
    def reached(self) -> bool:
        return self.passage_time is not None


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: np.ndarray  # sorted ascending
    n: int

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.samples, x, side="right") / self.n

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.samples[rng.integers(0, self.n, size)]

    def mean(self) -> float:
        return float(np.mean(self.samples))


def first_passage(
    triplet: LevyTriplet,
    level: float,
    seed: int = 0,
    cap: float | None = None,
    dt: float = 1e-2,
    x0: float = 0.0,
    cutoff: float | None = None,
) -> FirstPassageSample:
    """Time and overshoot of the first crossing of the level from below."""
    if not level > 0.0:
        raise PreconditionViolation("LEVEL_RANGE", "need level > 0")
    if cap is None:
        cap = _default_cap(triplet, level)
    if x0 >= level:
        return FirstPassageSample(level=level, passage_time=0.0, overshoot=x0 - level)

    engine = StepEngine(triplet, dt, cutoff)
    rng = stream(seed)
    n_total = int(math.ceil(cap / dt))
    crossed = _scan_for_crossing(engine, rng, x0, level, n_total)
    if crossed is None:
        return FirstPassageSample(level=level, passage_time=None, overshoot=None)
    t_cross, value = crossed
    return FirstPassageSample(level=level, passage_time=t_cross, overshoot=value - level)


def _default_cap(triplet: LevyTriplet, level: float) -> float:
    mean = triplet.mean()
    if not mean.is_finite_positive:
        raise PreconditionViolation(
            "MEAN_RANGE", "passage cap needs a finite positive mean (or pass cap explicitly)"
        )
    return 10.0 * level / mean.as_float()


def _scan_for_crossing(engine: StepEngine, rng, x0: float, level: float, n_total: int):
    """Walk chunks of steps; resolve the first candidate step event-by-event.

    Returns (time, value at crossing) or None if n_total steps pass without
    one.  The candidate filter uses the per-step upper bound
    start + max(0, continuous increment) + (positive jump mass), which
    dominates the in-step maximum, so no crossing can slip through.
    """
    dt = engine.dt
    x = x0
    done = 0
    # expected steps to passage, padded; keeps most paths to one chunk
    drift_scale = max(engine.drift_eff, 1e-3)
    chunk = int(min(65536, max(256, 1.25 * (level - x0) / (drift_scale * dt))))
    while done < n_total:
        m = min(chunk, n_total - done)
        cont, per_step, (jump_pos, sizes) = engine.draw(rng, m)
        lin = engine.drift_eff * dt + cont
        ends = x + np.cumsum(lin + per_step)
        starts = np.concatenate(([x], ends[:-1]))

        pos_jump = np.zeros(m)
        if sizes.size:
            np.add.at(pos_jump, jump_pos.astype(int), np.clip(sizes, 0.0, None))
        bound = starts + np.maximum(lin, 0.0) + pos_jump
        candidates = np.nonzero(bound >= level)[0]
        for k in candidates:
            hit = _resolve_step(
                float(starts[k]), float(lin[k]), jump_pos, sizes, k, level
            )
            if hit is not None:
                frac, value = hit
                return (done + k + frac) * dt, value
        x = float(ends[-1])
        done += m
    return None


def _resolve_step(start: float, lin: float, jump_pos, sizes, k: int, level: float):
    """Exact event order inside step k; returns (fraction of step, value) or None."""
    in_step = (jump_pos >= k) & (jump_pos < k + 1)
    phis = jump_pos[in_step] - k
    jumps = sizes[in_step]

    v = start
    phi_prev = 0.0
    for phi, s in zip(phis, jumps):
        hit = _piece_crossing(v, lin, phi_prev, phi, level)
        if hit is not None:
            return hit
        v = v + lin * (phi - phi_prev)
        phi_prev = phi
        v = v + s
        if v >= level:
            return phi, v
    return _piece_crossing(v, lin, phi_prev, 1.0, level)


def _piece_crossing(v: float, lin: float, phi_from: float, phi_to: float, level: float):
    # linear piece v + lin * (phi - phi_from) on [phi_from, phi_to)
    if lin <= 0.0 or v >= level:
        return None
    end = v + lin * (phi_to - phi_from)
    if end < level:
        return None
    return phi_from + (level - v) / lin, level  # continuous crossing creeps


def overshoot_ensemble(
    triplet: LevyTriplet,
    level: float,
    n: int,
    seed: int = 0,
    dt: float = 1e-2,
) -> EmpiricalDistribution:
    """n independent overshoots at the level; error if any path stalls."""
    mean = triplet.mean()
    if not mean.is_finite_positive:
        raise PreconditionViolation("MEAN_RANGE", "overshoot ensemble needs mean in (0, inf)")
    cap = 10.0 * level / mean.as_float()
    out = np.empty(n)
    for i in range(n):
        fp = first_passage(triplet, level, seed=derive_seed(seed, "overshoot", i), cap=cap, dt=dt)
        if not fp.reached:
            raise NotReachedError(f"path {i} failed to reach {level:g} within cap {cap:g}")
        out[i] = fp.overshoot
    out.sort()
    return EmpiricalDistribution(samples=out, n=n)


def stationary_overshoot(
    triplet: LevyTriplet,
    n: int,
    seed: int = 0,
    level: float | None = None,
    dt: float = 1e-2,
) -> tuple[EmpiricalDistribution, float, float]:
    """Harvest the stationary overshoot proxy at a high level.

    Default level 100 * sigma_eff / mu (the overshoot law is an asymptotic
    limit; this is an engineering height, reported back to the caller).
    Returns (distribution, self-check KS vs the ensemble at half the level,
    level used); the caller decides whether the self-check is close enough.
    """
    mean = triplet.mean()
    if not mean.is_finite_positive:
        raise PreconditionViolation("MEAN_RANGE", "stationary overshoot needs mean in (0, inf)")
    mu = mean.as_float()
    if level is None:
        sigma_eff = math.sqrt(triplet.effective_volatility_sq())
        level = max(100.0 * sigma_eff / mu, 1.0)
    rho = overshoot_ensemble(triplet, level, n, seed=derive_seed(seed, "rho"), dt=dt)
    half = overshoot_ensemble(triplet, level / 2.0, n, seed=derive_seed(seed, "rho-half"), dt=dt)
    from .stats import ks_two_sample

    return rho, ks_two_sample(rho.samples, half.samples), level


class RestartedPathSource:
    """Paths of the process observed from a level crossing under a rho start.

    Each path draws a start point from rho, runs to first passage of the
    level, and restarts from (value at passage - level); by the strong Markov
    property simulating the continuation with fresh randomness is equal in
    law to the original path shifted by the passage time and the level.
    """

    def __init__(
        self,
        triplet: LevyTriplet,
        rho: EmpiricalDistribution,
        level: float,
        seed: int = 0,
        dt: float = 1e-2,
        cap: float | None = None,
    ):
        if not level > 0.0:
            raise PreconditionViolation("LEVEL_RANGE", "need level > 0")
        self.triplet = triplet
        self.rho = rho
        self.level = level
        self.seed = seed
        self.dt = dt
        self.cap = cap if cap is not None else _default_cap(triplet, level) + 10.0 * self.dt

    def path(self, index: int, horizon: float, dt: float | None = None) -> PathSample:
        dt = self.dt if dt is None else dt
        base = derive_seed(self.seed, "restart", index)
        rng = stream(base)
        x0 = float(self.rho.draw(rng, 1)[0])
        fp = first_passage(
            self.triplet, self.level, seed=derive_seed(base, "approach"),
            cap=self.cap, dt=dt, x0=x0,
        )
        if not fp.reached:
            raise NotReachedError(f"restart path {index} never reached {self.level:g}")
        return sample_path(
            self.triplet, horizon, dt, x0=fp.overshoot, seed=derive_seed(base, "continuation")
        )

