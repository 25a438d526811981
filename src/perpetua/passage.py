"""First passage over a level, overshoots, and the stationary restart law.

Drift plus compound Poisson (no Gaussian part, finite activity) is resolved
exactly, event by event, on the batches of simulate.event_batch that exact
paths walk too: the path is the line v + drift * t between exponential jump
times, so it first crosses the level either on the linear piece before a
jump (it creeps: overshoot zero) or at a jump (overshoot = post-jump value
minus level).  No time grid is involved and dt is unused.

Every other process is walked on the simulated dt skeleton: between jumps
the path moves linearly (drift plus the step's Gaussian increment spread
over the step), and every resolved jump is applied at its exact time, so a
crossing is attributed to a continuous piece or to one specific jump in the
same way.  Diffusion excursions between grid points are not bridged; that
bias vanishes with dt and oracles use dt/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReachedError, PreconditionViolation
from .rng import derive_seed, stream
from .simulate import BATCH_EVENTS, StepEngine, batch_size, event_batch, event_driven
from .triplet import LevyTriplet

__all__ = [
    "FirstPassageSample",
    "EmpiricalDistribution",
    "first_passage",
    "overshoot_ensemble",
    "stationary_overshoot",
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
    events_drawn: int | None = None  # exact event ensembles only; None on the grid

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
) -> FirstPassageSample:
    """Time and overshoot of the first crossing of the level from below.

    Drift plus compound Poisson is resolved exactly (dt unused); other
    processes are scanned on the dt grid, with jumps above the measure's
    default cutoff for dt resolved.  Not reached by time cap
    (default 10 level / mu) gives passage_time None.
    """
    if not level > 0.0:
        raise PreconditionViolation("LEVEL_RANGE", "need level > 0")
    if cap is None:
        cap = _default_cap(triplet, level)
    if not math.isfinite(cap):
        raise PreconditionViolation("CAP_RANGE", f"need a finite cap, got {cap}")
    if x0 >= level:
        return FirstPassageSample(level=level, passage_time=0.0, overshoot=x0 - level)

    if event_driven(triplet):
        times, overshoots, _ = _event_passages(triplet, level, np.array([x0]), cap, stream(seed))
        if math.isnan(times[0]):
            return FirstPassageSample(level=level, passage_time=None, overshoot=None)
        return FirstPassageSample(
            level=level, passage_time=float(times[0]), overshoot=float(overshoots[0])
        )

    engine = StepEngine(triplet, dt)
    rng = stream(seed)
    n_total = int(math.ceil(cap / dt))
    crossed = _scan_for_crossing(engine, rng, x0, level, n_total)
    if crossed is None:
        return FirstPassageSample(level=level, passage_time=None, overshoot=None)
    t_cross, value = crossed
    return FirstPassageSample(level=level, passage_time=t_cross, overshoot=value - level)


def _event_passages(triplet: LevyTriplet, level: float, x0: np.ndarray, cap: float, rng):
    """Exact first passages of drift + compound Poisson paths, one per start x0 < level.

    Returns (passage times, overshoots, events drawn); NaN marks a path that
    has not crossed by time cap.  The live paths draw event_batch after
    event_batch of m = batch_size(rate, expected time to passage) events.
    The first event whose pre-jump value is at or above the level means the
    path crept over on the linear piece before it, at
    T_(j-1) + (level - v_(j-1)) / drift with overshoot 0; otherwise the
    first event whose post-jump value is at or above the level is a jump
    crossing at T_j with overshoot post - level.  Paths run in
    blocks of rows so that one batch holds at most BATCH_EVENTS events, and
    all draws come from rng in block order.  With no jumps the passage time
    is the closed form (level - x0) / drift.
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.full(x0.size, np.nan)
    overshoots = np.full(x0.size, np.nan)
    drift = triplet.drift
    rate = triplet.levy_measure.rate_above(0.0)
    mu = triplet.mean().as_float()
    if rate == 0.0:
        if drift > 0.0:
            t = (level - x0) / drift
            reached = t <= cap
            times[reached] = t[reached]
            overshoots[reached] = 0.0
        return times, overshoots, 0

    expected_time = float(np.max(level - x0)) / mu if mu > 0.0 else cap
    m = batch_size(rate, expected_time)
    rows = max(1, BATCH_EVENTS // m)
    drawn = 0
    for first in range(0, x0.size, rows):
        live = np.arange(first, min(first + rows, x0.size))
        t = np.zeros(live.size)
        v = x0[live]
        while live.size:
            # with drift <= 0 no path creeps (see event_batch)
            at, pre, post = event_batch(triplet, rng, t, v, m)
            drawn += at.size
            crossed = (pre >= level) | (post >= level)
            hit = crossed.any(axis=1)

            r = np.nonzero(hit)[0]
            j = crossed[r].argmax(axis=1)
            when = at[r, j]
            over = post[r, j] - level
            creep = pre[r, j] >= level
            rc, jc = r[creep], j[creep]
            start_t = np.where(jc > 0, at[rc, jc - 1], t[rc])
            start_v = np.where(jc > 0, post[rc, jc - 1], v[rc])
            when[creep] = start_t + (level - start_v) / drift
            over[creep] = 0.0
            reached = when <= cap
            times[live[r[reached]]] = when[reached]
            overshoots[live[r[reached]]] = over[reached]

            going = ~hit & (at[:, -1] < cap)
            live, t, v = live[going], at[going, -1], post[going, -1]
    return times, overshoots, drawn


def _default_cap(triplet: LevyTriplet, level: float) -> float:
    """10 level / mu: a passage not seen by then counts as not reached."""
    return 10.0 * level / triplet.positive_mean("passage cap")


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
    """n independent overshoots at the level; error if any path stalls.

    Drift plus compound Poisson runs all n paths exactly, from the one
    stream derive_seed(seed, "overshoot"), and reports the events drawn;
    dt is unused.  Other processes scan path i on the dt grid from stream
    derive_seed(seed, "overshoot", i).  A path stalls when it has not
    crossed by time 10 level / mu.
    """
    cap = _default_cap(triplet, level)
    if not level > 0.0:
        raise PreconditionViolation("LEVEL_RANGE", "need level > 0")
    if event_driven(triplet):
        rng = stream(derive_seed(seed, "overshoot"))
        times, out, drawn = _event_passages(triplet, level, np.zeros(n), cap, rng)
        stalled = np.nonzero(np.isnan(times))[0]
        if stalled.size:
            raise NotReachedError(
                f"path {stalled[0]} failed to reach {level:g} within cap {cap:g}"
            )
        out.sort()
        return EmpiricalDistribution(samples=out, n=n, events_drawn=drawn)
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
    mu = triplet.positive_mean("stationary overshoot")
    if level is None:
        sigma_eff = math.sqrt(triplet.effective_volatility_sq())
        level = max(100.0 * sigma_eff / mu, 1.0)
    rho = overshoot_ensemble(triplet, level, n, seed=derive_seed(seed, "rho"), dt=dt)
    half = overshoot_ensemble(triplet, level / 2.0, n, seed=derive_seed(seed, "rho-half"), dt=dt)
    from .stats import ks_two_sample

    return rho, ks_two_sample(rho.samples, half.samples), level
