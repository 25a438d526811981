"""First passage over a level, overshoots, and the stationary restart law.

Every finite-activity process (drift, Gaussian part and compound Poisson
jumps) is resolved exactly, event by event, on the batches of
simulate.event_batch that exact paths walk too.  Each gap between jumps is
one piece: a line of slope drift without a Gaussian part, a Brownian bridge
between its two end values with one (its maximum decides whether it
crosses, Metwally & Atiya 2002).  The path first crosses the level either
inside a piece (it creeps: overshoot zero) or at a jump (overshoot =
post-jump value minus level).  No time grid is involved and dt is unused.

Infinite activity is walked on the knots of simulate.grid_knots, the grid
path sample_path returns: a knot every dt and each resolved jump twice at
its exact time, linear in between.  The first knot at or above the level
ends the passage: reached along a piece of positive duration, the path
crept over (overshoot zero); reached by a piece of zero duration, a jump
took it over.  Excursions between knots are not bridged; that bias
vanishes with dt.  A grid overshoot ensemble scans its paths, one stream
each, through rng.ensemble; an exact one draws from one stream, inline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReachedError, PreconditionViolation
from .rng import derive_seed, ensemble, stream
from .simulate import BATCH_EVENTS, StepEngine, batch_size, event_batch, grid_knots, path_pieces, step_engine
from .stats import ks_two_sample
from .triplet import LevyTriplet

__all__ = [
    "FirstPassageSample",
    "EmpiricalDistribution",
    "first_passage",
    "overshoot_ensemble",
    "stationary_overshoot",
    "passage_cap_refusal",
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
    events_drawn: int | None = None  # exact ensembles (finite activity) only; None on the grid

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

    Finite activity is resolved exactly (dt unused); infinite activity is
    walked on the knots of its dt grid path, with the jumps above the
    measure's default cutoff for dt at their exact times: the one-path case
    of _event_passages, or _scan_for_crossing.  Not reached by time cap
    (default 10 level / mu) gives passage_time None.
    """
    cap = _passage_cap(triplet, level, cap)
    if x0 >= level:
        return FirstPassageSample(level=level, passage_time=0.0, overshoot=x0 - level)
    if triplet.levy_measure.is_finite_activity:
        (time,), (overshoot,), _ = _event_passages(triplet, level, np.array([x0]), cap, stream(seed))
    else:
        time, overshoot = _scan_for_crossing(step_engine(triplet, dt), stream(seed), x0, level, cap)
    if math.isnan(time):
        return FirstPassageSample(level, None, None)
    return FirstPassageSample(level, float(time), float(overshoot))


def _event_passages(triplet: LevyTriplet, level: float, x0: np.ndarray, cap: float, rng):
    """Exact first passages of finite-activity paths, one per start x0 < level.

    Returns (passage times, overshoots, events drawn); NaN marks a path that
    has not crossed by time cap.  Piece j (the gap before jump j) comes
    before jump j.  The first piece that crosses means the path crept over
    inside it, with overshoot 0: without a Gaussian part the piece is a
    line, which crosses when its end value is at or above the level, at
    T_(j-1) + (level - v_(j-1)) / drift; with one it is a Brownian bridge
    (_bridge_crosses, _bridge_hit_times).  Otherwise the first jump whose
    post-jump value is at or above the level is a jump crossing at T_j with
    overshoot post - level.

    All draws come from rng, in this order.  The paths run in blocks of rows
    so that one batch holds at most BATCH_EVENTS events, block after block;
    the live paths of a block draw event_batch after event_batch of
    m = batch_size(rate, expected time to passage) events.  With a Gaussian
    part each batch then draws a (paths, m) array of standard normals (the
    Gaussian move over each gap), then one of uniforms (the bridge tests),
    then the crossing times of the paths that crept, in path order.  With no
    jumps the one piece is [0, cap]: the closed form (level - x0) / drift
    without a Gaussian part; with one, a normal per path, then a uniform per
    path, then the crossing times.
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.full(x0.size, np.nan)
    overshoots = np.full(x0.size, np.nan)
    drift = triplet.drift
    var = triplet.gaussian_coef
    rate = triplet.levy_measure.rate_above(0.0)
    mu = triplet.mean().as_float()
    if rate == 0.0:
        if var > 0.0:
            end = x0 + drift * cap + math.sqrt(var * cap) * rng.standard_normal(x0.size)
            hit = _bridge_crosses(x0, end, cap, level, var, rng.random(x0.size))
            times[hit] = _bridge_hit_times(rng, x0[hit], end[hit], cap, level, var)
            overshoots[hit] = 0.0
        elif drift > 0.0:
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
            at, pre, post = event_batch(triplet, rng, t, v, m)
            drawn += at.size
            if var > 0.0:
                gaps = np.diff(at, axis=1, prepend=t[:, None])
                moves = np.sqrt(var * gaps) * rng.standard_normal(at.shape)
                np.cumsum(moves, axis=1, out=moves)
                pre += moves
                post += moves
                starts = np.column_stack((v, post[:, :-1]))
                crept = _bridge_crosses(starts, pre, gaps, level, var, rng.random(at.shape))
            else:
                # with drift <= 0 no path creeps (see event_batch)
                crept = pre >= level
            crossed = crept | (post >= level)
            hit = crossed.any(axis=1)

            r = np.nonzero(hit)[0]
            j = crossed[r].argmax(axis=1)
            when = at[r, j]
            over = post[r, j] - level
            creep = crept[r, j]
            rc, jc = r[creep], j[creep]
            start_t = np.where(jc > 0, at[rc, jc - 1], t[rc])
            start_v = np.where(jc > 0, post[rc, jc - 1], v[rc])
            if var > 0.0:
                when[creep] = start_t + _bridge_hit_times(
                    rng, start_v, pre[rc, jc], gaps[rc, jc], level, var)
            else:
                when[creep] = start_t + (level - start_v) / drift
            over[creep] = 0.0
            reached = when <= cap
            times[live[r[reached]]] = when[reached]
            overshoots[live[r[reached]]] = over[reached]

            going = ~hit & (at[:, -1] < cap)
            live, t, v = live[going], at[going, -1], post[going, -1]
    return times, overshoots, drawn


def _bridge_crosses(a, b, tau, level: float, var: float, u) -> np.ndarray:
    """Whether Brownian bridges from a < level to b over time tau reach the level.

    Certainly when b >= level; otherwise with probability
    exp(-2 (level - a)(level - b) / (var tau)), the law of the bridge's
    maximum, tested against the uniforms u.  var is the Gaussian variance
    per unit time.  Where a >= level the answer means nothing, and a piece
    of zero duration never crosses.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (b >= level) | (u < np.exp(-2.0 * (level - a) * (level - b) / (var * tau)))


def _bridge_hit_times(rng, a, b, tau, level: float, var: float) -> np.ndarray:
    """When each bridge from a < level to b over time tau first reaches the level, given it does.

    The first-passage density of Brownian motion at distance level - a,
    times the density of the rest of the bridge to b, gives the time
    tau Y / (1 + Y) with Y inverse Gaussian, of mean (level - a) / |level - b|
    and shape (level - a)^2 / (var tau), whether b lies below or above the
    level.  Y is drawn as in Michael, Schucany & Haas (1976), a normal for
    every bridge and then a uniform for every bridge, but written in 1/Y so
    that nothing cancels: numpy's wald loses every digit as |level - b|
    goes to 0 (wald(1e300, 1) returns 0, a crossing at the piece's start).
    """
    alpha = level - a
    inv_mean = np.abs(level - b) / alpha
    w = rng.standard_normal(alpha.size) ** 2 * var * tau / (alpha * alpha)  # chi2(1) / shape
    root = inv_mean + 0.5 * w + np.sqrt(w * inv_mean + 0.25 * w * w)  # 1 / the smaller root
    keep = rng.random(alpha.size) * (root + inv_mean) <= root  # P = mean / (mean + root)
    inv_y = np.where(keep, root, inv_mean * inv_mean / root)
    return tau / (1.0 + inv_y)


def passage_cap_refusal(triplet: LevyTriplet, level: float,
                        cap: float | None = None) -> tuple[str, str] | None:
    """(reason, problem) unless level > 0 and the cap (default 10 level / mu) is finite, else None."""
    if not level > 0.0:
        return "LEVEL_RANGE", "need level > 0"
    if cap is None:
        cap = 10.0 * level / triplet.positive_mean("passage cap")
    return None if math.isfinite(cap) else ("CAP_RANGE", f"need a finite cap, got {cap}")


def _passage_cap(triplet: LevyTriplet, level: float, cap: float | None = None) -> float:
    """The cap (default 10 level / mu) of a passage over level: not reached by then."""
    over = passage_cap_refusal(triplet, level, cap)
    if over is not None:
        raise PreconditionViolation(*over)
    return 10.0 * level / triplet.positive_mean("passage cap") if cap is None else cap


def _scan_for_crossing(engine: StepEngine, rng, x0: float, level: float, cap: float):
    """(time, overshoot) at the first grid_knots knot at or above the level; NaNs if not by time cap.

    Reached along a piece of positive duration, the path crept: the time is
    interpolated and the overshoot is 0.  Chunks hold the expected steps to
    passage, padded, when the mean is finite and positive, else the cap,
    each at most BATCH_EVENTS steps.
    """
    dt = engine.dt
    n_total = int(math.ceil(cap / dt))
    mean = engine.triplet.mean()
    chunk = BATCH_EVENTS
    if mean.is_finite_positive:
        chunk = int(min(chunk, max(256, 1.25 * (level - x0) / (mean.as_float() * dt))))
    x = x0
    done = 0
    while done < n_total:
        m = min(chunk, n_total - done)
        t, v = grid_knots(engine, rng, m, x)  # times from the chunk's start
        i = int(np.argmax(v >= level))
        if v[i] >= level:  # i > 0: each chunk starts below the level
            if t[i] == t[i - 1]:  # a jump took it over
                return done * dt + float(t[i]), float(v[i]) - level
            crept = (level - v[i - 1]) / (v[i] - v[i - 1])
            return done * dt + float(t[i - 1] + crept * (t[i] - t[i - 1])), 0.0
        x = float(v[-1])
        done += m
    return math.nan, math.nan


def overshoot_ensemble(
    triplet: LevyTriplet,
    level: float,
    n: int,
    seed: int = 0,
    dt: float = 1e-2,
    threads: int = 1,
) -> EmpiricalDistribution:
    """n independent overshoots at the level; error if any path stalls.

    Finite activity runs all n paths exactly, inline, from the one stream
    derive_seed(seed, "overshoot") in the order _event_passages documents,
    and reports the events drawn (0 without jumps); dt and threads are unused.
    Infinite activity scans path i on the dt grid (_scan_for_crossing) from
    stream derive_seed(seed, "overshoot", i), through rng.ensemble.  A path
    stalls when it has not crossed by time 10 level / mu.
    """
    if n < 1:
        raise PreconditionViolation("SAMPLE_SIZE", f"need n >= 1 paths, got {n}")
    cap = _passage_cap(triplet, level)
    if triplet.levy_measure.is_finite_activity:
        rng = stream(derive_seed(seed, "overshoot"))
        times, out, drawn = _event_passages(triplet, level, np.zeros(n), cap, rng)
    else:
        engine, drawn = step_engine(triplet, dt), None
        times, out = ensemble(lambda seeds: np.array([_scan_for_crossing(engine, stream(s), 0.0, level, cap)
                                                      for s in seeds]),
                              seed, "overshoot", n, path_pieces(triplet, cap, dt), threads).T
    stalled = np.nonzero(np.isnan(times))[0]
    if stalled.size:
        raise NotReachedError(f"path {stalled[0]} failed to reach {level:g} within cap {cap:g}")
    return EmpiricalDistribution(samples=np.sort(out), n=n, events_drawn=drawn)


def stationary_overshoot(
    triplet: LevyTriplet,
    n: int,
    seed: int = 0,
    level: float | None = None,
    dt: float = 1e-2,
    threads: int = 1,
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
    rho, half = (overshoot_ensemble(triplet, z, n, seed=derive_seed(seed, tag), dt=dt, threads=threads)
                 for z, tag in ((level, "rho"), (level / 2.0, "rho-half")))
    return rho, ks_two_sample(rho.samples, half.samples), level
