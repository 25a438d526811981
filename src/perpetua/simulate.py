"""Path simulation on a regular grid with exact jumps above a cutoff.

Increments follow the usual splitting: linear drift, Brownian part, all jumps
with magnitude above the cutoff eps placed at exact (uniform-in-step) times,
and a mean-zero Gaussian surrogate for the discarded small jumps whose variance
matches int_{|x|<=eps} x^2 nu(dx).  The drift is reduced by the measure's
compensator(eps) = int_{eps<|x|<=1} x nu(dx): the characteristic exponent
compensates jumps in (eps, 1], so their raw simulation must subtract that
mean.  Finite-activity families are not compensated (their compensator is 0)
and keep the drift as given.  The cutoff is always the measure's
default_cutoff(dt): 0 for finite activity, so every jump is drawn exactly;
for infinite activity it is chosen from dt so that about 0.5 jumps per step
are resolved (StepEngine refuses more).

The deterministic part of a path is drift_eff * times computed by
multiplication, not by accumulation, so a pure drift path reproduces the
time grid exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooSmall, PreconditionViolation, StepTooCoarse
from .rng import stream
from .testfunctions import TestFunction
from .triplet import LevyTriplet

__all__ = [
    "PathSample",
    "LocalTimeField",
    "StepEngine",
    "sample_path",
    "perpetual_estimate",
    "local_time_field",
]


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory on a regular time grid."""

    times: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


class StepEngine:
    """Per-step increment generator shared by path and passage samplers.

    Owns the simulation constants of one (triplet, dt) pair: the jump cutoff
    (always the measure's default_cutoff(dt): 0 for finite activity, whose
    jumps are all drawn exactly), effective drift, per-step Gaussian
    deviation, and the Poisson rate of resolved jumps.  Draw order per
    request is fixed (normals, counts, jump sizes, jump offsets) so results
    depend only on the generator state.
    """

    def __init__(self, triplet: LevyTriplet, dt: float):
        if not dt > 0.0:
            raise PreconditionViolation("DT_RANGE", "need dt > 0")
        nu = triplet.levy_measure
        cutoff = nu.default_cutoff(dt)

        self.triplet = triplet
        self.dt = dt
        self.cutoff = cutoff
        self.rate = nu.rate_above(cutoff)
        if self.rate * dt > 0.5 * (1.0 + 1e-9):
            raise StepTooCoarse(
                f"{self.rate * dt:.3g} expected jumps per step; need rate*dt <= 0.5"
            )
        self.drift_eff = triplet.drift - nu.compensator(cutoff)
        self.sd_step = math.sqrt((triplet.gaussian_coef + nu.small_jump_variance(cutoff)) * dt)

    def draw(self, rng: np.random.Generator, n: int):
        """n steps of randomness: (continuous part, step jump sums, jump detail).

        jump detail is (times within the n-step window in units of dt, sizes),
        time-sorted; the continuous part excludes drift.
        """
        nu = self.triplet.levy_measure
        cont = self.sd_step * rng.standard_normal(n) if self.sd_step > 0.0 else np.zeros(n)
        if self.rate <= 0.0:
            return cont, np.zeros(n), (np.empty(0), np.empty(0))
        counts = rng.poisson(self.rate * self.dt, n)
        total = int(counts.sum())
        sizes = np.asarray(nu.sample_jumps_above(rng, self.cutoff, total), dtype=float)
        offsets = rng.random(total)
        step_of = np.repeat(np.arange(n), counts)
        jump_pos = step_of + offsets  # in units of dt
        order = np.argsort(jump_pos, kind="stable")
        per_step = np.zeros(n)
        np.add.at(per_step, step_of, sizes)
        return cont, per_step, (jump_pos[order], sizes[order])


def sample_path(
    triplet: LevyTriplet,
    horizon: float,
    dt: float,
    x0: float = 0.0,
    seed: int = 0,
) -> PathSample:
    """Simulate one path on [0, horizon] with step dt, started from x0.

    Jumps above the measure's default cutoff for dt are resolved (all of
    them for finite activity).  Deterministic in (seed, horizon, dt): the
    same arguments always produce the identical PathSample.
    """
    if not horizon > 0.0:
        raise PreconditionViolation("HORIZON_RANGE", "need horizon > 0")
    if not dt <= horizon / 10.0:
        raise PreconditionViolation("DT_RANGE", "need dt <= horizon/10")
    engine = StepEngine(triplet, dt)
    n = int(round(horizon / dt))
    times = np.arange(n + 1) * dt

    rng = stream(seed)
    cont, per_step, _ = engine.draw(rng, n)
    values = x0 + engine.drift_eff * times
    values = values + np.concatenate(([0.0], np.cumsum(cont + per_step)))
    return PathSample(times=times, values=values)


def perpetual_estimate(path: PathSample, f: TestFunction, checkpoints) -> np.ndarray:
    """Trapezoid partial integrals of f along the path at each checkpoint."""
    checkpoints = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    if checkpoints.size and (checkpoints.min() < 0.0 or checkpoints.max() > path.horizon * (1 + 1e-12)):
        raise PreconditionViolation("CHECKPOINT_RANGE", "checkpoints must lie in [0, horizon]")
    fv = np.asarray(f(path.values), dtype=float)
    steps = np.diff(path.times)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (fv[1:] + fv[:-1]) * steps)))
    return np.interp(checkpoints, path.times, cum)


@dataclass(frozen=True)
class LocalTimeField:
    """Kernel estimate of local times L_t(x) on a level grid."""

    x_grid: np.ndarray
    bandwidth: float
    values: np.ndarray
    t: float
    t_covered: float  # time the path spent inside [x_grid[0], x_grid[-1]]


def _ramp_cdf(q: np.ndarray, lo: np.ndarray, hi: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """F(q) = sum_i dt_i * clip((q - lo_i) / (hi_i - lo_i), 0, 1) at sorted queries q.

    A flat segment (lo == hi) counts wholly at every q >= its value.
    Segments wholly below a query are binned by the first query at or above
    their top and summed by one cumsum over the queries.  Each (segment,
    query) pair with lo < q < hi adds its exact ramp value; the pairs are
    processed in blocks of at most 4,000,000 so that paths with large jumps
    keep memory bounded.  Every term is non-negative, so nothing cancels.
    """
    full_from = np.searchsorted(q, hi, side="left")
    cdf = np.cumsum(np.bincount(full_from, weights=dt, minlength=q.size + 1)[: q.size])
    first = np.searchsorted(q, lo, side="right")
    count = np.maximum(full_from - first, 0)  # pairs per segment; 0 for flat ones
    ends = np.cumsum(count)
    start, done = 0, 0
    while done < ends[-1]:
        stop = max(int(np.searchsorted(ends, done + 4_000_000, side="right")), start + 1)
        seg = np.repeat(np.arange(start, stop), count[start:stop])
        j = first[seg] + np.arange(done, ends[stop - 1]) - (ends[seg] - count[seg])
        ramp = dt[seg] * (q[j] - lo[seg]) / (hi[seg] - lo[seg])
        cdf += np.bincount(j, weights=ramp, minlength=q.size)
        start, done = stop, int(ends[stop - 1])
    return cdf


def local_time_field(path: PathSample, x_grid, bandwidth: float) -> LocalTimeField:
    """Occupation density estimate: time within bandwidth of each level / 2eps.

    The path skeleton is treated as linear between grid times, so each step
    spreads its dt uniformly over the levels the segment sweeps.  The time
    spent at or below y is then the piecewise-linear ramp CDF
    F(y) = sum_i dt_i * clip((y - lo_i) / span_i, 0, 1), and
    L(x) = (F(x + b) - F(x - b)) / 2b exactly; t_covered is F at the two
    ends of the grid.  All window edges are evaluated in one sorted query
    array, so a window the path never enters gets exactly 0.  Cost is
    O(n log G + G + crossings) for n segments, G levels and the number of
    (segment, window edge) pairs a segment strictly straddles.

    A flat segment (a step with no movement) sits at one value v and counts
    wholly in every closed window: v <= x + b at the upper end and v >= x - b
    at the lower end; likewise for [x_grid[0], x_grid[-1]] in t_covered.

    Bandwidth must stay above a quarter of the typical diffusive step
    (estimated robustly from the increments; jump steps do not inflate the
    floor) or window counts are noise.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if x_grid.size < 2 or np.any(np.diff(x_grid) <= 0.0):
        raise PreconditionViolation("GRID_ORDER", "x_grid must be strictly increasing")
    if not bandwidth > 0.0:
        raise PreconditionViolation("BANDWIDTH_RANGE", "need bandwidth > 0")

    diffs = np.diff(path.values)
    med = np.median(diffs)
    wiggle = 1.4826 * np.median(np.abs(diffs - med))
    if bandwidth < wiggle / 4.0:
        raise BandwidthTooSmall(
            f"bandwidth {bandwidth:g} below floor {wiggle / 4.0:g} for this step size"
        )

    dt = np.diff(path.times)
    lo = np.minimum(path.values[:-1], path.values[1:])
    hi = np.maximum(path.values[:-1], path.values[1:])

    # lower edges (the G windows', then the grid's), upper edges likewise;
    # the stable sort merges these four sorted runs in linear time
    size = x_grid.size + 1
    edges = np.concatenate((x_grid - bandwidth, x_grid[:1], x_grid + bandwidth, x_grid[-1:]))
    order = np.argsort(edges, kind="stable")
    cdf = np.empty(edges.size)
    cdf[order] = _ramp_cdf(edges[order], lo, hi, dt)

    # F counts a flat segment at q >= v; the lower edge of a closed window
    # wants q > v, so flats sitting exactly on a lower edge are taken back out
    flat = lo == hi
    v, w = lo[flat], dt[flat]
    lower = cdf[:size]
    lower[:-1] -= _time_at(x_grid - bandwidth, v, w)
    lower[-1] -= float(np.sum(w[v == x_grid[0]]))
    upper = cdf[size:]

    return LocalTimeField(
        x_grid=x_grid,
        bandwidth=bandwidth,
        values=(upper[:-1] - lower[:-1]) / (2.0 * bandwidth),
        t=path.horizon,
        t_covered=float(upper[-1] - lower[-1]),
    )


def _time_at(points: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per sorted point, the total weight w of the values v equal to it."""
    k = np.minimum(np.searchsorted(points, v), points.size - 1)
    hit = points[k] == v
    return np.bincount(k[hit], weights=w[hit], minlength=points.size)
