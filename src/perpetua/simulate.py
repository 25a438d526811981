"""Path simulation: exact event paths for drift plus finite activity, a grid otherwise.

Drift plus finite activity with no Gaussian part (event_driven: drift plus
compound Poisson, or pure drift) is simulated exactly: the path is the line
x + drift * t between Exp(rate) jump times.  An event path's knots are 0,
each jump time twice (the value before the jump, then after) and the
horizon; a jump is a piece of zero duration.  dt is unused.
event_block draws a block of event paths, each from its own stream, batch
by batch (the gaps, then the jump sizes), and cumulates the rows still short
of the horizon as one array (_event_knots).  event_batch draws a batch of
many paths from one stream for the exact first passage (passage), through
the same cumulation.

sample_paths gives the paths of any triplet as one PathBlock, the rows of
padded knot arrays, and sample_path is its one-row case.  Every path is
read by np.interp, row by row (PathBlock.at, PathSample.at).
perpetual_estimates integrates f along every row of a block in one pass
(exactly, by f.integral_between, on an event block), and
perpetual_estimate is its one-path case.

Every other process runs on a regular grid with exact jumps above a cutoff.
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
are resolved.

grid_knots builds the knots of a grid path for sample_paths and the grid
first passage alike: a knot every dt, plus each jump twice at its exact time
as on an event path.  Their drift part is drift_eff * times computed by
multiplication, not by accumulation, so a pure drift path reproduces the
time grid exactly.  Paths of one (triplet, dt) share one StepEngine
(step_engine), which keeps that line and the time grid per step count.

The local-time fields of paths are computed in localtime, whose
LocalTimeField, local_time_field and local_time_block this module exports
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionViolation
from .localtime import LocalTimeField, local_time_block, local_time_field
from .rng import stream
from .testfunctions import TestFunction
from .triplet import LevyTriplet

__all__ = [
    "PathSample",
    "PathBlock",
    "StepEngine",
    "step_engine",
    "event_driven",
    "batch_size",
    "event_batch",
    "event_block",
    "grid_knots",
    "path_pieces",
    "path_refusal",
    "sample_path",
    "sample_paths",
    "perpetual_estimate",
    "perpetual_estimates",
    # the local-time layer (localtime), exported here as well
    "LocalTimeField",
    "local_time_field",
    "local_time_block",
]

# No path of any check may hold more expected pieces than this (path_refusal,
# path_pieces): a knot every dt on a grid and two per jump, on grid and event
# paths alike.  Paths are held in memory whole, so a tiny dt or a dense jump
# rate is refused rather than ending in a MemoryError halfway through a run:
# config validation holds every check's paths to it, and sample_paths refuses
# a path past it before allocating.  A precondition, not a setting.
MAX_PIECES_PER_PATH = 2**24

# events per batch of the event sampler, at most: the size of the largest
# grid chunk, so both samplers hold similar arrays
BATCH_EVENTS = 65_536

# (triplet, dt) pairs whose StepEngine step_engine keeps, and step counts
# whose time grid and drift line one engine keeps, each of at most
# BATCH_EVENTS steps: at most about 4 MB per engine
_ENGINES = 8
_LINES = 4


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory: values at non-decreasing knot times, linear in between.

    Each jump is two knots at its exact time (the value before the jump,
    then after), a piece of zero duration.  A grid path has a knot every dt
    besides.  An event path (exact) is linear between its knots by
    construction: its other knots are 0 and the horizon.
    """

    times: np.ndarray
    values: np.ndarray
    exact: bool = False  # an event path: integrals along it are exact

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def at(self, t):
        """The path's values at times t in [0, horizon]: after the jump at a jump time."""
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class PathBlock:
    """Paths to one horizon as the rows of (rows, width) knot arrays.

    Row r holds the knots[r] knots of its path, then its last knot repeated
    up to width: pieces of zero duration at the horizon, which add nothing
    to an integral and move no value.  An exact block holds event paths
    (event_block), any other grid paths (sample_paths).
    """

    times: np.ndarray
    values: np.ndarray
    knots: np.ndarray
    exact: bool = False

    @classmethod
    def of(cls, path: PathSample) -> PathBlock:
        return cls(path.times[None], path.values[None], np.array([path.times.size]), path.exact)

    @property
    def rows(self) -> int:
        return self.knots.size

    def path(self, r: int) -> PathSample:
        n = self.knots[r]
        return PathSample(times=self.times[r, :n], values=self.values[r, :n], exact=self.exact)

    def at(self, t) -> np.ndarray:
        """Each row's values at times t by np.interp, row by row: (rows, t.size), or (rows,) at a scalar t."""
        return np.array([np.interp(t, times, values) for times, values in zip(self.times, self.values)])


def event_driven(triplet: LevyTriplet) -> bool:
    """True when paths are exact events: no Gaussian part, finite activity.

    Passage is exact for all finite activity (passage._event_passages).
    """
    return triplet.gaussian_coef == 0.0 and triplet.levy_measure.is_finite_activity


def batch_size(rate: float, duration: float) -> int:
    """Events per batch: about 1.25 times the expected number in duration, within [16, BATCH_EVENTS]."""
    return int(min(BATCH_EVENTS, max(16, math.ceil(1.25 * rate * duration))))


def event_batch(triplet: LevyTriplet, rng, t: np.ndarray, v: np.ndarray, m: int):
    """m more events of each path, from time t and value v: (jump times, pre-, post-jump values).

    Draws the (paths, m) Exp(rate) gaps row by row, then as many jump sizes,
    in that order, all from rng; _event_knots cumulates them.  Needs rate > 0.
    """
    nu = triplet.levy_measure
    elapsed = rng.exponential(1.0 / nu.rate_above(0.0), (t.size, m))
    summed = np.asarray(nu.sample_jumps_above(rng, 0.0, elapsed.size), dtype=float)
    return _event_knots(triplet, elapsed, summed.reshape(elapsed.shape), t, v)


def _event_knots(triplet: LevyTriplet, elapsed: np.ndarray, summed: np.ndarray,
                 t: np.ndarray, v: np.ndarray):
    """(jump times, pre-, post-jump values) of (paths, m) gaps and jump sizes, from time t and value v.

    Each output is (paths, m), cumulated along each row, which is what the
    row gives alone.  Pre- and post-jump values add the jumps so far to the
    same drift line, so with drift <= 0 a pre-jump value never exceeds the
    post-jump value before it, even in floating point.
    """
    # cumulated in place: at most four (paths, m) arrays are held at once
    np.cumsum(elapsed, axis=1, out=elapsed)
    np.cumsum(summed, axis=1, out=summed)
    pre = v[:, None] + triplet.drift * elapsed
    post = pre + summed
    pre[:, 1:] += summed[:, :-1]
    elapsed += t[:, None]
    return elapsed, pre, post


class StepEngine:
    """Per-step increment generator of grid paths (grid_knots).

    Owns the simulation constants of one (triplet, dt) pair: the jump cutoff
    (always the measure's default_cutoff(dt): 0 for finite activity, whose
    jumps are all drawn exactly), effective drift, per-step Gaussian
    deviation, and the Poisson rate of resolved jumps.  Draw order per
    request is fixed (normals, counts, jump sizes, jump offsets) so results
    depend only on the generator state.  Paths share one engine per
    (triplet, dt) through step_engine.
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
        self.drift_eff = triplet.drift - nu.compensator(cutoff)
        self.sd_step = math.sqrt((triplet.gaussian_coef + nu.small_jump_variance(cutoff)) * dt)
        self._lines: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def line(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, drift_eff * times) at the n + 1 knots of n steps, read-only.

        Kept for reuse up to BATCH_EVENTS steps.  Threads may share the
        engine: two that miss at once both build the same line, and either
        copy is exact.
        """
        got = self._lines.get(n)
        if got is None:
            times = np.arange(n + 1, dtype=float) * self.dt
            drift = self.drift_eff * times
            times.flags.writeable = drift.flags.writeable = False
            got = (times, drift)
            if n <= BATCH_EVENTS:
                if len(self._lines) >= _LINES:
                    self._lines.clear()
                self._lines[n] = got
        return got

    def draw(self, rng: np.random.Generator, n: int):
        """n steps of randomness: (continuous part, step jump sums, jump detail).

        jump detail is (times within the n-step window in units of dt, sizes),
        time-sorted, with a jump of step k at a time in [k, k + 1); the
        continuous part excludes drift.  Without resolved jumps (rate 0) the
        step jump sums are None.
        """
        nu = self.triplet.levy_measure
        if self.sd_step > 0.0:
            cont = rng.standard_normal(n)
            cont *= self.sd_step
        else:
            cont = np.zeros(n)
        if self.rate <= 0.0:
            return cont, None, (np.empty(0), np.empty(0))
        counts = rng.poisson(self.rate * self.dt, n)
        total = int(counts.sum())
        sizes = np.asarray(nu.sample_jumps_above(rng, self.cutoff, total), dtype=float)
        offsets = rng.random(total)
        step_of = np.repeat(np.arange(n), counts)
        jump_pos = step_of + offsets  # in units of dt
        # rounding can carry step + offset up to step + 1: keep it in its step
        np.minimum(jump_pos, np.nextafter(step_of + 1.0, 0.0), out=jump_pos)
        order = np.argsort(jump_pos, kind="stable")
        per_step = np.zeros(n)
        np.add.at(per_step, step_of, sizes)
        return cont, per_step, (jump_pos[order], sizes[order])


@lru_cache(maxsize=_ENGINES)
def step_engine(triplet: LevyTriplet, dt: float) -> StepEngine:
    """The StepEngine of (triplet, dt), built once and shared by every path that uses it.

    Its constants depend on (triplet, dt) alone, and some cost incomplete
    gamma functions (TemperedStable).  A refused pair raises every time.
    """
    return StepEngine(triplet, dt)


def sample_path(
    triplet: LevyTriplet,
    horizon: float,
    dt: float,
    x0: float = 0.0,
    seed: int = 0,
) -> PathSample:
    """Simulate one path on [0, horizon], started from x0, from stream(seed): sample_paths' one-row case."""
    return sample_paths(triplet, horizon, dt, [seed], x0).path(0)


def sample_paths(triplet: LevyTriplet, horizon: float, dt: float, seeds, x0=0.0) -> PathBlock:
    """The paths on [0, horizon] of seeds, one row each, from x0 (one start, or one per seed).

    An event_driven triplet gives exact event paths (event_block; dt
    unused); any other grid paths (grid_knots) with step dt, the jumps above
    the measure's default cutoff for dt (all of them for finite activity) at
    their exact times, each row drawn alone and padded with its last knot.
    Row r depends on (seeds[r], its start, horizon, dt) alone; a block of
    one grid row is a view of grid_knots' arrays.  A path that path_refusal
    refuses is refused before anything is allocated.
    """
    over = path_refusal(triplet, horizon, dt)
    if over is not None:
        raise PreconditionViolation(*over)
    if event_driven(triplet):
        return event_block(triplet, horizon, seeds, x0)
    engine, n = step_engine(triplet, dt), int(round(horizon / dt))
    starts = np.broadcast_to(np.asarray(x0, dtype=float), (len(seeds),))
    rows = [grid_knots(engine, stream(s), n, x) for s, x in zip(seeds, starts)]
    knots = np.array([t.size for t, _ in rows])
    if len(rows) == 1:
        return PathBlock(rows[0][0][None], rows[0][1][None], knots)
    both = np.empty((2, len(rows), knots.max()))  # the times, then the values
    for r, (t, v) in enumerate(rows):
        both[:, r, :t.size], both[:, r, t.size:] = (t, v), [[t[-1]], [v[-1]]]
    return PathBlock(both[0], both[1], knots)


def grid_knots(engine: StepEngine, rng, n: int, x0: float):
    """(times, values) of n grid steps from x0 at time 0: a knot every dt, each jump twice.

    Knot k every dt is x0 + drift_eff * time (the engine's line) + the
    increments of the steps before it.  Inside step k the path moves at the
    step's continuous slope, so a jump at fraction phi of it leaves from knot
    k's value plus (drift_eff dt + cont[k]) * phi plus the step's earlier
    jumps.
    """
    dt = engine.dt
    cont, per_step, (jump_pos, sizes) = engine.draw(rng, n)
    times, drift = engine.line(n)
    values = np.empty(n + 1)  # the increments so far, then plus the drift line
    values[0] = 0.0
    if per_step is None:
        values[1:] = cont
    else:
        np.add(cont, per_step, out=values[1:])
    np.cumsum(values, out=values)
    values += x0 + drift
    if not sizes.size:
        return times, values
    step = jump_pos.astype(np.intp)
    earlier = np.cumsum(sizes) - sizes  # the jumps before each, in time order
    earlier -= earlier[np.searchsorted(step, step)]  # ... within its own step
    pre = values[step] + (engine.drift_eff * dt + cont[step]) * (jump_pos - step) + earlier
    at = step + 2 * np.arange(sizes.size) + 1  # the pre-jump knots: after two per earlier jump
    grid = np.ones(times.size + 2 * sizes.size, dtype=bool)
    grid[at] = grid[at + 1] = False
    knot_t, knot_v = np.empty(grid.size), np.empty(grid.size)
    knot_t[grid], knot_v[grid] = times, values
    knot_t[at] = knot_t[at + 1] = jump_pos * dt
    knot_v[at], knot_v[at + 1] = pre, pre + sizes
    return knot_t, knot_v


def path_pieces(triplet: LevyTriplet, horizon: float, dt: float) -> float:
    """Expected pieces (knots - 1) of a path on [0, horizon]: the size path_refusal holds.

    Each jump above the measure's default_cutoff(dt) (every jump for finite
    activity, at any dt) is two knots.  A grid path adds its horizon/dt
    steps; an event path its last piece, up to the horizon.
    """
    rate = _jump_rate(triplet.levy_measure, dt)
    jumps = 2.0 * rate * horizon if rate > 0.0 else 0.0
    return jumps + (1.0 if event_driven(triplet) else horizon / dt)


@lru_cache(maxsize=_ENGINES)
def _jump_rate(nu, dt: float) -> float:
    """The rate of the jumps a path with step dt draws: those above nu.default_cutoff(dt)."""
    return nu.rate_above(nu.default_cutoff(dt))


def path_refusal(triplet: LevyTriplet, horizon: float, dt: float) -> tuple[str, str] | None:
    """(reason, problem) of the first of HORIZON_RANGE, DT_RANGE (grid only), PATH_BUDGET broken, or None."""
    if not horizon > 0.0:
        return "HORIZON_RANGE", f"need horizon > 0, got {horizon:g}"
    if not (event_driven(triplet) or 0.0 < dt <= horizon / 10.0):
        return "DT_RANGE", f"need 0 < dt <= horizon/10 = {horizon / 10.0:g}, got {dt:g}"
    pieces = path_pieces(triplet, horizon, dt)
    if pieces <= MAX_PIECES_PER_PATH:
        return None
    return "PATH_BUDGET", (f"{pieces:.3g} expected pieces per path exceed PATH_BUDGET "
                           f"{MAX_PIECES_PER_PATH} (a knot every dt on a grid, two per jump)")


def event_block(triplet: LevyTriplet, horizon: float, seeds, x0=0.0) -> PathBlock:
    """The exact event paths on [0, horizon] of seeds, one row each, from x0 (one, or one per seed).

    Row r draws from its own stream(seeds[r]) as it would alone: batches of
    m = batch_size(rate, horizon) events, the gaps and then the jump sizes
    of each, until a batch passes the horizon.  Each round the rows still
    short of it are cumulated as one (rows, m) array (_event_knots).  The
    knots are 0, each jump time twice (the value before the jump, then
    after) and the horizon.
    """
    nu = triplet.levy_measure
    rate = nu.rate_above(0.0)
    rows = len(seeds)
    rngs = [stream(s) for s in seeds]
    start = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (rows,)))
    m = batch_size(rate, horizon)
    jumps = np.zeros(rows, dtype=np.intp)  # per row, the jumps before the horizon
    batches = []  # (rows drawn, jump times, pre-, post-jump values) per round
    live, t, v = np.arange(rows if rate > 0.0 else 0), np.zeros(rows), start
    while live.size:
        gaps, sizes = np.empty((live.size, m)), np.empty((live.size, m))
        for j, r in enumerate(live):
            gaps[j] = rngs[r].exponential(1.0 / rate, m)
            sizes[j] = nu.sample_jumps_above(rngs[r], 0.0, m)
        at, pre, post = _event_knots(triplet, gaps, sizes, t, v)
        k = (at < horizon).sum(axis=1)
        jumps[live] += k
        batches.append((live, at, pre, post))
        going = k == m
        live, t, v = live[going], at[going, -1], post[going, -1]

    width = 2 * int(jumps.max()) + 2
    times, values = np.empty((rows, width)), np.empty((rows, width))
    times[:, 0], values[:, 0] = 0.0, start
    for b, (drawn, at, pre, post) in enumerate(batches):
        first = 2 * b * m + 1  # the pre-jump knot of the batch's first jump
        n = min(m, (width - first) // 2)  # its jumps that fit: the rest are padding
        stop = first + 2 * n
        times[drawn, first:stop:2] = times[drawn, first + 1:stop:2] = at[:, :n]
        values[drawn, first:stop:2], values[drawn, first + 1:stop:2] = pre[:, :n], post[:, :n]
    last = 2 * jumps  # each row's last jump, or its start
    row = np.arange(rows)
    end = values[row, last] + triplet.drift * (horizon - times[row, last])
    pad = np.arange(width) > last[:, None]
    np.copyto(times, horizon, where=pad)
    np.copyto(values, end[:, None], where=pad)
    return PathBlock(times=times, values=values, knots=last + 2, exact=True)


def perpetual_estimate(path: PathSample, f: TestFunction, checkpoints) -> np.ndarray:
    """Partial integrals of f along the path at each checkpoint: the one-row case of perpetual_estimates."""
    return perpetual_estimates(PathBlock.of(path), f, checkpoints)[0]


def perpetual_estimates(block: PathBlock, f: TestFunction, checkpoints) -> np.ndarray:
    """Partial integrals of f along each row of the block at each checkpoint: (rows, checkpoints).

    All rows in one pass: each piece's integral, then the running sums
    along each row, so a row is what it gives alone.  A grid row is
    integrated by the trapezoid rule and read at a checkpoint as np.interp
    reads its running sums.  An exact row is integrated exactly
    (_line_integrals), up to the partial piece that ends at each
    checkpoint; when every odd piece has zero duration (a jump, or padding:
    every event_block), f is evaluated on the even pieces only.
    """
    checkpoints = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    t, v = block.times, block.values
    if checkpoints.size and (checkpoints.min() < 0.0 or checkpoints.max() > t[0, -1] * (1 + 1e-12)):
        raise PreconditionViolation("CHECKPOINT_RANGE", "checkpoints must lie in [0, horizon]")
    cum = np.empty(t.shape)  # 0, then each piece's integral; then their running sums
    cum[:, 0] = 0.0
    pieces = cum[:, 1:]
    if block.exact:
        step = 2 if np.array_equal(t[:, 1:-1:2], t[:, 2::2]) else 1
        pieces[:, 1::2] = 0.0  # with step 2, the zero-duration pieces
        pieces[:, ::step] = _line_integrals(f, t[:, 1::step] - t[:, :-1:step], v[:, :-1:step], v[:, 1::step])
    else:
        fv = np.asarray(f(v), dtype=float)
        np.add(fv[:, 1:], fv[:, :-1], out=pieces)
        pieces *= 0.5
        pieces *= np.diff(t, axis=1)
    np.cumsum(cum, axis=1, out=cum)
    if not block.exact:
        return np.array([np.interp(checkpoints, row, sums) for row, sums in zip(t, cum)])
    # knot i the last at or before each checkpoint, row by row: one search over
    # row-offset times is not exact, since an offset can round two knot times to one
    i = np.maximum(np.array([np.searchsorted(row, checkpoints, side="right") for row in t]) - 1, 0)
    row = np.arange(block.rows)[:, None]
    ti, vi = t[row, i], v[row, i]
    return cum[row, i] + _line_integrals(f, checkpoints - ti, vi, block.at(checkpoints))


def _line_integrals(f: TestFunction, gap: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int of f along each straight piece from value a to value b in time gap >= 0.

    That is (F(b) - F(a)) / d with slope d = (b - a) / gap, read as the mean
    of f over [min, max] (f.integral_between / width) times gap, and f(a)
    times gap on a flat piece.  A piece of zero duration (a jump, or a
    block's padding) adds 0, and f is evaluated on no such piece.  The
    arrays share one shape, which the result has too.
    """
    out = np.zeros(gap.shape)
    moving = gap > 0.0
    gap, a, b = gap[moving], a[moving], b[moving]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    width = hi - lo
    mean = np.empty(gap.size)
    slope = width > 0.0
    mean[~slope] = f(lo[~slope])
    mean[slope] = f.integral_between(lo[slope], hi[slope]) / width[slope]
    out[moving] = mean * gap
    return out
