"""Path simulation: exact event paths for drift plus finite activity, a grid otherwise.

Drift plus finite activity with no Gaussian part (event_driven: drift plus
compound Poisson, or pure drift) is simulated exactly: the path is the line
x + drift * t between Exp(rate) jump times.
event_batch draws the gaps and then the jump sizes of a batch of events;
sample_path and the exact first passage (passage) both walk these batches,
so finite activity has one event loop.  An event path's knots are 0, each
jump time twice (the value before the jump, then after) and the horizon; a
jump is a piece of zero duration.  dt is unused, and integrals along the
path are exact (perpetual_estimate reads f.integral_between).

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

grid_knots builds the knots of a grid path for sample_path and the grid
first passage alike: a knot every dt, plus each jump twice at its exact time
as on an event path.  Their drift part is drift_eff * times computed by
multiplication, not by accumulation, so a pure drift path reproduces the
time grid exactly.  Paths of one (triplet, dt) share one StepEngine
(step_engine), which keeps that line and the time grid per step count.

local_time_block estimates the local-time fields of several paths on one
level grid in one ramp-CDF pass, row by row; local_time_field is its
one-path case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BandwidthTooSmall, PreconditionViolation
from .rng import stream
from .testfunctions import TestFunction
from .triplet import LevyTriplet

__all__ = [
    "PathSample",
    "LocalTimeField",
    "StepEngine",
    "step_engine",
    "event_driven",
    "batch_size",
    "event_batch",
    "grid_knots",
    "path_pieces",
    "path_budget",
    "sample_path",
    "perpetual_estimate",
    "local_time_field",
    "local_time_block",
]

# No path of any check may hold more expected pieces than this (path_budget,
# path_pieces): a knot every dt on a grid and two per jump, on grid and event
# paths alike.  Paths are held in memory whole, so a tiny dt or a dense jump
# rate is refused rather than ending in a MemoryError halfway through a run:
# config validation holds every check's paths to it, and sample_path refuses
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

# (piece, window edge) pairs that _ramp_cdf evaluates at once, at most, so
# that paths with large jumps keep memory bounded
_PAIR_BLOCK = 4_000_000


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
    in that order.  Each output is (paths, m).  Pre- and post-jump values
    add the jumps so far to the same drift line, so with drift <= 0 a
    pre-jump value never exceeds the post-jump value before it, even in
    floating point.  Needs rate > 0.
    """
    nu = triplet.levy_measure
    # cumulated in place: at most four (paths, m) arrays are held at once
    elapsed = rng.exponential(1.0 / nu.rate_above(0.0), (t.size, m))
    summed = np.asarray(nu.sample_jumps_above(rng, 0.0, elapsed.size), dtype=float)
    summed = summed.reshape(elapsed.shape)
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
    """Simulate one path on [0, horizon], started from x0, from stream(seed).

    An event_driven triplet gives the exact event path (dt unused); any
    other the grid path of grid_knots with step dt, with the jumps above the
    measure's default cutoff for dt (all of them for finite activity) at
    their exact times.  Deterministic in (seed, horizon, dt): the same
    arguments always produce the identical PathSample.  A path past
    MAX_PIECES_PER_PATH is refused before anything is allocated.
    """
    if not horizon > 0.0:
        raise PreconditionViolation("HORIZON_RANGE", "need horizon > 0")
    event = event_driven(triplet)
    if not (event or 0.0 < dt <= horizon / 10.0):
        raise PreconditionViolation("DT_RANGE", "need 0 < dt <= horizon/10")
    over = path_budget(triplet, horizon, dt)
    if over is not None:
        raise PreconditionViolation(*over)
    if event:
        return _event_path(triplet, horizon, x0, stream(seed))
    times, values = grid_knots(step_engine(triplet, dt), stream(seed), int(round(horizon / dt)), x0)
    return PathSample(times=times, values=values)


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
    """Expected pieces (knots - 1) of a path on [0, horizon]: the size path_budget holds.

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


def path_budget(triplet: LevyTriplet, horizon: float, dt: float) -> tuple[str, str] | None:
    """("PATH_BUDGET", problem) when path_pieces passes MAX_PIECES_PER_PATH, else None."""
    pieces = path_pieces(triplet, horizon, dt)
    if pieces <= MAX_PIECES_PER_PATH:
        return None
    return "PATH_BUDGET", (f"{pieces:.3g} expected pieces per path exceed PATH_BUDGET "
                           f"{MAX_PIECES_PER_PATH} (a knot every dt on a grid, two per jump)")


def _event_path(triplet: LevyTriplet, horizon: float, x0: float, rng) -> PathSample:
    """The exact event path: event batches of batch_size(rate, horizon) until one passes the horizon."""
    rate = triplet.levy_measure.rate_above(0.0)
    t, v = np.zeros(1), np.array([float(x0)])
    times, values = [t], [v]
    m = batch_size(rate, horizon)
    while rate > 0.0:
        at, pre, post = event_batch(triplet, rng, t, v, m)
        k = int(np.searchsorted(at[0], horizon))  # the jumps before the horizon
        times.append(np.repeat(at[0, :k], 2))
        values.append(np.column_stack((pre[0, :k], post[0, :k])).ravel())
        if k < m:
            break
        t, v = at[:, -1], post[:, -1]
    times, values = np.concatenate(times), np.concatenate(values)
    return PathSample(times=np.append(times, horizon),
                      values=np.append(values, values[-1] + triplet.drift * (horizon - times[-1])),
                      exact=True)


def perpetual_estimate(path: PathSample, f: TestFunction, checkpoints) -> np.ndarray:
    """Partial integrals of f along the path at each checkpoint.

    An exact path is integrated exactly, piece by piece, up to the partial
    piece that ends at each checkpoint (_line_integrals); a grid path by the
    trapezoid rule.
    """
    checkpoints = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    if checkpoints.size and (checkpoints.min() < 0.0 or checkpoints.max() > path.horizon * (1 + 1e-12)):
        raise PreconditionViolation("CHECKPOINT_RANGE", "checkpoints must lie in [0, horizon]")
    t, v = path.times, path.values
    if not path.exact:
        fv = np.asarray(f(v), dtype=float)
        cum = np.empty(t.size)  # the trapezoids, then their running sum
        cum[0] = 0.0
        np.add(fv[1:], fv[:-1], out=cum[1:])
        cum[1:] *= 0.5
        cum[1:] *= np.diff(t)
        np.cumsum(cum, out=cum)
        return np.interp(checkpoints, t, cum)
    cum = np.concatenate(([0.0], np.cumsum(_line_integrals(f, np.diff(t), v[:-1], v[1:]))))
    i = np.searchsorted(t, checkpoints, side="right") - 1  # the last knot at or before
    return cum[i] + _line_integrals(f, checkpoints - t[i], v[i], path.at(checkpoints))


def _line_integrals(f: TestFunction, gap: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int of f along each straight piece from value a to value b in time gap >= 0.

    That is (F(b) - F(a)) / d with slope d = (b - a) / gap, read as the mean
    of f over [min, max] (f.integral_between / width) times gap, and f(a)
    times gap on a flat piece.  A piece of zero duration (a jump) adds 0.
    """
    out = np.zeros(gap.size)
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


@dataclass(frozen=True)
class LocalTimeField:
    """Kernel estimate of local times L_t(x) on a level grid."""

    x_grid: np.ndarray
    bandwidth: float
    values: np.ndarray
    t_covered: float  # time the path spent inside [x_grid[0], x_grid[-1]]


def _ramp_cdf(q: np.ndarray, row: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              dt: np.ndarray, rows: int) -> np.ndarray:
    """F_r(q) = sum_i dt_i * clip((q - lo_i) / (hi_i - lo_i), 0, 1) over the segments of row r.

    One row per r < rows, at the sorted queries q: a (rows, q.size) array.
    Segments come grouped by row (row is non-decreasing).  A flat segment
    (lo == hi) counts wholly at every q >= its value.  Segments wholly below
    a query are binned by (row, first query at or above their top) in one
    bincount and summed by one cumsum along each row.  Each (segment, query)
    pair with lo < q < hi adds its exact ramp value; the pairs are processed
    in blocks of at most _PAIR_BLOCK.  A block that runs into a later row
    ends before that row unless it holds the whole row, so each row is
    split, and summed, exactly as it would be alone.  Every term is
    non-negative, so nothing cancels.
    """
    size = q.size
    full_from = np.searchsorted(q, hi, side="left")
    first = np.searchsorted(q, lo, side="right")
    count = np.maximum(full_from - first, 0)  # pairs per segment; 0 for flat ones
    full_from += row * (size + 1)
    binned = np.bincount(full_from, weights=dt, minlength=rows * (size + 1))
    cdf = np.cumsum(binned.reshape(rows, size + 1)[:, :size], axis=1)
    first += row * size  # pairs index the queries of all rows: q_rows[row * size + j] = q[j]
    q_rows = np.tile(q, rows)
    ends = np.cumsum(count)
    start, done = 0, 0
    while done < ends[-1]:
        stop = max(int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")), start + 1)
        if stop < row.size and row[start] != row[stop - 1] == row[stop]:
            stop = int(np.searchsorted(row, row[stop]))  # end before the row it would split
        seg = np.repeat(np.arange(start, stop), count[start:stop])
        j = first[seg] + np.arange(done, ends[stop - 1]) - (ends[seg] - count[seg])
        ramp = dt[seg] * (q_rows[j] - lo[seg]) / (hi[seg] - lo[seg])
        cdf += np.bincount(j, weights=ramp, minlength=rows * size).reshape(rows, size)
        start, done = stop, int(ends[stop - 1])
    return cdf


def local_time_field(path: PathSample, x_grid, bandwidth: float) -> LocalTimeField:
    """Occupation density estimate: time within bandwidth of each level / 2eps.

    The one-path case of local_time_block, which describes the estimate.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    values, t_covered = local_time_block([path], x_grid, bandwidth)
    return LocalTimeField(
        x_grid=x_grid, bandwidth=bandwidth, values=values[0], t_covered=float(t_covered[0])
    )


def local_time_block(paths, x_grid, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """The local-time fields of several paths on one level grid, in one pass.

    Returns (values, t_covered): row r of values is the field of paths[r]
    and t_covered[r] the time it spent inside [x_grid[0], x_grid[-1]].  Row r
    is the same, bit for bit, whatever the other paths are (local_time_field
    is the one-path case).

    A path is linear between its knots, so each piece spreads its duration
    dt uniformly over the levels it sweeps.  The time spent at or below y is
    then the piecewise-linear ramp CDF F(y) = sum_i dt_i * clip((y - lo_i) /
    span_i, 0, 1), and L(x) = (F(x + b) - F(x - b)) / 2b exactly; t_covered
    is F at the two ends of the grid.  All window edges are evaluated in one
    sorted query array shared by every row, so a window a path never enters
    (a path wholly above every window included) gets exactly 0.  Cost is
    O(n log G + rows G + crossings) for n pieces, G levels and the number of
    (piece, window edge) pairs a piece strictly straddles.

    A flat piece (a step with no movement) sits at one value v and counts
    wholly in every closed window: v <= x + b at the upper end and v >= x - b
    at the lower end; likewise for [x_grid[0], x_grid[-1]] in t_covered.

    A jump is a piece of zero duration: it adds no time, and the pieces the
    field reads are the ones with positive duration.

    Bandwidth must stay above the floor _bandwidth_floor measures on each
    path's pieces, or window counts are noise: the first path below it
    raises BandwidthTooSmall.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if x_grid.size < 2 or np.any(np.diff(x_grid) <= 0.0):
        raise PreconditionViolation("GRID_ORDER", "x_grid must be strictly increasing")
    if not bandwidth > 0.0:
        raise PreconditionViolation("BANDWIDTH_RANGE", "need bandwidth > 0")

    pieces = []
    for path in paths:
        dt = np.diff(path.times)
        start, end = path.values[:-1], path.values[1:]
        if dt.min() == 0.0:  # a jump takes no time: read the pieces with positive duration
            moving = dt > 0.0
            dt, start, end = dt[moving], start[moving], end[moving]
        floor = _bandwidth_floor(dt, end - start)
        if bandwidth < floor:
            raise BandwidthTooSmall(f"bandwidth {bandwidth:g} below floor {floor:g} for this step size")
        pieces.append((dt, np.minimum(start, end), np.maximum(start, end)))
    rows = len(pieces)
    row = np.repeat(np.arange(rows), [dt.size for dt, _, _ in pieces])
    # one path's pieces are used as they are: a copy would only add memory
    dt, lo, hi = pieces[0] if rows == 1 else (np.concatenate(part) for part in zip(*pieces))

    # lower edges (the G windows', then the grid's), upper edges likewise;
    # the stable sort merges these four sorted runs in linear time
    size = x_grid.size + 1
    edges = np.concatenate((x_grid - bandwidth, x_grid[:1], x_grid + bandwidth, x_grid[-1:]))
    order = np.argsort(edges, kind="stable")
    cdf = np.empty((rows, edges.size))
    cdf[:, order] = _ramp_cdf(edges[order], row, lo, hi, dt, rows)

    # F counts a flat piece at q >= v; the lower edge of a closed window
    # wants q > v, so flats sitting exactly on a lower edge are taken back out
    flat = lo == hi
    r, v, w = row[flat], lo[flat], dt[flat]
    lower = cdf[:, :size]
    lower[:, :-1] -= _time_at(x_grid - bandwidth, r, v, w, rows)
    bottom = v == x_grid[0]
    lower[:, -1] -= np.bincount(r[bottom], weights=w[bottom], minlength=rows)
    upper = cdf[:, size:]
    return (upper[:, :-1] - lower[:, :-1]) / (2.0 * bandwidth), upper[:, -1] - lower[:, -1]


def _bandwidth_floor(dt: np.ndarray, steps: np.ndarray) -> float:
    """A quarter of the typical diffusive move of a piece: 1.4826 MAD / 4 of the residuals.

    The residual of a piece is its move less the median slope times its
    duration, so a grid measures the spread of its continuous increments
    about their median (its jumps are the pieces of zero duration that
    local_time_block drops), and the linear pieces of an event path (all at
    the drift's slope) give a floor of rounding size.
    """
    resid = steps - _median(steps / dt) * dt
    return 1.4826 * float(_median(np.abs(resid, out=resid))) / 4.0


def _median(a: np.ndarray) -> float:
    """np.median of a finite array, bit for bit, by partitioning a in place.

    The middle element, or (p[k-1] + p[k]) / 2 of the partitioned p for an
    even size 2k: np.median's own rule, without its check for NaN.
    """
    k = a.size // 2
    if a.size % 2:
        a.partition(k)
        return a[k]
    a.partition((k - 1, k))
    return (a[k - 1] + a[k]) / 2.0


def _time_at(points: np.ndarray, row: np.ndarray, v: np.ndarray, w: np.ndarray,
             rows: int) -> np.ndarray:
    """Per row and sorted point, the total weight w of that row's values v equal to it."""
    k = np.minimum(np.searchsorted(points, v), points.size - 1)
    hit = points[k] == v
    cells = np.bincount(row[hit] * points.size + k[hit], weights=w[hit], minlength=rows * points.size)
    return cells.reshape(rows, points.size)
