"""Local-time fields of simulated paths: the occupation density on a level grid.

A path is linear between its knots, so each piece spreads its duration
uniformly over the levels it sweeps, and the time spent at or below a level
is a piecewise-linear ramp CDF.  local_time_block evaluates that CDF on one
level grid for every row of a block's padded (rows, knots) arrays (those of
a simulate.PathBlock) in one pass; local_time_field is its one-path case.  A
jump, or a row's padding, is a piece of zero duration and adds no time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionViolation

__all__ = ["LocalTimeField", "local_time_field", "local_time_block"]

# (piece, window edge) pairs that _ramp_cdf evaluates at once, at most, so
# that paths with large jumps keep memory bounded
_PAIR_BLOCK = 4_000_000


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


def local_time_field(path, x_grid, bandwidth: float) -> LocalTimeField:
    """Occupation density estimate: time within bandwidth of each level / 2eps.

    The one-path case of local_time_block, which describes the estimate.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    values, t_covered = local_time_block(path.times[None], path.values[None], x_grid, bandwidth)
    return LocalTimeField(
        x_grid=x_grid, bandwidth=bandwidth, values=values[0], t_covered=float(t_covered[0])
    )


def local_time_block(times, values, x_grid, bandwidth: float) -> tuple[np.ndarray, np.ndarray]:
    """The local-time fields of the rows of (rows, knots) times and values on one level grid, in one pass.

    Row r is a path's knots, then (padding) its last knot repeated.  Returns
    (field, t_covered): row r of field is the field of path r and
    t_covered[r] the time it spent inside [x_grid[0], x_grid[-1]].  Row r
    is the same, bit for bit, whatever the other rows are (local_time_field
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

    A jump, or a row's padding, is a piece of zero duration: it adds no
    time, and the pieces the field reads are the ones with positive duration.

    The field is exact for the interpolated path at any b > 0.  A window
    narrower than a grid step's spread estimates the process's local times
    by noise: that floor is a rule of the checks (harness.bandwidth_refusal).
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if x_grid.size < 2 or np.any(np.diff(x_grid) <= 0.0):
        raise PreconditionViolation("GRID_ORDER", "x_grid must be strictly increasing")
    if not bandwidth > 0.0:
        raise PreconditionViolation("BANDWIDTH_RANGE", "need bandwidth > 0")

    dt = np.diff(times, axis=1)
    start, end = values[:, :-1], values[:, 1:]
    moving = dt > 0.0  # the pieces read: a jump or padding takes no time
    rows = dt.shape[0]
    row = np.repeat(np.arange(rows), moving.sum(axis=1))
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    if moving.all():  # the pieces are used as they are: a copy would only add memory
        dt, lo, hi = dt.ravel(), lo.ravel(), hi.ravel()
    else:
        dt, lo, hi = dt[moving], lo[moving], hi[moving]
    del moving  # nor is the mask held through the pass

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


def _time_at(points: np.ndarray, row: np.ndarray, v: np.ndarray, w: np.ndarray,
             rows: int) -> np.ndarray:
    """Per row and sorted point, the total weight w of that row's values v equal to it."""
    k = np.minimum(np.searchsorted(points, v), points.size - 1)
    hit = points[k] == v
    cells = np.bincount(row[hit] * points.size + k[hit], weights=w[hit], minlength=rows * points.size)
    return cells.reshape(rows, points.size)
