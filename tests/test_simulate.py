"""Path sampler, running integral estimates, and the occupation field."""

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perpetua import (
    BandwidthTooSmall,
    CompoundPoisson,
    ConstantJump,
    ExpDecay,
    ExponentialJump,
    Indicator,
    LevyTriplet,
    LogPower,
    PowerTail,
    PreconditionViolation,
    StableLike,
    SumOf,
    Tabulated,
    TwoSidedExponentialJump,
    first_passage,
    overshoot_ensemble,
    local_time_field,
    perpetual_estimate,
    sample_path,
)
from perpetua import localtime, simulate
from perpetua.localtime import _bandwidth_floor, _median, local_time_block
from perpetua.rng import derive_seed, stream
from perpetua.simulate import (PathBlock, PathSample, StepEngine, event_batch, event_block, grid_knots,
                               path_pieces, perpetual_estimates, step_engine)

BM_DRIFT = LevyTriplet(1.0, 1.0)
# drift 0.1 plus rate-1 Exp(2) up-jumps: Laplace exponent psi(1) = 0.1 + 1 - 2/3
DRIFT_CP = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
# the same jumps without drift: every piece between jumps is flat
CP_ONLY = LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
# negative drift and two-sided jumps: pieces run downwards and cross 0
DOWN_CP = LevyTriplet(-0.3, 0.0, CompoundPoisson(1.5, TwoSidedExponentialJump(1.0, 2.0, 0.6)))
# a Gaussian part plus rate-1 Exp(2) up-jumps: a grid path with exact jumps
JUMP_DIFFUSION = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))


def dense_local_time_field(path, x_grid, bandwidth):
    """Test oracle: the segments x levels overlap matrix, summed in chunks.

    This is the O(n G) field local_time_field replaced; it returns
    (values, t_covered) for the same linear-skeleton convention.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    dt = np.diff(path.times)
    lo = np.minimum(path.values[:-1], path.values[1:])
    hi = np.maximum(path.values[:-1], path.values[1:])
    span = hi - lo

    values = np.zeros(x_grid.size)
    chunk = max(1, int(4_000_000 // max(x_grid.size, 1)))
    for start in range(0, lo.size, chunk):
        sl = slice(start, min(start + chunk, lo.size))
        seg_lo = lo[sl][None, :]
        seg_hi = hi[sl][None, :]
        seg_span = span[sl][None, :]
        seg_dt = dt[sl][None, :]
        win_lo = x_grid[:, None] - bandwidth
        win_hi = x_grid[:, None] + bandwidth
        overlap = np.clip(np.minimum(seg_hi, win_hi) - np.maximum(seg_lo, win_lo), 0.0, None)
        flat = seg_span <= 0.0
        inside = (seg_lo >= win_lo) & (seg_lo <= win_hi)
        frac = np.where(flat, inside.astype(float), overlap / np.where(flat, 1.0, seg_span))
        values += (frac * seg_dt).sum(axis=1)
    values /= 2.0 * bandwidth

    inside_lo, inside_hi = x_grid[0], x_grid[-1]
    clipped = np.clip(np.minimum(hi, inside_hi) - np.maximum(lo, inside_lo), 0.0, None)
    flat = span <= 0.0
    frac = np.where(
        flat,
        ((path.values[:-1] >= inside_lo) & (path.values[:-1] <= inside_hi)).astype(float),
        clipped / np.where(flat, 1.0, span),
    )
    t_covered = float(np.sum(frac * dt))
    return values, t_covered


def event_jumps(path):
    """(jump times, jump sizes) of an event path, read from its knots."""
    assert path.exact
    at = np.nonzero(np.diff(path.times) == 0.0)[0]
    return path.times[at], path.values[at + 1] - path.values[at]


def padded(paths):
    """(times, values) of paths as the rows of a block: each row padded with its last knot."""
    width = max(p.times.size for p in paths)
    return tuple(np.array([np.pad(a, (0, width - a.size), mode="edge") for a in arrays])
                 for arrays in ([p.times for p in paths], [p.values for p in paths]))


def lattice_path(steps, dt=0.01):
    """A path through the given increments from 0, stored exactly."""
    values = np.concatenate(([0.0], np.cumsum(steps)))
    times = np.arange(values.size) * dt
    return PathSample(times=times, values=values)


class TestSamplePath:
    def test_pure_drift_is_exact(self):
        # no jumps: the event path is one linear piece
        path = sample_path(LevyTriplet(2.0), 10.0, 0.01, x0=1.0, seed=1)
        assert path.exact
        assert path.times.tolist() == [0.0, 10.0]
        assert path.values.tolist() == [1.0, 21.0]

    def test_grid_shape(self):
        path = sample_path(BM_DRIFT, 5.0, 0.01, seed=2)
        assert not path.exact
        assert path.times[0] == 0.0
        assert path.times[-1] == pytest.approx(5.0)
        assert path.values.shape == path.times.shape
        assert np.allclose(np.diff(path.times), 0.01)

    def test_deterministic_in_seed(self):
        a = sample_path(BM_DRIFT, 2.0, 0.01, seed=7)
        b = sample_path(BM_DRIFT, 2.0, 0.01, seed=7)
        c = sample_path(BM_DRIFT, 2.0, 0.01, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_brownian_moments(self):
        n, T = 400, 4.0
        ends = np.array([
            sample_path(BM_DRIFT, T, 0.01, seed=s).values[-1] for s in range(n)
        ])
        assert ends.mean() == pytest.approx(T, abs=5 * math.sqrt(T / n))
        assert ends.var() == pytest.approx(T, rel=0.25)

    def test_compound_poisson_jump_count(self):
        t = LevyTriplet(0.0, 0.0, CompoundPoisson(2.0, ConstantJump(1.0)))
        path = sample_path(t, 50.0, 0.01, seed=3)
        times, sizes = event_jumps(path)
        # Poisson(100): five sigma is +-50
        assert 50 <= times.size <= 150
        assert np.all(sizes == 1.0)
        assert path.values[-1] == times.size  # unit jumps, no drift: exact

    def test_jump_times_recorded_in_order(self):
        t = LevyTriplet(0.5, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        path = sample_path(t, 20.0, 0.01, seed=4)
        times, sizes = event_jumps(path)
        assert sizes.size > 0
        assert np.all(np.diff(times) > 0.0)
        assert np.all((times > 0.0) & (times < 20.0))
        assert path.values[-1] == pytest.approx(0.5 * 20.0 + sizes.sum())

    def test_stable_increment_scaling(self):
        # alpha-stable increments over dt scale like dt^(1/alpha)
        t = LevyTriplet(0.0, 0.0, StableLike(1.5, 1.0, 0.0))
        # increments between grid times; the knots between them are jumps
        def increments(path, dt):
            return np.diff(path.at(np.arange(int(round(path.horizon / dt)) + 1) * dt))

        q_small = np.quantile(np.abs(increments(sample_path(t, 100.0, 0.01, seed=5), 0.01)), 0.9)
        q_big = np.quantile(np.abs(increments(sample_path(t, 100.0, 0.08, seed=6), 0.08)), 0.9)
        # 8x coarser steps: quantile ratio near 8^(2/3) ~ 4, far from drift's 8
        assert 2.0 < q_big / q_small < 7.0

    def test_brownian_grid_path_is_pinned(self):
        # a grid path without jumps: the knots every dt, bit for bit as before
        # jumps were placed at their times
        path = sample_path(LevyTriplet(1.0, 1.0), 256.0, 0.01, seed=20260815)
        assert path.times.size == 25_601
        digest = hashlib.sha256(path.times.tobytes() + path.values.tobytes()).hexdigest()
        assert digest.startswith("b085d385a8dd95a5")

    def test_dt_precondition(self):
        with pytest.raises(PreconditionViolation) as exc:
            sample_path(BM_DRIFT, 1.0, 0.2, seed=0)
        assert exc.value.reason == "DT_RANGE"

    def test_horizon_precondition(self):
        with pytest.raises(PreconditionViolation):
            sample_path(BM_DRIFT, -1.0, 0.01, seed=0)

    def test_step_budget_refused_before_allocation(self, monkeypatch):
        from perpetua import simulate

        def allocate(*args, **kwargs):
            raise AssertionError("the grid path was about to be drawn")

        monkeypatch.setattr(simulate, "StepEngine", allocate)
        budget = simulate.MAX_PIECES_PER_PATH
        with pytest.raises(PreconditionViolation) as exc:
            sample_path(BM_DRIFT, budget + 1.0, 1.0, seed=0)
        assert exc.value.reason == "PATH_BUDGET"
        # 1,600 steps, and two pieces for each of 1.6e7 expected jumps
        dense = LevyTriplet(1.0, 0.5, CompoundPoisson(1e6, ExponentialJump(2.0, 1)))
        with pytest.raises(PreconditionViolation) as exc:
            sample_path(dense, 16.0, 0.01, seed=0)
        assert exc.value.reason == "PATH_BUDGET"
        with pytest.raises(AssertionError, match="about to be drawn"):
            sample_path(BM_DRIFT, float(budget), 1.0, seed=0)  # at the budget: allowed

    def test_one_jump_per_step_is_drawn_exactly(self):
        # cutoff 0 resolves every jump: about one per step, a few in some
        # steps, each at its exact time
        t = LevyTriplet(0.0, 0.5, CompoundPoisson(100.0, ExponentialJump(2.0, 1)))
        assert StepEngine(t, 0.01).rate * 0.01 == 1.0
        path = sample_path(t, 10.0, 0.01, seed=3)
        jumps = np.nonzero(np.diff(path.times) == 0.0)[0]
        steps = np.floor(path.times[jumps] / 0.01)
        assert np.max(np.unique(steps, return_counts=True)[1]) >= 3
        assert np.all(path.values[jumps + 1] > path.values[jumps])  # up-jumps only

    def test_zero_cutoff_on_finite_activity_is_the_default(self):
        t = LevyTriplet(0.1, 0.5, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        engine = StepEngine(t, 0.01)
        assert engine.cutoff == 0.0
        assert engine.rate == 1.0
        assert engine.drift_eff == 0.1  # finite-activity jumps are not compensated

    @pytest.mark.parametrize("triplet, rate", [
        (BM_DRIFT, 0.0), (JUMP_DIFFUSION, 1.0), (DRIFT_CP, 1.0),
    ], ids=["bm", "bm_cp_grid", "drift_cp_events"])
    def test_path_pieces_counts_the_knots_of_drawn_paths(self, triplet, rate):
        # knots - 1 is 40,000 grid steps (or 1 on events) plus 2 N, N ~ Poisson(rate T)
        horizon, dt, n = 400.0, 0.01, 20
        pieces = [sample_path(triplet, horizon, dt, seed=derive_seed(54, i)).times.size - 1
                  for i in range(n)]
        expected = path_pieces(triplet, horizon, dt)
        assert expected == (1.0 if triplet is DRIFT_CP else horizon / dt) + 2.0 * rate * horizon
        assert abs(np.mean(pieces) - expected) <= 4.0 * 2.0 * math.sqrt(rate * horizon / n)


class TestGridKnots:
    """A grid path's knots: one every dt, and each resolved jump twice at its time."""

    @pytest.mark.parametrize("triplet", [JUMP_DIFFUSION, LevyTriplet(0.5, 0.0, StableLike(1.5, 1.0, 0.0))],
                             ids=["jump_diffusion", "stable"])
    def test_knots_are_the_grid_and_each_jump_twice(self, triplet):
        dt, n, x0 = 0.01, 2000, 0.25
        times, values = grid_knots(StepEngine(triplet, dt), stream(60), n, x0)
        engine = StepEngine(triplet, dt)
        cont, per_step, (jump_pos, sizes) = engine.draw(stream(60), n)
        assert sizes.size > 10
        assert times.size == values.size == n + 1 + 2 * sizes.size
        assert np.all(np.diff(times) >= 0.0)
        grid_t = np.arange(n + 1) * dt
        assert np.array_equal(times, np.sort(np.concatenate((grid_t, np.repeat(jump_pos * dt, 2)))))

        # grid knot i follows the two knots of every jump in the steps before it
        steps = np.floor(jump_pos).astype(int)
        grid = np.arange(n + 1) + 2 * np.searchsorted(steps, np.arange(n + 1))
        expected = x0 + engine.drift_eff * grid_t + np.concatenate(([0.0], np.cumsum(cont + per_step)))
        assert np.array_equal(times[grid], grid_t)
        assert np.array_equal(values[grid], expected)

        jump = np.setdiff1d(np.arange(times.size), grid)
        pre, post = values[jump[0::2]], values[jump[1::2]]
        assert np.array_equal(times[jump[0::2]], jump_pos * dt)
        assert np.allclose(post - pre, sizes, rtol=0.0, atol=1e-9)
        # the value before a jump: the step's start, its continuous move up to
        # the jump, and the step's earlier jumps
        lin = engine.drift_eff * dt + cont
        oracle = [values[grid[k]] + lin[k] * (p - k) + sizes[:j][steps[:j] == k].sum()
                  for j, (k, p) in enumerate(zip(steps, jump_pos))]
        assert np.allclose(pre, oracle, rtol=0.0, atol=1e-9)

    def test_jumps_late_in_a_step_stay_in_it(self):
        # step + offset rounds up to step + 1 for offsets this close to 1;
        # each jump must keep its own step, the last step's included
        class LateOffsets:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def random(self, size):
                return np.full(size, 1.0 - 2.0**-53)

        # no drift and no Gaussian part: flat between jumps
        engine = StepEngine(LevyTriplet(0.0, 0.0, CompoundPoisson(50.0, ConstantJump(1.0))), 0.01)
        times, values = grid_knots(engine, LateOffsets(stream(63)), 400, 0.0)
        assert times.size > 401 + 2 * 100
        assert np.all(np.diff(times) >= 0.0)
        assert np.all(np.diff(values)[np.diff(times) > 0.0] == 0.0)
        assert values[-1] == (times.size - 401) / 2

    def test_sample_path_is_the_knots(self):
        path = sample_path(JUMP_DIFFUSION, 20.0, 0.01, x0=1.0, seed=61)
        times, values = grid_knots(StepEngine(JUMP_DIFFUSION, 0.01), stream(61), 2000, 1.0)
        assert not path.exact
        assert np.array_equal(path.times, times) and np.array_equal(path.values, values)
        assert path.times.size > 2001

    def test_occupation_identity_with_jumps(self):
        # the jumps take no time: the field's mass is still the time covered
        path = sample_path(JUMP_DIFFUSION, 50.0, 0.01, seed=62)
        grid = np.linspace(path.values.min() - 0.1, path.values.max() + 0.1, 1200)
        fld = local_time_field(path, grid, 0.05)
        assert fld.t_covered == pytest.approx(50.0, rel=1e-9)
        assert float(np.trapezoid(fld.values, grid)) == pytest.approx(fld.t_covered, rel=0.03)


class TestStepEngineSharing:
    """Paths of one (triplet, dt) share one StepEngine and its time grid and drift line."""

    def test_one_engine_per_triplet_and_dt(self, monkeypatch):
        built = []

        class Counted(StepEngine):
            def __init__(self, triplet, dt):
                built.append((triplet, dt))
                super().__init__(triplet, dt)

        monkeypatch.setattr(simulate, "StepEngine", Counted)
        step_engine.cache_clear()
        stable = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        for seed in range(3):
            sample_path(stable, 5.0, 0.01, seed=seed)
            first_passage(stable, 2.0, seed=seed)
        assert built == [(stable, 0.01)]
        equal = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        assert step_engine(equal, 0.01) is step_engine(stable, 0.01)
        step_engine(stable, 0.02)
        assert len(built) == 2
        step_engine.cache_clear()

    def test_line_is_read_only_and_the_grid(self):
        engine = step_engine(BM_DRIFT, 0.01)
        times, drift = engine.line(500)
        assert engine.line(500)[0] is times
        assert times.tobytes() == (np.arange(501, dtype=float) * 0.01).tobytes()
        assert drift.tobytes() == (engine.drift_eff * times).tobytes()
        with pytest.raises(ValueError):
            times[0] = 1.0
        path = sample_path(BM_DRIFT, 5.0, 0.01, seed=64)
        with pytest.raises(ValueError):
            path.times[0] = 1.0

    def test_line_store_is_bounded(self):
        engine = StepEngine(BM_DRIFT, 0.01)
        for n in range(1, 3 * simulate._LINES):
            engine.line(n)
        assert len(engine._lines) <= simulate._LINES
        long = engine.line(simulate.BATCH_EVENTS + 1)[0]
        assert long.size == simulate.BATCH_EVENTS + 2 and simulate.BATCH_EVENTS + 1 not in engine._lines

    def test_threads_sharing_an_engine_read_exact_lines(self):
        # more workers than cores and frequent switches: a line stored or
        # cleared by one thread while another reads must never be a wrong one
        engine = StepEngine(BM_DRIFT, 0.01)

        def read(worker):
            for k in range(300):
                n = 1 + (7 * k + worker) % (3 * simulate._LINES)
                times, drift = engine.line(n)
                if times.size != n + 1 or drift.tobytes() != (engine.drift_eff * times).tobytes():
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(read, w) for w in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert results == [True] * 8


def fine_trapezoid(path, f, checkpoints, sub=400):
    """Test oracle: the trapezoid rule with each piece of positive duration cut in sub."""
    out = []
    for c in checkpoints:
        total = 0.0
        for t0, t1, v0, v1 in zip(path.times, path.times[1:], path.values, path.values[1:]):
            if t1 <= t0 or t0 >= c:
                continue
            end = min(t1, c)
            s = np.linspace(0.0, 1.0, sub + 1)
            values = v0 + (v1 - v0) * (end - t0) / (t1 - t0) * s
            total += float(np.trapezoid(f(values), t0 + (end - t0) * s))
        out.append(total)
    return np.array(out)


class TestEventPath:
    """Drift plus finite activity without a Gaussian part: exact event paths."""

    def test_knots_are_the_jumps_twice_between_zero_and_horizon(self):
        path = sample_path(DRIFT_CP, 30.0, 0.01, x0=0.5, seed=50)
        times, sizes = event_jumps(path)
        assert path.times[0] == 0.0 and path.values[0] == 0.5
        assert path.times[-1] == 30.0
        assert path.times.size == 2 * times.size + 2
        assert np.all(sizes > 0.0)
        # between knots the path runs at the drift's slope
        moving = np.diff(path.times) > 0.0
        slopes = np.diff(path.values)[moving] / np.diff(path.times)[moving]
        assert np.allclose(slopes, 0.1, rtol=1e-9, atol=1e-9)

    def test_dt_is_unused(self):
        a = sample_path(DRIFT_CP, 20.0, 0.01, seed=51)
        b = sample_path(DRIFT_CP, 20.0, 7.0, seed=51)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.values, b.values)

    def test_no_step_engine_on_event_paths(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("StepEngine built for an event path")

        monkeypatch.setattr(StepEngine, "__init__", refuse)
        path = sample_path(DRIFT_CP, 20.0, 0.01, seed=52)
        local_time_field(path, np.linspace(0.5, 3.0, 11), 0.05)
        assert first_passage(DRIFT_CP, 5.0, seed=52).reached
        assert overshoot_ensemble(DRIFT_CP, 5.0, 20, seed=52).n == 20

    def test_dense_jumps_refused_before_allocation(self):
        dense = LevyTriplet(0.1, 0.0, CompoundPoisson(1e7, ExponentialJump(2.0, 1)))
        with pytest.raises(PreconditionViolation) as exc:
            sample_path(dense, 256.0, 0.01, seed=0)
        assert exc.value.reason == "PATH_BUDGET"

    def test_mean_integral_is_one_over_laplace_exponent(self):
        # E int_0^inf exp(-xi_s) ds = 1/psi(1) (Bertoin & Yor 2005); the rest
        # after T = 64 has mean exp(-64 psi(1)) / psi(1), below 1e-11
        psi = 0.1 + 1.0 - 2.0 / 3.0
        n = 1000
        f = ExpDecay(1.0)
        total = np.array([
            perpetual_estimate(sample_path(DRIFT_CP, 64.0, 0.01, seed=derive_seed(53, i)), f, [64.0])[0]
            for i in range(n)
        ])
        z = (total.mean() - 1.0 / psi) / (total.std() / math.sqrt(n))
        assert abs(z) < 4.0

    @pytest.mark.parametrize("triplet", [DRIFT_CP, DOWN_CP], ids=["up", "down"])
    @pytest.mark.parametrize("f", [
        ExpDecay(1.0), PowerTail(1.5), LogPower(2.0),
        SumOf((Tabulated((-2.0, 0.0, 1.0, 3.0), (0.5, 2.0, 1.0, 0.25), "exp", 0.5), ExpDecay(0.3))),
    ], ids=["exp_decay", "power_tail", "log_power", "sum"])
    def test_partial_integrals_match_a_fine_trapezoid(self, triplet, f):
        path = sample_path(triplet, 20.0, 0.01, seed=54)
        checkpoints = [0.0, 3.3, 7.0, 12.5, 20.0]
        exact = perpetual_estimate(path, f, checkpoints)
        assert exact[0] == 0.0
        assert np.allclose(exact, fine_trapezoid(path, f, checkpoints), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("f", [ExpDecay(1.0), PowerTail(1.5), LogPower(2.0), Indicator(-5.0, 2.9),
                                   Tabulated((-10.0, 0.0, 10.0), (1.0, 2.0, 1.0))],
                             ids=["exp_decay", "power_tail", "log_power", "indicator", "tabulated"])
    def test_narrow_pieces_keep_their_precision(self, f):
        # at drift 1e-13 a piece spans about 1e-13 in space, where F(b) - F(a)
        # would cancel; such pieces are flat to rounding, so the trapezoid of
        # the knots is exact to rounding too
        t = LevyTriplet(1e-13, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
        path = sample_path(t, 50.0, 0.01, x0=3.0, seed=58)
        trapezoid = np.sum(np.diff(path.times) * (f(path.values[:-1]) + f(path.values[1:])) / 2.0)
        assert perpetual_estimate(path, f, [50.0])[0] == pytest.approx(trapezoid, rel=1e-12)

    @pytest.mark.parametrize("f", [Tabulated((-10.0, 0.0, 10.0), (1.0, 2.0, 1.0)),
                                   Tabulated((-10.0, 0.0, 2.0), (1.0, 2.0, 1.0), "exp", 0.5)],
                             ids=["zero_tail", "exp_tail"])
    def test_narrow_pieces_inside_a_table_segment(self, f):
        # a table's integral_above(a) - integral_above(b) was off by 1.7e-3
        # relative on this path (seed 3), where every piece sits inside one
        # segment or in the tail
        t = LevyTriplet(1e-13, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
        path = sample_path(t, 50.0, 0.01, x0=3.0, seed=3)
        trapezoid = np.sum(np.diff(path.times) * (f(path.values[:-1]) + f(path.values[1:])) / 2.0)
        assert perpetual_estimate(path, f, [50.0])[0] == pytest.approx(trapezoid, rel=1e-12)

    @pytest.mark.parametrize("triplet", [
        DRIFT_CP, LevyTriplet(0.5, 0.0, CompoundPoisson(1.0, ExponentialJump(0.4, 1))),
    ], ids=["drift_cp", "creep"])
    def test_bandwidth_floor_is_rounding_on_event_paths(self, triplet):
        # the linear pieces all run at the drift's slope; jumps take no time
        path = sample_path(triplet, 200.0, 0.01, seed=55)
        moving = np.diff(path.times) > 0.0
        floor = _bandwidth_floor(np.diff(path.times)[moving], np.diff(path.values)[moving])
        assert floor < 1e-12
        grid = np.linspace(1.0, 20.0, 39)
        fld = local_time_field(path, grid, 1e-3)
        assert np.all(fld.values >= 0.0)
        local_time_field(path, grid, 0.05)

    def test_bandwidth_floor_on_a_grid_is_the_increment_spread(self):
        path = sample_path(BM_DRIFT, 50.0, 0.01, seed=56)
        diffs = np.diff(path.values)
        spread = 1.4826 * np.median(np.abs(diffs - np.median(diffs))) / 4.0
        assert _bandwidth_floor(np.diff(path.times), diffs) == pytest.approx(spread, rel=1e-9)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 2100, 2101])
    def test_median_is_numpys_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for a in (rng.standard_normal(size), np.abs(rng.standard_normal(size)),
                  rng.integers(-3, 4, size).astype(float)):  # the last with ties
            assert _median(a.copy()).tobytes() == np.median(a).tobytes()

    def test_event_batch_is_the_passage_stream(self):
        # gaps, then sizes, per batch: the exact passage's first batch on a
        # fresh stream is event_batch's
        rng_a, rng_b = stream(57), stream(57)
        at, pre, post = event_batch(DRIFT_CP, rng_a, np.zeros(2), np.zeros(2), 16)
        gaps = rng_b.exponential(1.0, (2, 16))
        sizes = DRIFT_CP.levy_measure.sample_jumps_above(rng_b, 0.0, 32).reshape(2, 16)
        assert np.array_equal(at, np.cumsum(gaps, axis=1))
        assert np.allclose(post - pre, sizes, rtol=0.0, atol=1e-12)


def event_path_oracle(triplet, horizon, x0, seed):
    """Test oracle: one event path, batch after batch of event_batch on its own stream.

    The one-path loop event_block replaced: each batch's jumps before the
    horizon are appended as knots, then the last piece runs to the horizon.
    """
    rng, rate = stream(seed), triplet.levy_measure.rate_above(0.0)
    t, v = np.zeros(1), np.array([float(x0)])
    times, values = [t], [v]
    m = simulate.batch_size(rate, horizon)
    while rate > 0.0:
        at, pre, post = event_batch(triplet, rng, t, v, m)
        k = int(np.searchsorted(at[0], horizon))
        times.append(np.repeat(at[0, :k], 2))
        values.append(np.column_stack((pre[0, :k], post[0, :k])).ravel())
        if k < m:
            break
        t, v = at[:, -1], post[:, -1]
    times, values = np.concatenate(times), np.concatenate(values)
    return (np.append(times, horizon),
            np.append(values, values[-1] + triplet.drift * (horizon - times[-1])))


def trapezoids_oracle(times, values, f, checkpoints):
    """Test oracle: the one-path trapezoid rule perpetual_estimates replaced on grid paths."""
    fv = np.asarray(f(values), dtype=float)
    cum = np.empty(times.size)  # the trapezoids, then their running sum
    cum[0] = 0.0
    np.add(fv[1:], fv[:-1], out=cum[1:])
    cum[1:] *= 0.5
    cum[1:] *= np.diff(times)
    np.cumsum(cum, out=cum)
    return np.interp(checkpoints, times, cum)


def exact_partials_oracle(times, values, f, checkpoints):
    """Test oracle: the one-path exact integral perpetual_estimates replaced."""
    checkpoints = np.asarray(checkpoints, dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(simulate._line_integrals(f, np.diff(times), values[:-1],
                                                                     values[1:]))))
    i = np.searchsorted(times, checkpoints, side="right") - 1
    at = np.interp(checkpoints, times, values)
    return cum[i] + simulate._line_integrals(f, checkpoints - times[i], values[i], at)


class TestEventBlock:
    """A block of event or grid paths: each row is, bit for bit, the path and the partial integrals alone."""

    HORIZON = 32.0
    CHECKPOINTS = [0.0, 1.5, 4.0, 9.75, 16.0, 32.0]
    F = SumOf((ExpDecay(0.3), Indicator(-1.0, 2.0)))

    def assert_rows_are_alone(self, triplet, x0=0.0, n=9):
        seeds = [derive_seed(80, i) for i in range(n)]
        starts = np.broadcast_to(np.asarray(x0, dtype=float), (n,))
        block = event_block(triplet, self.HORIZON, seeds, x0)
        partials = perpetual_estimates(block, self.F, self.CHECKPOINTS)
        assert partials.shape == (n, len(self.CHECKPOINTS))
        for r, (seed, start) in enumerate(zip(seeds, starts)):
            row, path = block.path(r), sample_path(triplet, self.HORIZON, 0.01, x0=float(start), seed=seed)
            times, values = event_path_oracle(triplet, self.HORIZON, float(start), seed)
            for a in (row, path):
                assert a.exact
                assert a.times.tobytes() == times.tobytes() and a.values.tobytes() == values.tobytes()
            expected = exact_partials_oracle(times, values, self.F, self.CHECKPOINTS).tobytes()
            assert partials[r].tobytes() == expected
            assert perpetual_estimate(path, self.F, self.CHECKPOINTS).tobytes() == expected
        # every odd piece is a jump or padding, of zero duration: the layout that
        # lets perpetual_estimates integrate the even pieces alone
        assert np.array_equal(block.times[:, 1:-1:2], block.times[:, 2::2])
        return block

    @pytest.mark.parametrize("triplet", [
        DRIFT_CP,
        CP_ONLY,
        LevyTriplet(-0.2, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1))),
        DOWN_CP,
        LevyTriplet(0.3, 0.0, CompoundPoisson(2.0, TwoSidedExponentialJump(1.5, 3.0, 0.6))),
        LevyTriplet(0.4),
    ], ids=["drift_cp", "cp_only", "down_drift_up_jumps", "down_cp", "two_sided", "pure_drift"])
    def test_rows_are_the_paths_alone(self, triplet):
        block = self.assert_rows_are_alone(triplet)
        # shorter rows are padded with their last knot, at the horizon
        assert block.times.shape[1] == block.knots.max() and np.all(block.times[:, -1] == self.HORIZON)

    def test_cp_only_pieces_are_flat(self):
        # drift 0: every piece of positive duration takes _line_integrals' flat branch
        block = self.assert_rows_are_alone(CP_ONLY)
        moving = np.diff(block.times, axis=1) > 0.0
        assert moving.any() and np.all(np.diff(block.values, axis=1)[moving] == 0.0)

    @pytest.mark.parametrize("x0", [2.5, [0.5 * i - 1.0 for i in range(9)]], ids=["one", "per_row"])
    def test_rows_start_from_x0(self, x0):
        block = self.assert_rows_are_alone(DOWN_CP, x0=x0)
        assert block.values[:, 0].tolist() == np.broadcast_to(x0, (9,)).tolist()

    def test_rows_without_jumps(self):
        # rate 0.02 over 32: about half the rows have no jump, a line from 0 to the horizon
        block = self.assert_rows_are_alone(LevyTriplet(0.2, 0.0, CompoundPoisson(0.02, ExponentialJump(2.0, 1))),
                                           x0=[0.5 * i - 2.0 for i in range(9)])
        assert 2 in block.knots and block.knots.max() > 2

    def test_an_exact_path_whose_odd_pieces_move_is_integrated_whole(self):
        # linear between knots at 0, 11, 13 and 32, with no jump: pieces 1 and 3 move
        times, values = np.array([0.0, 11.0, 13.0, 32.0]), np.array([-1.5, 0.5, 1.0, 3.0])
        got = perpetual_estimate(PathSample(times=times, values=values, exact=True), self.F, self.CHECKPOINTS)
        assert got.tobytes() == exact_partials_oracle(times, values, self.F, self.CHECKPOINTS).tobytes()
        assert got[-1] > got[-2] > got[-3]

    @pytest.mark.parametrize("triplet", [DRIFT_CP, DOWN_CP], ids=["drift_cp", "down_cp"])
    def test_rows_that_need_more_batches(self, triplet, monkeypatch):
        # three events per batch: every row takes many batches, and rows stop in different ones
        monkeypatch.setattr(simulate, "batch_size", lambda rate, duration: 3)
        block = self.assert_rows_are_alone(triplet, x0=[0.1 * i for i in range(9)])
        last_batch = (block.knots - 2) // 2 // 3  # the batch each row's last jump came in
        assert last_batch.min() >= 1 and len(set(last_batch)) > 1

    def test_at_is_np_interp_row_by_row(self):
        block = event_block(DOWN_CP, self.HORIZON, [derive_seed(81, i) for i in range(5)], 1.0)
        jumps = np.unique(block.times[0, 1:-1])
        t = np.concatenate(([0.0, 3.3, 31.999], jumps, jumps + 1e-9, np.nextafter(jumps, 0.0)))
        # before 0 the start value and past the horizon the end value, as np.interp gives them
        t = np.concatenate((np.clip(t, 0.0, self.HORIZON), [self.HORIZON, -1.0, -0.0, self.HORIZON + 0.5]))
        at = block.at(t)
        for r in range(block.rows):
            assert at[r].tobytes() == block.path(r).at(t).tobytes()

    @pytest.mark.parametrize("triplet", [
        DRIFT_CP,
        LevyTriplet(0.2, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1))),
    ], ids=["up_jumps", "down_jumps"])
    def test_checkpoints_on_jump_times(self, triplet):
        # every row's jump times: a knot pair of its own row, inside a piece of the others
        block = event_block(triplet, self.HORIZON, [derive_seed(85, i) for i in range(5)])
        jumps = np.unique(np.concatenate([block.path(r).times[1:-1] for r in range(block.rows)]))
        checkpoints = np.concatenate(([0.0], jumps, [self.HORIZON]))
        partials, at = perpetual_estimates(block, self.F, checkpoints), block.at(checkpoints)
        for r in range(block.rows):
            path = block.path(r)
            expected = exact_partials_oracle(path.times, path.values, self.F, checkpoints)
            assert partials[r].tobytes() == expected.tobytes()
            assert at[r].tobytes() == np.interp(checkpoints, path.times, path.values).tobytes()

    def test_a_grid_path_is_a_one_row_block(self):
        path = sample_path(JUMP_DIFFUSION, 10.0, 0.01, x0=1.0, seed=82)
        block = PathBlock.of(path)
        assert block.rows == 1 and not block.exact
        assert block.path(0).times.tobytes() == path.times.tobytes()
        t = np.array([0.0, 2.345, 5.0, 10.0])
        assert block.at(t)[0].tobytes() == path.at(t).tobytes()
        assert perpetual_estimates(block, self.F, [1.0, 10.0])[0].tobytes() == \
            perpetual_estimate(path, self.F, [1.0, 10.0]).tobytes()

    def test_sample_paths_gives_one_block_of_event_or_grid_rows(self):
        seeds = [derive_seed(83, i) for i in range(4)]
        event = simulate.sample_paths(DRIFT_CP, 20.0, 0.01, seeds, x0=[0.0, 1.0, 2.0, 3.0])
        grid = simulate.sample_paths(JUMP_DIFFUSION, 20.0, 0.01, seeds, x0=[0.0, 1.0, 2.0, 3.0])
        assert (event.rows, event.exact) == (4, True) and (grid.rows, grid.exact) == (4, False)
        for block, triplet in ((event, DRIFT_CP), (grid, JUMP_DIFFUSION)):
            for i, seed in enumerate(seeds):
                path = sample_path(triplet, 20.0, 0.01, x0=float(i), seed=seed)
                assert block.path(i).values.tobytes() == path.values.tobytes()

    def test_a_padded_grid_block_is_its_paths_alone(self):
        # jumps at exact times: rows of different knot counts, padded with their last knot
        seeds, starts = [derive_seed(84, i) for i in range(6)], [0.5 * i - 1.0 for i in range(6)]
        block = simulate.sample_paths(JUMP_DIFFUSION, 8.0, 0.01, seeds, x0=starts)
        assert not block.exact and len(set(block.knots.tolist())) > 1
        assert block.times.shape[1] == block.knots.max() and np.all(block.times[:, -1] == 8.0)
        checkpoints, t = [0.0, 1.0, 2.5, 4.0, 8.0], np.array([-1.0, 0.0, 0.013, 3.3, 7.999, 8.0, 9.0])
        partials, at = perpetual_estimates(block, self.F, checkpoints), block.at(t)
        grid = _padded_grid(block, 0.3, 300)
        field, covered = local_time_block(block.times, block.values, grid, 0.05)
        for r, (seed, start) in enumerate(zip(seeds, starts)):
            path = sample_path(JUMP_DIFFUSION, 8.0, 0.01, x0=start, seed=seed)
            row = block.path(r)
            assert row.times.tobytes() == path.times.tobytes()
            assert row.values.tobytes() == path.values.tobytes()
            assert np.all(block.values[r, block.knots[r]:] == path.values[-1])
            expected = trapezoids_oracle(path.times, path.values, self.F, checkpoints).tobytes()
            assert partials[r].tobytes() == expected
            assert perpetual_estimate(path, self.F, checkpoints).tobytes() == expected
            assert at[r].tobytes() == path.at(t).tobytes()
            fld = local_time_field(path, grid, 0.05)
            assert field[r].tobytes() == fld.values.tobytes() and covered[r] == fld.t_covered

    def test_a_block_is_refused_as_its_paths_are(self):
        dense = LevyTriplet(0.1, 0.0, CompoundPoisson(1e7, ExponentialJump(2.0, 1)))
        with pytest.raises(PreconditionViolation) as exc:
            simulate.sample_paths(dense, 256.0, 0.01, [1, 2])
        assert exc.value.reason == "PATH_BUDGET"


class TestPerpetualEstimate:
    def test_constant_function_gives_time(self):
        path = sample_path(BM_DRIFT, 8.0, 0.01, seed=10)
        est = perpetual_estimate(path, Indicator(-1e9, 1e9), [2.0, 4.0, 8.0])
        assert np.allclose(est, [2.0, 4.0, 8.0], rtol=1e-9)

    def test_pure_drift_closed_form(self):
        # f(x) = e^{-x} along x = t: integral is 1 - e^{-T}
        path = sample_path(LevyTriplet(1.0), 20.0, 0.005, seed=11)
        est = perpetual_estimate(path, ExpDecay(1.0, left_level=0.0), [1.0, 5.0, 20.0])
        expected = 1.0 - np.exp(-np.array([1.0, 5.0, 20.0]))
        assert np.allclose(est, expected, atol=1e-4)

    def test_monotone_in_checkpoints(self):
        path = sample_path(BM_DRIFT, 16.0, 0.01, seed=12)
        est = perpetual_estimate(path, ExpDecay(1.0), [1.0, 2.0, 4.0, 8.0, 16.0])
        assert np.all(np.diff(est) >= -1e-12)

    def test_checkpoint_range_guard(self):
        path = sample_path(BM_DRIFT, 4.0, 0.01, seed=13)
        with pytest.raises(PreconditionViolation):
            perpetual_estimate(path, ExpDecay(1.0), [5.0])


class TestLocalTimeField:
    def test_occupation_identity_single_path(self):
        path = sample_path(BM_DRIFT, 50.0, 0.01, seed=20)
        lo = path.values.min() - 0.1
        hi = path.values.max() + 0.1
        grid = np.linspace(lo, hi, 1200)
        fld = local_time_field(path, grid, 0.05)
        mass = float(np.trapezoid(fld.values, grid))
        assert mass == pytest.approx(fld.t_covered, rel=0.03)

    def test_grid_larger_than_path_covers_everything(self):
        path = sample_path(BM_DRIFT, 20.0, 0.01, seed=21)
        grid = np.linspace(path.values.min() - 1, path.values.max() + 1, 800)
        fld = local_time_field(path, grid, 0.05)
        assert fld.t_covered == pytest.approx(20.0, rel=1e-6)

    def test_pure_drift_flat_density(self):
        # x = t: occupation density against dx is 1/speed
        path = sample_path(LevyTriplet(2.0), 10.0, 0.01, seed=22)
        grid = np.linspace(2.0, 18.0, 33)
        fld = local_time_field(path, grid, 0.25)
        assert np.allclose(fld.values, 0.5, atol=1e-9)

    def test_bandwidth_floor(self):
        path = sample_path(BM_DRIFT, 5.0, 0.01, seed=23)
        with pytest.raises(BandwidthTooSmall):
            local_time_field(path, np.linspace(-1, 5, 50), 1e-5)

    def test_grid_order_guard(self):
        path = sample_path(BM_DRIFT, 5.0, 0.01, seed=24)
        with pytest.raises(PreconditionViolation):
            local_time_field(path, np.array([1.0, 1.0, 2.0]), 0.05)


def _padded_grid(path, pad, size):
    return np.linspace(path.values.min() - pad, path.values.max() + pad, size)


class TestLocalTimeFieldAgainstDenseOracle:
    """The ramp-CDF field equals the dense overlap matrix up to rounding."""

    @staticmethod
    def assert_matches_oracle(path, grid, bandwidth):
        fld = local_time_field(path, grid, bandwidth)
        values, t_covered = dense_local_time_field(path, grid, bandwidth)
        tol = 1e-10 * max(1.0, float(values.max()))
        assert np.max(np.abs(fld.values - values)) <= tol
        assert abs(fld.t_covered - t_covered) <= 1e-10 * max(1.0, path.horizon)
        # windows the path never enters are exactly empty, as in the oracle
        assert np.array_equal(fld.values == 0.0, values == 0.0)
        return fld

    def test_brownian_with_drift(self):
        path = sample_path(BM_DRIFT, 50.0, 0.01, seed=30)
        self.assert_matches_oracle(path, _padded_grid(path, 0.3, 1500), 0.05)

    def test_compound_poisson_with_flat_segments(self):
        # no drift and no Gaussian part: the event path is flat between jumps,
        # and each jump is a piece of zero duration
        t = LevyTriplet(0.0, 0.0, CompoundPoisson(2.0, ExponentialJump(1.0, 1)))
        path = sample_path(t, 50.0, 0.01, seed=31)
        moving = np.diff(path.times) > 0.0
        assert np.all(np.diff(path.values)[moving] == 0.0)
        assert np.sum(~moving) > 50
        self.assert_matches_oracle(path, _padded_grid(path, 0.3, 900), 0.05)

    def test_stable_path(self):
        t = LevyTriplet(0.5, 0.0, StableLike(1.5, 1.0, 0.0))
        path = sample_path(t, 30.0, 0.01, seed=32)
        self.assert_matches_oracle(path, _padded_grid(path, 0.5, 2000), 0.1)

    def test_non_uniform_grid(self):
        path = sample_path(BM_DRIFT, 30.0, 0.01, seed=33)
        lo, hi = path.values.min() - 1.0, path.values.max() + 1.0
        grid = lo + (hi - lo) * np.linspace(0.0, 1.0, 700) ** 2
        self.assert_matches_oracle(path, grid, 0.08)
        grid = np.sort(np.random.default_rng(33).uniform(lo, hi, 500))
        self.assert_matches_oracle(path, grid, 0.03)

    def test_ties_on_path_values(self):
        # dyadic increments, levels and bandwidth: every sum is exact, so
        # window edges and grid ends land exactly on vertices and on flat
        # segments, from above and from below
        rng = np.random.default_rng(34)
        steps = rng.choice([-0.25, -0.125, 0.0, 0.0, 0.125, 0.25, 0.5], size=4000)
        path = lattice_path(steps)
        grid = np.arange(path.values.min() - 0.5, path.values.max() + 0.75, 0.125)
        fld = self.assert_matches_oracle(path, grid, 0.25)
        assert np.intersect1d(grid - 0.25, path.values).size > 10
        inner = grid[(grid > path.values.min()) & (grid < path.values.max())]
        self.assert_matches_oracle(path, inner, 0.25)
        assert fld.t_covered == pytest.approx(path.horizon, rel=1e-12)

    def test_flat_segment_counts_in_closed_window(self):
        # one step from 0 up to 1.0, then ten steps flat at 1.0: the flat
        # time counts wholly in [0.5, 1.0] and in [1.0, 1.5]
        path = lattice_path([0.0] * 5 + [1.0] + [0.0] * 10)
        fld = local_time_field(path, np.array([0.75, 1.25, 2.0]), 0.25)
        assert fld.values[0] == pytest.approx((0.005 + 0.10) / 0.5, rel=1e-12)
        assert fld.values[1] == pytest.approx(0.10 / 0.5, rel=1e-12)
        assert fld.values[2] == 0.0
        fld = local_time_field(path, np.array([1.0, 1.25]), 0.25)
        assert fld.t_covered == pytest.approx(0.10, rel=1e-12)

    def test_large_jumps_cross_many_levels(self):
        # 130 jumps over a 20,001-level grid: 5.2 million (segment, edge)
        # pairs, more than one block
        steps = np.zeros(1300)
        steps[::10] = 200.0 * (-1.0) ** np.arange(130)
        path = lattice_path(steps)
        self.assert_matches_oracle(path, np.linspace(0.0, 200.0, 20001), 0.05)


class TestLocalTimeBlock:
    """The fields of several paths in one pass: each row is local_time_field's, bit for bit."""

    LEVELS = np.array([1.0, 2.0, 3.5])

    @staticmethod
    def assert_rows_are_the_fields(paths, grid, bandwidth):
        values, t_covered = local_time_block(*padded(paths), grid, bandwidth)
        assert values.shape == (len(paths), np.size(grid))
        for row, covered, path in zip(values, t_covered, paths):
            fld = local_time_field(path, grid, bandwidth)
            assert row.tobytes() == fld.values.tobytes()
            assert covered == fld.t_covered
        return values

    @pytest.mark.parametrize("triplet", [
        BM_DRIFT, LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0)), JUMP_DIFFUSION, DRIFT_CP,
    ], ids=["bm", "stable", "bm_cp", "event"])
    def test_rows_are_the_one_path_fields(self, triplet):
        paths = [sample_path(triplet, 20.0, 0.01, x0=0.5 * i, seed=70 + i) for i in range(5)]
        assert any(np.any(np.diff(p.times) == 0.0) for p in paths) == (triplet is not BM_DRIFT)
        self.assert_rows_are_the_fields(paths, self.LEVELS, 0.05)
        grid = _padded_grid(paths[0], 0.3, 400)
        self.assert_rows_are_the_fields(paths, grid, 0.05)

    def test_flat_pieces_and_ties(self):
        # dyadic lattice paths: flat pieces, and values on window edges and grid ends
        rng = np.random.default_rng(71)
        paths = [lattice_path(rng.choice([-0.25, 0.0, 0.0, 0.125, 0.25], size=600)) for _ in range(4)]
        grid = np.arange(-1.0, 1.25, 0.125)
        self.assert_rows_are_the_fields(paths, grid, 0.25)

    def test_a_path_above_every_window_is_an_exact_zero_row(self):
        low = sample_path(BM_DRIFT, 10.0, 0.01, seed=72)
        high = sample_path(BM_DRIFT, 10.0, 0.01, x0=100.0, seed=73)
        assert high.values.min() > self.LEVELS[-1] + 0.05
        values = self.assert_rows_are_the_fields([low, high, low], self.LEVELS, 0.05)
        assert values[1].tobytes() == np.zeros(self.LEVELS.size).tobytes()
        assert values[0].tobytes() == values[2].tobytes() and np.any(values[0] > 0.0)

    def test_pair_blocks_split_each_row_as_alone(self, monkeypatch):
        # with small pair blocks a block would otherwise end inside a later
        # row and sum that row's ramps in another grouping
        monkeypatch.setattr(localtime, "_PAIR_BLOCK", 700)
        grid = np.linspace(-1.0, 4.0, 120)
        paths = [sample_path(JUMP_DIFFUSION, 5.0, 0.01, seed=74 + i) for i in range(6)]
        self.assert_rows_are_the_fields(paths, grid, 0.05)
        self.assert_rows_are_the_fields(paths[::-1], grid, 0.05)

    def test_the_first_path_below_its_floor_is_refused(self):
        smooth = sample_path(LevyTriplet(1.0), 5.0, 0.01, seed=75)
        rough = sample_path(BM_DRIFT, 5.0, 0.01, seed=76)
        with pytest.raises(BandwidthTooSmall) as alone:
            local_time_field(rough, self.LEVELS, 1e-4)
        with pytest.raises(BandwidthTooSmall) as block:
            local_time_block(*padded([smooth, rough, smooth]), self.LEVELS, 1e-4)
        assert str(block.value) == str(alone.value)
