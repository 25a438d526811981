"""First passage times, overshoot laws, and the stationary overshoot law."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from perpetua import (
    CompoundPoisson,
    ConstantJump,
    EmpiricalDistribution,
    ExponentialJump,
    LevyTriplet,
    PreconditionViolation,
    StableLike,
    TwoSidedExponentialJump,
    first_passage,
    ks_critical,
    ks_one_sample,
    ks_two_sample,
    overshoot_ensemble,
    stationary_overshoot,
)
from perpetua import passage
from perpetua.passage import BATCH_EVENTS, _bridge_hit_times, _event_passages, _scan_for_crossing
from perpetua.rng import derive_seed, stream
from perpetua.simulate import StepEngine

# Drift 0.5 plus rate-1 Exp(0.4) jumps: mu = 0.5 + 2.5 = 3, creep mass 1/6.
CREEP_TRIPLET = LevyTriplet(0.5, 0.0, CompoundPoisson(1.0, ExponentialJump(0.4, 1)))
CREEP_MASS = 1.0 / 6.0
JUMP_THETA = 0.4
# The benchmark's drift_cp: drift 0.1 plus rate-1 Exp(2) up-jumps, mu = 0.6.
DRIFT_CP = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
# Drift 0.3 plus rate-1.5 jumps, +Exp(1) w.p. 0.6 and -Exp(2) otherwise: mu = 0.9.
TWO_SIDED = LevyTriplet(0.3, 0.0, CompoundPoisson(1.5, TwoSidedExponentialJump(1.0, 2.0, 0.6)))
# Drift 1 with unit down-jumps: the path is t - N(t), so it always creeps and
# first reaches an integer level L at time L + (number of jumps before then).
UNIT_DOWN = LevyTriplet(1.0, 0.0, CompoundPoisson(0.5, ConstantJump(-1.0)))


class TestFirstPassage:
    def test_pure_drift_exact(self):
        fp = first_passage(LevyTriplet(2.0), 4.0, seed=1)
        assert fp.reached
        assert fp.passage_time == 2.0
        assert fp.overshoot == 0.0
        assert first_passage(LevyTriplet(2.0), 4.0, x0=1.0).passage_time == 1.5

    def test_start_above_level_is_instant(self):
        fp = first_passage(LevyTriplet(1.0), 2.0, seed=1, x0=3.5)
        assert fp.passage_time == 0.0
        assert fp.overshoot == pytest.approx(1.5)

    def test_cap_must_be_finite(self):
        with pytest.raises(PreconditionViolation) as exc:
            first_passage(DRIFT_CP, 5.0, cap=math.inf)
        assert exc.value.reason == "CAP_RANGE"

    def test_level_must_be_positive(self):
        with pytest.raises(PreconditionViolation) as exc:
            first_passage(LevyTriplet(1.0), -1.0, seed=0)
        assert exc.value.reason == "LEVEL_RANGE"

    def test_cap_exhausted_reports_not_reached(self):
        fp = first_passage(LevyTriplet(1.0), 10.0, seed=0, cap=1.0)
        assert not fp.reached
        assert fp.passage_time is None
        assert fp.overshoot is None

    def test_default_cap_needs_positive_mean(self):
        with pytest.raises(PreconditionViolation) as exc:
            first_passage(LevyTriplet(0.0, 1.0), 1.0, seed=0)
        assert exc.value.reason == "MEAN_RANGE"

    def test_driftless_bm_with_explicit_cap(self):
        # no default cap for zero mean, but an explicit one works
        fp = first_passage(LevyTriplet(0.0, 1.0), 0.5, seed=3, cap=200.0)
        assert fp.reached
        assert fp.overshoot == pytest.approx(0.0, abs=1e-12)


def grid_passages(triplet, level, n, seed, dt=1e-2):
    """Oracle: passage times and overshoots of n paths walked on their dt grid knots."""
    engine = StepEngine(triplet, dt)
    cap = 10.0 * level / triplet.mean().as_float()
    hits = [
        _scan_for_crossing(engine, stream(derive_seed(seed, "grid", i)), 0.0, level, cap)
        for i in range(n)
    ]
    times = np.array([t for t, _ in hits])
    return times, np.array([o for _, o in hits])


def spy_on_draw(monkeypatch) -> list:
    """The step counts StepEngine.draw is asked for, in call order."""
    asked = []
    draw = StepEngine.draw

    def spy(engine, rng, n):
        asked.append(n)
        return draw(engine, rng, n)

    monkeypatch.setattr(StepEngine, "draw", spy)
    return asked


def event_passages(triplet, level, n, seed, cap=None):
    cap = 10.0 * level / triplet.mean().as_float() if cap is None else cap
    return _event_passages(triplet, level, np.zeros(n), cap, stream(seed))


class TestEventPassage:
    """Exact event-by-event passage of drift plus compound Poisson."""

    @pytest.mark.parametrize(
        "triplet", [DRIFT_CP, TWO_SIDED, UNIT_DOWN], ids=["drift_cp", "two_sided", "unit_down"]
    )
    def test_matches_grid_scan(self, triplet):
        # between jumps the path is linear and the grid resolves every jump
        # at its exact time, so the scan is an exact oracle in law;
        # with down-jumps a creep missed before a jump shows up as a later
        # passage time
        n = 600
        grid_t, grid_o = grid_passages(triplet, 5.0, n, seed=21)
        event_t, event_o, _ = event_passages(triplet, 5.0, n, seed=22)
        crit = ks_critical(n, n, alpha=0.01)
        # grid times are (step + fraction) * dt, off by rounding from the
        # integer atoms of unit_down; KS would read those as separate points
        assert ks_two_sample(np.round(event_t, 6), np.round(grid_t, 6)) < crit
        assert ks_two_sample(event_o, grid_o) < crit
        assert np.mean(event_o == 0.0) > 0.05  # all three creep

    @pytest.mark.parametrize("x0", [5.0, 6.5])
    def test_start_at_or_above_level_is_instant(self, x0):
        fp = first_passage(DRIFT_CP, 5.0, seed=1, x0=x0)
        assert fp.passage_time == 0.0
        assert fp.overshoot == x0 - 5.0

    def test_creep_time_is_exact(self):
        # t - N(t) first reaches 3 at 3 + (jumps so far), overshoot exactly 0;
        # a creep placed at the jump time or measured from the wrong start
        # breaks the integer offsets
        times, overshoots, _ = event_passages(UNIT_DOWN, 3.0, 400, seed=23)
        offsets = times - 3.0
        assert np.all(overshoots == 0.0)
        assert np.allclose(offsets, np.round(offsets), atol=1e-9)
        assert offsets.min() == pytest.approx(0.0, abs=1e-9)
        assert offsets.max() >= 3.0

    def test_grid_creep_time_is_exact(self):
        # the grid knots hold each jump at its time: the same integer offsets
        times, overshoots = grid_passages(UNIT_DOWN, 3.0, 400, seed=23)
        offsets = times - 3.0
        assert np.all(overshoots == 0.0)
        assert np.allclose(offsets, np.round(offsets), atol=1e-9)
        assert offsets.min() == pytest.approx(0.0, abs=1e-9)
        assert offsets.max() >= 3.0

    def test_negative_drift_never_creeps(self):
        # only jumps go up, so every crossing overshoots, Exp(1) by lack of memory
        triplet = LevyTriplet(-0.5, 0.0, CompoundPoisson(1.0, ExponentialJump(1.0, 1)))
        dist = overshoot_ensemble(triplet, 5.0, 2000, seed=24)
        assert np.all(dist.samples > 0.0)
        stat = ks_one_sample(dist.samples, lambda x: 1.0 - np.exp(-x))
        assert stat < ks_critical(2000, alpha=0.01)

    def test_two_sided_jumps_with_positive_mean(self):
        # upward crossings by a jump overshoot by Exp(theta_plus) at any level;
        # the rest creep along the drift and overshoot by exactly 0
        dist = overshoot_ensemble(TWO_SIDED, 8.0, 3000, seed=25)
        assert np.all(dist.samples >= 0.0)
        jumped = dist.samples[dist.samples > 0.0]
        assert 0.05 < 1.0 - jumped.size / dist.n < 0.95
        stat = ks_one_sample(jumped, lambda x: 1.0 - np.exp(-x))
        assert stat < ks_critical(jumped.size, alpha=0.01)

    def test_cap_between_events(self):
        seed = next(s for s in range(100)
                    if first_passage(UNIT_DOWN, 3.0, seed=s, cap=1e3).passage_time > 3.5)
        t_hit = first_passage(UNIT_DOWN, 3.0, seed=seed, cap=1e3).passage_time
        assert first_passage(UNIT_DOWN, 3.0, seed=seed, cap=t_hit).passage_time == t_hit
        late = first_passage(UNIT_DOWN, 3.0, seed=seed, cap=t_hit - 1e-6)
        assert not late.reached and late.overshoot is None
        # the path is t - N(t) <= t, so a cap below the level is never enough
        assert not first_passage(UNIT_DOWN, 3.0, seed=seed, cap=2.5).reached

    def test_ensemble_raises_when_a_path_stalls(self):
        # mu = 1.001, but a path must wait for a rare jump (mean 5,000) or creep
        # for 50,000: the 20 passage times sum far past the budget
        # 20 x 10 level / mu = 9,990 (by Gamma(20) odds of about 1e-11 otherwise)
        triplet = LevyTriplet(1e-3, 0.0, CompoundPoisson(2e-4, ConstantJump(5000.0)))
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_ensemble(triplet, 50.0, 20, seed=26)
        assert exc.value.reason == "PASSAGE_BUDGET"
        assert str(exc.value).startswith(
            "PASSAGE_BUDGET: passage times to level 50 sum past the budget 9990.01 = 20 paths x 10 level/mu by path ")

    def test_a_slow_path_runs_within_the_ensemble_budget(self):
        # drift 1 over rate-1 Exp(1.1) down-jumps, mu = 1/11: passage to 1
        # takes 11 on average with a long tail, so some paths take longer than
        # their allowance A = 110 while the times sum far inside n A
        triplet = LevyTriplet(1.0, 0.0, CompoundPoisson(1.0, ExponentialJump(1.1, -1)))
        n, allowance = 500, 10.0 / triplet.mean().as_float()
        times, _, _ = event_passages(triplet, 1.0, n, seed=derive_seed(55, "overshoot"), cap=n * allowance)
        assert np.count_nonzero(times > allowance) >= 3
        assert times.sum() < 0.2 * n * allowance
        dist = overshoot_ensemble(triplet, 1.0, n, seed=55)  # the same draws
        assert dist.n == n and np.all(dist.samples == 0.0)  # no up-jumps: every path creeps

    @pytest.mark.parametrize("triplet, level, pieces", [
        # verify_cp's triplet at z2 = 2e12: 2 rate A + 1 pieces, A = 10 level / mu
        (DRIFT_CP, 2e12, "6.67e+13"),
        # drift 0.500001 over Exp(2) down-jumps: mu = 1e-6
        (LevyTriplet(0.500001, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1))), 1.6e7, "3.2e+14"),
        # a grid walk counts 10 x 2 / 3 / 1e-7 steps at dt 1e-7, and two pieces
        # per resolved jump, about 0.5 a step
        (LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0)), 2.0, "1.33e+08"),
    ], ids=["verify_cp", "tiny_mean", "grid"])
    def test_a_walk_past_the_path_budget_is_refused_before_any_draw(self, triplet, level, pieces, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a path")

        monkeypatch.setattr(passage, "stream", refuse)
        for call in (lambda: first_passage(triplet, level, dt=1e-7),
                     lambda: overshoot_ensemble(triplet, level, 10, dt=1e-7)):
            with pytest.raises(PreconditionViolation) as exc:
                call()
            assert str(exc.value).startswith(f"PATH_BUDGET: {pieces} expected pieces per path exceed PATH_BUDGET")

    def test_a_walk_without_jumps_is_one_piece_at_any_level(self):
        assert passage.passage_cap_refusal(LevyTriplet(1.0, 1.0), 1e300, n=400) is None
        dist = overshoot_ensemble(LevyTriplet(1.0, 1.0), 1e12, 400, seed=56)
        assert dist.events_drawn == 0 and np.all(dist.samples == 0.0)

    def test_the_budget_must_be_finite(self):
        # each path's allowance 10 level / mu = 1e308 is finite, 4 of them are not
        assert passage.passage_cap_refusal(LevyTriplet(1.0), 1e307) is None
        assert passage.passage_cap_refusal(LevyTriplet(1.0), 1e307, n=4) == (
            "CAP_RANGE", "need a finite cap, got inf (4 paths of 1e+308)")

    @pytest.mark.parametrize("n", [0, 2**20 + 1, 10**12])
    def test_a_sample_size_out_of_range_is_refused_before_any_allocation(self, n, monkeypatch):
        monkeypatch.setattr(passage, "np", None)  # any array would fail
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_ensemble(DRIFT_CP, 5.0, n)
        assert exc.value.reason == "SAMPLE_SIZE"

    def test_level_range_guard(self):
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_ensemble(DRIFT_CP, 0.0, 10, seed=0)
        assert exc.value.reason == "LEVEL_RANGE"
        # the level is checked before the cap that needs a positive mean, as
        # first_passage does
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_ensemble(LevyTriplet(0.0, 1.0), -1.0, 10)
        assert exc.value.reason == "LEVEL_RANGE"

    def test_row_blocks_and_batches_are_deterministic(self):
        # about 8 events to passage, batches of the minimum 16: five row
        # blocks of 4,096 paths from one stream, a few paths batched twice
        a = overshoot_ensemble(DRIFT_CP, 5.0, 20_000, seed=27)
        b = overshoot_ensemble(DRIFT_CP, 5.0, 20_000, seed=27)
        assert np.array_equal(a.samples, b.samples)
        assert a.events_drawn == b.events_drawn > 20_000 * 16
        assert not np.array_equal(a.samples, overshoot_ensemble(DRIFT_CP, 5.0, 20_000, seed=28).samples)
        # about 100,000 events to passage: one path per block, two full batches
        dense = LevyTriplet(0.0, 0.0, CompoundPoisson(100.0, ExponentialJump(100.0, 1)))
        t1, o1, drawn = event_passages(dense, 1000.0, 3, seed=29)
        t2, o2, _ = event_passages(dense, 1000.0, 3, seed=29)
        assert drawn == 3 * 2 * BATCH_EVENTS
        assert np.array_equal(t1, t2) and np.array_equal(o1, o2)
        assert np.all(np.abs(t1 - 1000.0) < 50.0) and np.all(o1 > 0.0)

    def test_high_rate_needs_no_grid(self, monkeypatch):
        # 100 jumps per unit time, one per step at dt 0.01: passage is exact
        # events all the same, and builds no grid
        def refuse(*args, **kwargs):
            raise AssertionError("StepEngine built for finite activity")

        monkeypatch.setattr(StepEngine, "__init__", refuse)
        triplet = LevyTriplet(0.5, 0.0, CompoundPoisson(100.0, ExponentialJump(50.0, 1)))
        dist = overshoot_ensemble(triplet, 5.0, 200, seed=30, dt=0.01)
        assert dist.n == 200 and np.all(dist.samples >= 0.0)

    def test_grid_ensembles_report_no_events(self):
        # only infinite activity is scanned on the grid
        triplet = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        assert overshoot_ensemble(triplet, 2.0, 5, seed=31, dt=5e-3).events_drawn is None

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_grid_ensemble_is_pinned_for_any_threads(self, threads):
        # path i scans its own stream, whatever block or thread runs it: the
        # samples' sha256 is pinned, so no thread count may move a bit
        triplet = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0))
        dist = overshoot_ensemble(triplet, 5.0, 60, seed=7, threads=threads)
        assert np.count_nonzero(dist.samples) > 10
        assert hashlib.sha256(dist.samples.tobytes()).hexdigest() == \
            "baeb89a6c6d02d69db625ef9139c9b8ee31979e20ef8dd2ea6593c5ab377ebb2"


# Drift 1, sigma 1 plus rate-1 Exp(2) up-jumps: mu = 1.5.  Its Lévy exponent
# has the root beta2 = sqrt(6) above theta = 2 (Kou & Wang 2003).
JUMP_DIFFUSION = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
BETA2 = math.sqrt(6.0)
# The benchmark's sn_bm_cp: drift 1, sigma 1 plus rate-1 Exp(2) down-jumps, mu = 0.5.
SN_BM_CP = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))


class TestBridgePassage:
    """Exact passage with a Gaussian part: Brownian bridges between the jumps."""

    @pytest.mark.parametrize("triplet", [JUMP_DIFFUSION, SN_BM_CP],
                             ids=["jump_diffusion", "sn_bm_cp"])
    def test_matches_fine_grid_scan(self, triplet):
        # the scan misses crossings inside a step, a bias of about
        # 0.58 sigma sqrt(dt) / mu in time, well inside KS noise at dt = 1e-3
        n = 600
        grid_t, grid_o = grid_passages(triplet, 3.0, n, seed=41, dt=1e-3)
        event_t, event_o, _ = event_passages(triplet, 3.0, n, seed=42)
        crit = ks_critical(n, n, alpha=0.01)
        assert ks_two_sample(event_t, grid_t) < crit
        assert ks_two_sample(event_o, grid_o) < crit

    def test_wald_identity(self):
        # E T = (level - x0 + E overshoot) / mu, path by path mu T - overshoot
        n = 4000
        times, overshoots, _ = event_passages(JUMP_DIFFUSION, 5.0, n, seed=43)
        x = 1.5 * times - overshoots
        assert abs(x.mean() - 5.0) < 3.0 * x.std(ddof=1) / math.sqrt(n)

    def test_jump_overshoots_match_kou_wang(self):
        # P(overshoot > y) = e^(-theta y) (1 - theta/beta2)(1 - e^(-beta2 level)):
        # jump crossings overshoot by Exp(theta) by lack of memory, and their
        # share depends on the level through the Gaussian creep
        n = 4000
        jumped = []
        for level, seed in ((0.5, 44), (5.0, 45)):
            _, overshoots, _ = event_passages(JUMP_DIFFUSION, level, n, seed=seed)
            share = (1.0 - 2.0 / BETA2) * (1.0 - math.exp(-BETA2 * level))
            jumped.append(overshoots[overshoots > 0.0])
            assert jumped[-1].size / n == pytest.approx(
                share, abs=3.0 * math.sqrt(share * (1 - share) / n))
        jumped = np.concatenate(jumped)
        stat = ks_one_sample(jumped, lambda x: 1.0 - np.exp(-2.0 * x))
        assert stat < ks_critical(jumped.size, alpha=0.01)

    def test_driftless_bm_reaches_by_cap_as_reflection_says(self):
        # P(T <= c) = 2 (1 - Phi(level / (sigma sqrt c))), and given T <= c the
        # passage time has that law cut at c
        n, level, cap = 4000, 1.0, 4.0
        times, overshoots, drawn = event_passages(LevyTriplet(0.0, 1.0), level, n, seed=46, cap=cap)
        reached = ~np.isnan(times)

        def cdf(t):
            return 2.0 * stats.norm.sf(level / np.sqrt(np.maximum(t, 1e-300)))

        p = cdf(cap)
        assert reached.mean() == pytest.approx(p, abs=3.0 * math.sqrt(p * (1 - p) / n))
        assert np.all(overshoots[reached] == 0.0) and drawn == 0
        stat = ks_one_sample(times[reached], lambda t: cdf(t) / p)
        assert stat < ks_critical(int(reached.sum()), alpha=0.01)

    def test_near_level_bridges_stay_inside_their_piece(self):
        # an end value just below the level makes the inverse Gaussian's mean
        # huge; the crossing time must stay in (0, tau], not collapse to 0
        a = np.zeros(5)
        b = 1.0 - np.array([1e-300, 1e-12, 1e-3, 0.0, -1e-12])
        t = _bridge_hit_times(stream(47), a, b, 2.0, 1.0, 1.0)
        assert np.all((t > 0.0) & (t <= 2.0))

    @pytest.mark.parametrize("triplet", [
        LevyTriplet(2.0), LevyTriplet(1.0, 1.0), DRIFT_CP, TWO_SIDED, UNIT_DOWN,
        JUMP_DIFFUSION, SN_BM_CP,
    ], ids=["drift", "bm", "drift_cp", "two_sided", "unit_down", "jump_diffusion", "sn_bm_cp"])
    def test_finite_activity_builds_no_step_engine(self, triplet, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("StepEngine built for finite activity")

        monkeypatch.setattr(StepEngine, "__init__", refuse)
        assert first_passage(triplet, 2.0, seed=48).reached
        assert overshoot_ensemble(triplet, 2.0, 20, seed=48).events_drawn is not None
        assert stationary_overshoot(triplet, 20, seed=48, level=4.0)[0].n == 20

    def test_jump_diffusion_ensembles_are_deterministic(self):
        a = overshoot_ensemble(JUMP_DIFFUSION, 5.0, 500, seed=49)
        b = overshoot_ensemble(JUMP_DIFFUSION, 5.0, 500, seed=49)
        assert np.array_equal(a.samples, b.samples) and a.events_drawn == b.events_drawn > 0
        assert not np.array_equal(a.samples, overshoot_ensemble(JUMP_DIFFUSION, 5.0, 500, seed=50).samples)


class TestOvershootLaw:
    def test_brownian_creeps(self):
        dist = overshoot_ensemble(LevyTriplet(1.0, 1.0), 5.0, 200, seed=5)
        assert np.all(dist.samples == 0.0)

    def test_spectrally_negative_creeps(self):
        t = LevyTriplet(2.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
        dist = overshoot_ensemble(t, 5.0, 200, seed=6)
        assert np.all(dist.samples == 0.0)

    def test_creep_mixture_matches_renewal_law(self):
        # drift crossing leaves an atom at 0 of mass b/mu; jump crossings are
        # Exp(theta) by lack of memory, at every level, not just asymptotically
        n = 2000
        dist = overshoot_ensemble(CREEP_TRIPLET, 30.0, n, seed=7)
        atom = float(np.mean(dist.samples == 0.0))
        assert atom == pytest.approx(CREEP_MASS, abs=3.0 * math.sqrt(CREEP_MASS / n))

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0.0, 0.0, CREEP_MASS + (1.0 - CREEP_MASS) * (1.0 - np.exp(-JUMP_THETA * x)))

        def cdf_left(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= 0.0, 0.0, CREEP_MASS + (1.0 - CREEP_MASS) * (1.0 - np.exp(-JUMP_THETA * x)))

        stat = ks_one_sample(dist.samples, cdf, cdf_left=cdf_left)
        assert stat < ks_critical(n, alpha=0.01)

    def test_ensemble_determinism(self):
        a = overshoot_ensemble(CREEP_TRIPLET, 10.0, 50, seed=8)
        b = overshoot_ensemble(CREEP_TRIPLET, 10.0, 50, seed=8)
        c = overshoot_ensemble(CREEP_TRIPLET, 10.0, 50, seed=9)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_mean_range_guard(self):
        with pytest.raises(PreconditionViolation):
            overshoot_ensemble(LevyTriplet(0.0, 1.0), 1.0, 10, seed=0)

    def test_stationary_overshoot_self_check(self):
        dist, self_ks, level = stationary_overshoot(CREEP_TRIPLET, 400, seed=10, level=40.0)
        assert level == 40.0
        assert dist.n == 400
        # exponential jumps: the law is level-free, gap is pure sampling noise
        assert self_ks < ks_critical(400, 400, alpha=0.01)


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)).hexdigest()


# (triplet, level, cap) of processes without jumps: BM with drift, pure drift,
# and driftless BM, which has no default cap
NO_JUMPS = {
    "bm_drift": (LevyTriplet(1.0, 1.0), 2.0, None),
    "pure_drift": (LevyTriplet(2.0), 3.0, None),
    "driftless_bm": (LevyTriplet(0.0, 1.0), 0.5, 200.0),
}


class TestNoJumpPassagePins:
    """sha256 pins of passages without jumps, so that no change to the walk moves a bit."""

    @pytest.mark.parametrize("case, pin", [
        ("bm_drift", "d7078f6971020d931c9eee0cf46113dcd6c8fec5a9ec89ea7601c3e4feb7f702"),
        ("pure_drift", "92a16423dcfa3b69bb1acc044fb0541ffa340a12ff757525c1dc635e5e1560a1"),
        ("driftless_bm", "fc23a30b416dee9997f653511fa7c6155d8b978f2bac82ac7fd5f13b785271ca"),
    ])
    def test_first_passages_are_pinned(self, case, pin):
        # seed s at level (1 + s/100) times the case's: 200 passages
        triplet, level, cap = NO_JUMPS[case]
        hits = [first_passage(triplet, level * (1.0 + s / 100.0), seed=s, cap=cap) for s in range(200)]
        times = [math.nan if h.passage_time is None else h.passage_time for h in hits]
        overshoots = [math.nan if h.overshoot is None else h.overshoot for h in hits]
        assert digest(times, overshoots) == pin

    @pytest.mark.parametrize("case, pin", [
        ("bm_drift", "2ddeb556731368e5b01e67f617f6175a52737cc3d3f3edd8e7fa7fecc1507cc6"),
        ("pure_drift", "4b1be0fcf66a313b0567c38237a88e122fd0852e2be6aabbe8bd1a83ad949c50"),
    ])
    def test_exact_ensemble_passages_are_pinned(self, case, pin):
        # one stream, starts spread below the level and a cap that some paths miss
        triplet, level, _ = NO_JUMPS[case]
        times, overshoots, drawn = _event_passages(triplet, level, -np.arange(300) / 7.0, 10.0, stream(51))
        assert drawn == 0 and 0 < np.count_nonzero(np.isnan(times)) < 300
        assert digest(times, overshoots) == pin

    def test_bm_ensembles_are_pinned(self):
        triplet = NO_JUMPS["bm_drift"][0]
        dist = overshoot_ensemble(triplet, 5.0, 1000, seed=52)
        rho, self_ks, level = stationary_overshoot(triplet, 400, seed=53)
        assert dist.events_drawn == rho.events_drawn == 0
        assert digest(dist.samples, rho.samples, [self_ks, level]) == \
            "3185386329c2ddbe753dddc4cac85a7c19f8c49c8233c0485a20021d66a9b12b"


class TestEmpiricalDistribution:
    def test_cdf_steps(self):
        d = EmpiricalDistribution(samples=np.array([0.0, 0.0, 1.0, 2.0]), n=4)
        assert d.cdf(-0.5) == 0.0
        assert d.cdf(0.0) == pytest.approx(0.5)
        assert d.cdf(1.5) == pytest.approx(0.75)
        assert d.cdf(2.0) == 1.0

    def test_draw_resamples_observed_values(self):
        d = EmpiricalDistribution(samples=np.array([1.0, 2.0, 3.0]), n=3)
        out = d.draw(stream(42), 100)
        assert set(np.unique(out)) <= {1.0, 2.0, 3.0}

    def test_mean(self):
        d = EmpiricalDistribution(samples=np.array([1.0, 3.0]), n=2)
        assert d.mean() == pytest.approx(2.0)


class TestStableOvershoot:
    def test_positive_stable_overshoots_are_positive(self):
        # one-sided 1.5-stable with drift: jump crossings dominate, no creep
        # through the jump part, cap from the finite positive mean
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        dist = overshoot_ensemble(t, 10.0, 100, seed=16, dt=5e-3)
        assert dist.n == 100
        assert np.all(dist.samples >= 0.0)
        assert float(np.mean(dist.samples > 0.0)) > 0.2

    def test_chunk_is_sized_from_the_mean(self, monkeypatch):
        # mu = 3 but the compensated slope drift_eff is -7.6: about 670 steps
        # to level 10 at dt 5e-3, where the cap allows 6,667
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        assert StepEngine(t, 5e-3).drift_eff < 0.0
        asked = spy_on_draw(monkeypatch)
        assert first_passage(t, 10.0, seed=17, dt=5e-3).reached
        assert asked[0] == int(1.25 * 10.0 / (3.0 * 5e-3))

    def test_undefined_mean_scans_to_the_cap(self, monkeypatch):
        # alpha = 0.5 has no mean: the chunk is the whole cap, 500 steps
        asked = spy_on_draw(monkeypatch)
        first_passage(LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0)), 1.0, seed=18, cap=5.0)
        assert asked[0] == 500

