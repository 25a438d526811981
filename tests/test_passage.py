"""First passage times, overshoot laws, and restarted path sources."""

import math

import numpy as np
import pytest

from perpetua import (
    CompoundPoisson,
    EmpiricalDistribution,
    ExponentialJump,
    LevyTriplet,
    NotReachedError,
    PreconditionViolation,
    RestartedPathSource,
    StableLike,
    first_passage,
    ks_critical,
    ks_one_sample,
    overshoot_ensemble,
    stationary_overshoot,
)
from perpetua.rng import derive_seed, stream

# Drift 0.5 plus rate-1 Exp(0.4) jumps: mu = 0.5 + 2.5 = 3, creep mass 1/6.
CREEP_TRIPLET = LevyTriplet(0.5, 0.0, CompoundPoisson(1.0, ExponentialJump(0.4, 1)))
CREEP_MASS = 1.0 / 6.0
JUMP_THETA = 0.4


class TestFirstPassage:
    def test_pure_drift_exact(self):
        fp = first_passage(LevyTriplet(2.0), 4.0, seed=1)
        assert fp.reached
        assert fp.passage_time == pytest.approx(2.0, abs=1e-9)
        assert fp.overshoot == pytest.approx(0.0, abs=1e-12)

    def test_start_above_level_is_instant(self):
        fp = first_passage(LevyTriplet(1.0), 2.0, seed=1, x0=3.5)
        assert fp.passage_time == 0.0
        assert fp.overshoot == pytest.approx(1.5)

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


class TestRestartedPaths:
    def test_restart_starts_at_overshoot(self):
        rho = overshoot_ensemble(CREEP_TRIPLET, 20.0, 100, seed=11)
        src = RestartedPathSource(CREEP_TRIPLET, rho, 20.0, seed=12)
        path = src.path(0, horizon=2.0)
        # recentered at the level: the path begins at the fresh overshoot
        assert 0.0 <= path.values[0] < 50.0
        assert path.times[-1] == pytest.approx(2.0)

    def test_paths_deterministic_per_index(self):
        rho = overshoot_ensemble(CREEP_TRIPLET, 20.0, 100, seed=11)
        src = RestartedPathSource(CREEP_TRIPLET, rho, 20.0, seed=12)
        a = src.path(3, horizon=1.0)
        b = src.path(3, horizon=1.0)
        assert np.array_equal(a.values, b.values)
        c = src.path(4, horizon=1.0)
        assert not np.array_equal(a.values, c.values)

    def test_markov_restart_matches_direct_law(self):
        # marginal at a fixed horizon after passage agrees with a direct
        # simulation started from the overshoot law (strong Markov property)
        n, horizon = 300, 1.0
        rho = overshoot_ensemble(CREEP_TRIPLET, 30.0, 500, seed=13)
        src = RestartedPathSource(CREEP_TRIPLET, rho, 30.0, seed=14)
        restarted = np.array([src.path(i, horizon).values[-1] for i in range(n)])

        from perpetua import sample_path

        direct = np.empty(n)
        for i in range(n):
            base = derive_seed(99, "direct", i)
            x0 = float(rho.draw(stream(base), 1)[0])
            direct[i] = sample_path(
                CREEP_TRIPLET, horizon, 1e-2, x0=x0, seed=derive_seed(base, "path")
            ).values[-1]
        from perpetua import ks_two_sample

        assert ks_two_sample(restarted, direct) < ks_critical(n, n, alpha=0.01)

    def test_not_reached_with_tiny_cap(self):
        rho = EmpiricalDistribution(samples=np.zeros(4), n=4)
        src = RestartedPathSource(LevyTriplet(1.0, 1.0), rho, 50.0, seed=15, cap=0.05)
        with pytest.raises(NotReachedError):
            src.path(0, horizon=1.0)

    def test_level_range_guard(self):
        rho = EmpiricalDistribution(samples=np.zeros(4), n=4)
        with pytest.raises(PreconditionViolation):
            RestartedPathSource(LevyTriplet(1.0, 1.0), rho, 0.0, seed=0)


class TestStableOvershoot:
    def test_positive_stable_overshoots_are_positive(self):
        # one-sided 1.5-stable with drift: jump crossings dominate, no creep
        # through the jump part, cap from the finite positive mean
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        dist = overshoot_ensemble(t, 10.0, 100, seed=16, dt=5e-3)
        assert dist.n == 100
        assert np.all(dist.samples >= 0.0)
        assert float(np.mean(dist.samples > 0.0)) > 0.2
