"""Statistical checks: classification rules, preconditions, normalization."""

import numpy as np
import pytest

from perpetua import (
    CheckReport,
    CompoundPoisson,
    ConstantJump,
    ExpDecay,
    ExperimentConfig,
    ExponentialJump,
    FinitenessEstimate,
    Indicator,
    LevyTriplet,
    PowerTail,
    PreconditionViolation,
    StableLike,
    TemperedStable,
    finiteness_probability,
    lln_envelope_check,
    local_time_law_invariance_check,
    occupation_identity_check,
    overshoot_stationarity_check,
    zero_one_check,
)
from perpetua.checks import CHECKS, resolve
from perpetua.errors import BandwidthTooSmall, NotReachedError
from perpetua.harness import (FINITE_LIKE, INCONCLUSIVE, INFINITE_LIKE,
                              overshoot_recommended_z1)
from perpetua import harness, passage, rng
from perpetua.passage import stationary_overshoot
from perpetua.rng import derive_seed, stream
from perpetua.runner import _run_one
from perpetua.localtime import _bandwidth_floor, local_time_block, local_time_field
from perpetua.simulate import PathBlock, PathSample, path_pieces, sample_path

BM_DRIFT = LevyTriplet(1.0, 1.0)
# drift 0.1 plus rate-1 Exp(2) up-jumps: mu = 0.6, sigma^2 + int x^2 nu = 0.5
DRIFT_CP = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
# a Gaussian part plus the same jumps: a grid path whose overshoots are not all 0
BM_CP = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))


def make_config(triplet, f, n_paths=16, dt=0.01, t0=1.0, doublings=3, master_seed=101):
    return ExperimentConfig(
        triplet=triplet, f=f, n_paths=n_paths, dt=dt, t0=t0,
        doublings=doublings, master_seed=master_seed,
    )


def block_sizes(n, pieces):
    """The sizes of the blocks rng.ensemble hands its work, in order, for n paths of the given pieces each."""
    sizes = []
    rng.ensemble(lambda seeds: (sizes.append(len(seeds)), np.zeros(len(seeds)))[1], 0, "sizes", n,
                 pieces, 1)
    return sizes


def spy_ensemble(monkeypatch):
    """Per ensemble call, the path index ranges of the blocks handed its work (by first path) and its rows."""
    calls = []
    ensemble = rng.ensemble

    def spy(work, seed, tag, n, pieces, threads):
        index = {derive_seed(seed, tag, i): i for i in range(n)}
        blocks = []

        def recording(seeds):
            blocks.append(range(index[seeds[0]], index[seeds[-1]] + 1))
            return work(seeds)

        rows = ensemble(recording, seed, tag, n, pieces, threads)
        calls.append((sorted(blocks, key=lambda b: b.start), rows.tobytes()))
        return rows

    monkeypatch.setattr(harness, "ensemble", spy)
    return calls


def synthetic_estimate(p_hat, n_classified, n_total=None):
    n_total = n_classified if n_total is None else n_total
    n_fin = round(p_hat * n_classified)
    verdicts = (
        (FINITE_LIKE,) * n_fin
        + (INFINITE_LIKE,) * (n_classified - n_fin)
        + (INCONCLUSIVE,) * (n_total - n_classified)
    )
    return FinitenessEstimate(
        p_hat=p_hat,
        per_path_verdicts=verdicts,
        growth_curve=np.zeros(4),
        checkpoints=np.array([1.0, 2.0, 4.0, 8.0]),
        partials=np.zeros((n_total, 4)),
        inconclusive_fraction=1.0 - n_classified / n_total,
        flagged=(1.0 - n_classified / n_total) > 0.10,
    )


class TestFinitenessClassification:
    def test_stabilizing_integral_reads_finite(self):
        # doublings=5 so the exponential tail clears the stabilization tol
        est = finiteness_probability(
            make_config(LevyTriplet(1.0), ExpDecay(1.0), doublings=5)
        )
        assert all(v == FINITE_LIKE for v in est.per_path_verdicts)
        assert est.p_hat == 1.0
        assert est.inconclusive_fraction == 0.0
        assert not est.flagged

    def test_short_horizons_read_inconclusive(self):
        # at T=8 the e^{-t} tail still moves more than the tolerance: the
        # heuristic must decline to classify rather than guess
        est = finiteness_probability(make_config(LevyTriplet(1.0), ExpDecay(1.0)))
        assert all(v == INCONCLUSIVE for v in est.per_path_verdicts)
        assert est.flagged

    def test_linear_growth_reads_infinite(self):
        # f == 1 on the whole visited range: partial integral is t itself
        est = finiteness_probability(
            make_config(LevyTriplet(1.0), Indicator(-1e6, 1e6))
        )
        assert all(v == INFINITE_LIKE for v in est.per_path_verdicts)
        assert est.p_hat == 0.0

    def test_stabilized_path_beats_vacuous_growth_rule(self):
        # increments 0,0,0 are non-decreasing, but the finite rule fires first
        est = finiteness_probability(make_config(LevyTriplet(1.0), Indicator(0.0, 1.0)))
        assert all(v == FINITE_LIKE for v in est.per_path_verdicts)

    def test_growth_curve_shape_and_checkpoints(self):
        cfg = make_config(BM_DRIFT, ExpDecay(1.0), doublings=4)
        est = finiteness_probability(cfg)
        assert est.growth_curve.shape == (5,)
        assert np.array_equal(est.checkpoints, np.array(cfg.checkpoints))
        assert est.partials.shape == (cfg.n_paths, 5)
        # partial integrals of a nonnegative f only grow with the horizon
        assert np.all(np.diff(est.partials, axis=1) >= -1e-12)

    def test_deterministic_and_thread_invariant(self):
        cfg = make_config(BM_DRIFT, ExpDecay(1.0))
        a = finiteness_probability(cfg, threads=1)
        b = finiteness_probability(cfg, threads=4)
        assert np.array_equal(a.partials, b.partials)
        assert a.per_path_verdicts == b.per_path_verdicts

    def test_divergent_case_monotone_growth_evidence(self):
        # benchmark-style divergence: mean growth curve rises at every doubling
        cfg = make_config(BM_DRIFT, PowerTail(1.0), n_paths=24, doublings=4)
        est = finiteness_probability(cfg)
        assert np.all(np.diff(est.growth_curve) > 0.0)
        assert est.p_hat <= 0.25


class TestZeroOneCheck:
    def test_near_one_passes(self):
        rep = zero_one_check(synthetic_estimate(0.98, 200), delta_01=0.05)
        assert rep.passed
        assert rep.statistic == pytest.approx(0.02)
        assert rep.threshold == 0.05

    def test_near_zero_passes(self):
        rep = zero_one_check(synthetic_estimate(0.03, 150), delta_01=0.05)
        assert rep.passed
        assert rep.statistic == pytest.approx(0.03)

    def test_middle_fails(self):
        rep = zero_one_check(synthetic_estimate(0.40, 300), delta_01=0.05)
        assert not rep.passed
        assert rep.statistic == pytest.approx(0.40)

    def test_sample_size_precondition(self):
        with pytest.raises(PreconditionViolation) as exc:
            zero_one_check(synthetic_estimate(1.0, 99, n_total=400), delta_01=0.05)
        assert exc.value.reason == "SAMPLE_SIZE"

    def test_normalization_invariant(self):
        for p in (0.0, 0.02, 0.5, 0.97, 1.0):
            rep = zero_one_check(synthetic_estimate(p, 120), delta_01=0.05)
            assert rep.passed == (rep.statistic <= rep.threshold)


class TestOccupationCheck:
    def test_passes_for_diffusive_process(self):
        cfg = make_config(BM_DRIFT, ExpDecay(1.0), dt=0.01, t0=4.0, doublings=3)
        rep = occupation_identity_check(cfg, n_paths=8)
        assert rep.passed
        assert rep.statistic <= 0.05

    def test_requires_local_times(self):
        cfg = make_config(
            LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 0.0)), ExpDecay(1.0)
        )
        with pytest.raises(PreconditionViolation) as exc:
            occupation_identity_check(cfg, n_paths=4)
        assert exc.value.reason == "LOCAL_TIMES_REQUIRED"

    def test_compound_poisson_refused(self):
        cfg = make_config(
            LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(1.0, 1))),
            ExpDecay(1.0),
        )
        with pytest.raises(PreconditionViolation):
            occupation_identity_check(cfg, n_paths=4)

    def test_level_grid_past_the_budget_is_refused_before_it_is_built(self, monkeypatch):
        class NoGrid:  # numpy, except that no level grid may be built
            def __getattr__(self, name):
                return getattr(np, name)

            def arange(self, *args, **kwargs):
                raise AssertionError("a level grid was built")

        monkeypatch.setattr(harness, "np", NoGrid())
        # drift 1e5 over horizon 8: a path spans about 8e5, 1.6e7 levels at bandwidth 0.05
        cfg = make_config(LevyTriplet(1e5, 1.0), ExpDecay(1.0), t0=1.0, doublings=3)
        with pytest.raises(PreconditionViolation) as exc:
            occupation_identity_check(cfg, n_paths=2)
        assert exc.value.reason == "LEVEL_BUDGET"
        assert str(exc.value).startswith("LEVEL_BUDGET: 1.6e+07 occupation grid levels exceed LEVEL_BUDGET")

    def test_level_budget_reads_the_mean(self):
        assert harness.level_budget(BM_DRIFT, 256.0, 0.05) is None
        assert harness.level_budget(LevyTriplet(1e5, 1.0), 256.0, 0.05)[0] == "LEVEL_BUDGET"
        assert harness.level_budget(LevyTriplet(1e5, 1.0), 256.0, 10.0) is None  # 2.56e6 levels
        # no finite mean bounds nothing: the check refuses such a path itself
        assert harness.level_budget(LevyTriplet(0.0, 0.0, StableLike(0.9, 1.0, 1.0)), 1e9, 0.05) is None


class TestOvershootCheck:
    def test_level_order_guard(self):
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_stationarity_check(BM_DRIFT, 2.0, 1.0, n=50)
        assert exc.value.reason == "LEVEL_ORDER"

    def test_mean_range_guard(self):
        with pytest.raises(PreconditionViolation) as exc:
            overshoot_stationarity_check(LevyTriplet(0.0, 1.0), 1.0, 2.0, n=50)
        assert exc.value.reason == "MEAN_RANGE"

    def test_creeping_process_trivially_stationary(self):
        rep = overshoot_stationarity_check(BM_DRIFT, 25.0, 50.0, n=60, seed=4)
        assert rep.passed
        assert rep.statistic == 0.0  # creeping: both ensembles are all zeros

    def test_artifacts_written(self, tmp_path):
        rep = overshoot_stationarity_check(
            BM_DRIFT, 25.0, 50.0, n=30, seed=4, artifact_dir=tmp_path
        )
        assert rep.artifacts == ("overshoots_z1.csv", "overshoots_z2.csv")
        body = (tmp_path / "overshoots_z1.csv").read_text().splitlines()
        assert body[0] == "overshoot"
        assert len(body) == 31

    def test_pre_asymptotic_levels_noted(self):
        rep = overshoot_stationarity_check(BM_DRIFT, 0.5, 1.0, n=40, seed=5)
        assert "below recommended" in rep.notes

    def test_default_z1_and_the_note_share_one_recommended_level(self):
        # BM + drift: sigma_eff = mu = 1, so 20 sigma_eff/mu = 20
        assert overshoot_recommended_z1(BM_DRIFT) == 20.0
        assert resolve(CHECKS["overshoot"], make_config(BM_DRIFT, ExpDecay(1.0)))["z1"] == 20.0
        rep = overshoot_stationarity_check(BM_DRIFT, 10.0, 40.0, n=10, seed=5)
        assert "z1 below recommended 20," in rep.notes

    def test_default_z1_without_positive_mean_is_the_mean_precondition(self):
        cfg = make_config(LevyTriplet(-1.0, 1.0), ExpDecay(1.0))
        entry = _run_one(CHECKS["overshoot"], cfg, 1, None, {})
        assert entry["precondition"] == "MEAN_RANGE"
        assert entry["notes"] == ("precondition violated: MEAN_RANGE: "
                                  "overshoot check needs mean in (0, inf)")

    def test_notes_name_the_passage_method(self):
        a = overshoot_stationarity_check(DRIFT_CP, 5.0, 10.0, n=100, seed=4)
        b = overshoot_stationarity_check(DRIFT_CP, 5.0, 10.0, n=100, seed=4)
        assert "; passage: exact events (" in a.notes and a.notes == b.notes
        # finite activity is exact with a Gaussian part too; no jumps, no events
        rep = overshoot_stationarity_check(BM_DRIFT, 25.0, 50.0, n=10, seed=4, dt=0.02)
        assert rep.notes.endswith("; passage: exact events (0 drawn)")
        stable = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 1.0))
        rep = overshoot_stationarity_check(stable, 5.0, 10.0, n=10, seed=4, dt=0.02)
        assert rep.notes.endswith("; passage: grid dt=0.02")


class TestInvarianceCheck:
    LATTICE = LevyTriplet(0.5, 1e-3, CompoundPoisson(1.0, ConstantJump(1.2)))

    def test_requires_local_times(self):
        # driftless compound Poisson: piecewise constant, no occupation density
        cp = LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(1.0, 1)))
        with pytest.raises(PreconditionViolation) as exc:
            local_time_law_invariance_check(cp, [1.0, 2.0], n=10)
        assert exc.value.reason == "LOCAL_TIMES_REQUIRED"

    def test_levels_must_be_positive(self):
        with pytest.raises(PreconditionViolation) as exc:
            local_time_law_invariance_check(BM_DRIFT, [-1.0, 2.0], n=10)
        assert exc.value.reason == "LEVEL_RANGE"

    @pytest.mark.parametrize("x_list", [[2.0, 2.0], [161.0]])
    def test_two_distinct_levels_are_needed_before_the_harvest(self, x_list, monkeypatch):
        monkeypatch.setattr(harness, "stationary_overshoot", None)  # never harvested
        with pytest.raises(PreconditionViolation) as exc:
            local_time_law_invariance_check(BM_DRIFT, x_list, n=10)
        assert str(exc.value) == f"LEVEL_RANGE: need two or more distinct positive levels, got {x_list}"

    def test_rho_harvest_gated_by_self_check(self):
        # lattice jumps at a low harvest level: the overshoot law still
        # depends on the level, so the proxy must refuse to pose as rho
        with pytest.raises(PreconditionViolation) as exc:
            local_time_law_invariance_check(
                self.LATTICE, [1.0, 2.0], n=20, seed=6, n_rho=400
            )
        assert exc.value.reason == "RHO_NOT_STATIONARY"

    def test_fixed_start_negative_control_runs(self):
        # started from a point instead of rho the law may depend on the level;
        # the control must execute and normalize like any other check
        rep = local_time_law_invariance_check(
            BM_DRIFT, [1.0, 2.0], n=30, seed=7, start_from_rho=False
        )
        assert rep.name == "local_time_invariance"
        assert "rho" not in rep.notes
        assert rep.passed == (rep.statistic <= rep.threshold)

    def test_bm_with_rho_start_passes(self):
        rep = local_time_law_invariance_check(
            BM_DRIFT, [1.0, 2.0], n=40, seed=8, n_rho=200
        )
        assert rep.passed
        assert "reference 1" in rep.notes

    def test_threshold_floor_protects_small_n(self):
        # at n=40 the KS critical value exceeds 0.05, so noise cannot fail it
        rep = local_time_law_invariance_check(
            BM_DRIFT, [1.0, 2.0], n=40, seed=9, n_rho=200
        )
        assert rep.threshold > 0.05


class TestInvarianceBlocks:
    """Paths run in blocks of consecutive indices: no number and no refusal changes."""

    LEVELS = [1.0, 2.0]

    @staticmethod
    def horizon(triplet):
        return harness.invariance_horizon(triplet, TestInvarianceBlocks.LEVELS, 0.01)

    def block(self, triplet):
        return block_sizes(rng._BLOCK_PIECES, path_pieces(triplet, self.horizon(triplet)[1], 0.01))[0]

    def test_block_rows_are_the_paths_alone(self):
        escape, chunk_horizon = self.horizon(BM_CP)
        levels = np.array(self.LEVELS)
        starts = [0.0, 0.5, 1.5, 0.25, 3.0]
        seeds = [derive_seed(3, "linf", i) for i in range(len(starts))]
        args = (levels, 0.05, 0.01, escape, chunk_horizon)
        block = harness._local_time_proxy(BM_CP, starts, seeds, *args)
        alone = [harness._local_time_proxy(BM_CP, [x0], [s], *args) for x0, s in zip(starts, seeds)]
        assert block.tobytes() == np.vstack(alone).tobytes()

    def test_each_chunk_starts_where_the_last_ended(self):
        # oracle: chunk by chunk alone, until a whole chunk after the first stays above the escape
        # height; chunks of one time unit, so paths cross the levels over several of them
        escape, chunk_horizon = self.horizon(BM_CP)[0], 1.0
        levels, starts = np.array(self.LEVELS), [-2.0, 0.0, 0.5, 1.5, -0.75]
        seeds = [derive_seed(3, "linf", i) for i in range(len(starts))]
        block = harness._local_time_proxy(BM_CP, starts, seeds, levels, 0.05, 0.01, escape, chunk_horizon)
        for row, x, s in zip(block, starts, seeds):
            total = np.zeros(levels.size)
            for c in range(harness._MAX_CHUNKS):
                chunk = sample_path(BM_CP, chunk_horizon, 0.01, x0=x, seed=derive_seed(s, "chunk", c))
                total += local_time_field(chunk, levels, 0.05).values
                x = float(chunk.values[-1])
                if c > 0 and chunk.values.min() >= escape:
                    break
            assert row.tobytes() == total.tobytes()

    @pytest.mark.parametrize("triplet", [BM_DRIFT, BM_CP], ids=["bm", "bm_cp"])
    def test_identical_for_any_threads(self, triplet, monkeypatch):
        n = 2 * self.block(triplet) + 3
        samples = []
        ks = harness.ks_two_sample
        monkeypatch.setattr(harness, "ks_two_sample",
                            lambda a, b: (samples.append(np.vstack((a, b)).tobytes()), ks(a, b))[1])
        reports = [
            local_time_law_invariance_check(triplet, self.LEVELS, n=n, seed=14, n_rho=200,
                                            threads=threads).to_dict()
            for threads in (1, 2, 3)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert len(samples) == 3 and samples[0] == samples[1] == samples[2]

    def test_one_field_pass_per_block_and_round(self, monkeypatch):
        calls = []

        def spy(times, values, x_grid, bandwidth):
            calls.append(times.shape[0])
            return local_time_block(times, values, x_grid, bandwidth)

        monkeypatch.setattr(harness, "local_time_block", spy)
        monkeypatch.setattr(harness, "local_time_field", None)  # never a field per chunk
        n, block = 40, self.block(BM_DRIFT)
        local_time_law_invariance_check(BM_DRIFT, self.LEVELS, n=n, seed=15, start_from_rho=False)
        blocks = -(-n // block)
        assert max(calls) == block
        assert sum(calls) >= 2 * n  # every path takes at least two chunks
        assert 2 * blocks <= len(calls) <= 3 * blocks  # a few rounds per block

    def test_not_reached_is_the_first_paths(self, monkeypatch):
        # one chunk: no path can escape, so every path fails; path 0's start
        # tells its refusal from the others'
        monkeypatch.setattr(harness, "_MAX_CHUNKS", 1)
        seed, n = 2, self.block(BM_CP) + 4
        rho = stationary_overshoot(BM_CP, 200, seed=derive_seed(seed, "rho-harvest"), dt=0.01)[0]
        starts = [float(rho.draw(stream(derive_seed(derive_seed(seed, "linf", i), "start")), 1)[0])
                  for i in range(n)]
        assert f"{starts[0]:g}" not in {f"{x:g}" for x in starts[1:]}
        with pytest.raises(NotReachedError) as exc:
            local_time_law_invariance_check(BM_CP, self.LEVELS, n=n, seed=seed, n_rho=200, threads=2)
        assert str(exc.value) == f"path from {starts[0]:g} did not escape {self.horizon(BM_CP)[0]:g}"

    def test_bandwidth_refusal_is_the_first_paths(self):
        # path 0 passes its first chunk's floor and fails its second; path 1
        # fails its first, so it is the first to fail in the block's rounds
        seed, dt, bandwidth = 12, 0.01, 0.025
        chunk_horizon = self.horizon(BM_DRIFT)[1]

        def floors(i):
            path_seed, x0, out = derive_seed(seed, "linf", i), 0.0, []
            for c in range(2):
                chunk = sample_path(BM_DRIFT, chunk_horizon, dt, x0=x0,
                                    seed=derive_seed(path_seed, "chunk", c))
                out.append(_bandwidth_floor(np.diff(chunk.times), np.diff(chunk.values)))
                x0 = float(chunk.values[-1])
            return out

        (f00, f01), (f10, _) = floors(0), floors(1)
        assert f00 < bandwidth < min(f01, f10)
        with pytest.raises(BandwidthTooSmall) as exc:
            local_time_law_invariance_check(BM_DRIFT, self.LEVELS, n=12, seed=seed, bandwidth=bandwidth,
                                            start_from_rho=False, threads=2)
        assert str(exc.value) == f"bandwidth {bandwidth:g} below floor {f01:g} for this step size"


class TestEventBlocks:
    """The finiteness and LLN ensembles run in blocks of consecutive paths, sized by pieces alone."""

    def test_blocks_do_not_depend_on_threads(self, monkeypatch):
        calls = spy_ensemble(monkeypatch)
        cfg = make_config(DRIFT_CP, ExpDecay(1.0), n_paths=100, t0=2.0, doublings=7)
        runs = []
        for threads in (1, 2, 3):
            calls.clear()
            partials = finiteness_probability(cfg, threads=threads).partials
            report = lln_envelope_check(DRIFT_CP, t0=100.0, n=50, seed=4, threads=threads).to_dict()
            runs.append(([blocks for blocks, _ in calls], partials.tobytes(), report))
        assert runs[0] == runs[1] == runs[2]
        # 513 expected pieces per path on [0, 256] and 801 on [0, 400]
        zero_one, lln = runs[0][0]
        assert [len(b) for b in zero_one] == [31, 31, 31, 7] and zero_one[0] == range(31)
        assert [len(b) for b in lln] == [20, 20, 10]

    def test_shipped_grid_ensembles_run_one_path_per_block(self):
        assert block_sizes(3, path_pieces(BM_DRIFT, 256.0, 0.01)) == [1, 1, 1]
        assert block_sizes(3, path_pieces(BM_DRIFT, 240.0, 0.01)) == [1, 1, 1]

    def test_block_rows_are_the_paths_alone(self):
        cfg = make_config(DRIFT_CP, ExpDecay(1.0), n_paths=40, t0=2.0, doublings=5)
        seeds = [derive_seed(cfg.master_seed, "finiteness", i) for i in range(3, 40)]
        block, partials = harness.finiteness_block(cfg, seeds)
        assert block.rows == 37
        for r, seed in enumerate(seeds):
            path, alone = harness.finiteness_block(cfg, [seed])
            assert block.path(r).values.tobytes() == path.path(0).values.tobytes()
            assert partials[r].tobytes() == alone[0].tobytes()


class TestOccupationBlocks:
    """Occupation paths run in blocks too: T = 16 at dt = 0.01 is 1,600 pieces, 10 paths a block."""

    CONFIG = make_config(BM_DRIFT, ExpDecay(1.0), t0=2.0, doublings=3)

    def test_gaps_and_blocks_do_not_depend_on_threads(self, monkeypatch):
        calls = spy_ensemble(monkeypatch)
        runs = []
        for threads in (1, 2, 3):
            calls.clear()
            report = occupation_identity_check(self.CONFIG, n_paths=25, threads=threads).to_dict()
            runs.append((list(calls), report))
        assert runs[0] == runs[1] == runs[2]
        [(blocks, _)] = runs[0][0]
        assert [len(b) for b in blocks] == [10, 10, 5] and blocks[0] == range(10)

    def test_level_refusal_is_the_first_paths(self, monkeypatch):
        # a level budget at path 0's own grid: several later paths fail, in
        # two blocks, and the lowest index among them is the one refused
        bandwidth = 0.05

        def levels(i):
            path = sample_path(BM_DRIFT, 16.0, 0.01, seed=derive_seed(self.CONFIG.master_seed, "occupation", i))
            span = float(path.values.max()) - float(path.values.min()) + 2.0 * bandwidth
            return harness._level_grid(span, bandwidth)[1]

        counts = [levels(i) for i in range(25)]
        failing = [i for i, c in enumerate(counts) if c > counts[0]]
        first = failing[0]
        assert len({i // 10 for i in failing}) > 1
        assert f"{counts[first]:.3g}" not in {f"{counts[i]:.3g}" for i in failing[1:]}
        monkeypatch.setattr(harness, "MAX_LEVELS", counts[0])
        with pytest.raises(PreconditionViolation) as exc:
            occupation_identity_check(self.CONFIG, n_paths=25, bandwidth=bandwidth, threads=2)
        assert str(exc.value) == f"LEVEL_BUDGET: {harness._level_problem(counts[first], bandwidth)}"


@pytest.mark.parametrize("check", ["zero_one", "occupation", "overshoot", "invariance", "lln"])
def test_every_path_ensemble_refuses_no_paths(check):
    run = {
        "zero_one": lambda: finiteness_probability(make_config(BM_DRIFT, ExpDecay(1.0), n_paths=0)),
        "occupation": lambda: occupation_identity_check(make_config(BM_DRIFT, ExpDecay(1.0)), n_paths=0),
        "overshoot": lambda: overshoot_stationarity_check(BM_DRIFT, 1.0, 2.0, n=0),
        "invariance": lambda: local_time_law_invariance_check(BM_DRIFT, [1.0, 2.0], n=0,
                                                              start_from_rho=False),
        "lln": lambda: lln_envelope_check(BM_DRIFT, t0=50.0, n=0),
    }[check]
    with pytest.raises(PreconditionViolation) as exc:
        run()
    assert str(exc.value) == "SAMPLE_SIZE: need n >= 1 paths, got 0"


@pytest.mark.parametrize("check", ["overshoot", "invariance"])
def test_grid_overshoot_ensembles_run_on_the_checks_threads(monkeypatch, check):
    # the overshoot check's two ensembles and the invariance check's rho harvest
    # scan grid paths through rng.ensemble, on the threads the check table hands them
    seen = []
    ensemble = rng.ensemble

    def spy(work, seed, tag, n, pieces, threads):
        seen.append((tag, n, threads))
        return ensemble(work, seed, tag, n, pieces, threads)

    monkeypatch.setattr(passage, "ensemble", spy)
    cfg = make_config(LevyTriplet(1.0, 0.0, TemperedStable(1.5, 1.0, 1.0)), ExpDecay(1.0))
    small = {"overshoot": {"z1": 5.0, "z2": 10.0, "n": 20}, "invariance": {"n": 10, "n_rho": 30}}[check]
    CHECKS[check].run(cfg, {**resolve(CHECKS[check], cfg), **small}, 2, None, {})
    assert seen == [("overshoot", small.get("n_rho", small["n"]), 2)] * 2


def csv_oracle(header, rows):
    """Test oracle: the row-by-row writer write_csv replaced, ints as str and the rest as repr(float)."""
    lines = [header] + [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_is_the_row_by_row_writer(tmp_path):
    ids = [0, 1, 2, 3, 2**40, -7]
    floats = np.array([-0.0, 5e-324, np.inf, -np.inf, 0.1 + 0.2, 1e300])
    singles = np.array([0.1, -2.5, 3e38, 1e-45, 7.0, -0.0], dtype=np.float32)
    harness.write_csv(tmp_path / "a.csv", "id,x,y,z", ids, floats, singles, [1, 2.5, 3, 4, 5, 6])
    rows = zip(ids, floats, singles, [1.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    assert (tmp_path / "a.csv").read_bytes() == csv_oracle("id,x,y,z", rows)
    harness.write_csv(tmp_path / "b.csv", "overshoot", floats)
    assert (tmp_path / "b.csv").read_bytes() == csv_oracle("overshoot", ((v,) for v in floats))
    harness.write_csv(tmp_path / "c.csv", "overshoot", [])
    assert (tmp_path / "c.csv").read_bytes() == b"overshoot\n"


def test_partials_csv_is_what_write_csv_writes(tmp_path):
    partials = [np.array([-0.0, 5e-324, np.inf, 2.0]), np.array([1.0, 1e300, -np.inf, 0.1 + 0.2])]
    checkpoints = [1.0, 2.0, 4.0, 8.0]
    ids = [i for i in range(len(partials)) for _ in checkpoints]
    harness.write_csv(tmp_path / "rows.csv", "path_id,checkpoint,partial_integral",
                      ids, checkpoints * len(partials), np.concatenate(partials))
    expected = (tmp_path / "rows.csv").read_bytes()
    for table in (partials, np.vstack(partials)):
        harness.write_partials_csv(tmp_path / "table.csv", table, np.array(checkpoints))
        assert (tmp_path / "table.csv").read_bytes() == expected
    assert b"\n0,1.0,-0.0\n0,2.0,5e-324\n0,4.0,inf\n0,8.0,2.0\n" in expected


class TestLlnCheck:
    def test_mean_range_fast_fail(self):
        with pytest.raises(PreconditionViolation) as exc:
            lln_envelope_check(LevyTriplet(0.0, 1.0), t0=100.0, n=10)
        assert exc.value.reason == "MEAN_RANGE"

    def test_negative_mean_fast_fail(self):
        with pytest.raises(PreconditionViolation):
            lln_envelope_check(LevyTriplet(-1.0, 1.0), t0=100.0, n=10)

    def test_t0_floor(self):
        # BM+drift: floor is 50 (sigma_eff/mu)^2 = 50
        with pytest.raises(PreconditionViolation) as exc:
            lln_envelope_check(BM_DRIFT, t0=10.0, n=10)
        assert exc.value.reason == "T0_RANGE"

    def test_t0_floor_counts_large_jumps(self):
        # drift_cp: 50 * 0.5 / 0.6^2 = 69.4; jumps <= 1 alone would give 22.5
        with pytest.raises(PreconditionViolation) as exc:
            lln_envelope_check(DRIFT_CP, t0=60.0, n=10)
        assert exc.value.reason == "T0_RANGE"

    def test_drift_cp_passes_with_default_params(self):
        cfg = make_config(DRIFT_CP, ExpDecay(1.0))
        params = resolve(CHECKS["lln"], cfg)
        assert params["t0"] == pytest.approx(50.0 * 0.5 / 0.36)
        assert CHECKS["lln"].run(cfg, params, 1, None, {}).passed

    def test_envelope_is_read_at_t0_between_knots(self, monkeypatch):
        # mu = 0.6, t0 = 70: the path is at 20 < 0.3 * 70 at t0, inside the
        # knots after it, and linear between them
        path = PathSample(times=np.array([0.0, 69.0, 71.0, 280.0]),
                          values=np.array([0.0, 10.0, 30.0, 168.0]), exact=True)
        monkeypatch.setattr(harness, "sample_paths", lambda *args, **kwargs: PathBlock.of(path))
        rep = lln_envelope_check(DRIFT_CP, t0=70.0, n=1, horizon=280.0)
        assert rep.statistic == 1.0 and not rep.passed

    @pytest.mark.parametrize("horizon", [10.0, 60.0])
    def test_horizon_must_exceed_t0(self, horizon, monkeypatch):
        monkeypatch.setattr(harness, "sample_paths", None)  # refused before any path
        with pytest.raises(PreconditionViolation) as exc:
            lln_envelope_check(BM_DRIFT, t0=60.0, n=4, horizon=horizon)
        assert exc.value.reason == "HORIZON_RANGE"

    def test_pure_drift_always_inside(self):
        rep = lln_envelope_check(LevyTriplet(1.0), t0=1.0, n=20, seed=10)
        assert rep.passed
        assert rep.statistic == 0.0

    def test_bm_drift_passes_past_floor(self):
        rep = lln_envelope_check(BM_DRIFT, t0=60.0, n=40, seed=11, dt=0.05)
        assert rep.passed
        assert rep.statistic <= rep.threshold == 0.01


class TestCheckReportShape:
    def test_to_dict_round_trip_fields(self):
        rep = CheckReport(
            name="demo", statistic=0.01, threshold=0.05,
            artifacts=("a.csv",), notes="hi",
        )
        d = rep.to_dict()
        assert d == {
            "name": "demo", "passed": True, "statistic": 0.01,
            "threshold": 0.05, "artifacts": ["a.csv"], "notes": "hi",
        }

    def test_all_reports_normalized(self):
        # every report produced in this module obeys passed == (stat <= thr)
        reports = [
            zero_one_check(synthetic_estimate(0.5, 200), 0.05),
            overshoot_stationarity_check(BM_DRIFT, 25.0, 50.0, n=30, seed=12),
            lln_envelope_check(LevyTriplet(1.0), t0=1.0, n=10, seed=13),
        ]
        for rep in reports:
            assert rep.passed == (rep.statistic <= rep.threshold)


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_are_refused_before_any_path(threads, monkeypatch):
    for sampler in ("sample_path", "sample_paths"):  # refused before any path
        monkeypatch.setattr(harness, sampler, None)
    cfg = make_config(BM_DRIFT, ExpDecay(1.0))
    calls = [
        lambda: finiteness_probability(cfg, threads=threads),
        lambda: occupation_identity_check(cfg, n_paths=4, threads=threads),
        lambda: local_time_law_invariance_check(BM_DRIFT, [1.0, 2.0], n=4,
                                                start_from_rho=False, threads=threads),
        lambda: lln_envelope_check(BM_DRIFT, t0=60.0, n=4, threads=threads),
    ]
    for call in calls:
        with pytest.raises(PreconditionViolation) as exc:
            call()
        assert exc.value.reason == "THREADS_RANGE"
