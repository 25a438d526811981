"""Analytic layer: local-time criterion, potential density, tail test, verdicts."""

import json
import math
import traceback

import numpy as np
import pytest

from perpetua import (
    CompoundPoisson,
    Convergence,
    ExpDecay,
    ExponentialJump,
    Indicator,
    InversionUnstable,
    LevyTriplet,
    LocalTimeDecision,
    LogPower,
    PowerTail,
    PreconditionViolation,
    Scaled,
    StableLike,
    SumOf,
    Tabulated,
    TemperedStable,
    Verdict,
    expectation_upper_bound,
    local_time_criterion,
    perpetual_verdict,
    potential_density,
    sample_path,
    tail_integral_test,
)
from perpetua import analysis, measures
from perpetua.analysis import (
    REASON_IS_COMPOUND_POISSON,
    REASON_MEAN_NOT_FINITE_POSITIVE,
    REASON_NO_LOCAL_TIMES,
)
from perpetua.benchmarks import benchmark_matrix, benchmark_processes

INV_LOG2 = 1.4426950408889634

BM_DRIFT = LevyTriplet(1.0, 1.0)
PURE_DRIFT = LevyTriplet(1.0)
DRIFT_CP = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
CP_ONLY = LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(1.0, 1)))


class TestLocalTimeCriterion:
    @pytest.mark.parametrize("t, expected", [
        (BM_DRIFT, LocalTimeDecision.HAS_LOCAL_TIMES),
        (PURE_DRIFT, LocalTimeDecision.HAS_LOCAL_TIMES),
        (DRIFT_CP, LocalTimeDecision.HAS_LOCAL_TIMES),
        (CP_ONLY, LocalTimeDecision.NO_LOCAL_TIMES),
        (LevyTriplet(0.0, 2.0), LocalTimeDecision.HAS_LOCAL_TIMES),
        # Cauchy has none whatever its drift; a pathwise drift or a Gaussian
        # part, however small, gives them
        (LevyTriplet(1.0, 0.0, StableLike(1.0, 1.0, 0.0)), LocalTimeDecision.NO_LOCAL_TIMES),
        (LevyTriplet(1.0, 0.0, StableLike(0.9, 1.0, 0.0)), LocalTimeDecision.HAS_LOCAL_TIMES),
        (LevyTriplet(1.0, 0.0, StableLike(0.97, 1.0, 0.0)), LocalTimeDecision.HAS_LOCAL_TIMES),
        (LevyTriplet(0.0, 1e-8, StableLike(0.5, 1.0, 0.0)), LocalTimeDecision.HAS_LOCAL_TIMES),
        # the compensator 1/(1 - alpha) takes the drift back out exactly: a driftless subordinator
        (LevyTriplet(2.0, 0.0, StableLike(0.5, 1.0, 1.0)), LocalTimeDecision.NO_LOCAL_TIMES),
    ])
    def test_structural_cases(self, t, expected):
        assert local_time_criterion(t) is expected

    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_stable_below_one_has_none(self, alpha):
        t = LevyTriplet(0.0, 0.0, StableLike(alpha, 1.0, 0.0))
        assert local_time_criterion(t) is LocalTimeDecision.NO_LOCAL_TIMES

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_stable_above_one_has_them(self, alpha):
        t = LevyTriplet(0.0, 0.0, StableLike(alpha, 1.0, 0.0))
        assert local_time_criterion(t) is LocalTimeDecision.HAS_LOCAL_TIMES

    def test_cauchy_sits_in_margin(self):
        # the integrand decays exactly like 1/r, on the border, and int dr/(1 + c r) diverges
        t = LevyTriplet(0.0, 0.0, StableLike(1.0, 1.0, 0.0))
        assert local_time_criterion(t) is LocalTimeDecision.NO_LOCAL_TIMES

    @pytest.mark.parametrize("alpha, expected", [
        (0.9, LocalTimeDecision.NO_LOCAL_TIMES),
        (0.97, LocalTimeDecision.NO_LOCAL_TIMES),
        (1.03, LocalTimeDecision.HAS_LOCAL_TIMES),
        (1.1, LocalTimeDecision.HAS_LOCAL_TIMES),
    ])
    def test_margin_is_0_05_either_side_of_minus_one(self, alpha, expected):
        # Re(1/(1 + Psi)) of a symmetric stable law decays like r^-alpha; however
        # close alpha is to 1, the closed form decides it
        t = LevyTriplet(0.0, 0.0, StableLike(alpha, 1.0, 0.0))
        assert local_time_criterion(t) is expected

    def test_gaussian_component_dominates_heavy_jumps(self):
        t = LevyTriplet(0.0, 0.5, StableLike(0.5, 1.0, 0.0))
        assert local_time_criterion(t) is LocalTimeDecision.HAS_LOCAL_TIMES


CP_EXP2 = CompoundPoisson(1.0, ExponentialJump(2.0, 1))


# A small pathwise drift, a small Gaussian part and alpha just above 1: each has
# local times and a mean in (0, inf), so the verdict is decided.
@pytest.mark.parametrize("t", [
    LevyTriplet(1e-4),
    LevyTriplet(1e-4, 0.0, CP_EXP2),
    LevyTriplet(1e-3, 0.0, CP_EXP2),
    LevyTriplet(0.0, 1e-6, CP_EXP2),
    LevyTriplet(1.0, 0.0, TemperedStable(1.02, 1.0, 1.0)),
    LevyTriplet(1.0, 0.0, StableLike(1.03, 1.0, 0.0)),
])
def test_both_hypotheses_hold_so_the_verdict_is_as_finite(t):
    rep = perpetual_verdict(t, ExpDecay(1.0))
    assert rep.verdict is Verdict.AS_FINITE
    assert rep.precondition_record.failing is None


def test_tiny_drift_has_local_times_yet_its_inversion_is_refused():
    t = LevyTriplet(1e-13)
    assert perpetual_verdict(t, ExpDecay(1.0)).verdict is Verdict.AS_FINITE
    with pytest.raises(InversionUnstable, match="vanishing pathwise drift in finite-variation inversion"):
        potential_density(t, np.array([0.0, 1.0]))
    with pytest.raises(InversionUnstable, match="vanishing pathwise drift in finite-variation sup bound"):
        expectation_upper_bound(t, UNIT)


def _hawkes_slope(t):
    """log2 of Re(1/(1 + Psi)) from r = 2^30 to 2^31: about its decay exponent there."""
    lo, hi = (1.0 / (1.0 + t.char_exponent(np.array([2.0 ** 30, 2.0 ** 31])))).real
    return math.log2(hi / lo)


_EXP_UP = {"kind": "exponential", "theta": 2.0, "sign": 1}
_UNIFORM = {"kind": "uniform", "a": -1.0, "b": 2.0}

# (drift, gaussian, params) per measure family, each on one side of the
# Hawkes integrability border by a clear margin at r = 2^30: no atomic jump law
# (its Re(1/(1 + Psi)) rings) and no alpha near 1 (still pre-asymptotic there).
LOCAL_TIME_EXAMPLES = {
    "none": [(1.0, 0.0, {}), (0.0, 1.0, {}), (0.0, 0.0, {}), (-0.5, 0.0, {})],
    "compound_poisson": [(0.1, 0.0, {"rate": 1.0, "jump_law": _EXP_UP}),
                         (0.0, 0.0, {"rate": 1.0, "jump_law": _EXP_UP}),
                         (0.0, 0.5, {"rate": 2.0, "jump_law": _UNIFORM}),
                         (-1.0, 0.0, {"rate": 3.0, "jump_law": _UNIFORM})],
    "stable": [(0.0, 0.0, {"alpha": 1.5, "scale": 1.0}),
               (0.0, 0.0, {"alpha": 0.5, "scale": 1.0}),
               (1.0, 0.0, {"alpha": 0.5, "scale": 1.0, "skew": 0.3}),
               (2.0, 0.0, {"alpha": 0.5, "scale": 1.0, "skew": 1.0}),
               (0.0, 0.0, {"alpha": 1.8, "scale": 0.5, "skew": -0.5})],
    "tempered_stable": [(0.0, 0.0, {"alpha": 1.5, "scale": 1.0, "tempering": 1.0}),
                        (0.0, 0.0, {"alpha": 0.5, "scale": 1.0, "tempering": 2.0}),
                        (1.0, 0.0, {"alpha": 0.6, "scale": 1.0, "tempering": 1.0, "skew": 1.0})],
    "spectrally_negative_stable": [(1.0, 0.0, {"alpha": 1.5, "scale": 1.0}),
                                   (0.0, 0.0, {"alpha": 1.3, "scale": 2.0})],
}


class TestLocalTimeOracle:
    """The closed form against the Hawkes integrand itself, for every measure family."""

    @pytest.mark.parametrize("family", sorted([*measures._FAMILIES, "spectrally_negative_stable"]))
    def test_closed_form_matches_the_integrand_decay(self, family):
        examples = LOCAL_TIME_EXAMPLES.get(family)
        assert examples, f"no local-time examples for measure family {family!r}"
        decisions = set()
        for drift, gaussian, params in examples:
            nu = measures.measure_from_dict({"family": family, "params": params})
            t = LevyTriplet(drift, gaussian, nu)
            slope = _hawkes_slope(t)
            assert not -1.2 <= slope <= -0.8, (t, slope)
            expected = (LocalTimeDecision.HAS_LOCAL_TIMES if slope < -1.2
                        else LocalTimeDecision.NO_LOCAL_TIMES)
            assert local_time_criterion(t) is expected, (t, slope)
            decisions.add(expected)
        assert len(decisions) == 2 or family == "spectrally_negative_stable"

    def test_matrix_verdicts_run_no_quadrature(self, monkeypatch):
        cases = benchmark_matrix()
        before = [perpetual_verdict(case.triplet, case.f) for case in cases]

        def refuse(func, a, b):
            raise AssertionError("the verdict ran a quadrature")

        monkeypatch.setattr(analysis, "_block_integral", refuse)
        after = [perpetual_verdict(case.triplet, case.f) for case in cases]
        assert after == before
        for case, rep in zip(cases, after):
            assert rep.verdict is case.expected_verdict, case.name
            assert rep.precondition_record.failing == case.expected_reason, case.name


class TestPotentialDensity:
    def test_brownian_with_drift_closed_form(self):
        # u(x) = exp(2 mu x / sigma^2)/mu below 0, 1/mu above
        grid = np.linspace(-4.0, 6.0, 241)
        dens = potential_density(BM_DRIFT, grid)
        exact = np.where(grid < 0, np.exp(2.0 * grid), 1.0)
        err = np.max(np.abs(dens.u_values - exact))
        assert err < 5e-4
        assert err <= dens.error_estimate + 1e-7
        assert dens.sup_bound >= 1.0

    def test_frozen_left_tail_point(self):
        dens = potential_density(BM_DRIFT, np.array([-2.0]))
        assert dens.u_values[0] == pytest.approx(0.01831563888873418, abs=2e-5)

    def test_pure_drift_step(self):
        grid = np.array([-1.0, -0.25, 0.0, 0.25, 2.0])
        dens = potential_density(LevyTriplet(2.0), grid)
        assert np.allclose(dens.u_values, [0.0, 0.0, 0.25, 0.5, 0.5], atol=1e-9)
        assert dens.error_estimate < 1e-9

    def test_subordinator_renewal_closed_form(self):
        # drift b with rate-r Exp(theta) jumps: Laplace inversion of 1/phi
        # gives u(x) = theta/(b c) + (r/(b^2 c)) e^{-c x}, c = theta + r/b
        b, r, theta = 0.1, 1.0, 2.0
        c = theta + r / b
        grid = np.linspace(0.05, 2.0, 40)
        dens = potential_density(DRIFT_CP, grid)
        exact = theta / (b * c) + (r / (b * b * c)) * np.exp(-c * grid)
        assert np.max(np.abs(dens.u_values - exact)) < 5e-3 * np.max(exact)

    def test_nonnegative_everywhere(self):
        grid = np.linspace(-5.0, 10.0, 301)
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0))
        dens = potential_density(t, grid)
        assert np.all(dens.u_values >= 0.0)
        assert dens.sup_bound >= float(np.max(dens.u_values))

    def test_requires_local_times(self):
        with pytest.raises(PreconditionViolation) as exc:
            potential_density(CP_ONLY, np.array([0.0, 1.0]))
        assert exc.value.reason == "LOCAL_TIMES_REQUIRED"

    def test_requires_positive_mean(self):
        with pytest.raises(PreconditionViolation) as exc:
            potential_density(LevyTriplet(-1.0, 1.0), np.array([0.0]))
        assert exc.value.reason == "MEAN_RANGE"

    def test_requires_sorted_grid(self):
        with pytest.raises(PreconditionViolation) as exc:
            potential_density(BM_DRIFT, np.array([1.0, 0.0]))
        assert exc.value.reason == "GRID_ORDER"


class TestTailIntegralTest:
    def test_exp_decay_converges_to_one(self):
        d = tail_integral_test(ExpDecay(1.0))
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(1.0, abs=5e-3)

    def test_log_power_frozen_value(self):
        d = tail_integral_test(LogPower(2.0))
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(INV_LOG2, rel=1e-12)
        assert d.error_estimate == 0.0

    def test_power_tail_one_diverges(self):
        d = tail_integral_test(PowerTail(1.0))
        assert d.verdict is Convergence.DIVERGES
        # reported value is only a lower bound for a divergent integral
        assert d.value_or_lower_bound > 0.0

    def test_power_tail_two_converges(self):
        d = tail_integral_test(PowerTail(2.0))
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(1.0, rel=0.02)

    def test_indicator_exact(self):
        d = tail_integral_test(Indicator(0.0, 5.0))
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(5.0, rel=1e-9)

    def test_log_power_one_diverges(self):
        # diverges like log log x, which the closed form says, though no dyadic scan could
        d = tail_integral_test(LogPower(1.0))
        assert d.verdict is Convergence.DIVERGES
        assert math.isfinite(d.value_or_lower_bound)

    def test_scaling_covariance(self):
        base = tail_integral_test(ExpDecay(1.0))
        scaled = tail_integral_test(Scaled(7.0, ExpDecay(1.0)))
        assert scaled.verdict is Convergence.CONVERGES
        assert scaled.value_or_lower_bound == pytest.approx(
            7.0 * base.value_or_lower_bound, rel=1e-9)

    def test_scaling_preserves_divergence(self):
        d = tail_integral_test(Scaled(1e-8, PowerTail(1.0)))
        assert d.verdict is Convergence.DIVERGES

    def test_sum_decided_componentwise(self):
        d = tail_integral_test(SumOf((ExpDecay(1.0), PowerTail(1.0))))
        assert d.verdict is Convergence.DIVERGES

    def test_sum_converges_with_total(self):
        d = tail_integral_test(SumOf((ExpDecay(1.0), Indicator(0.0, 2.0))))
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(3.0, abs=2e-2)

    def test_far_indicator_mass_not_missed(self):
        # compact support far beyond the scan start must still be counted
        far = SumOf((ExpDecay(1.0, left_level=0.0), Indicator(1e6, 1e6 + 1.0)))
        d = tail_integral_test(far)
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(2.0, abs=2e-2)

    def test_tabulated_zero_tail(self):
        f = Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.0))
        d = tail_integral_test(f)
        assert d.verdict is Convergence.CONVERGES
        assert d.value_or_lower_bound == pytest.approx(f.integral_above(0.0), rel=1e-6)

    @pytest.mark.parametrize("f", [
        ExpDecay(1.0), ExpDecay(0.01), Indicator(0.0, 1000.0), PowerTail(2.0), PowerTail(1.0),
        LogPower(1.0), LogPower(2.0), SumOf((ExpDecay(1.0), Scaled(2.0, Indicator(3.0, 9.0)))),
    ])
    def test_certificate_is_the_exact_dyadic_block_sums(self, f):
        d = tail_integral_test(f)
        edges = [0.0] + [2.0 ** k for k in range(len(d.diagnostics))]
        assert d.diagnostics == tuple(f.integral_between(a, b) for a, b in zip(edges, edges[1:]))
        assert d.blocks_used == len(d.diagnostics) <= 65
        assert d.error_estimate == 0.0
        json.dumps(d.to_dict(), allow_nan=False)  # a divergent value is finite too
        last = edges[len(d.diagnostics)]
        if d.verdict is Convergence.CONVERGES:
            # the scan stops where the rest no longer moves the value, or after 64 blocks
            assert d.blocks_used == 65 or d.value_or_lower_bound + f.integral_above(last) \
                == d.value_or_lower_bound
            assert sum(d.diagnostics) + f.integral_above(last) == pytest.approx(
                d.value_or_lower_bound, rel=1e-12)
        else:
            assert d.blocks_used == 65
            assert d.value_or_lower_bound == sum(d.diagnostics)

    def test_divergent_lower_bound_stops_before_the_float_range(self):
        # blocks of 4e307 to 7e307: the first three sum to 1.6e308, and a
        # fourth would carry the sum past the float range
        f = Scaled(1e308, PowerTail(1.0))
        d = tail_integral_test(f)
        assert d.verdict is Convergence.DIVERGES
        assert d.blocks_used == len(d.diagnostics) == 3
        assert d.value_or_lower_bound == sum(d.diagnostics) < math.inf
        n = d.blocks_used
        assert math.isinf(d.value_or_lower_bound + f.integral_between(2.0 ** (n - 1), 2.0 ** n))
        json.dumps(d.to_dict(), allow_nan=False)

    def test_exp_decay_stops_where_the_tail_is_below_rounding(self):
        # e^-32 still moves 1.0 in floating point, e^-64 does not
        d = tail_integral_test(ExpDecay(1.0))
        assert (d.value_or_lower_bound, d.blocks_used) == (1.0, 7)


# Slow and borderline tails, which a quadrature scan over dyadic blocks stops on
# too early or never decides: each is decided as its closed form says.
@pytest.mark.parametrize("f, value", [
    (Indicator(0.0, 1000.0), 1000.0),
    (Tabulated((0.0, 1.0, 500.0), (0.0, 1.0, 1.0)), 499.5),
    (ExpDecay(0.01), 100.0),
    (PowerTail(1.01), 100.0),
    (PowerTail(1.02), 50.0),
    (LogPower(1.1), 10.0 / math.log(2.0) ** 0.1),
    (LogPower(1.5), 2.0 / math.log(2.0) ** 0.5),
    (LogPower(2.0), INV_LOG2),
])
def test_integrable_tails_are_as_finite_with_the_closed_form_value(f, value):
    rep = perpetual_verdict(BM_DRIFT, f)
    assert rep.verdict is Verdict.AS_FINITE
    assert rep.integral_decision.value_or_lower_bound == f.integral_above(0.0)
    assert rep.integral_decision.value_or_lower_bound == pytest.approx(value, rel=1e-12)
    assert rep.integral_decision.error_estimate == 0.0


@pytest.mark.parametrize("p", [0.9, 1.0])
def test_log_power_up_to_one_is_as_infinite(p):
    rep = perpetual_verdict(BM_DRIFT, LogPower(p))
    assert rep.verdict is Verdict.AS_INFINITE
    assert rep.integral_decision.verdict is Convergence.DIVERGES


class TestPerpetualVerdict:
    def test_finite_case(self):
        rep = perpetual_verdict(BM_DRIFT, ExpDecay(1.0))
        assert rep.verdict is Verdict.AS_FINITE
        assert rep.precondition_record.failing is None

    def test_infinite_case(self):
        rep = perpetual_verdict(BM_DRIFT, PowerTail(1.0))
        assert rep.verdict is Verdict.AS_INFINITE

    def test_compound_poisson_named_first(self):
        # CP-only also fails the local-time criterion; the structural reason wins
        rep = perpetual_verdict(CP_ONLY, ExpDecay(1.0))
        assert rep.verdict is Verdict.UNDECIDED
        assert rep.precondition_record.failing == REASON_IS_COMPOUND_POISSON

    def test_no_local_times_before_mean(self):
        # driftless stable(1/2) has no local times AND an undefined mean;
        # the local-time reason takes precedence
        t = LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 0.0))
        rep = perpetual_verdict(t, ExpDecay(1.0))
        assert rep.verdict is Verdict.UNDECIDED
        assert rep.precondition_record.failing == REASON_NO_LOCAL_TIMES

    def test_zero_mean_refused(self):
        t = LevyTriplet(0.0, 0.0, StableLike(1.5, 1.0, 0.0))
        rep = perpetual_verdict(t, ExpDecay(1.0))
        assert rep.verdict is Verdict.UNDECIDED
        assert rep.precondition_record.failing == REASON_MEAN_NOT_FINITE_POSITIVE

    def test_negative_mean_refused(self):
        rep = perpetual_verdict(LevyTriplet(-1.0, 1.0), ExpDecay(1.0))
        assert rep.precondition_record.failing == REASON_MEAN_NOT_FINITE_POSITIVE

    def test_borderline_divergent_tail(self):
        rep = perpetual_verdict(BM_DRIFT, LogPower(1.0))
        assert rep.verdict is Verdict.AS_INFINITE
        assert rep.precondition_record.failing is None

    @pytest.mark.parametrize("t, f", [
        (BM_DRIFT, ExpDecay(1.0)),
        (BM_DRIFT, PowerTail(1.0)),
        (CP_ONLY, Indicator(0.0, 5.0)),
        (PURE_DRIFT, LogPower(2.0)),
        (DRIFT_CP, PowerTail(2.0)),
    ])
    def test_decided_iff_no_failing_precondition(self, t, f):
        rep = perpetual_verdict(t, f)
        decided = rep.verdict is not Verdict.UNDECIDED
        assert decided == (rep.precondition_record.failing is None)

    def test_report_dict_shape(self):
        rep = perpetual_verdict(BM_DRIFT, ExpDecay(1.0)).to_dict()
        assert set(rep) == {"verdict", "preconditions", "integral"}
        assert rep["preconditions"]["failing"] is None


class TestExpectationUpperBound:
    def test_pure_drift_exact(self):
        # f supported on x > 0 with unit integral: bound is exactly 1/mu * 1
        bound = expectation_upper_bound(LevyTriplet(1.0), ExpDecay(1.0, left_level=0.0))
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_infinite_full_integral_gives_inf(self):
        # ExpDecay keeps level 1 on the whole negative axis
        bound = expectation_upper_bound(BM_DRIFT, ExpDecay(1.0))
        assert math.isinf(bound)

    def test_dominates_monte_carlo_mean(self):
        from perpetua.rng import derive_seed
        from perpetua.simulate import perpetual_estimate, sample_path

        f = ExpDecay(1.0, left_level=0.0)
        bound = expectation_upper_bound(BM_DRIFT, f)
        n, T = 400, 40.0
        vals = np.empty(n)
        for i in range(n):
            p = sample_path(BM_DRIFT, T, 0.01, seed=derive_seed(4242, i))
            vals[i] = perpetual_estimate(p, f, [T])[0]
        mc = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(n))
        assert bound >= mc - 3.0 * se

    def test_divergent_f_refused(self):
        with pytest.raises(PreconditionViolation) as exc:
            expectation_upper_bound(BM_DRIFT, PowerTail(1.0))
        assert exc.value.reason == "TAIL_NOT_CONVERGENT"

    def test_precondition_propagates(self):
        with pytest.raises(PreconditionViolation) as exc:
            expectation_upper_bound(CP_ONLY, ExpDecay(1.0, left_level=0.0))
        assert exc.value.reason == REASON_IS_COMPOUND_POISSON


SN_BM_CP = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
# bounded variation with a sqrt(x) cusp of u at 0+
TEMPERED_CUSP = LevyTriplet(1.0, 0.0, TemperedStable(0.5, 1.0, 1.0))
UNIT = Indicator(0.0, 1.0)  # integral 1, so the bound is sup u itself


def stable_drift(alpha):
    return LevyTriplet(1.0, 0.0, StableLike(alpha, 1.0, 0.0))


def _one_call_block_integral(func, a, b):
    """_block_integral with every refinement's points in one call of func: the reference."""
    nodes, weights = analysis._gl_nodes(16)
    panels = int(min(4096, max(4, math.ceil((b - a) / 16.0))))

    def evaluate(p):
        edges = np.linspace(a, b, p + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        vals = np.asarray(func((mid[:, None] + half * nodes[None, :]).ravel()), dtype=float)
        return float(half * np.sum(vals.reshape(p, -1) @ weights))

    value, agreed, resid = evaluate(panels), 0, math.inf
    for _ in range(12):
        panels *= 2
        refined = evaluate(panels)
        resid, value = abs(refined - value), refined
        if resid <= 1e-10 * max(abs(value), 1e-12):
            agreed += 1
            if agreed >= 2:
                break
        else:
            agreed = 0
    return value, resid


@pytest.mark.parametrize("t, k", [(stable_drift(1.5), 12), (DRIFT_CP, 13), (BM_DRIFT, 2)])
def test_block_integral_calls_its_integrand_on_bounded_slices(t, k):
    sizes = []

    def integrand(r):
        sizes.append(r.size)
        return (1.0 / t.char_exponent(r)).real

    value, resid = analysis._block_integral(integrand, 2.0 ** k, 2.0 ** (k + 1))
    largest, points = max(sizes), sum(sizes)
    assert largest <= analysis._BLOCK_POINTS
    if k >= 12:  # these blocks take more points per refinement than one slice holds
        assert largest == analysis._BLOCK_POINTS and points > 4 * largest
    ref_value, ref_resid = _one_call_block_integral(integrand, 2.0 ** k, 2.0 ** (k + 1))
    assert sum(sizes) == 2 * points  # the same refinements
    assert abs(value - ref_value) <= 1e-15 * abs(ref_value)
    assert abs(resid - ref_resid) <= 1e-15 * abs(ref_value)


class TestSupBound:
    @pytest.mark.parametrize("t", [
        BM_DRIFT, SN_BM_CP, DRIFT_CP, PURE_DRIFT,
        stable_drift(1.5), stable_drift(1.8), TEMPERED_CUSP,
    ])
    def test_dominates_inverted_density_near_zero(self, t):
        near = np.geomspace(1e-6, 1.0, 40)
        bound = expectation_upper_bound(t, UNIT)
        for grid in (near, np.concatenate((-near[::-1], near))):
            dens = potential_density(t, grid)
            assert bound >= float(np.max(dens.u_values)) - dens.error_estimate

    @pytest.mark.parametrize("t, mass", [
        # potential_density integrated over (0, 1e-4]; u peaks at 0+ for both
        (DRIFT_CP, 9.9995e-4),
        (TEMPERED_CUSP, 1.766e-4),
    ])
    def test_bounded_variation_peak_at_zero_is_covered(self, t, mass):
        assert expectation_upper_bound(t, Indicator(0.0, 1e-4)) >= mass

    @pytest.mark.parametrize("alpha", [1.2, 1.3, 1.4])
    def test_slow_stable_decay_matches_quadrature(self, alpha):
        from scipy.integrate import quad

        t = stable_drift(alpha)

        def integrand(r):
            return (1.0 / t.char_exponent(r)).real

        # u(0) = 1/(2 mu) + (1/pi) int_0^inf Re(1/Psi); the r^(alpha-2) pole at 0 needs the split
        integral = quad(integrand, 0.0, 1.0, limit=200)[0] + quad(integrand, 1.0, np.inf, limit=200)[0]
        oracle = 0.5 + integral / math.pi
        bound = expectation_upper_bound(t, UNIT)
        assert oracle <= bound <= 1.01 * oracle


@pytest.fixture
def cold_memo():
    for cache in (tail_integral_test, analysis._sup_bound):
        cache.cache_clear()


class TestMemo:
    def test_equal_triplets_share_one_criterion_run(self, cold_memo, monkeypatch):
        # the sup bound is the one quadrature run per triplet
        runs = []
        dyadic_blocks = analysis._dyadic_blocks

        def counting(integrand, ks, rtol):
            runs.append(ks)
            return dyadic_blocks(integrand, ks, rtol)

        monkeypatch.setattr(analysis, "_dyadic_blocks", counting)
        first = LevyTriplet(0.75, 1.25, CompoundPoisson(0.5, ExponentialJump(3.0, -1)))
        twin = LevyTriplet(0.75, 1.25, CompoundPoisson(0.5, ExponentialJump(3.0, -1)))
        assert first is not twin
        sups = set()
        for t in (first, twin):
            for f in (UNIT, Indicator(0.0, 2.0)):
                sups.add(expectation_upper_bound(t, f) / f.integral_full())
        assert runs == [range(13), range(-1, -65, -1)]
        assert len(sups) == 1
        info = analysis._sup_bound.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_one_function_across_the_matrix_triplets_scans_once(self, cold_memo):
        f = LogPower(2.0)
        triplets = [t for _, t in benchmark_processes()]
        assert len(triplets) == 5
        reports = [perpetual_verdict(t, f) for t in triplets]
        info = tail_integral_test.cache_info()
        assert (info.misses, info.hits) == (1, 4)  # the uncached body ran once
        assert {r.verdict for r in reports} == {Verdict.AS_FINITE}
        assert len({r.integral_decision for r in reports}) == 1

    def test_refused_bound_raises_afresh_every_call(self, cold_memo, monkeypatch):
        t = LevyTriplet(1.0, 0.0, StableLike(1.3, 1.0, 0.0))
        f = ExpDecay(1.0, left_level=0.0)
        # the verdict runs no quadrature; every block of Re(1/Psi) then has the
        # same sum, so the sup bound sees no decay and refuses
        assert perpetual_verdict(t, f).verdict is Verdict.AS_FINITE
        monkeypatch.setattr(analysis, "_block_integral", lambda func, a, b: (1.0, 0.0))
        raised = []
        for _ in range(3):
            with pytest.raises(InversionUnstable) as exc:
                expectation_upper_bound(t, f)
            raised.append(exc.value)
        assert len({str(e) for e in raised}) == 1
        assert len({id(e) for e in raised}) == 3
        depths = {len(traceback.extract_tb(e.__traceback__)) for e in raised}
        assert len(depths) == 1
        assert analysis._sup_bound.cache_info().misses == 3  # a refusal is not cached

    def test_list_built_tabulated_shares_memo_entry(self, cold_memo):
        by_tuple = Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.0))
        by_list = Tabulated([0.0, 1.0, 2.0], [0.5, 1.0, 0.0])
        assert by_list == by_tuple and hash(by_list) == hash(by_tuple)
        assert perpetual_verdict(BM_DRIFT, by_list) == perpetual_verdict(BM_DRIFT, by_tuple)
        assert expectation_upper_bound(PURE_DRIFT, by_list) == \
            expectation_upper_bound(PURE_DRIFT, by_tuple)
        info = tail_integral_test.cache_info()
        assert (info.currsize, info.misses) == (1, 1)  # one entry for both spellings
        summed = SumOf([by_list, ExpDecay(1.0)])
        assert summed == SumOf((by_tuple, ExpDecay(1.0))) and hash(summed)

    def test_analysis_never_revalidates_a_built_triplet(self, cold_memo, monkeypatch):
        calls = []
        validate = LevyTriplet.validate

        def counting(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(LevyTriplet, "validate", counting)
        triplet = LevyTriplet(0.75, 1.25, CompoundPoisson(0.5, ExponentialJump(3.0, -1)))
        assert len(calls) == 1  # when it was built
        perpetual_verdict(triplet, ExpDecay(1.0))
        expectation_upper_bound(triplet, ExpDecay(1.0))
        sample_path(triplet, 5.0, 0.01, seed=3)
        assert len(calls) == 1

    def test_benchmark_matrix_matches_cold_computation(self, cold_memo, monkeypatch):
        cases = benchmark_matrix()
        assert len(cases) == 28

        def answers():
            out = []
            for case in cases:
                report = perpetual_verdict(case.triplet, case.f)
                bound = None
                if report.verdict is Verdict.AS_FINITE:
                    bound = expectation_upper_bound(case.triplet, case.f)
                out.append((report, bound))
            return out

        warm = answers()
        assert tail_integral_test.cache_info().currsize == 4
        assert analysis._sup_bound.cache_info().currsize == 5
        # cold: every cached function replaced by its uncached body
        for name in ("tail_integral_test", "_sup_bound"):
            monkeypatch.setattr(analysis, name, getattr(analysis, name).__wrapped__)
        cold = answers()
        for case, w, c in zip(cases, warm, cold):
            assert w == c, case.name
