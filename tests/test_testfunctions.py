"""Integrand families: values, exact integrals, support, serialization."""

import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from perpetua import (
    NonFiniteParameter,
    ExpDecay,
    Indicator,
    LogPower,
    PowerTail,
    Scaled,
    SumOf,
    Tabulated,
)
from perpetua import analysis, testfunctions
from perpetua import test_function_from_dict as fn_from_dict

INV_LOG2 = 1.4426950408889634  # int_0^inf dx / ((2+x) log^2(2+x))


def numeric_tail(f, x):
    val, err = quad(lambda y: float(f(y)), x, np.inf, limit=400)
    assert err < 1e-6 * max(val, 1.0)
    return val


class TestValues:
    def test_exp_decay_shape(self):
        f = ExpDecay(2.0)
        assert f(0.0) == pytest.approx(1.0)
        assert f(1.0) == pytest.approx(math.exp(-2.0))
        assert f(-5.0) == pytest.approx(1.0)  # flat at left_level on x < 0

    def test_exp_decay_zero_left(self):
        f = ExpDecay(1.0, left_level=0.0)
        assert f(-0.01) == 0.0
        assert f(0.0) == pytest.approx(1.0)

    def test_power_tail_even(self):
        f = PowerTail(2.0)
        x = np.array([-3.0, 3.0])
        vals = f(x)
        assert vals[0] == vals[1] == pytest.approx(1.0 / 16.0)

    def test_log_power(self):
        f = LogPower(2.0)
        assert f(0.0) == pytest.approx(1.0 / (2.0 * math.log(2.0) ** 2))

    def test_indicator(self):
        f = Indicator(1.0, 4.0)
        assert np.array_equal(f(np.array([0.5, 1.5, 5.0])), [0.0, 1.0, 0.0])

    def test_tabulated_interp_and_tail(self):
        f = Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 0.5), tail_model="exp", tail_rate=2.0)
        assert f(0.5) == pytest.approx(0.5)
        assert f(3.0) == pytest.approx(0.5 * math.exp(-2.0))
        assert f(-1.0) == 0.0

    def test_scaled_and_sum(self):
        f = SumOf((Scaled(2.0, Indicator(0.0, 1.0)), ExpDecay(1.0, left_level=0.0)))
        assert f(0.5) == pytest.approx(2.0 + math.exp(-0.5))


class TestIntegrals:
    """integral_above must agree with brute-force quadrature or known values."""

    def test_exp_decay_exact(self):
        f = ExpDecay(1.0)
        assert f.integral_above(0.0) == pytest.approx(1.0)
        assert f.integral_above(2.0) == pytest.approx(math.exp(-2.0))
        assert math.isinf(f.integral_full())  # left level 1 has infinite mass

    def test_exp_decay_zero_left_full(self):
        f = ExpDecay(3.0, left_level=0.0)
        assert f.integral_full() == pytest.approx(1.0 / 3.0)

    def test_power_tail_divergent(self):
        assert math.isinf(PowerTail(1.0).integral_above(0.0))

    def test_power_tail_convergent(self):
        f = PowerTail(2.0)
        # int_x^inf dx/(1+x)^2 = 1/(1+x)
        assert f.integral_above(3.0) == pytest.approx(0.25)

    def test_log_power_frozen_constant(self):
        f = LogPower(2.0)
        assert f.integral_above(0.0) == pytest.approx(INV_LOG2, rel=1e-12)

    def test_log_power_divergent(self):
        assert math.isinf(LogPower(1.0).integral_above(0.0))

    def test_indicator_exact(self):
        f = Indicator(0.0, 5.0)
        assert f.integral_above(0.0) == pytest.approx(5.0)
        assert f.integral_above(3.0) == pytest.approx(2.0)
        assert f.integral_above(7.0) == 0.0

    @pytest.mark.parametrize("f, x", [
        (ExpDecay(0.7), 1.3),
        (PowerTail(1.5), 0.0),
        (LogPower(3.0), 2.0),
        (Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.0)), 0.0),
        (Tabulated((0.0, 2.0), (1.0, 1.0), tail_model="exp", tail_rate=1.0), 0.5),
        (SumOf((Indicator(0.0, 2.0), ExpDecay(1.0, left_level=0.0))), 0.0),
        (Scaled(3.0, PowerTail(2.0)), 1.0),
    ])
    def test_matches_brute_force(self, f, x):
        exact = f.integral_above(x)
        approx = numeric_tail(f, x)
        assert exact == pytest.approx(approx, rel=2e-3, abs=1e-6)

    def test_sum_of_with_divergent_part(self):
        f = SumOf((PowerTail(1.0), Indicator(0.0, 1.0)))
        assert math.isinf(f.integral_above(0.0))


def support_end(f, x):
    """f has no mass above x and some just below it, by its closed forms."""
    return f.integral_above(x) == 0.0 < f.integral_between(x - 0.1, x) == f.integral_above(x - 0.1)


class TestSupport:
    """The closed forms see where a compact support ends; the tail test stops there."""

    def test_indicator_bound(self):
        assert support_end(Indicator(0.0, 5.0), 5.0)

    def test_unbounded_families(self):
        for f in (ExpDecay(0.01), PowerTail(1.5), LogPower(2.0)):
            assert f.integral_above(1e3) > 0.0
        for f in (PowerTail(1.0), LogPower(1.0)):
            assert math.isinf(f.integral_above(1e3))

    def test_tabulated_zero_tail_bound(self):
        f = Tabulated((0.0, 1.0), (1.0, 1.0), tail_model="zero")
        assert support_end(f, 1.0)

    def test_sum_bound_is_max(self):
        f = SumOf((Indicator(0.0, 2.0), Indicator(5.0, 9.0)))
        assert support_end(f, 9.0)

    def test_sum_with_unbounded_part(self):
        f = SumOf((Indicator(0.0, 2.0), ExpDecay(1.0)))
        assert f.integral_above(9.0) > 0.0

    def test_scaled_preserves_bound(self):
        f = Scaled(4.0, Indicator(1.0, 3.0))
        assert support_end(f, 3.0)


# One or more values of every family.  Kinks and jumps sit on panel edges of
# the block quadrature, which then integrates each piece to rounding.
EXAMPLES = {
    "exp_decay": [ExpDecay(1.0), ExpDecay(0.01, left_level=0.5)],
    "power_tail": [PowerTail(0.5), PowerTail(1.0), PowerTail(1.5, shift=2.0)],
    "log_power": [LogPower(0.5), LogPower(1.0), LogPower(2.0)],
    "indicator": [Indicator(-5.0, 1536.0)],
    "tabulated": [Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.0)),
                  Tabulated((-5.0, -3.5, 0.0, 2.0, 1536.0), (0.0, 1.0, 2.0, 0.5, 1.0),
                            tail_model="exp", tail_rate=0.01)],
    "scaled": [Scaled(3.0, PowerTail(1.0))],
    "sum": [SumOf((Indicator(-5.0, 1536.0), LogPower(1.5),
                   Scaled(0.5, ExpDecay(0.01, left_level=0.0))))],
}


class TestClosedForms:
    """Every family's integral_between and integral_above, against quadrature and each other."""

    @pytest.mark.parametrize("kind", sorted(testfunctions._FAMILIES))
    def test_integral_between_matches_block_quadrature(self, kind):
        for f in EXAMPLES[kind]:
            for a, b in ((0.0, 1.0), (2.0 ** 10, 2.0 ** 11), (-8.0, -2.0), (-3.0, 5.0)):
                quadrature, _ = analysis._block_integral(f, a, b)
                assert f.integral_between(a, b) == pytest.approx(quadrature, rel=1e-9), (f, a, b)

    @pytest.mark.parametrize("kind", sorted(testfunctions._FAMILIES))
    def test_between_and_above_add_up(self, kind):
        for f in EXAMPLES[kind]:
            total = f.integral_above(0.0)
            if math.isinf(total):
                continue
            for x in (0.5, 3.0, 1536.0, 1e6):
                assert f.integral_between(0.0, x) + f.integral_above(x) == pytest.approx(
                    total, rel=1e-12), (f, x)

    @pytest.mark.parametrize("kind", sorted(testfunctions._FAMILIES))
    def test_integral_between_takes_arrays(self, kind):
        # the ends straddle 0, knots and the supports' edges, and include
        # empty pieces; a scalar call stays a float
        rng = np.random.default_rng(7)
        a = np.concatenate((rng.uniform(-20.0, 20.0, 300), [0.0, -3.0, 2.0 ** 10, 5.0]))
        b = a + np.concatenate((rng.exponential(4.0, 300), [1.0, 8.0, 2.0 ** 10, 0.0]))
        for f in EXAMPLES[kind]:
            scalar = np.array([f.integral_between(float(x), float(y)) for x, y in zip(a, b)])
            assert isinstance(f.integral_between(float(a[0]), float(b[0])), float)
            assert np.allclose(f.integral_between(a, b), scalar, rtol=1e-12, atol=1e-12), f
            assert f.integral_between(a[:0], b[:0]).shape == (0,)

    @pytest.mark.parametrize("f", [PowerTail(1.0), LogPower(1.0)])
    def test_divergent_tails_have_finite_positive_blocks(self, f):
        sums = [f.integral_between(2.0 ** k, 2.0 ** (k + 1)) for k in range(64)]
        assert all(0.0 < s < math.inf for s in sums)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        (partial(ExpDecay, -1.0), "RATE_POSITIVE"),
        (partial(ExpDecay, 1.0, left_level=-0.5), "LEVEL_NEGATIVE"),
        (partial(PowerTail, 0.0), "P_POSITIVE"),
        (partial(LogPower, -2.0), "P_POSITIVE"),
        (partial(LogPower, 1938.0), "P_RANGE"),
        (partial(Indicator, 3.0, 1.0), "INTERVAL_ORDER"),
        (partial(Scaled, -1.0, ExpDecay(1.0)), "FACTOR_POSITIVE"),
        (partial(Tabulated, (0.0, 1.0), (1.0, -1.0)), "VALUES_NEGATIVE"),
        (partial(Tabulated, (1.0, 0.0), (1.0, 1.0)), "KNOTS_ORDER"),
        # finite integrals past the float range, which the tail test would read as divergent
        (partial(ExpDecay, 1e-320), "RATE_RANGE"),
        (partial(Tabulated, (0.0, 1.0), (1.0, 1.0), tail_model="exp", tail_rate=1e-320),
         "TAIL_RANGE"),
        (partial(Tabulated, (0.0, 1e300), (1e300, 1e300)), "TABLE_RANGE"),
        (partial(Tabulated, (0.0, 1.0), (1e308, 1e308), tail_model="exp", tail_rate=1.0),
         "TABLE_RANGE"),
        (partial(Scaled, 1e308, ExpDecay(0.1)), "FACTOR_RANGE"),
        (partial(SumOf, (Scaled(1e308, ExpDecay(1.0)), Scaled(1e308, ExpDecay(1.0)))), "SUM_RANGE"),
    ])
    def test_bad_parameters_flagged(self, bad):
        build, code = bad
        with pytest.raises(NonFiniteParameter) as exc:
            build()
        assert [i.code for i in exc.value.issues] == [code]

    @pytest.mark.parametrize("f, converges", [
        (ExpDecay(1e-308), True),
        (Tabulated((0.0, 1.0), (1.0, 0.0), tail_model="exp", tail_rate=1e-320), True),
        (Scaled(1e307, ExpDecay(1.0)), True),
        (Scaled(1e300, PowerTail(1.0)), False),
        (SumOf((PowerTail(1.0), Scaled(1e290, PowerTail(0.5)))), False),
    ])
    def test_float_and_divergent_integrals_are_kept(self, f, converges):
        d = analysis.tail_integral_test(f)
        assert (d.verdict is analysis.Convergence.CONVERGES) is converges
        assert math.isfinite(d.value_or_lower_bound)
        assert all(math.isfinite(x) for x in d.diagnostics)

    def test_nested_validation_propagates(self):
        # the invalid part refuses to be built, so no invalid composite exists
        with pytest.raises(NonFiniteParameter) as exc:
            SumOf((ExpDecay(1.0), Scaled(2.0, PowerTail(-3.0))))
        assert [i.code for i in exc.value.issues] == ["P_POSITIVE"]


class TestSerialization:
    @pytest.mark.parametrize("f", [
        ExpDecay(1.5, left_level=0.0),
        PowerTail(1.0, shift=2.0),
        LogPower(2.0),
        Indicator(0.0, 5.0),
        Tabulated((0.0, 1.0, 2.0), (0.5, 1.0, 0.0), tail_model="exp", tail_rate=1.0),
        Scaled(2.5, LogPower(2.0)),
        SumOf((ExpDecay(1.0), Scaled(2.0, Indicator(0.0, 1.0)))),
    ])
    def test_round_trip(self, f):
        back = fn_from_dict(f.to_dict())
        assert back == f

    def test_unknown_family_rejected(self):
        with pytest.raises(NonFiniteParameter):
            fn_from_dict({"family": "mystery", "params": {}})

    def test_invalid_params_rejected_on_load(self):
        with pytest.raises(NonFiniteParameter):
            fn_from_dict({"family": "exp_decay", "params": {"rate": -1.0}})
