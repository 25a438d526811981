"""Characteristic exponent, moments, and classification of the triplet."""

import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from perpetua import (
    CompoundPoisson,
    ConstantJump,
    ExpDecay,
    ExponentialJump,
    Indicator,
    LevyTriplet,
    LogPower,
    NoJumps,
    NonFiniteParameter,
    PowerTail,
    Scaled,
    StableLike,
    SumOf,
    Tabulated,
    TemperedStable,
    TwoSidedExponentialJump,
    UniformJump,
    benchmark_matrix,
)
from perpetua import jumps, measures, testfunctions
from perpetua.rng import derive_seed, stream
from perpetua.validation import Validated

LAM_GRID = np.concatenate([-np.geomspace(50, 0.01, 25), [0.0], np.geomspace(0.01, 50, 25)])

ALL_TRIPLETS = [
    LevyTriplet(1.0),
    LevyTriplet(1.0, 1.0),
    LevyTriplet(-0.3, 2.0),
    LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ConstantJump(1.0))),
    LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1))),
    LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1))),
    LevyTriplet(0.5, 0.0, CompoundPoisson(2.0, TwoSidedExponentialJump(1.0, 3.0, 0.4))),
    LevyTriplet(0.2, 0.3, CompoundPoisson(0.7, UniformJump(-1.0, 2.0))),
    LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0)),
    LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 0.0)),
    LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 1.0)),
    LevyTriplet(0.4, 0.1, StableLike(1.2, 0.5, -0.5)),
    LevyTriplet(0.0, 0.0, TemperedStable(0.7, 1.0, 1.5, 0.3)),
    LevyTriplet(1.0, 0.5, TemperedStable(1.4, 0.8, 2.0, -0.6)),
    LevyTriplet(2.0, 0.0, StableLike(1.5, 1.0, -1.0)),
]


class TestCharExponent:
    def test_compound_poisson_unit_jumps(self):
        # rate-1 jumps of size 1 and no drift: Psi = 1 - e^{i lam}
        t = LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ConstantJump(1.0)))
        lam = np.linspace(-10, 10, 41)
        expected = 1.0 - np.exp(1j * lam)
        assert np.allclose(t.char_exponent(lam), expected, atol=1e-12)

    def test_brownian_with_drift(self):
        t = LevyTriplet(2.0, 3.0)
        lam = 1.7
        assert t.char_exponent(lam) == pytest.approx(-2j * lam + 1.5 * lam**2)

    def test_scalar_in_scalar_out(self):
        t = LevyTriplet(1.0, 1.0)
        assert isinstance(t.char_exponent(0.5), complex)

    @pytest.mark.parametrize("lam", [np.array([0.5j, 1j]), 1j, np.complex128(1j), [0.5, 1j]],
                             ids=["array", "complex", "numpy_scalar", "list"])
    def test_a_complex_argument_is_refused_by_name(self, lam):
        # cast to float, [0.5j, 1j] read as [0, 0]: Psi 0 where it is 0.25 and 0.433
        t = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        with pytest.raises(NonFiniteParameter) as exc:
            t.char_exponent(lam)
        assert [issue.code for issue in exc.value.issues] == ["CHAR_NONREAL"]

    @pytest.mark.parametrize("t", ALL_TRIPLETS)
    def test_hermitian_symmetry(self, t):
        # real-valued process: Psi(-lam) = conj(Psi(lam))
        psi_pos = t.char_exponent(LAM_GRID)
        psi_neg = t.char_exponent(-LAM_GRID)
        assert np.allclose(psi_neg, np.conj(psi_pos), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("t", ALL_TRIPLETS)
    def test_nonnegative_real_part(self, t):
        # |E e^{i lam xi_1}| <= 1 forces Re Psi >= 0
        psi = t.char_exponent(LAM_GRID)
        assert np.all(psi.real >= -1e-10)

    @pytest.mark.parametrize("t", ALL_TRIPLETS)
    def test_vanishes_at_zero(self, t):
        assert t.char_exponent(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_stable_closed_form(self):
        t = LevyTriplet(0.0, 0.0, StableLike(1.5, 1.0, 0.0))
        lam = np.array([0.5, 1.0, 2.0, 5.0])
        C = 1.6710855164206668  # Gamma(2-a) cos(pi a/2) / (a (1-a)) at a = 1.5
        assert np.allclose(t.char_exponent(lam), C * lam**1.5, rtol=1e-9)

    def test_two_sided_exponential_is_the_mixture_of_its_sides_exactly(self):
        # on every dyadic block of r the criterion and the sup u integral visit
        law = TwoSidedExponentialJump(2.0, 3.0, 0.4)
        up, down = ExponentialJump(2.0, 1), ExponentialJump(3.0, -1)
        r = np.concatenate([np.linspace(2.0**k, 2.0**(k + 1), 65) for k in range(-64, 13)])
        for lam in (r, -r):
            assert np.array_equal(law.char_minus_one(lam),
                                  0.4 * up.char_minus_one(lam) + 0.6 * down.char_minus_one(lam))
        for a in (-1.0, 0.0, 1e-3, 0.5, 7.0):
            assert law.second_moment_abs_below(a) == (0.4 * up.second_moment_abs_below(a)
                                                      + 0.6 * down.second_moment_abs_below(a))

    @pytest.mark.parametrize("law", [
        ConstantJump(0.7), ConstantJump(-3.0), ExponentialJump(2.0, 1), ExponentialJump(0.5, -1),
        TwoSidedExponentialJump(2.0, 3.0, 0.4), UniformJump(-1.0, 2.0), UniformJump(0.5, 0.6),
    ])
    def test_compound_poisson_small_r_does_not_cancel(self, law):
        # Re Psi = rate (1 - E cos(rJ)) = rate E J^2 r^2 / 2 + O(r^4)
        r = 1e-7
        psi = CompoundPoisson(1.5, law).char_integral(np.array([r]))[0]
        exact = 1.5 * law.second_moment() * r * r / 2.0
        assert psi.real == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.2, 1.5, 1.9])
    def test_tempered_stable_small_r_does_not_cancel(self, alpha):
        # Re Psi = r^2/2 int x^2 nu(dx) + O(r^4), where
        # int x^2 nu(dx) = scale Gamma(2 - alpha) theta^(alpha - 2)
        r = 1e-7
        nu = TemperedStable(alpha, 1.3, 2.0, 0.4)
        psi = nu.char_integral(np.array([r]))[0]
        second = 1.3 * math.gamma(2.0 - alpha) * 2.0 ** (alpha - 2.0)
        assert psi.real == pytest.approx(second * r * r / 2.0, rel=1e-12, abs=0.0)

    def test_stable_half_closed_form(self):
        t = LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 0.0))
        C = 2.5066282746310007
        assert t.char_exponent(2.0) == pytest.approx(C * math.sqrt(2.0), rel=1e-9)


class TestMonteCarloConsistency:
    """Empirical characteristic function of increments vs exp(-dt Psi)."""

    @pytest.mark.parametrize("t", [
        LevyTriplet(1.0, 1.0),
        LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1))),
        LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0)),
        LevyTriplet(0.0, 0.0, TemperedStable(0.7, 1.0, 1.5, 0.3)),
    ])
    def test_increment_char_function(self, t):
        from perpetua.simulate import sample_path

        dt, n = 0.05, 60_000
        path = sample_path(t, n * dt, dt, seed=derive_seed(99, t.digest()))
        steps = np.diff(path.at(np.arange(n + 1) * dt))  # event paths too
        for lam in (0.3, 1.0, 2.5):
            emp = np.mean(np.exp(1j * lam * steps))
            target = np.exp(-dt * t.char_exponent(lam))
            se = np.sqrt((1 - np.abs(target) ** 2) / n) + 1e-4
            assert abs(emp - target) < 5 * se, (lam, emp, target)


class TestMean:
    def test_drift_plus_jump_mean(self):
        t = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        assert t.mean().as_float() == pytest.approx(0.6)

    def test_symmetric_stable_mean_is_drift(self):
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0))
        assert t.mean().as_float() == pytest.approx(1.0)

    def test_heavy_positive_tail_is_pos_inf(self):
        t = LevyTriplet(0.0, 0.0, StableLike(0.5, 1.0, 1.0))
        assert t.mean().kind == "+inf"

    def test_two_sided_heavy_tails_undefined(self):
        t = LevyTriplet(0.0, 0.0, StableLike(0.8, 1.0, 0.0))
        assert t.mean().kind == "undefined"

    def test_spectrally_negative_stable_mean(self):
        t = LevyTriplet(2.0, 0.0, StableLike(1.5, 1.0, -1.0))
        assert t.mean().kind == "finite"

    def test_mean_not_finite_positive_flag(self):
        t = LevyTriplet(-1.0, 1.0)
        flags = t.classify()
        assert not flags.mean_is_finite_positive


def _levy_density(nu):
    """x -> nu(dx)/dx for a StableLike or TemperedStable measure, x != 0."""
    taper = getattr(nu, "tempering", 0.0)

    def density(x):
        side = 0.5 * (1.0 + nu.skew) if x > 0 else 0.5 * (1.0 - nu.skew)
        return nu.scale * side * abs(x) ** (-1.0 - nu.alpha) * math.exp(-taper * abs(x))
    return density


def _first_moment(nu, lo, hi):
    """int_{lo<|x|<=hi} x nu(dx) by scipy quad, each side on its own."""
    density = _levy_density(nu)
    return sum(quad(lambda x: x * density(x), a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
               for a, b in ((lo, hi), (-hi, -lo)))


class TestMeasureIntegrals:
    """compensator(eps) and jump_mean() against quadrature of the Levy density."""

    MEASURES = [
        StableLike(0.6, 1.3, 0.4),
        StableLike(1.5, 0.7, -0.7),
        TemperedStable(0.7, 1.0, 1.5, 0.3),
        TemperedStable(1.4, 0.8, 2.0, -0.6),
    ]

    @pytest.mark.parametrize("nu", MEASURES)
    @pytest.mark.parametrize("eps", [1e-3, 0.05, 0.5])
    def test_compensator(self, nu, eps):
        assert nu.compensator(eps) == pytest.approx(_first_moment(nu, eps, 1.0), rel=1e-8)

    @pytest.mark.parametrize("nu", [m for m in MEASURES if m.alpha < 1.0])
    def test_compensator_at_zero_for_finite_variation(self, nu):
        assert nu.compensator(0.0) == pytest.approx(_first_moment(nu, 0.0, 1.0), rel=1e-6)

    @pytest.mark.parametrize("nu", [m for m in MEASURES if m.jump_mean().is_finite])
    def test_jump_mean_is_the_tail_mean(self, nu):
        assert nu.jump_mean().as_float() == pytest.approx(_first_moment(nu, 1.0, math.inf),
                                                          rel=1e-8)

    @pytest.mark.parametrize("skew, kind", [(0.4, "undefined"), (1.0, "+inf"), (-1.0, "-inf")])
    def test_stable_jump_mean_below_alpha_one(self, skew, kind):
        assert StableLike(0.6, 1.3, skew).jump_mean().kind == kind

    def test_finite_activity_is_not_compensated(self):
        cp = CompoundPoisson(2.0, TwoSidedExponentialJump(1.0, 3.0, 0.4))
        assert cp.compensator(0.0) == NoJumps().compensator(0.0) == 0.0
        assert cp.jump_mean().as_float() == pytest.approx(2.0 * (0.4 - 0.6 / 3.0))
        assert NoJumps().jump_mean().as_float() == 0.0


def _upper_gamma_oracle(s, x):
    """Gamma(s, x) from scipy: gammaincc for s > 0, x^(1-n) E_n(x) at s = 1 - n <= 0,
    otherwise x^s e^-x int_0^inf exp(s w - x expm1(w)) dw (t = x e^w) by quad."""
    if s > 0.0:
        return special.gammaincc(s, x) * special.gamma(s)
    if s == round(s):
        return x ** s * special.expn(1 - round(s), x)
    body = quad(lambda w: math.exp(s * w - x * math.expm1(w)), 0.0, math.log1p(750.0 / x),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return x ** s * math.exp(-x) * body


class TestIncompleteGamma:
    """upper_gamma and lower_gamma against scipy over the shapes the measures use and beyond."""

    XS = np.geomspace(1e-10, 500.0, 40)
    SHAPES = sorted({*np.linspace(-1.999, 3.0, 41).round(12), 0.0, -1.0, 1e-13, 1e-9, -1e-9,
                     -1.0 + 1e-9, -1.0 - 1e-9, 1.0, 2.0, 3.0})

    @pytest.mark.parametrize("s", SHAPES)
    def test_upper_gamma_matches_scipy(self, s):
        got = np.array([measures.upper_gamma(s, x) for x in self.XS])
        want = np.array([_upper_gamma_oracle(s, x) for x in self.XS])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("s", [s for s in SHAPES if s > 0.0])
    def test_lower_gamma_matches_scipy(self, s):
        got = np.array([measures.lower_gamma(s, x) for x in self.XS])
        want = special.gammainc(s, self.XS) * special.gamma(s)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_refusals(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError, match="upper_gamma needs x > 0"):
                measures.upper_gamma(0.5, x)
        for s in (0.0, -0.5):
            with pytest.raises(ValueError, match="lower_gamma needs s > 0"):
                measures.lower_gamma(s, 1.0)
        assert measures.lower_gamma(0.5, 0.0) == measures.lower_gamma(0.5, -1.0) == 0.0


class TestStructure:
    def test_compound_poisson_flag_requires_zero_drift(self):
        cp = CompoundPoisson(1.0, ExponentialJump(1.0, 1))
        assert LevyTriplet(0.0, 0.0, cp).classify().is_compound_poisson
        assert not LevyTriplet(0.1, 0.0, cp).classify().is_compound_poisson
        assert not LevyTriplet(0.0, 1.0, cp).classify().is_compound_poisson

    def test_subordinator_detection(self):
        t = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        assert t.classify().is_subordinator
        down = LevyTriplet(0.1, 0.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
        assert not down.classify().is_subordinator

    def test_stable_subordinator_natural_drift(self):
        # one-sided alpha = 0.5 jumps have finite variation; the pathwise
        # slope subtracts the small-jump compensator baked into drift
        nu = StableLike(0.5, 1.0, 1.0)
        t = LevyTriplet(nu.compensator(0.0) + 1.0, 0.0, nu)
        assert t.natural_drift() == pytest.approx(1.0)
        assert t.classify().is_subordinator

    def test_natural_drift_rejects_infinite_variation(self):
        t = LevyTriplet(1.0, 0.0, StableLike(1.5, 1.0, 0.0))
        with pytest.raises(ValueError):
            t.natural_drift()

    def test_spectrally_negative_flag(self):
        t = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, -1)))
        assert t.classify().is_spectrally_negative
        up = LevyTriplet(1.0, 1.0, CompoundPoisson(1.0, ExponentialJump(2.0, 1)))
        assert not up.classify().is_spectrally_negative
        # no jumps at all counts as "no positive jumps"
        assert LevyTriplet(1.0, 1.0).classify().is_spectrally_negative

    def test_effective_volatility(self):
        t = LevyTriplet(0.0, 2.0, CompoundPoisson(1.0, ConstantJump(0.5)))
        # jumps of size 0.5 are inside |x| <= 1: sigma^2 + rate * x^2
        assert t.effective_volatility_sq() == pytest.approx(2.25)


SIGN_LAWS = [
    TwoSidedExponentialJump(1.0, 2.0, 0.0),
    TwoSidedExponentialJump(1.0, 2.0, 0.5),
    TwoSidedExponentialJump(1.0, 2.0, 1.0),
    UniformJump(0.0, 1.0),
    UniformJump(-1.0, 0.0),
    UniformJump(-1.0, 1.0),
    ConstantJump(1.0),
    ConstantJump(-1.0),
    ExponentialJump(2.0, 1),
    ExponentialJump(2.0, -1),
]

SIGN_MEASURES = [
    *(CompoundPoisson(1.5, law) for law in SIGN_LAWS),
    *(StableLike(alpha, 1.0, skew) for alpha in (0.5, 1.5) for skew in (-1.0, 0.0, 1.0)),
    StableLike(1.0, 1.0, 0.0),
    *(TemperedStable(alpha, 1.0, 2.0, skew) for alpha in (0.5, 1.5) for skew in (-1.0, 0.0, 1.0)),
    measures.measure_from_dict({"family": "spectrally_negative_stable",
                                "params": {"alpha": 1.5, "scale": 1.0}}),
]


def _drawn_signs(values) -> set:
    return set(np.sign(values[values != 0.0]).astype(int).tolist())


class TestSigns:
    """charges(sign) agrees with the signs each family's sampler draws."""

    @pytest.mark.parametrize("law", SIGN_LAWS, ids=repr)
    def test_jump_law_charges_the_signs_it_draws(self, law):
        drawn = _drawn_signs(law.sample(np.random.default_rng(3), 10_000))
        assert {s for s in (1, -1) if law.charges(s)} == drawn

    @pytest.mark.parametrize("nu", SIGN_MEASURES, ids=repr)
    def test_measure_charges_the_signs_it_draws(self, nu):
        drawn = _drawn_signs(nu.sample_jumps_above(np.random.default_rng(3), nu.default_cutoff(0.01),
                                                   10_000))
        assert {s for s in (1, -1) if nu.charges(s)} == drawn

    def test_no_jumps_charges_neither_side_and_draws_none(self):
        nu = NoJumps()
        assert not nu.charges(1) and not nu.charges(-1)
        assert nu.rate_above(nu.default_cutoff(0.01)) == 0.0

    @pytest.mark.parametrize("alpha,scale", [(0.3, 0.5), (0.8, 2.0), (1.2, 1.0), (1.7, 0.25)])
    def test_tempered_cutoff_is_the_stable_formula_bit_for_bit(self, alpha, scale):
        for dt in map(float, np.geomspace(1e-12, 1.0, 49)):
            stable = min((2.0 * scale * dt / alpha) ** (1.0 / alpha), 0.5)
            assert TemperedStable(alpha, scale, 3.0, 0.4).default_cutoff(dt) == stable
            assert StableLike(alpha, scale, 0.4).default_cutoff(dt) == stable


class TestValidation:
    # each case builds the invalid part itself: building it is what raises
    @pytest.mark.parametrize("bad, code", [
        (partial(LevyTriplet, float("nan")), "NONFINITE_DRIFT"),
        (partial(LevyTriplet, 0.0, -1.0), "NEGATIVE_GAUSSIAN"),
        (partial(CompoundPoisson, -1.0, ConstantJump(1.0)), "RATE_POSITIVE"),
        (partial(StableLike, 2.5, 1.0), "ALPHA_RANGE"),
        (partial(StableLike, 1.0, 1.0, 0.5), "SKEW_ALPHA_ONE"),
        (partial(StableLike, 1.5, 1.0, 2.0), "SKEW_RANGE"),
        (partial(TemperedStable, 1.0, 1.0, 1.0), "ALPHA_RANGE"),
        (partial(ExponentialJump, -2.0), "THETA_POSITIVE"),
    ])
    def test_issue_codes(self, bad, code):
        with pytest.raises(NonFiniteParameter) as exc:
            bad()
        assert [i.code for i in exc.value.issues] == [code]

    @pytest.mark.parametrize("measure", [
        partial(StableLike, 1.5, 1.0, math.nan),
        partial(TemperedStable, 1.5, 1.0, 1.0, math.nan),
    ])
    def test_nan_skew_is_reported_once(self, measure):
        with pytest.raises(NonFiniteParameter) as exc:
            measure()
        assert [i.code for i in exc.value.issues if i.field == "skew"] == ["SKEW_RANGE"]

    def test_operations_refuse_invalid(self):
        # no operation can meet an invalid triplet: building one raises, and
        # so does replacing a field of a valid one
        with pytest.raises(NonFiniteParameter, match="NEGATIVE_GAUSSIAN"):
            LevyTriplet(0.0, -1.0)
        with pytest.raises(NonFiniteParameter, match="NEGATIVE_GAUSSIAN"):
            dataclasses.replace(LevyTriplet(0.0, 1.0), gaussian_coef=-1.0)

    def test_every_value_type_checks_itself_when_built(self):
        types = [LevyTriplet, *measures._FAMILIES.values(), *jumps._LAWS.values(),
                 *testfunctions._FAMILIES.values()]
        assert len(types) == 16
        assert [t.__name__ for t in types if not issubclass(t, Validated)] == []

    def test_valid_triplet_has_no_issues(self):
        for t in ALL_TRIPLETS:
            assert t.validate() == []


class TestSerialization:
    @pytest.mark.parametrize("t", ALL_TRIPLETS)
    def test_json_round_trip(self, t):
        back = LevyTriplet.from_dict(json.loads(t.to_json()))
        assert back == t
        assert back.digest() == t.digest()

    def test_from_dict_validates(self):
        with pytest.raises(NonFiniteParameter):
            LevyTriplet.from_dict({"drift": 0.0, "gaussian": -2.0})

    def test_spectrally_negative_stable_is_a_config_alias(self):
        t = LevyTriplet.from_dict({
            "drift": 2.0, "gaussian": 0.0,
            "levy_measure": {"family": "spectrally_negative_stable",
                             "params": {"alpha": 1.5, "scale": 1.0}},
        })
        assert t == LevyTriplet(2.0, 0.0, StableLike(1.5, 1.0, -1.0))
        assert t.to_dict()["levy_measure"]["family"] == "stable"

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_spectrally_negative_stable_alias_needs_alpha_in_1_2(self, alpha):
        with pytest.raises(NonFiniteParameter, match="ALPHA"):
            LevyTriplet.from_dict({
                "drift": 2.0, "gaussian": 0.0,
                "levy_measure": {"family": "spectrally_negative_stable",
                                 "params": {"alpha": alpha, "scale": 1.0}},
            })

    def test_digest_distinguishes(self):
        a = LevyTriplet(1.0, 1.0)
        b = LevyTriplet(1.0, 1.0 + 1e-9)
        assert a.digest() != b.digest()


# one value of each family, and its wire form as written before the families
# shared one writer; the key order is part of the form
ONE_OF_EACH = [
    (NoJumps(), {"family": "none", "params": {}}),
    (CompoundPoisson(1.0, ExponentialJump(2.0, 1)),
     {"family": "compound_poisson", "params": {"rate": 1.0, "jump_law": {
         "kind": "exponential", "theta": 2.0, "sign": 1}}}),
    (StableLike(1.5, 1.0, 0.25),
     {"family": "stable", "params": {"alpha": 1.5, "scale": 1.0, "skew": 0.25}}),
    (TemperedStable(0.5, 1.0, 2.0, -0.5),
     {"family": "tempered_stable",
      "params": {"alpha": 0.5, "scale": 1.0, "tempering": 2.0, "skew": -0.5}}),
    (ConstantJump(-0.5), {"kind": "constant", "size": -0.5}),
    (ExponentialJump(2.0, -1), {"kind": "exponential", "theta": 2.0, "sign": -1}),
    (TwoSidedExponentialJump(2.0, 3.0, 0.4),
     {"kind": "two_sided_exponential", "theta_plus": 2.0, "theta_minus": 3.0, "p_plus": 0.4}),
    (UniformJump(-1.0, 2.0), {"kind": "uniform", "a": -1.0, "b": 2.0}),
    (ExpDecay(1.5, 0.0), {"family": "exp_decay", "params": {"rate": 1.5, "left_level": 0.0}}),
    (PowerTail(2.0, 3.0), {"family": "power_tail", "params": {"p": 2.0, "shift": 3.0}}),
    (LogPower(2.0), {"family": "log_power", "params": {"p": 2.0}}),
    (Indicator(0.0, 5.0), {"family": "indicator", "params": {"a": 0.0, "b": 5.0}}),
    (Tabulated([0.0, 1.0, 2.0], [0.5, 1.0, 0.0], "exp", 2.0),
     {"family": "tabulated", "params": {"knots": [0.0, 1.0, 2.0], "values": [0.5, 1.0, 0.0],
                                        "tail_model": "exp", "tail_rate": 2.0}}),
    (Scaled(2.5, LogPower(2.0)),
     {"family": "scaled", "params": {"factor": 2.5, "inner": {
         "family": "log_power", "params": {"p": 2.0}}}}),
    (SumOf([ExpDecay(1.0), Scaled(2.0, Indicator(0.0, 1.0))]),
     {"family": "sum", "params": {"parts": [
         {"family": "exp_decay", "params": {"rate": 1.0, "left_level": 1.0}},
         {"family": "scaled", "params": {"factor": 2.0, "inner": {
             "family": "indicator", "params": {"a": 0.0, "b": 1.0}}}}]}}),
]

# the benchmark matrix's processes and functions, with the triplet digests
MATRIX_TRIPLETS = {
    "pure_drift": ("7cf9c4e0d5e3", 1.0, 0.0, {"family": "none", "params": {}}),
    "bm_drift": ("1ba4457bb538", 1.0, 1.0, {"family": "none", "params": {}}),
    "drift_cp": ("e4f31ec9cc16", 0.1, 0.0, {"family": "compound_poisson", "params": {
        "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": 1}}}),
    "stable_drift": ("c04d025744dc", 1.0, 0.0, {"family": "stable", "params": {
        "alpha": 1.5, "scale": 1.0, "skew": 0.0}}),
    "sn_bm_cp": ("bf5676354f4f", 1.0, 1.0, {"family": "compound_poisson", "params": {
        "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 2.0, "sign": -1}}}),
    "cp_only": ("d5c680134c11", 0.0, 0.0, {"family": "compound_poisson", "params": {
        "rate": 1.0, "jump_law": {"kind": "exponential", "theta": 1.0, "sign": 1}}}),
    "stable_half": ("f1daaa76bc93", 0.0, 0.0, {"family": "stable", "params": {
        "alpha": 0.5, "scale": 1.0, "skew": 0.0}}),
}
MATRIX_FUNCTIONS = {
    "exp_decay": {"family": "exp_decay", "params": {"rate": 1.0, "left_level": 1.0}},
    "power_tail": {"family": "power_tail", "params": {"p": 1.0, "shift": 1.0}},
    "log_power": {"family": "log_power", "params": {"p": 2.0}},
    "indicator": {"family": "indicator", "params": {"a": 0.0, "b": 5.0}},
}


def _reader(value):
    if isinstance(value, jumps.JumpLaw):
        return jumps.jump_law_from_dict
    if type(value) in measures._FAMILIES.values():
        return measures.measure_from_dict
    return testfunctions.test_function_from_dict


class TestWireForm:
    def test_one_value_of_every_registered_family(self):
        registered = {*measures._FAMILIES.values(), *jumps._LAWS.values(),
                      *testfunctions._FAMILIES.values()}
        assert {type(v) for v, _ in ONE_OF_EACH} == registered

    @pytest.mark.parametrize("value,written", ONE_OF_EACH,
                             ids=[type(v).__name__ for v, _ in ONE_OF_EACH])
    def test_reader_inverts_writer(self, value, written):
        assert value.to_dict() == written  # lists, not tuples
        assert json.dumps(value.to_dict()) == json.dumps(written)  # in the same key order
        back = _reader(value)(value.to_dict())
        assert back == value and hash(back) == hash(value)

    def test_benchmark_matrix_is_written_as_before(self):
        cases = benchmark_matrix()
        assert len(cases) == 28
        for case in cases:
            pname, fname = case.name.split("/")
            digest, drift, gaussian, measure = MATRIX_TRIPLETS[pname]
            written = {"drift": drift, "gaussian": gaussian, "levy_measure": measure}
            assert json.dumps(case.triplet.to_dict()) == json.dumps(written)
            assert case.triplet.digest() == digest
            assert json.dumps(case.f.to_dict()) == json.dumps(MATRIX_FUNCTIONS[fname])
            assert LevyTriplet.from_dict(written) == case.triplet
            assert testfunctions.test_function_from_dict(MATRIX_FUNCTIONS[fname]) == case.f

    def test_triplet_reads_gaussian_not_its_field_name(self):
        assert LevyTriplet.from_dict({"drift": 1.0, "gaussian": 2.0}) == LevyTriplet(1.0, 2.0)
        with pytest.raises(NonFiniteParameter, match="unknown field 'gaussian_coef'"):
            LevyTriplet.from_dict({"drift": 1.0, "gaussian_coef": 2.0})
        # and its issues name the key too, never the field
        for bad in (-1.0, "x"):
            with pytest.raises(NonFiniteParameter) as exc:
                LevyTriplet.from_dict({"drift": 1.0, "gaussian": bad})
            assert [i.field for i in exc.value.issues] == ["gaussian"]
            assert "gaussian_coef" not in str(exc.value)

class TestRng:
    def test_derived_seeds_differ_by_tag(self):
        s = {derive_seed(7, "a"), derive_seed(7, "b"), derive_seed(7, "a", 0),
             derive_seed(7, "a", 1), derive_seed(8, "a")}
        assert len(s) == 5

    def test_streams_reproducible(self):
        a = stream(123).standard_normal(8)
        b = stream(123).standard_normal(8)
        assert np.array_equal(a, b)
