"""Characteristic exponent, moments, and classification of the triplet."""

import math

import numpy as np
import pytest

from perpetua import (
    CompoundPoisson,
    ConstantJump,
    ExponentialJump,
    LevyTriplet,
    NonFiniteParameter,
    StableLike,
    TemperedStable,
    TwoSidedExponentialJump,
    UniformJump,
)
from perpetua.rng import derive_seed, stream
from perpetua.triplet import triplet_from_json

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
        steps = np.diff(path.values)
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
        t = LevyTriplet(nu.inner_mean(0.0, 1.0) + 1.0, 0.0, nu)
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


class TestValidation:
    @pytest.mark.parametrize("bad, code", [
        (LevyTriplet(float("nan")), "NONFINITE_DRIFT"),
        (LevyTriplet(0.0, -1.0), "NEGATIVE_GAUSSIAN"),
        (LevyTriplet(0.0, 0.0, CompoundPoisson(-1.0, ConstantJump(1.0))), "RATE_POSITIVE"),
        (LevyTriplet(0.0, 0.0, StableLike(2.5, 1.0)), "ALPHA_RANGE"),
        (LevyTriplet(0.0, 0.0, StableLike(1.0, 1.0, 0.5)), "SKEW_ALPHA_ONE"),
        (LevyTriplet(0.0, 0.0, StableLike(1.5, 1.0, 2.0)), "SKEW_RANGE"),
        (LevyTriplet(0.0, 0.0, TemperedStable(1.0, 1.0, 1.0)), "ALPHA_RANGE"),
        (LevyTriplet(0.0, 0.0, CompoundPoisson(1.0, ExponentialJump(-2.0))), "THETA_POSITIVE"),
    ])
    def test_issue_codes(self, bad, code):
        assert code in [i.code for i in bad.validate()]

    def test_operations_refuse_invalid(self):
        bad = LevyTriplet(0.0, -1.0)
        with pytest.raises(NonFiniteParameter):
            bad.char_exponent(1.0)
        with pytest.raises(NonFiniteParameter):
            bad.mean()

    def test_valid_triplet_has_no_issues(self):
        for t in ALL_TRIPLETS:
            assert t.validate() == []


class TestSerialization:
    @pytest.mark.parametrize("t", ALL_TRIPLETS)
    def test_json_round_trip(self, t):
        back = triplet_from_json(t.to_json())
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


class TestRng:
    def test_derived_seeds_differ_by_tag(self):
        s = {derive_seed(7, "a"), derive_seed(7, "b"), derive_seed(7, "a", 0),
             derive_seed(7, "a", 1), derive_seed(8, "a")}
        assert len(s) == 5

    def test_streams_reproducible(self):
        a = stream(123).standard_normal(8)
        b = stream(123).standard_normal(8)
        assert np.array_equal(a, b)
