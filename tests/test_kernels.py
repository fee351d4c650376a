"""Correlation kernels, spectra, and the quartic error bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fas_extremes.kernels import (
    LAMBDA2,
    CorrelationModel,
    SingularityError,
    approx_error,
    correlation,
    psd,
    spectral_leakage,
)
from fas_extremes.specialfn import DomainError


class TestCorrelation:
    def test_unit_at_origin(self):
        for model in CorrelationModel:
            assert correlation(model, 0.0) == 1.0

    def test_gaussian_values(self):
        assert abs(correlation(CorrelationModel.GAUSSIAN, 1.0) - math.exp(-math.pi**2)) < 1e-18
        assert correlation(CorrelationModel.GAUSSIAN, 1.0) == pytest.approx(5.17e-5, rel=2e-3)

    def test_jakes_first_zero(self):
        assert abs(correlation(CorrelationModel.JAKES, 0.383)) < 2e-3

    def test_even(self):
        for model in CorrelationModel:
            for d in (0.1, 0.37, 1.4):
                assert correlation(model, -d) == correlation(model, d)

    def test_ranges(self):
        for d in np.linspace(0.0, 3.0, 301):
            j = correlation(CorrelationModel.JAKES, float(d))
            g = correlation(CorrelationModel.GAUSSIAN, float(d))
            assert -1.0 <= j <= 1.0
            assert 0.0 < g <= 1.0

    def test_model_from_value(self):
        assert CorrelationModel("jakes") is CorrelationModel.JAKES
        assert CorrelationModel("gauss") is CorrelationModel.GAUSSIAN
        assert CorrelationModel(CorrelationModel.JAKES) is CorrelationModel.JAKES
        for name in ("rician", "gaussian", " JAKES"):  # no aliases, no case folding
            with pytest.raises(DomainError):
                CorrelationModel(name)

    def test_model_name_selects_its_kernel(self):
        # a name is coerced, not compared by identity and read as the Gaussian
        for d in (0.1, 0.3, 1.4):
            assert correlation("jakes", d) == correlation(CorrelationModel.JAKES, d)


class TestApproxError:
    def test_zero_at_origin(self):
        assert approx_error(0.0) == (0.0, 0.0)

    def test_bound_value(self):
        actual, bound = approx_error(0.1)
        assert abs(bound - 2.4352e-3) < 1e-6
        assert actual <= bound

    def test_bound_holds_on_validity_range(self):
        for d in np.linspace(0.0, 0.30, 1000):
            actual, bound = approx_error(float(d))
            assert actual <= bound + 1e-15

    def test_error_profile_past_first_zero(self):
        # the gap at J0's first zero is ~0.236 but keeps growing toward
        # the right endpoint, where J0 is heading for its first minimum
        at_zero, _ = approx_error(0.383)
        assert at_zero == pytest.approx(0.235944, abs=1e-5)
        errs = [approx_error(float(d))[0] for d in np.linspace(0.0, 0.5, 2001)]
        assert max(errs) == pytest.approx(0.389047, abs=1e-5)
        assert np.argmax(errs) == len(errs) - 1

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            approx_error(-0.1)

    def test_fourth_order_agreement(self):
        # |rho_J - rho_G| / delta^4 -> pi^4/4 as delta -> 0
        target = math.pi**4 / 4
        for d in (1e-2, 10**-2.5, 1e-3):
            actual, _ = approx_error(d)
            assert actual / d**4 == pytest.approx(target, rel=0.05)


class TestPsd:
    def test_jakes_center(self):
        assert abs(psd(CorrelationModel.JAKES, 0.0) - 1 / math.pi) < 1e-15

    def test_gaussian_center_uses_corrected_normalization(self):
        assert abs(psd(CorrelationModel.GAUSSIAN, 0.0) - 1 / math.sqrt(math.pi)) < 1e-15

    def test_model_name_selects_its_kernel(self):
        for f in (0.2, 0.5, 0.95):
            assert psd("jakes", f) == psd(CorrelationModel.JAKES, f)

    def test_jakes_support(self):
        assert psd(CorrelationModel.JAKES, 1.5) == 0.0
        assert psd(CorrelationModel.JAKES, -2.0) == 0.0
        with pytest.raises(SingularityError):
            psd(CorrelationModel.JAKES, 1.0)
        with pytest.raises(SingularityError):
            psd(CorrelationModel.JAKES, -1.0)

    def test_even(self):
        for model in CorrelationModel:
            for f in (0.2, 0.7, 0.95):
                assert psd(model, -f) == psd(model, f)

    def test_jakes_normalization_via_substitution(self):
        # f = sin(theta) absorbs the endpoint singularities:
        # integral of S_J df over (-1,1) becomes d(theta)/pi over (-pi/2, pi/2)
        theta = np.linspace(-math.pi / 2, math.pi / 2, 200001)
        vals = np.full_like(theta, 1 / math.pi)
        assert abs(np.trapezoid(vals, theta) - 1.0) < 1e-6

    def test_gaussian_normalization(self):
        f = np.linspace(-8.0, 8.0, 100001)
        vals = np.array([psd(CorrelationModel.GAUSSIAN, float(x)) for x in f])
        assert abs(np.trapezoid(vals, f) - 1.0) < 1e-6


class TestSpectralLeakage:
    def test_erf_value(self):
        assert abs(spectral_leakage() - 0.1573) < 1e-4
        assert spectral_leakage() == 1.0 - math.erf(1.0)

    def test_matches_numeric_psd_integral(self):
        f = np.linspace(-1.0, 1.0, 400001)
        vals = np.array([psd(CorrelationModel.GAUSSIAN, float(x)) for x in f])
        inside = float(np.trapezoid(vals, f))
        assert abs((1.0 - inside) - spectral_leakage()) < 1e-6


class TestSecondSpectralMoment:
    def test_constant(self):
        # -rho''(0) of both kernels; the routes below derive it per model
        assert LAMBDA2 == 2 * math.pi**2

    def test_finite_difference_route(self):
        h = 1e-4
        for model in CorrelationModel:
            fd = -(correlation(model, h) - 2.0 + correlation(model, h)) / h**2
            assert fd == pytest.approx(LAMBDA2, rel=1e-4)

    def test_spectral_integral_route(self):
        # Jakes: substitute f = sin(theta); Gaussian: plain wide grid
        theta = np.linspace(-math.pi / 2, math.pi / 2, 20001)
        jakes = np.trapezoid((2 * math.pi * np.sin(theta)) ** 2 / math.pi, theta)
        assert jakes == pytest.approx(LAMBDA2, rel=1e-3)
        f = np.linspace(-8.0, 8.0, 40001)
        sg = np.array([psd(CorrelationModel.GAUSSIAN, float(x)) for x in f])
        gauss = np.trapezoid((2 * math.pi * f) ** 2 * sg, f)
        assert gauss == pytest.approx(LAMBDA2, rel=1e-3)


@given(st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_gaussian_dominates_jakes_in_magnitude_near_origin(delta):
    # the two kernels agree to O(delta^4); their gap obeys the quartic bound
    # only on [0, 0.30], but both stay within [-1, 1] everywhere
    j = correlation(CorrelationModel.JAKES, delta)
    g = correlation(CorrelationModel.GAUSSIAN, delta)
    assert abs(j) <= 1.0 + 1e-15
    assert 0.0 < g <= 1.0
