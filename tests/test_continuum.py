"""Continuous-aperture exceedance and outage approximations.

These closed forms are kept exactly as the source formulas state them,
including the boundary-term constant that the Monte Carlo comparisons in
the acceptance suite show to be too large; see the README's discussion of
measured discrepancies. The tests here pin the formulas themselves, their
clamping behavior, and the one level (u = 2) where the crossing-rate
variants coincide with the classical Rice count.
"""

import math

import pytest

from fas_extremes.continuum import outage_continuous, rice_upcrossing_rate
from fas_extremes.kernels import LAMBDA2
from fas_extremes.specialfn import DomainError

PI_ROOT2 = math.pi * math.sqrt(2.0)


class TestAdlerTaylor:
    """The Euler-characteristic exceedance e^-u (1 + W sqrt(lambda2) u),
    read through outage_continuous, which returns its complement."""

    def test_closed_form(self):
        r = outage_continuous(8.0, 1.0)
        exceedance = math.exp(-8.0) * (1.0 + 1.0 * math.sqrt(LAMBDA2) * 8.0)
        assert r.value == pytest.approx(1.0 - exceedance, rel=1e-15)
        assert r.clamped is False

    def test_clamps_at_low_levels(self):
        # the exceedance passes 1, so the raw outage goes negative
        r = outage_continuous(0.01, 1.0)
        assert 1.0 - r.raw > 1.0
        assert r.value == 0.0
        assert r.clamped is True

    def test_grows_with_aperture(self):
        a = 1.0 - outage_continuous(8.0, 1.0).value
        b = 1.0 - outage_continuous(8.0, 3.0).value
        assert b > a

    def test_domain(self):
        with pytest.raises(DomainError):
            outage_continuous(-1.0, 1.0)
        with pytest.raises(DomainError):
            outage_continuous(1.0, -0.5)
        for x, W in ((math.inf, 0.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(DomainError):
                outage_continuous(x, W)
        # W = 0 is the point-aperture limit 1 - e^-u, not an error
        assert outage_continuous(3.0, 0.0).value == pytest.approx(
            1.0 - math.exp(-3.0), rel=1e-15
        )


class TestOutageContinuous:
    def test_formula_identity(self):
        x = 10**0.5
        r = outage_continuous(x, 1.0)
        expect = 1.0 - math.exp(-x) * (1.0 + PI_ROOT2 * x)
        assert r.value == pytest.approx(expect, rel=1e-15)
        # quoted reference value holds at its printing precision
        assert abs(r.value - 0.3631) < 2e-4

    def test_clamps_to_zero_when_term_overshoots(self):
        r = outage_continuous(1.0, 2.0)
        assert r.raw < 0.0
        assert r.value == 0.0
        assert r.clamped is True

    def test_increases_with_threshold_once_unclamped(self):
        vals = [outage_continuous(x, 1.0).value for x in (2.0, 3.0, 5.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("W", [0.0, 0.25, 1.0, 2.0, 3.0, 5.0, 10.0])
    def test_below_rice_bound_from_one_over_pi(self, W):
        # 1 - e^-x (1 + W sqrt(2 pi x)) lower-bounds the outage at every N;
        # the printed crossing term is sqrt(pi x) times the Rice count, so
        # the printed outage lies under that bound exactly when x >= 1/pi
        def rice(x):
            return 1.0 - math.exp(-x) * (1.0 + W * math.sqrt(2.0 * math.pi * x))

        for x in [1.0 / math.pi * (1.0 + 2.0**-20), 0.5, 1.0, 10**0.5, 5.0, 10.0, 30.0]:
            r = outage_continuous(x, W)
            assert r.raw <= rice(x)
            assert r.value <= max(0.0, rice(x))
        if W > 0:
            for x in (0.05, 0.2, 1.0 / math.pi * (1.0 - 2.0**-20)):
                assert outage_continuous(x, W).raw > rice(x)


class TestRiceRate:
    def test_formula(self):
        u = 3.0
        expect = math.sqrt(LAMBDA2 / (2 * math.pi)) * u * math.exp(-u)
        assert rice_upcrossing_rate(u) == pytest.approx(expect, rel=1e-15)

    def test_coincides_with_classical_count_at_two(self):
        # sqrt(lambda2/2pi) u e^-u equals sqrt(2 pi u) e^-u exactly at
        # u = 2 for lambda2 = 2 pi^2; elsewhere the two forms differ
        at2 = rice_upcrossing_rate(2.0)
        classical = math.sqrt(2 * math.pi * 2.0) * math.exp(-2.0)
        assert at2 == pytest.approx(classical, rel=1e-15)
        at3 = rice_upcrossing_rate(3.0)
        classical3 = math.sqrt(2 * math.pi * 3.0) * math.exp(-3.0)
        assert abs(at3 - classical3) / classical3 > 0.1

    def test_domain(self):
        for u in (-0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                rice_upcrossing_rate(u)
