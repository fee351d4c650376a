"""Special-function kernel against independent oracles.

mpmath supplies reference values for the Bessel routine; scipy's
noncentral chi-square tail is the Marcum oracle. The frozen decimal
literals were produced by those same oracles and guard against
regressions without needing the oracle at runtime.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fas_extremes.specialfn import (
    DomainError,
    bessel_j0,
    gauss_hermite,
    gauss_laguerre,
    marcum_q1,
)

mpmath.mp.dps = 30


class TestBesselJ0:
    def test_origin(self):
        assert bessel_j0(0.0) == 1.0

    def test_frozen_value_at_one(self):
        assert abs(bessel_j0(1.0) - 0.7651976866) < 1e-10

    def test_near_first_zero(self):
        # 2*pi*0.383 sits next to the first root of J0
        assert abs(bessel_j0(2.4066)) < 2e-3

    def test_against_mpmath_series_region(self):
        xs = np.linspace(-12.0, 12.0, 97)
        for x in xs:
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) < 1e-10

    def test_against_mpmath_asymptotic_region(self):
        xs = np.concatenate([np.linspace(12.01, 50.0, 77), [55.0, 60.0]])
        for x in xs:
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) < 1e-10

    def test_even(self):
        for x in (0.3, 1.7, 9.2, 23.5):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bessel_j0(float("nan"))
        with pytest.raises(DomainError):
            bessel_j0(float("inf"))


class TestMarcumQ1:
    def test_frozen_value(self):
        assert abs(marcum_q1(1.0, 1.0) - 0.7328798037) < 1e-8

    def test_degenerate_cases(self):
        assert marcum_q1(3.0, 0.0) == 1.0
        for b in (0.5, 1.0, 2.5):
            assert abs(marcum_q1(0.0, b) - math.exp(-b * b / 2)) < 1e-12
        # b's window lies wholly past a's, so no window is built and the
        # term cap does not apply
        assert marcum_q1(1.0, 1e5) == 0.0

    def test_against_noncentral_chisq(self):
        # Q1(a, b) = P(X > b^2) with X ~ ncx2(df=2, nc=a^2)
        grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 140.0]
        for a in grid:
            for b in grid:
                ref = float(stats.ncx2.sf(b * b, 2, a * a))
                assert abs(marcum_q1(a, b) - ref) < 1e-10

    def test_extreme_arguments_stay_in_range(self):
        for a, b in ((134.2, 15.3), (0.01, 90.0), (90.0, 0.01), (200.0, 200.0)):
            v = marcum_q1(a, b)
            assert 0.0 <= v <= 1.0

    def test_monotone_in_each_argument(self):
        bs = np.linspace(0.0, 6.0, 25)
        vals = [marcum_q1(2.0, float(b)) for b in bs]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
        avals = [marcum_q1(float(a), 2.0) for a in np.linspace(0.0, 6.0, 25)]
        assert all(y >= x - 1e-12 for x, y in zip(avals, avals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, -0.1)
        # a^2/2 = 5e9 needs a Poisson window past the term cap
        with pytest.raises(DomainError):
            marcum_q1(1e5, 1.0)

    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_a_probability(self, a, b):
        assert 0.0 <= marcum_q1(a, b) <= 1.0


SQRT_PI = math.sqrt(math.pi)


class TestGaussHermite:
    def test_single_node_rule(self):
        rule = gauss_hermite(1)
        assert rule.nodes == (0.0,)
        assert abs(rule.weights[0] - SQRT_PI) < 1e-14

    def test_two_node_rule(self):
        rule = gauss_hermite(2)
        r = 1 / math.sqrt(2)
        assert abs(rule.nodes[0] + r) < 1e-14
        assert abs(rule.nodes[1] - r) < 1e-14
        for w in rule.weights:
            assert abs(w - SQRT_PI / 2) < 1e-14

    @pytest.mark.parametrize("q", [2, 5, 10, 16, 24, 32, 64])
    def test_rule_invariants(self, q):
        rule = gauss_hermite(q)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        assert rule.order == q
        assert np.all(weights > 0)
        assert np.all(np.diff(nodes) > 0)
        # symmetry about the origin
        assert np.allclose(nodes, -nodes[::-1], atol=1e-12)
        assert abs(weights.sum() - SQRT_PI) < 1e-10
        assert abs((weights * nodes**2).sum() - SQRT_PI / 2) < 1e-10

    def test_fourth_moment_q10(self):
        rule = gauss_hermite(10)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        assert abs((weights * nodes**4).sum() - 0.75 * SQRT_PI) < 1e-10

    @pytest.mark.parametrize("q", [3, 8, 20, 40])
    def test_even_moment_exactness(self, q):
        # exact for t^(2m), m <= q-1: (2m-1)!! sqrt(pi) / 2^m
        rule = gauss_hermite(q)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        exact = SQRT_PI
        for m in range(1, q):
            exact *= (2 * m - 1) / 2.0
            got = float((weights * nodes ** (2 * m)).sum())
            assert abs(got - exact) <= 1e-9 * max(1.0, exact)

    def test_order_limits(self):
        for _ in range(2):  # errors are not cached: every call raises
            with pytest.raises(DomainError):
                gauss_hermite(0)
            with pytest.raises(DomainError):
                gauss_hermite(65)
            for order in (2.5, math.nan, math.inf):
                with pytest.raises(DomainError):
                    gauss_hermite(order)

    def test_rule_is_immutable(self):
        rule = gauss_hermite(4)
        with pytest.raises(Exception):
            rule.order = 5  # frozen dataclass
        # cached: a second call returns the same rule, whose arrays
        # cannot be written through
        assert gauss_hermite(4) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        assert gauss_hermite(4).nodes[0] != 0.0


class TestGaussLaguerre:
    def test_moments(self):
        rule = gauss_laguerre(32)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert abs((weights * nodes).sum() - 1.0) < 1e-11
        assert abs((weights * nodes**2).sum() - 2.0) < 1e-10

    def test_exponential_expectation(self):
        # E[e^(-t/2)] under Exp(1) is 2/3
        rule = gauss_laguerre(64)
        val = sum(w * math.exp(-t / 2) for t, w in zip(rule.nodes, rule.weights))
        assert abs(val - 2.0 / 3.0) < 1e-12

    def test_order_limits(self):
        for _ in range(2):  # errors are not cached: every call raises
            with pytest.raises(DomainError):
                gauss_laguerre(0)
            with pytest.raises(DomainError):
                gauss_laguerre(257)
            for order in (2.5, math.nan, math.inf):
                with pytest.raises(DomainError):
                    gauss_laguerre(order)

    @pytest.mark.parametrize("order", [187, 256])
    def test_non_finite_rule_rejected(self, order):
        for _ in range(2):
            with pytest.raises(DomainError):
                gauss_laguerre(order)

    def test_rule_is_immutable(self):
        rule = gauss_laguerre(64)
        assert gauss_laguerre(64) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        assert gauss_laguerre(64).nodes[0] > 0.0

    def test_largest_finite_order_builds(self):
        rule = gauss_laguerre(186)
        assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
        assert abs(np.sum(rule.weights) - 1.0) < 1e-10
