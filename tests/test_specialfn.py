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
            assert abs(bessel_j0(float(x)) - ref) < 2e-15

    def test_against_mpmath_asymptotic_region(self):
        xs = np.concatenate([np.linspace(12.01, 50.0, 77), [55.0, 60.0]])
        for x in xs:
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) < 2e-15

    def test_against_mpmath_large_arguments(self):
        # the kernel's argument reaches 2 pi W, and the CLI takes any W > 0
        xs = np.concatenate([np.linspace(60.1, 700.0, 161), [-333.3]])
        for x in xs:
            ref = float(mpmath.besselj(0, mpmath.mpf(float(x))))
            assert abs(bessel_j0(float(x)) - ref) < 1e-14

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


# equicorr_cdf_exact's own node grid: per rho, a over the 64 Laguerre
# nodes and b over 7 values of x in 10^[-2, 1]
GRID_RHOS = (0.3, 0.57, 0.9, 0.973, 0.999)


def equicorr_grid(rho):
    t = gauss_laguerre(64).nodes
    x = np.logspace(-2.0, 1.0, 7)
    return np.sqrt(2.0 * rho / (1.0 - rho) * t), np.sqrt(2.0 * x / (1.0 - rho))


class TestMarcumQ1Grid:
    @pytest.mark.parametrize("rho", GRID_RHOS)
    def test_grid_matches_scalar_calls(self, rho):
        a, b = equicorr_grid(rho)
        q = marcum_q1(a, b)
        assert q.shape == (a.size, b.size)
        loop = np.array([[marcum_q1(float(ai), float(bj)) for bj in b] for ai in a])
        assert np.abs(q - loop).max() <= 1e-15

    @pytest.mark.parametrize("rho", GRID_RHOS)
    def test_grid_against_noncentral_chisq(self, rho):
        # the docstring's error: below 9e-12 up to rho = 0.973, growing to
        # 6.1e-10 (measured 6.13e-10) at rho = 0.999
        a, b = equicorr_grid(rho)
        ref = stats.ncx2.sf(b[None, :] ** 2, 2, a[:, None] ** 2)
        assert np.abs(marcum_q1(a, b) - ref).max() < (9e-12 if rho <= 0.973 else 6.5e-10)

    def test_unsorted_and_repeated_arguments_keep_input_order(self):
        a, b = equicorr_grid(0.9)
        q = marcum_q1(a, b)
        ia = np.array([40, 3, 63, 3, 0, 40, 17])
        jb = np.array([6, 2, 2, 0, 5])
        assert np.array_equal(marcum_q1(a[ia], b[jb]), q[np.ix_(ia, jb)])

    def test_column_needs_no_other_column(self):
        # each b's values are the same sums in any grid of the same a
        a, b = equicorr_grid(0.973)
        q = marcum_q1(a, b)
        for j, bj in enumerate(b):
            assert np.array_equal(marcum_q1(a, float(bj)), q[:, j])

    def test_window_past_the_other_is_exact_zero(self):
        # b = 40: Y's window starts at k = 486, past a = 1's last k, 43,
        # as marcum_q1(1.0, 1e5) is 0 with no window built
        q = marcum_q1([1.0, 40.0, 1.0], [40.0, 1e5, 1.0])
        assert q[0, 0] == 0.0 and q[2, 0] == 0.0
        assert 0.0 < q[1, 0] < 1.0
        assert q[0, 1] == 0.0 and q[1, 1] == 0.0
        assert q[0, 2] == marcum_q1(1.0, 1.0)

    def test_window_cap_inside_an_array(self):
        # a^2/2 = 5e9 overlaps b = 1's window, as the scalar call does
        with pytest.raises(DomainError):
            marcum_q1([1.0, 2.0, 1e5], [0.5, 1.0])
        with pytest.raises(DomainError):
            marcum_q1(1e5, [0.0, 1.0])
        # where the scalar calls build no window, neither does the grid
        assert np.array_equal(marcum_q1([1.0, 1e5], [0.0, 1e9]), [[1.0, 0.0], [1.0, 0.0]])

    def test_scalar_arguments_drop_their_axis(self):
        v = marcum_q1(1.0, 1.0)
        assert type(v) is float
        assert marcum_q1(1.0, [1.0, 2.0]).shape == (2,)
        assert marcum_q1(np.array([1.0, 2.0, 3.0]), 1.0).shape == (3,)
        assert marcum_q1([1.0], [1.0]).shape == (1, 1)
        assert marcum_q1(np.float64(1.0), 1.0) == v

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [1.0, -0.5], [1.0, math.nan], math.inf])
    def test_rejects_bad_arrays(self, bad):
        with pytest.raises(DomainError):
            marcum_q1(bad, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, bad)


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
