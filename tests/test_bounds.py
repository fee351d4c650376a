"""Equi-correlated CDFs and the correlation-extremes outage bounds.

The printed alternating series is kept verbatim for diagnostics; it is not
a CDF for rho > 0 (its k=0 term is 1/(1-rho)), which the validity flag and
the frozen example below document. Everything downstream of the bounds uses
the exact conditional-Rician evaluator, cross-checked here against a direct
Monte Carlo of the shared-factor decomposition.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fas_extremes import bounds
from fas_extremes.bounds import (
    _partition_indices,
    block_refined_bound,
    equicorr_cdf_exact,
    equicorr_cdf_series,
    rho_extremes,
    slepian_sandwich,
)
from fas_extremes.fieldmodel import ApertureConfig, correlation_matrix
from fas_extremes.kernels import CorrelationModel
from fas_extremes.specialfn import DomainError


def binomial_iid_cdf(x: float, N: int) -> float:
    return (-math.expm1(-x)) ** N


class TestSeries:
    def test_frozen_diagnostic_value(self):
        r = equicorr_cdf_series(1.0, 0.5, 2)
        assert r.value == pytest.approx(1.4399725430675998, abs=1e-12)
        assert abs(r.value - 1.4400) < 1e-4
        assert r.valid is False

    def test_reduces_to_binomial_at_zero_correlation(self):
        for N in (1, 2, 5, 10):
            for x in (0.3, 1.0, 3.1623):
                r = equicorr_cdf_series(x, 0.0, N)
                assert r.value == pytest.approx(binomial_iid_cdf(x, N), abs=1e-10)
                assert r.valid is True

    def test_limit_escapes_unit_interval_for_positive_rho(self):
        # k=0 term is 1/(1-rho), so the large-x limit overshoots 1
        r = equicorr_cdf_series(50.0, 0.4, 3)
        assert r.value == pytest.approx(1.0 / 0.6, rel=1e-9)
        assert r.valid is False

    def test_domain(self):
        with pytest.raises(DomainError):
            equicorr_cdf_series(1.0, -0.1, 2)
        with pytest.raises(DomainError):
            equicorr_cdf_series(1.0, 1.0, 2)
        # a NaN or infinite x or N raises the same error in both evaluators
        for f, args in [
            (equicorr_cdf_series, (1.0, 0.5, math.inf)),
            (equicorr_cdf_series, (1.0, 0.5, math.nan)),
            (equicorr_cdf_series, (math.nan, 0.5, 5)),
            (equicorr_cdf_series, (math.inf, 0.5, 5)),
            (equicorr_cdf_exact, (1.0, 0.5, math.inf)),
            (equicorr_cdf_exact, (1.0, 0.5, math.nan)),
            (equicorr_cdf_exact, (math.nan, 0.0, 5)),
            (equicorr_cdf_exact, (math.inf, 0.0, 5)),
        ]:
            with pytest.raises(DomainError):
                f(*args)


class TestExact:
    def test_frozen_value(self, gauss_matrix_20_1):
        assert equicorr_cdf_exact(1.0, 0.5, 4) == pytest.approx(
            0.23409220065617067, abs=1e-10
        )
        # snr-sweep's slepian_hi cells at 10 and 15 dB, as the benchmark
        # reference holds them. These pin the shipped 64-point Laguerre
        # sum, which misses the integrand's step here (ROADMAP item 1),
        # not the true CDF.
        rho_max = rho_extremes(gauss_matrix_20_1).rho_max
        assert equicorr_cdf_exact(0.1, rho_max, 20) == pytest.approx(
            0.0043694501204961742, rel=1e-9
        )
        assert equicorr_cdf_exact(10**-1.5, rho_max, 20) == pytest.approx(
            4.8671940128161367e-09, rel=1e-9
        )

    def test_against_decomposition_monte_carlo(self):
        # h_n = sqrt(rho) a + sqrt(1-rho) w_n with a, w_n standard complex
        rng = np.random.default_rng(123)
        rho, N, x, M = 0.5, 4, 1.0, 400_000
        a = (rng.standard_normal((M, 1)) + 1j * rng.standard_normal((M, 1))) * math.sqrt(0.5)
        w = (rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))) * math.sqrt(0.5)
        g = np.abs(math.sqrt(rho) * a + math.sqrt(1 - rho) * w) ** 2
        p_mc = float(np.mean(g.max(axis=1) < x))
        se = math.sqrt(p_mc * (1 - p_mc) / M)
        assert abs(equicorr_cdf_exact(x, rho, N) - p_mc) < 3 * se

    def test_reduces_to_binomial_at_zero_correlation(self):
        for N in (1, 3, 8):
            assert equicorr_cdf_exact(1.2, 0.0, N) == pytest.approx(
                binomial_iid_cdf(1.2, N), abs=1e-12
            )
        # a tiny x, where 1 - exp(-x) keeps only a few digits
        assert equicorr_cdf_exact(1e-10, 0.0, 3) == pytest.approx(
            binomial_iid_cdf(1e-10, 3), rel=1e-14, abs=0.0
        )

    def test_matches_series_at_zero_correlation(self):
        for x in (0.5, 2.0):
            s = equicorr_cdf_series(x, 0.0, 6).value
            assert equicorr_cdf_exact(x, 0.0, 6) == pytest.approx(s, abs=1e-10)

    def test_is_a_cdf(self):
        xs = np.linspace(0.0, 6.0, 40)
        vals = [equicorr_cdf_exact(float(x), 0.6, 5) for x in xs]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert abs(equicorr_cdf_exact(50.0, 0.6, 5) - 1.0) < 1e-6

    def test_monotone_in_correlation(self):
        # stronger coupling concentrates the ports, raising the max-CDF
        rhos = np.linspace(0.0, 0.95, 20)
        vals = [equicorr_cdf_exact(1.0, float(r), 6) for r in rhos]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_a_probability(self, x, rho, N):
        assert 0.0 <= equicorr_cdf_exact(x, rho, N) <= 1.0


class TestRhoExtremes:
    def test_frozen_reference(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=11, model=CorrelationModel.GAUSSIAN))
        ext = rho_extremes(R)
        assert ext.rho_max == pytest.approx(0.9060180557889229, rel=1e-12)
        assert abs(ext.rho_max - 0.9061) < 5e-4
        assert 0.0 <= ext.rho_min <= ext.rho_max

    def test_adjacent_ports_dominate(self):
        cfg = ApertureConfig(W=1.0, N=11, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(cfg)
        expect = math.exp(-math.pi**2 * 0.1**2)
        assert rho_extremes(R).rho_max == pytest.approx(expect, rel=1e-12)

    def test_needs_two_ports(self):
        with pytest.raises(DomainError):
            rho_extremes(np.eye(1))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(DomainError):
            rho_extremes(np.ones((2, 3)))


class TestSlepianSandwich:
    def test_frozen_reference_pair(self, gauss_matrix_20_1):
        lo, hi = slepian_sandwich(gauss_matrix_20_1, 10**0.5)
        assert lo == pytest.approx(0.42104134116976183, rel=1e-9)
        assert hi == pytest.approx(0.91833238559186026, rel=1e-9)

    def test_ordering_across_grid(self):
        for model in CorrelationModel:
            for N in (5, 20):
                for W in (0.5, 2.0):
                    R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
                    for x in (0.5, 1.0, 3.1623):
                        lo, hi = slepian_sandwich(R, x)
                        assert 0.0 <= lo <= hi <= 1.0

    def test_collapses_for_iid_ports(self):
        # far-apart Gaussian ports decorrelate; both bounds approach iid
        R = correlation_matrix(ApertureConfig(W=40.0, N=5, model=CorrelationModel.GAUSSIAN))
        lo, hi = slepian_sandwich(R, 1.0)
        iid = binomial_iid_cdf(1.0, 5)
        assert lo == pytest.approx(iid, abs=1e-6)
        assert hi == pytest.approx(iid, abs=1e-3)


class TestBlockRefinedBound:
    def test_single_block_equals_sandwich_lower(self, gauss_matrix_20_1):
        x = 10**0.5
        bound, part = block_refined_bound(gauss_matrix_20_1, x, 1)
        lo, _ = slepian_sandwich(gauss_matrix_20_1, x)
        assert bound == pytest.approx(lo, rel=1e-12)
        assert part.B == 1

    def test_partition_sizes_near_equal(self):
        sizes = [hi - lo for lo, hi in _partition_indices(20, 8)]
        assert sum(sizes) == 20
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_cross_block_condition_reported(self, gauss_matrix_20_1):
        # contiguous blocks of a smooth kernel cut correlations larger
        # than the smallest within-block one; the partition reports both
        _, part = block_refined_bound(gauss_matrix_20_1, 1.0, 4)
        assert part.rho_cross_max > min(part.rho_b_min)
        # four blocks of five ports: the largest |R| between two blocks
        assert part.rho_cross_max == max(
            abs(gauss_matrix_20_1[i, j]) for i in range(20) for j in range(20) if i // 5 != j // 5)
        assert block_refined_bound(gauss_matrix_20_1, 1.0, 1)[1].rho_cross_max == 0.0

    def test_singleton_blocks_use_iid_factor(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=3, model=CorrelationModel.GAUSSIAN))
        bound, _ = block_refined_bound(R, 1.0, 3)
        assert _partition_indices(3, 3) == [(0, 1), (1, 2), (2, 3)]
        assert bound == pytest.approx(binomial_iid_cdf(1.0, 3), abs=1e-10)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(DomainError):
            block_refined_bound(np.array([[1.0, 0.9], [0.0, 1.0]]), 1.0, 1)

    def test_block_count_validation(self, gauss_matrix_20_1):
        with pytest.raises(DomainError):
            block_refined_bound(gauss_matrix_20_1, 1.0, 0)
        with pytest.raises(DomainError):
            block_refined_bound(gauss_matrix_20_1, 1.0, 21)
        for B in (2.5, math.nan, math.inf):  # never truncated to a count
            with pytest.raises(DomainError):
                block_refined_bound(gauss_matrix_20_1, 1.0, B)


# a sweep with x = 0 entries, repeats and the CLI's default SNR span
SWEEP = (0.0, 10.0, 0.5, 10**-1.5, 0.5, 0.0, 1e-2, 3.1622776601683795)


class TestSweep:
    @pytest.mark.parametrize("rho", [0.0, 1e-15, 0.3, 0.9, 0.973])
    @pytest.mark.parametrize("N", [1, 20])
    def test_equicorr_sweep_equals_scalar_calls(self, rho, N):
        sweep = equicorr_cdf_exact(list(SWEEP), rho, N)
        assert isinstance(sweep, tuple) and len(sweep) == len(SWEEP)
        for x, value in zip(SWEEP, sweep):
            assert type(value) is float
            assert value == pytest.approx(equicorr_cdf_exact(x, rho, N), rel=1e-15, abs=0.0)
        assert sweep[0] == sweep[5] == 0.0
        assert sweep[2] == sweep[4]

    def test_equicorr_sweep_at_the_clamped_correlation(self):
        # rho = 1 - 1e-12, slepian_sandwich's clamp: x = 0 gives 0, and any
        # x > 0 needs a Poisson window past the cap, in a sweep as alone
        rho = 1.0 - 1e-12
        assert equicorr_cdf_exact((0.0, 0.0), rho, 5) == (0.0, 0.0) == (
            equicorr_cdf_exact(0.0, rho, 5),) * 2
        for x in (1e-12, [0.0, 1e-12], [1.0, 0.0]):
            with pytest.raises(DomainError):
                equicorr_cdf_exact(x, rho, 5)

    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_sandwich_sweep_equals_scalar_calls(self, model):
        R = correlation_matrix(ApertureConfig(W=2.0, N=10, model=model))
        sweep = slepian_sandwich(R, np.array(SWEEP))
        assert len(sweep) == len(SWEEP)
        for x, pair in zip(SWEEP, sweep):
            for got, want in zip(pair, slepian_sandwich(R, x)):
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_sandwich_sweep_keeps_the_frozen_pair(self, gauss_matrix_20_1):
        pairs = slepian_sandwich(gauss_matrix_20_1, [10**0.5, 0.1])
        assert pairs[0][0] == pytest.approx(0.42104134116976183, rel=1e-9)
        assert pairs[0][1] == pytest.approx(0.91833238559186026, rel=1e-9)
        assert pairs[1][1] == pytest.approx(0.0043694501204961742, rel=1e-9)

    @pytest.mark.parametrize("bad", [[], np.zeros((0,)), [[0.5, 1.0]], np.ones((2, 2)), [0.5, -1.0],
                                     [0.5, math.nan]])
    def test_bad_sweep_rejected_before_any_work(self, bad, gauss_matrix_20_1, monkeypatch):
        def no_work(*args):
            raise AssertionError("reached the computation")

        for name in ("marcum_q1", "gauss_laguerre", "rho_extremes"):
            monkeypatch.setattr(bounds, name, no_work)
        with pytest.raises(DomainError):
            equicorr_cdf_exact(bad, 0.5, 4)
        with pytest.raises(DomainError):
            slepian_sandwich(gauss_matrix_20_1, bad)
