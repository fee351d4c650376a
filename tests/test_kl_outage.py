"""Analytic outage through truncated eigenmode expansions.

Each analytic route is checked against a seeded Monte Carlo run of the
same truncated model, so formula bugs and simulator bugs cannot cancel.
The rank-2 evaluator integrates an indicator over quadrature grids,
which leaves a small deterministic discretization residue on top of the
MC band; the slack constant below reflects the measured residue, not a
tuned-to-pass value.
"""

import math

import numpy as np
import pytest

from fas_extremes.fieldmodel import eigendecompose, kl_truncate
from fas_extremes.kl_outage import ThresholdSpec, outage_rank1, outage_rank2
from fas_extremes.montecarlo import (
    McConfig,
    simulate_outage_truncated,
    truncated_gain_matrix,
)
from fas_extremes.specialfn import DomainError


class TestThresholdSpec:
    def test_db_to_linear(self):
        assert ThresholdSpec(avg_snr_db=-5.0, threshold_db=0.0).x == pytest.approx(10**0.5)
        assert ThresholdSpec(avg_snr_db=0.0, threshold_db=0.0).x == 1.0
        assert ThresholdSpec(avg_snr_db=10.0, threshold_db=0.0).x == pytest.approx(0.1)
        assert ThresholdSpec(avg_snr_db=3.0, threshold_db=3.0).x == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ThresholdSpec(avg_snr_db=float("nan"), threshold_db=0.0)


class TestRank1:
    def test_closed_form(self, gauss_spectrum_20_2):
        lambda1 = float(gauss_spectrum_20_2.eigenvalues[0])
        c1 = float(np.max(gauss_spectrum_20_2.eigenvectors[:, 0] ** 2))
        x = 1.0
        expect = 1.0 - math.exp(-x / (lambda1 * c1))
        assert outage_rank1(gauss_spectrum_20_2, x) == expect

    def test_against_truncated_simulation(self, gauss_spectrum_20_2):
        x = 10**0.5
        kl = kl_truncate(gauss_spectrum_20_2, 1)
        est = simulate_outage_truncated(kl, x, McConfig(trials=200_000, seed=5))
        assert abs(outage_rank1(gauss_spectrum_20_2, x) - est.p) < 3 * est.std_err

    def test_diversity_slope_in_deep_fade(self, gauss_spectrum_20_2):
        # outage ~ x / (lam1 c1), so log10 P drops 0.1 per dB of SNR
        snrs = np.arange(20.0, 40.5, 1.0)
        logs = [
            math.log10(outage_rank1(gauss_spectrum_20_2, 10 ** (-s / 10))) for s in snrs
        ]
        slope = np.polyfit(snrs, logs, 1)[0]
        assert slope == pytest.approx(-0.1, rel=0.05)

    def test_threshold_validation(self, gauss_spectrum_20_2):
        with pytest.raises(DomainError):
            outage_rank1(gauss_spectrum_20_2, 0.0)
        with pytest.raises(DomainError):
            outage_rank1(gauss_spectrum_20_2, -1.0)


class TestRank2:
    def test_against_truncated_simulation(self, gauss_spectrum_20_2):
        x = 10**0.5
        p2 = outage_rank2(gauss_spectrum_20_2, x)
        kl = kl_truncate(gauss_spectrum_20_2, 2)
        est = simulate_outage_truncated(kl, x, McConfig(trials=400_000, seed=7))
        # 2e-3 covers the polar-grid discretization of the disk overlap
        assert abs(p2 - est.p) < 3 * est.std_err + 2e-3

    def test_frozen_values(self, gauss_matrix_20_1):
        # Pins the shipped 16-point quadrature on snr-sweep's spectrum
        # (Gauss, N = 20, W = 1) at the benchmark reference's rank2
        # cells. These are the quadrature's values, not the true rank-2
        # outage, which ROADMAP item 3 replaces the quadrature to reach.
        spec = eigendecompose(gauss_matrix_20_1)
        for snr_db, expect in (
            (-5.0, 0.92838492908530112),
            (0.0, 0.41546109633147299),
            (5.0, 0.084325864067748821),
        ):
            x = ThresholdSpec(avg_snr_db=snr_db, threshold_db=0.0).x
            assert outage_rank2(spec, x) == pytest.approx(expect, rel=1e-9)

    def test_between_rank1_and_full(self, gauss_spectrum_20_2):
        # extra modes add diversity, so outage falls with rank
        x = 1.0
        p1 = outage_rank1(gauss_spectrum_20_2, x)
        p2 = outage_rank2(gauss_spectrum_20_2, x)
        assert p2 < p1


class TestTruncatedGainMatrix:
    def test_shape_and_column_norms(self, gauss_spectrum_20_2):
        kl = kl_truncate(gauss_spectrum_20_2, 3)
        mat = truncated_gain_matrix(kl)
        assert mat.shape == (20, 3)
        # column k carries eigenvalue k of energy
        for k in range(3):
            assert np.linalg.norm(mat[:, k]) ** 2 == pytest.approx(
                kl.eigenvalues[k], rel=1e-12
            )
