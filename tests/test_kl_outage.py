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

from fas_extremes.fieldmodel import (
    ApertureConfig,
    EigenSpectrum,
    correlation_matrix,
    eigendecompose,
    kl_truncate,
)
from fas_extremes.kernels import CorrelationModel
from fas_extremes.kl_outage import (
    _QUAD_ORDER,
    ThresholdSpec,
    outage_rank1,
    outage_rank2,
)
from fas_extremes.montecarlo import (
    McConfig,
    simulate_outage_truncated,
    truncated_gain_matrix,
)
from fas_extremes.specialfn import DomainError, gauss_hermite


def _rank2_full_grid(spec, x):
    """outage_rank2 evaluated at each of the 16 x 16 Hermite nodes.

    The reference for outage_rank2's sum over symmetry orbits.
    """
    lam1 = float(spec.eigenvalues[0])
    lam2 = max(0.0, float(spec.eigenvalues[1]))
    u1 = spec.eigenvectors[:, 0]
    u2 = spec.eigenvectors[:, 1]
    s1 = math.sqrt(max(0.0, lam1))
    s2 = math.sqrt(lam2)
    b = s2 * u2  # real coefficients of the second mode
    degenerate = np.abs(b) < 1e-12
    live = ~degenerate

    rule = gauss_hermite(_QUAD_ORDER)
    t, w = rule.nodes, rule.weights
    sqrt_x = math.sqrt(x)

    # 200 x 200 polar cells over the unit disk, reused for every outer
    # node after scaling by the smallest disk's center and radius
    nr = ntheta = 200
    r_edges = np.linspace(0.0, 1.0, nr + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = r_edges[1] - r_edges[0]
    th_mid = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    dth = 2.0 * math.pi / ntheta
    cell_xy = r_mid[:, None] * np.exp(1j * th_mid[None, :])  # nr x ntheta
    cell_area_factor = (r_mid * dr * dth)[:, None]  # r dr dtheta

    total = 0.0
    for i, tr in enumerate(t):
        for j, ti in enumerate(t):
            z1 = complex(tr, ti)
            a = s1 * u1 * z1  # complex array over ports

            if degenerate.any():
                if np.any(np.abs(a[degenerate]) ** 2 > x):
                    continue  # some z2-independent port already exceeds x
            if not live.any():
                total += w[i] * w[j]  # all constraints satisfied regardless of z2
                continue

            centers = -a[live] / b[live]
            radii = sqrt_x / np.abs(b[live])
            k = int(np.argmin(radii))
            c0, r0 = centers[k], radii[k]

            # quick reject: another disk entirely missing the smallest one
            dists = np.abs(centers - c0)
            if np.any(dists >= radii + r0):
                continue

            # quick accept: every disk covers the radius-6 disk about 0,
            # which holds all but e^-36 of z2's mass
            if np.all(np.abs(centers) + 6.0 <= radii):
                total += w[i] * w[j]
                continue

            pts = c0 + r0 * cell_xy
            inside = np.ones(pts.shape, dtype=bool)
            for cn, rn in zip(centers, radii):
                inside &= np.abs(pts - cn) <= rn
            if not inside.any():
                continue
            dens = np.exp(-np.abs(pts) ** 2) / math.pi
            mass = float((r0 * r0) * ((dens * inside) * cell_area_factor).sum())
            total += w[i] * w[j] * mass

    return min(1.0, max(0.0, total / math.pi))


def _rank2_per_cell(spec, x, counts):
    """outage_rank2 by one disk test per polar cell, on the same orbit sum.

    The bit-exact reference for outage_rank2's ray intervals. counts
    gains, per key, how often the branch is taken:
    "ray_miss", the line through the smallest disk's center along a
    cell ray misses a partial disk; "empty", a node that reaches the
    grid has no cell inside every disk; "degenerate", a node is checked
    against a port with |b_n| ~ 0; "accept", the quick accept.
    """
    s1, s2 = map(math.sqrt, spec.eigenvalues[:2])
    u1 = spec.eigenvectors[:, 0]
    u2 = spec.eigenvectors[:, 1]
    b = s2 * u2  # real coefficients of the second mode
    degenerate = np.abs(b) < 1e-12
    live = ~degenerate

    rule = gauss_hermite(_QUAD_ORDER)
    half = _QUAD_ORDER // 2
    t, w = rule.nodes[half:], rule.weights[half:]
    sqrt_x = math.sqrt(x)

    nr = ntheta = 200
    r_edges = np.linspace(0.0, 1.0, nr + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = r_edges[1] - r_edges[0]
    th_mid = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    dth = 2.0 * math.pi / ntheta
    cell_xy = r_mid[:, None] * np.exp(1j * th_mid[None, :])  # nr x ntheta
    cell_area_factor = (r_mid * dr * dth)[:, None]  # r dr dtheta
    ray = np.exp(1j * th_mid)

    total = 0.0
    for i in range(half):
        for j in range(i + 1):
            weight = (4.0 if i == j else 8.0) * w[i] * w[j]
            a = s1 * u1 * complex(t[i], t[j])  # complex array over ports

            if degenerate.any():
                counts["degenerate"] += 1
                if np.any(np.abs(a[degenerate]) ** 2 > x):
                    continue  # some z2-independent port already exceeds x
            if not live.any():
                total += weight  # all constraints satisfied regardless of z2
                continue

            centers = -a[live] / b[live]
            radii = sqrt_x / np.abs(b[live])
            k = int(np.argmin(radii))
            c0, r0 = centers[k], radii[k]

            # quick reject: another disk entirely missing the smallest one
            dists = np.abs(centers - c0)
            if np.any(dists >= radii + r0):
                continue

            # quick accept: every disk covers the radius-6 disk about 0,
            # which holds all but e^-36 of z2's mass
            if np.all(np.abs(centers) + 6.0 <= radii):
                counts["accept"] += 1
                total += weight
                continue

            pts = c0 + r0 * cell_xy
            inside = np.ones(pts.shape, dtype=bool)
            partial = dists + r0 > radii
            for cn, rn in zip(centers[partial], radii[partial]):
                inside &= np.abs(pts - cn) <= rn
                counts["ray_miss"] += int(np.sum(np.abs(((cn - c0) / ray).imag) > rn))
            if not inside.any():
                counts["empty"] += 1
                continue
            dens = np.exp(-np.abs(pts) ** 2) / math.pi
            mass = float((r0 * r0) * ((dens * inside) * cell_area_factor).sum())
            total += weight * mass

    return min(1.0, max(0.0, total / math.pi))


class TestThresholdSpec:
    def test_db_to_linear(self):
        assert ThresholdSpec(avg_snr_db=-5.0, threshold_db=0.0).x == pytest.approx(10**0.5)
        assert ThresholdSpec(avg_snr_db=0.0, threshold_db=0.0).x == 1.0
        assert ThresholdSpec(avg_snr_db=10.0, threshold_db=0.0).x == pytest.approx(0.1)
        assert ThresholdSpec(avg_snr_db=3.0, threshold_db=3.0).x == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ThresholdSpec(avg_snr_db=float("nan"), threshold_db=0.0)

    @pytest.mark.parametrize("snr_db", [-4000.0, 3300.0])
    def test_x_outside_the_floats_names_the_snr(self, snr_db):
        # 10^400 overflows and 10^-330 rounds to 0: neither is a threshold
        with pytest.raises(DomainError, match="avg_snr_db"):
            ThresholdSpec(avg_snr_db=snr_db, threshold_db=0.0).x
        # the last dB values whose x is a float > 0
        assert ThresholdSpec(avg_snr_db=-3082.5, threshold_db=0.0).x > 1e308
        assert ThresholdSpec(avg_snr_db=3236.0, threshold_db=0.0).x > 0.0


class TestRank1:
    def test_closed_form(self, gauss_spectrum_20_2):
        lambda1 = float(gauss_spectrum_20_2.eigenvalues[0])
        c1 = float(np.max(gauss_spectrum_20_2.eigenvectors[:, 0] ** 2))
        x = 1.0
        expect = -math.expm1(-x / (lambda1 * c1))
        assert outage_rank1(gauss_spectrum_20_2, x) == expect
        # deep in the fade 1 - exp(-y) would cancel to 0; the outage is y - y^2/2
        y = 1e-30 / (lambda1 * c1)
        p = outage_rank1(gauss_spectrum_20_2, 1e-30)
        assert p == pytest.approx(y - y * y / 2, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("x", [1e6, 1e10])
    def test_large_threshold_is_certain_outage(self, gauss_matrix_20_1, x):
        # -60 and -100 dB on snr-sweep's spectrum: every disk dwarfs the
        # unit-scale density, which a grid over the smallest disk misses
        spec = eigendecompose(gauss_matrix_20_1)
        assert outage_rank2(spec, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("N, W", [(8, 0.5), (20, 1.0), (21, 1.0), (20, 3.0), (64, 1.0)])
    def test_orbit_sum_matches_full_grid(self, model, N, W):
        # Gauss N = 21 has a degenerate middle port (|b_n| < 1e-12);
        # -15 dB reaches the quick accept, and at 10 dB every node is
        # rejected for W <= 1
        spec = eigendecompose(correlation_matrix(ApertureConfig(W=W, N=N, model=model)))
        for snr_db in (-15.0, -10.0, -5.0, 0.0, 5.0, 10.0):
            x = ThresholdSpec(avg_snr_db=snr_db, threshold_db=0.0).x
            expect = _rank2_full_grid(spec, x)
            assert outage_rank2(spec, x) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_rays_match_per_cell_disk_tests(self):
        # Gauss N = 21 has a degenerate middle port (|b_n| < 1e-12); the
        # low SNRs reach the quick accept, and the counts show that the
        # grid reaches every branch of the ray intervals
        specs = [
            eigendecompose(correlation_matrix(ApertureConfig(W=W, N=N, model=model)))
            for model in CorrelationModel
            for N, W in ((8, 0.5), (10, 2.0), (20, 1.0), (21, 1.0), (20, 3.0), (64, 1.0))
        ]
        # a second mode without energy leaves no port depending on z2
        lead = specs[0]
        specs.append(EigenSpectrum(np.array([lead.eigenvalues[0], 0.0]), lead.eigenvectors[:, :2]))
        counts = dict.fromkeys(("ray_miss", "empty", "degenerate", "accept"), 0)
        for spec in specs:
            for snr_db in np.arange(-20.0, 20.1, 2.5):
                x = ThresholdSpec(avg_snr_db=snr_db, threshold_db=0.0).x
                expect = _rank2_per_cell(spec, x, counts).hex()
                assert outage_rank2(spec, x).hex() == expect, (spec.eigenvalues[:2], snr_db)
        assert all(counts.values()), counts

    def test_warm_scratch_slab_changes_no_bit(self, scratch, gauss_matrix_20_1):
        # the quadrature's cells come from the scratch slab, here one that
        # a larger Monte Carlo call left behind, then filled with NaN
        spec = eigendecompose(gauss_matrix_20_1)
        xs = [ThresholdSpec(avg_snr_db=s, threshold_db=0.0).x for s in (-15.0, -5.0, 0.0, 5.0)]
        cold = []
        for x in xs:
            scratch.clear()
            cold.append(outage_rank2(spec, x).hex())
        cfg = McConfig(trials=20_000, seed=1, workers=2)
        simulate_outage_truncated(kl_truncate(spec, 20), 1.0, cfg)
        (left,) = scratch
        assert left.size > 4 * 200 * 200  # more than the quadrature's 4 cell planes
        assert [outage_rank2(spec, x).hex() for x in xs] == cold
        for x, expect in zip(xs, cold):
            left.fill(np.nan)
            assert outage_rank2(spec, x).hex() == expect
            assert scratch == [left]

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
