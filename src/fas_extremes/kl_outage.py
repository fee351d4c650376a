"""Outage under low-rank eigenmode truncation of the port-gain field.

Keeping K eigenmodes turns the correlated max-gain problem into a
K-dimensional integral over independent complex normals. Rank 1 is
closed form and rank 2 reduces to averaging a disk-intersection
probability over the dominant mode. Higher ranks go through the
truncated Monte Carlo sampler (montecarlo.simulate_outage_truncated),
which is also the arbiter for both closed routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldmodel import EigenSpectrum
from .specialfn import DomainError, gauss_hermite

# Gauss-Hermite order per axis of outage_rank2's outer average over z1
_QUAD_ORDER = 16

__all__ = ["ThresholdSpec", "outage_rank1", "outage_rank2"]


@dataclass(frozen=True)
class ThresholdSpec:
    """Average SNR and threshold in dB with the derived normalized x."""

    avg_snr_db: float
    threshold_db: float

    @property
    def x(self) -> float:
        return 10.0 ** ((self.threshold_db - self.avg_snr_db) / 10.0)

    def __post_init__(self):
        if not (math.isfinite(self.avg_snr_db) and math.isfinite(self.threshold_db)):
            raise DomainError("dB fields must be finite")


def _check_x(x: float) -> float:
    x = float(x)
    if not (x > 0) or not math.isfinite(x):
        raise DomainError(f"normalized threshold x must be positive, got {x!r}")
    return x


def outage_rank1(spec: EigenSpectrum, x: float) -> float:
    """Closed-form outage keeping only the dominant eigenmode.

    The best port sees gain lambda1 c1 |z|^2 with z standard complex
    normal, so P_out = 1 - exp(-x / (lambda1 c1)).
    """
    x = _check_x(x)
    lambda1 = float(spec.eigenvalues[0])
    c1 = float(np.max(spec.eigenvectors[:, 0] ** 2))  # max_n |u_{n,1}|^2
    return 1.0 - math.exp(-x / (lambda1 * c1))


def outage_rank2(spec: EigenSpectrum, x: float) -> float:
    """Rank-2 outage: disk-intersection probability averaged over mode 1.

    Conditioned on the dominant mode z1, port n is in outage iff
    |a_n + b_n z2|^2 <= x with a_n = sqrt(l1) u_n1 z1, b_n = sqrt(l2) u_n2,
    i.e. iff z2 lies in a disk of radius sqrt(x)/|b_n| centered at
    -a_n/b_n. The conditional probability mass of the disk intersection
    is integrated on a polar grid over the smallest disk (the
    intersection lives inside it); the outer average over z1 is a 2-D
    Gauss-Hermite sum. Ports with |b_n| ~ 0 contribute z2-independent
    constraints handled separately.
    """
    x = _check_x(x)
    if spec.dim < 2:
        raise DomainError("rank-2 outage needs at least two ports")

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
