"""Outage under low-rank eigenmode truncation of the port-gain field.

Keeping K eigenmodes turns the correlated max-gain problem into a
K-dimensional integral over independent complex normals. Rank 1 is
closed form and rank 2 reduces to averaging a disk-intersection
probability over the dominant mode. Higher ranks go through the
truncated Monte Carlo samplers: montecarlo.simulate_outage_ladder,
which the CLI uses to count every rank K <= k from one draw, and
simulate_outage_truncated for a single rank, the arbiter for both
closed routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldmodel import EigenSpectrum
from .specialfn import DomainError, borrow, gauss_hermite, give_back, positive, real

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
        for name in ("avg_snr_db", "threshold_db"):
            object.__setattr__(self, name, real(getattr(self, name), name))


def outage_rank1(spec: EigenSpectrum, x: float) -> float:
    """Closed-form outage keeping only the dominant eigenmode.

    The best port sees gain lambda1 c1 |z|^2 with z standard complex
    normal, so P_out = 1 - exp(-x / (lambda1 c1)), computed with expm1
    so that a tiny x keeps its relative accuracy.
    """
    x = positive(x, "normalized threshold x")
    lambda1 = float(spec.eigenvalues[0])
    c1 = float(np.max(spec.eigenvectors[:, 0] ** 2))  # max_n |u_{n,1}|^2
    return -math.expm1(-x / (lambda1 * c1))


def outage_rank2(spec: EigenSpectrum, x: float) -> float:
    """Rank-2 outage: disk-intersection probability averaged over mode 1.

    Conditioned on the dominant mode z1, port n is in outage iff
    |a_n + b_n z2|^2 <= x with a_n = sqrt(l1) u_n1 z1, b_n = sqrt(l2) u_n2,
    i.e. iff z2 lies in a disk of radius sqrt(x)/|b_n| centered at
    -a_n/b_n. The conditional probability mass of the disk intersection
    is integrated on a polar grid over the smallest disk (the
    intersection lives inside it); disks that cover the smallest one
    constrain no cell and are skipped. The outer average over z1 is a
    2-D Gauss-Hermite sum. Ports with |b_n| ~ 0 contribute
    z2-independent constraints handled separately. An outer node whose
    disks all cover the radius-6 disk about the origin counts as full
    mass (the rest is e^-36), since there the grid is too coarse to see
    the density.

    The outer sum visits one node per orbit of the 16 x 16 grid under
    z1 -> +-z1, +-i z1, +-conj(z1), +-i conj(z1) (36 of 256 nodes) and
    weights it by the orbit's size. This is exact up to rounding: every
    center is a real multiple of z1 and z2's density is rotation
    invariant; the cell angles (k + 1/2) 2 pi / 200 are closed under a
    quarter turn and under conjugation; and the Hermite nodes and
    weights are exactly symmetric.

    Known failure at small x: the smallest Hermite node has |z1| >= 0.38,
    so once x <~ 0.1 (10 dB and up at a 0 dB threshold) every outer node
    is rejected and the result is 0, below the true rank-2 outage.
    """
    x = positive(x, "normalized threshold x")
    if spec.rank < 2:
        raise DomainError("rank-2 outage needs at least two modes")

    s1, s2 = map(math.sqrt, spec.eigenvalues[:2])
    u1 = spec.eigenvectors[:, 0]
    u2 = spec.eigenvectors[:, 1]
    b = s2 * u2  # real coefficients of the second mode
    degenerate = np.abs(b) < 1e-12
    live = ~degenerate

    # hermgauss nodes and weights are exactly symmetric, so the upper
    # half of the even-order rule holds every |t| with its weight
    rule = gauss_hermite(_QUAD_ORDER)
    half = _QUAD_ORDER // 2
    t, w = rule.nodes[half:], rule.weights[half:]
    sqrt_x = math.sqrt(x)

    # 200 x 200 polar cells over the unit disk, reused for every outer
    # node after scaling by the smallest disk's center and radius. The
    # cells, their scaled points, the offsets from a disk center and a
    # real grid share one scratch slab; each node's arithmetic runs in
    # place on them, in the order of the plain expressions quoted below.
    nr = ntheta = 200
    r_edges = np.linspace(0.0, 1.0, nr + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = r_edges[1] - r_edges[0]
    th_mid = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    dth = 2.0 * math.pi / ntheta
    ncell = nr * ntheta
    slab = borrow(7 * ncell)
    cell_xy, pts, diff = (
        slab[2 * i * ncell : 2 * (i + 1) * ncell].view(np.complex128).reshape(nr, ntheta)
        for i in range(3)
    )
    grid = slab[6 * ncell : 7 * ncell].reshape(nr, ntheta)
    np.multiply(r_mid[:, None], np.exp(1j * th_mid[None, :]), out=cell_xy)
    cell_area_factor = (r_mid * dr * dth)[:, None]  # r dr dtheta
    inside = np.empty((nr, ntheta), dtype=bool)
    near = np.empty((nr, ntheta), dtype=bool)

    # one node z1 = t_i + i t_j with t_i >= t_j > 0 per orbit of the
    # maps z1 -> +-z1, +-i z1, +-conj(z1), +-i conj(z1): 4 nodes on the
    # diagonal, 8 off it
    total = 0.0
    for i in range(half):
        for j in range(i + 1):
            weight = (4.0 if i == j else 8.0) * w[i] * w[j]
            a = s1 * u1 * complex(t[i], t[j])  # complex array over ports

            if degenerate.any():
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
                total += weight
                continue

            # every cell centre lies within 0.9975 r0 of c0, so a disk
            # covering the smallest one holds them all
            np.add(c0, np.multiply(r0, cell_xy, out=pts), out=pts)  # c0 + r0 * cell_xy
            inside.fill(True)
            partial = dists + r0 > radii
            for cn, rn in zip(centers[partial], radii[partial]):
                # inside &= abs(pts - cn) <= rn
                np.abs(np.subtract(pts, cn, out=diff), out=grid)
                inside &= np.less_equal(grid, rn, out=near)
            if not inside.any():
                continue
            # (exp(-abs(pts) ** 2) / pi * inside) * cell_area_factor
            np.square(np.abs(pts, out=grid), out=grid)
            np.exp(np.negative(grid, out=grid), out=grid)
            np.divide(grid, math.pi, out=grid)
            np.multiply(grid, inside, out=grid)
            np.multiply(grid, cell_area_factor, out=grid)
            mass = float((r0 * r0) * grid.sum())
            total += weight * mass
    give_back(slab)

    return min(1.0, max(0.0, total / math.pi))
