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
        try:  # a float 10^(d/10) overflows past d = 3082.5 dB and is 0 below d = -3236 dB
            x = 10.0 ** ((self.threshold_db - self.avg_snr_db) / 10.0)
        except OverflowError:
            x = math.inf
        return positive(x, f"threshold x at avg_snr_db = {self.avg_snr_db:g}")

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
    is integrated on a 200 x 200 polar grid over the smallest disk (the
    intersection lives inside it); disks that cover the smallest one
    constrain no cell and are skipped. Along each of the grid's 200 rays
    from the smallest disk's center, every other disk admits one
    interval of radii, the roots of a quadratic, or none; a cell counts
    iff its radius lies in every interval of its ray. The outer average
    over z1 is a 2-D Gauss-Hermite sum. Ports with |b_n| ~ 0 contribute
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
    weights are exactly symmetric. The disk radii do not depend on z1,
    so the degenerate-port test, the quick reject and the quick accept
    run on all 36 nodes at once; the sum then adds the nodes one by one
    in a fixed order.

    The rays give the same bits as one |z2 - c_n| <= r_n test per cell
    and disk. Both decide the same inequality at the same cell centers;
    their roundings can differ only for a center within a few ulps of a
    circle, which no field and threshold of the bit-equality test in
    tests/test_kl_outage.py meets. The density is then computed on the
    selected cells by the same elementwise operations, every other cell
    of a zeroed grid holds the 0.0 the product with the indicator gave,
    and grid.sum() adds that same array in the same pairwise order.

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
    # cells, a real grid and the inside cells' densities share one
    # scratch slab; each node's arithmetic runs in place on them, in the
    # order of the plain expression quoted below.
    nr = ntheta = 200
    r_edges = np.linspace(0.0, 1.0, nr + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = r_edges[1] - r_edges[0]
    th_mid = (np.arange(ntheta) + 0.5) * (2.0 * math.pi / ntheta)
    dth = 2.0 * math.pi / ntheta
    ncell = nr * ntheta
    slab = borrow(4 * ncell)
    cell_xy = slab[: 2 * ncell].view(np.complex128).reshape(nr, ntheta)
    grid = slab[2 * ncell : 3 * ncell].reshape(nr, ntheta)
    dens = slab[3 * ncell : 4 * ncell]
    np.multiply(r_mid[:, None], np.exp(1j * th_mid[None, :]), out=cell_xy)
    cell_area_factor = (r_mid * dr * dth)[:, None]  # r dr dtheta
    cos_th, sin_th = np.cos(th_mid), np.sin(th_mid)

    # one node z1 = t_i + i t_j with t_i >= t_j > 0 per orbit of the
    # maps z1 -> +-z1, +-i z1, +-conj(z1), +-i conj(z1), weighted by the
    # orbit's size: 4 on the diagonal, 8 off it
    ii, jj = np.tril_indices(half)
    weights = np.where(ii == jj, 4.0, 8.0) * w[ii] * w[jj]
    a = s1 * u1 * (t[ii] + 1j * t[jj])[:, None]  # nodes x ports
    # a node where some z2-independent port already exceeds x
    skip = np.any(np.abs(a[:, degenerate]) ** 2 > x, axis=1)
    if live.any():
        centers = -a[:, live] / b[live]
        radii = sqrt_x / np.abs(b[live])  # the same disk radii at every node
        k = int(np.argmin(radii))
        r0 = radii[k]
        dists = np.abs(centers - centers[:, k : k + 1])
        # quick reject: another disk entirely missing the smallest one
        skip |= np.any(dists >= radii + r0, axis=1)
        # quick accept: every disk covers the radius-6 disk about 0,
        # which holds all but e^-36 of z2's mass
        full = np.all(np.abs(centers) + 6.0 <= radii, axis=1)
    else:
        full = np.ones(weights.size, dtype=bool)  # no constraint depends on z2

    total = 0.0
    for m, weight in enumerate(weights):
        if skip[m]:
            continue
        if full[m]:
            total += weight
            continue
        c0 = centers[m, k]

        # Every cell centre lies within 0.9975 r0 of c0, so a disk
        # covering the smallest one holds them all. The cell at
        # distance s = r0 r from c0 along angle th lies in disk n iff
        # s^2 + 2 s q + |d|^2 - r_n^2 <= 0, with d = c0 - c_n and
        # q = Re(d e^{-i th}): an interval of s, empty when the
        # discriminant is negative (the ray's line misses the disk).
        partial = dists[m] + r0 > radii
        d = c0 - centers[m, partial]
        q = np.multiply.outer(d.real, cos_th) + np.multiply.outer(d.imag, sin_th)
        disc = q * q - (d.real * d.real + d.imag * d.imag - radii[partial] ** 2)[:, None]
        root = np.sqrt(np.maximum(disc, 0.0))
        lo = np.max(-q - root, axis=0, initial=-math.inf)
        hi = np.min(np.where(disc < 0.0, -math.inf, root - q), axis=0, initial=math.inf)
        s_mid = r0 * r_mid[:, None]
        inside = (lo <= s_mid) & (s_mid <= hi)
        if not inside.any():
            continue
        # (exp(-abs(pts) ** 2) / pi * inside) * cell_area_factor, with
        # pts = c0 + r0 * cell_xy formed on the inside cells only
        pts = cell_xy[inside]
        np.add(c0, np.multiply(r0, pts, out=pts), out=pts)
        g = dens[: pts.size]
        np.square(np.abs(pts, out=g), out=g)
        np.exp(np.negative(g, out=g), out=g)
        np.divide(g, math.pi, out=g)
        grid.fill(0.0)
        grid[inside] = g
        np.multiply(grid, cell_area_factor, out=grid)
        mass = float((r0 * r0) * grid.sum())
        total += weight * mass
    give_back(slab)

    return min(1.0, max(0.0, total / math.pi))
