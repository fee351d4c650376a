"""Outage under low-rank eigenmode truncation of the port-gain field.

Keeping K eigenmodes turns the correlated max-gain problem into a
K-dimensional integral over independent complex normals. Rank 1 is
closed form, rank 2 reduces to averaging a disk-intersection
probability over the dominant mode, and general K goes through a
tensor-product Gauss-Hermite sum over the 2K real coordinates. The
indicator integrand kills spectral convergence, so the quadrature
tolerances here are on the order of 1e-2; Monte Carlo (montecarlo
module) is the arbiter and the required route for K > 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldmodel import EigenSpectrum
from .specialfn import DomainError, exp_integral_e1, gauss_hermite

__all__ = [
    "ThresholdSpec",
    "Rank1Params",
    "RANK_K_CAP",
    "outage_rank1",
    "outage_rank2",
    "outage_rankK",
    "ergodic_rate_rank1",
]

RANK_K_CAP = 4  # tensor quadrature spans 2K dims; Q^(2K) explodes past this


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


@dataclass(frozen=True)
class Rank1Params:
    lambda1: float
    c1: float  # max_n |u_{n,1}|^2

    @classmethod
    def from_spectrum(cls, spec: EigenSpectrum) -> "Rank1Params":
        lam1 = float(spec.eigenvalues[0])
        c1 = float(np.max(spec.eigenvectors[:, 0] ** 2))
        return cls(lambda1=lam1, c1=c1)


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
    p = Rank1Params.from_spectrum(spec)
    return 1.0 - math.exp(-x / (p.lambda1 * p.c1))


def outage_rank2(
    spec: EigenSpectrum, x: float, quad_order: int = 16, inner_grid: int = 200
) -> float:
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
    inner_grid = int(inner_grid)
    if inner_grid < 8:
        raise DomainError("inner_grid too coarse")

    lam1 = float(spec.eigenvalues[0])
    lam2 = max(0.0, float(spec.eigenvalues[1]))
    u1 = spec.eigenvectors[:, 0]
    u2 = spec.eigenvectors[:, 1]
    s1 = math.sqrt(max(0.0, lam1))
    s2 = math.sqrt(lam2)
    b = s2 * u2  # real coefficients of the second mode
    degenerate = np.abs(b) < 1e-12
    live = ~degenerate

    rule = gauss_hermite(quad_order)
    t, w = rule.nodes, rule.weights
    sqrt_x = math.sqrt(x)

    # polar cells over the unit disk, reused for every outer node after
    # scaling by the smallest disk's center and radius
    nr = ntheta = inner_grid
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


def outage_rankK(spec: EigenSpectrum, K: int, x: float, quad_order: int = 24) -> float:
    """Rank-K outage by pruned tensor Gauss-Hermite over 2K dimensions.

    The 2K-fold sum factorizes into two identical K-fold grids (real and
    imaginary coordinate blocks): per-port gain is S_R + S_I where
    S[c, n] = (sum_k M[n, k] t_{c_k})^2 and M = U_K sqrt(L_K). Combos
    whose own max already exceeds x can never pair into an outage event
    and are pruned before the pairwise check; survivors are compared in
    chunks. Expect ~1e-2 accuracy: the indicator integrand is
    discontinuous and Gauss-Hermite converges slowly on it.
    """
    x = _check_x(x)
    K = int(K)
    if not (1 <= K <= min(RANK_K_CAP, spec.dim)):
        if K > RANK_K_CAP:
            raise DomainError(
                f"rank-K quadrature is capped at K = {RANK_K_CAP} "
                f"(2K-dimensional tensor grid); use the Monte Carlo "
                f"truncated simulator for K = {K}"
            )
        raise DomainError(f"K must be in [1, {spec.dim}], got {K}")
    quad_order = int(quad_order)

    rule = gauss_hermite(quad_order)
    t, w = rule.nodes, rule.weights
    m = spec.eigenvectors[:, :K] * np.sqrt(np.maximum(spec.eigenvalues[:K], 0.0))

    # all K-dim node combinations: grids[c] = (t_{c_1}, ..., t_{c_K})
    grids = np.stack(
        np.meshgrid(*([t] * K), indexing="ij"), axis=-1
    ).reshape(-1, K)
    logw = np.log(w)
    combo_logw = np.stack(
        np.meshgrid(*([logw] * K), indexing="ij"), axis=-1
    ).reshape(-1, K).sum(axis=1)

    s = (grids @ m.T) ** 2  # (#combos, N) squared per-port projections
    keep = s.max(axis=1) <= x
    s = s[keep]
    cw = np.exp(combo_logw[keep])
    if len(s) == 0:
        return 0.0

    total = 0.0
    chunk = max(1, 20_000_000 // (len(s) * s.shape[1]))
    for lo in range(0, len(s), chunk):
        hi = min(len(s), lo + chunk)
        ok = np.all(
            s[None, :, :] <= (x - s[lo:hi])[:, None, :], axis=2
        )  # (chunk, #combos)
        total += float(cw[lo:hi] @ (ok @ cw))
    return min(1.0, max(0.0, total / math.pi ** K))


def ergodic_rate_rank1(spec: EigenSpectrum, avg_snr: float) -> float:
    """Mean achievable rate of the rank-1 model, bits per channel use.

    E[log2(1 + snr * l1 c1 |z|^2)] = e^beta E1(beta) / ln 2 with
    beta = 1/(snr * l1 c1). The e^beta E1(beta) product is evaluated
    carefully for large beta where both factors are extreme.
    """
    avg_snr = float(avg_snr)
    if not (avg_snr > 0) or not math.isfinite(avg_snr):
        raise DomainError(f"avg_snr must be positive, got {avg_snr!r}")
    p = Rank1Params.from_spectrum(spec)
    beta = 1.0 / (avg_snr * p.lambda1 * p.c1)
    if beta > 700.0:
        # e^b E1(b) ~ 1/b (1 - 1/b + 2/b^2 ...) avoids overflow
        inv = 1.0 / beta
        return inv * (1.0 - inv + 2.0 * inv * inv) / math.log(2.0)
    return math.exp(beta) * exp_integral_e1(beta) / math.log(2.0)
