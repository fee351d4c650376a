"""Comparison bounds on the best-port outage via equi-correlated models.

The max-gain CDF of an equi-correlated Rayleigh vector admits exact
one-dimensional evaluation; squeezing the true correlation matrix
between equi-correlated models at the extreme off-diagonal values gives
two-sided outage bounds, and a per-block product gives a refinable
variant. Two evaluators ship for the equi-correlated CDF: a closed-form
alternating series kept for diagnostic purposes (it fails normalization
for rho > 0, which the validity flag reports) and the exact mixture
representation used by all bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldmodel import CorrMatrix
from .specialfn import DomainError, gauss_laguerre, marcum_q1

__all__ = [
    "SeriesCdfResult",
    "CorrelationExtremes",
    "BlockPartition",
    "equicorr_cdf_series",
    "equicorr_cdf_exact",
    "rho_extremes",
    "slepian_sandwich",
    "block_refined_bound",
]


@dataclass(frozen=True)
class SeriesCdfResult:
    """Value of the printed series plus whether it behaves like a CDF."""

    value: float
    valid: bool


@dataclass(frozen=True)
class CorrelationExtremes:
    rho_min: float
    rho_max: float
    rho_avg: float


@dataclass(frozen=True)
class BlockPartition:
    B: int
    boundaries: tuple[tuple[int, int], ...]  # half-open [start, stop) index ranges
    rho_b_min: tuple[float, ...]
    rho_cross_max: float


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1), got {rho!r}")
    return rho


def equicorr_cdf_series(x: float, rho: float, N: int) -> SeriesCdfResult:
    """Alternating binomial series for the equi-correlated max-gain CDF.

    sum_k C(N,k) (-1)^k exp(-k x / (1 + (k-1) rho)) / (1 + (k-1) rho).

    At rho = 0 this collapses to the exact independent-port result
    (1 - e^{-x})^N. For rho > 0 the k = 0 term alone contributes
    1/(1 - rho), so the series is not normalized; the returned flag is
    false whenever the value leaves [0, 1] or the x -> infinity limit
    differs from 1.
    """
    rho = _check_rho(rho)
    x = float(x)
    if x < 0 or int(N) != N or N < 1:
        raise DomainError("need x >= 0 and integer N >= 1")
    N = int(N)
    total = 0.0
    for k in range(N + 1):
        denom = 1.0 + (k - 1.0) * rho
        total += math.comb(N, k) * (-1.0) ** k * math.exp(-k * x / denom) / denom
    limit_at_inf = 1.0 / (1.0 - rho)  # k = 0 term survives as x grows
    valid = (0.0 <= total <= 1.0) and abs(limit_at_inf - 1.0) <= 1e-12
    return SeriesCdfResult(value=total, valid=valid)


def equicorr_cdf_exact(x: float, rho: float, N: int, quad_points: int = 64) -> float:
    """Exact equi-correlated max-gain CDF via the common-factor mixture.

    Writing h_n = sqrt(rho) a + sqrt(1-rho) w_n with a, w_n independent
    standard complex normals, the port gains are conditionally
    independent noncentral chi-square given |a|^2 = t ~ Exp(1):

        F(x) = E_t [ 1 - Q1( sqrt(2 rho t/(1-rho)), sqrt(2 x/(1-rho)) ) ]^N

    with Q1 the Marcum function. The expectation is a Gauss-Laguerre sum.
    """
    rho = _check_rho(rho)
    x = float(x)
    if x < 0 or int(N) != N or N < 1:
        raise DomainError("need x >= 0 and integer N >= 1")
    N = int(N)
    if x == 0.0:
        return 0.0
    if rho < 1e-14:
        return (1.0 - math.exp(-x)) ** N
    rule = gauss_laguerre(quad_points)
    b = math.sqrt(2.0 * x / (1.0 - rho))
    scale = 2.0 * rho / (1.0 - rho)
    acc = 0.0
    for t, w in zip(rule.nodes, rule.weights):
        a = math.sqrt(scale * t)
        acc += w * (1.0 - marcum_q1(a, b)) ** N
    return min(1.0, max(0.0, acc))


def rho_extremes(R: CorrMatrix | np.ndarray) -> CorrelationExtremes:
    """Extremes of |R[m, n]| over the off-diagonal entries."""
    m = R.entries if isinstance(R, CorrMatrix) else np.asarray(R, dtype=float)
    n = m.shape[0]
    if n < 2:
        raise DomainError("correlation extremes need at least two ports")
    off = np.abs(m[~np.eye(n, dtype=bool)])
    return CorrelationExtremes(
        rho_min=float(off.min()),
        rho_max=float(off.max()),
        rho_avg=float(off.mean()),
    )


def slepian_sandwich(
    R: CorrMatrix | np.ndarray, x: float, quad_points: int = 64
) -> tuple[float, float]:
    """Two-sided outage bounds from the equi-correlated extremes.

    Stronger equal correlation concentrates the field and raises the
    max-gain CDF, so the minimum off-diagonal correlation bounds from
    below and the maximum from above:

        F_eq(x; rho_min, N) <= P_out(x) <= F_eq(x; rho_max, N).

    Returns (lower, upper).
    """
    ext = rho_extremes(R)
    m = R.entries if isinstance(R, CorrMatrix) else np.asarray(R, dtype=float)
    n = m.shape[0]
    lower = equicorr_cdf_exact(x, min(ext.rho_min, 1.0 - 1e-12), n, quad_points)
    upper = equicorr_cdf_exact(x, min(ext.rho_max, 1.0 - 1e-12), n, quad_points)
    return lower, upper


def _partition_indices(n: int, B: int) -> list[tuple[int, int]]:
    """Contiguous near-equal blocks; remainder goes to the leading blocks."""
    base = n // B
    extra = n % B
    out = []
    start = 0
    for b in range(B):
        size = base + (1 if b < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def block_refined_bound(
    R: CorrMatrix | np.ndarray, x: float, B: int, quad_points: int = 64
) -> tuple[float, BlockPartition]:
    """Product of per-block equi-correlated CDFs over a contiguous partition.

    Each block contributes F_eq(x; rho_b_min, N_b) with rho_b_min the
    smallest within-block |correlation|; singleton blocks use rho = 0.
    The product is the outage of a surrogate that lowers every
    correlation: within a block to the block minimum, across blocks to
    0. By the comparison argument behind slepian_sandwich it is a lower
    bound, equal to the sandwich's lower bound at B = 1. On smooth
    kernels the family tightens from below as B grows, as measured in
    the acceptance run; the comparison alone does not imply it, since
    finer blocks raise the within-block minima but zero more pairs.
    The partition reports the largest cross-block |correlation|
    rho_cross_max, which the surrogate sets to 0.
    """
    m = R.entries if isinstance(R, CorrMatrix) else np.asarray(R, dtype=float)
    n = m.shape[0]
    B = int(B)
    if not (1 <= B <= n):
        raise DomainError(f"block count B must be in [1, {n}], got {B}")
    blocks = _partition_indices(n, B)
    rho_mins = []
    bound = 1.0
    for lo, hi in blocks:
        size = hi - lo
        if size == 1:
            rb = 0.0
        else:
            sub = np.abs(m[lo:hi, lo:hi])
            rb = float(sub[~np.eye(size, dtype=bool)].min())
        rho_mins.append(rb)
        bound *= equicorr_cdf_exact(x, min(rb, 1.0 - 1e-12), size, quad_points)
    cross = 0.0
    for i, (lo_i, hi_i) in enumerate(blocks):
        for lo_j, hi_j in blocks[i + 1 :]:
            sub = np.abs(m[lo_i:hi_i, lo_j:hi_j])
            if sub.size:
                cross = max(cross, float(sub.max()))
    partition = BlockPartition(
        B=B,
        boundaries=tuple(blocks),
        rho_b_min=tuple(rho_mins),
        rho_cross_max=cross,
    )
    return bound, partition
