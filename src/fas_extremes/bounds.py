"""Comparison bounds on the best-port outage via equi-correlated models.

The max-gain CDF of an equi-correlated Rayleigh vector admits exact
one-dimensional evaluation; squeezing the true correlation matrix
between equi-correlated models at the extreme off-diagonal values gives
a two-sided outage sandwich, and a per-block product gives a refinable
variant. Two evaluators ship for the equi-correlated CDF: a closed-form
alternating series kept for diagnostic purposes (it fails normalization
for rho > 0, which the validity flag reports) and the exact mixture
representation used by all bounds.

The comparison step is Slepian's inequality, which orders the maxima
of real Gaussian vectors by their correlations. The port gains are
moduli of a complex field, and for those correlation orders the max-gain
CDF only along a common scaling of all correlations (Sidak 1968), not
entry by entry. So the "bounds" are proven only in the special cases
each function names; elsewhere their direction is only measured, and
slepian_sandwich's upper side is measured wrong.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .specialfn import DomainError, gauss_laguerre, marcum_q1, real, reals, symmetric, whole

# Gauss-Laguerre order of the common-factor mixture in equicorr_cdf_exact
_QUAD_POINTS = 64

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


@dataclass(frozen=True)
class BlockPartition:
    B: int
    rho_b_min: tuple[float, ...]
    rho_cross_max: float


def equicorr_cdf_series(x: float, rho: float, N: int) -> SeriesCdfResult:
    """Alternating binomial series for the equi-correlated max-gain CDF.

    sum_k C(N,k) (-1)^k exp(-k x / (1 + (k-1) rho)) / (1 + (k-1) rho).

    At rho = 0 this collapses to the exact independent-port result
    (1 - e^{-x})^N. For rho > 0 the k = 0 term alone contributes
    1/(1 - rho), so the series is not normalized; the returned flag is
    false whenever the value leaves [0, 1] or the x -> infinity limit
    differs from 1.
    """
    x, rho, N = real(x, "x", 0.0), real(rho, "rho", 0.0, 1.0), whole(N, "N")
    total = 0.0
    for k in range(N + 1):
        denom = 1.0 + (k - 1.0) * rho
        total += math.comb(N, k) * (-1.0) ** k * math.exp(-k * x / denom) / denom
    limit_at_inf = 1.0 / (1.0 - rho)  # k = 0 term survives as x grows
    valid = (0.0 <= total <= 1.0) and abs(limit_at_inf - 1.0) <= 1e-12
    return SeriesCdfResult(value=total, valid=valid)


def equicorr_cdf_exact(
    x: float | Sequence[float], rho: float, N: int
) -> float | tuple[float, ...]:
    """Exact equi-correlated max-gain CDF via the common-factor mixture.

    Writing h_n = sqrt(rho) a + sqrt(1-rho) w_n with a, w_n independent
    standard complex normals, the port gains are conditionally
    independent noncentral chi-square given |a|^2 = t ~ Exp(1):

        F(x) = E_t [ 1 - Q1( sqrt(2 rho t/(1-rho)), sqrt(2 x/(1-rho)) ) ]^N

    with Q1 the Marcum function. The expectation is a 64-point
    Gauss-Laguerre sum, added by math.fsum, so a value does not
    depend on the other x it is computed with.

    x is a number, which gives a float, or a non-empty 1-D sequence,
    which gives a tuple of floats in the same order. Every x shares one
    marcum_q1 call over the 64 nodes; x = 0 gives 0.
    """
    xs = reals(x, "x")
    rho, N = real(rho, "rho", 0.0, 1.0), whole(N, "N")
    if rho < 1e-14:
        cdf = [(-math.expm1(-v)) ** N for v in xs.tolist()]
    else:
        rule = gauss_laguerre(_QUAD_POINTS)
        a = np.sqrt(2.0 * rho / (1.0 - rho) * rule.nodes)
        b = np.sqrt(2.0 * xs / (1.0 - rho))
        # b = 0 gives Q1 = 1, so x = 0 sums to exactly 0
        terms = rule.weights[:, None] * (1.0 - marcum_q1(a, b)) ** N
        cdf = [min(1.0, max(0.0, math.fsum(col))) for col in terms.T.tolist()]
    return cdf[0] if np.ndim(x) == 0 else tuple(cdf)


def rho_extremes(R: np.ndarray) -> CorrelationExtremes:
    """Extremes of |R[m, n]| over the off-diagonal entries."""
    m = symmetric(R, "rho_extremes R")
    n = m.shape[0]
    if n < 2:
        raise DomainError("correlation extremes need at least two ports")
    off = np.abs(m[~np.eye(n, dtype=bool)])
    return CorrelationExtremes(rho_min=float(off.min()), rho_max=float(off.max()))


def slepian_sandwich(
    R: np.ndarray, x: float | Sequence[float]
) -> tuple[float, float] | tuple[tuple[float, float], ...]:
    """Two-sided outage comparison from the equi-correlated extremes.

    Stronger equal correlation concentrates the field and raises the
    max-gain CDF, so the sandwich takes the minimum off-diagonal
    |correlation| for the lower side and the maximum for the upper:

        F_eq(x; rho_min, N) <= P_out(x) <= F_eq(x; rho_max, N).

    That ordering is Slepian's inequality for real Gaussians. For the
    modulus of a complex field, correlation orders the CDF only along a
    common scaling of all correlations (Sidak 1968), and |R| drops the
    signs of negative (Jakes) correlations, so neither side is proven
    unless R is equi-correlated. The lower side held in every
    acceptance check; the upper side fails at Jakes, N = 10, W = 2,
    x = 0.5: 0.0028654 against Monte Carlo 0.0029214 +- 7.0e-6.

    A number x gives (lower, upper). A non-empty 1-D sequence gives a
    tuple of (lower, upper) pairs in the same order, from one
    equicorr_cdf_exact call per side. A rho_max too close to 1 for the
    equi-correlated CDF's Marcum windows raises DomainError naming it.
    """
    reals(x, "x")
    ext = rho_extremes(R)
    n = len(R)
    try:
        lower = equicorr_cdf_exact(x, min(ext.rho_min, 1.0 - 1e-12), n)
        upper = equicorr_cdf_exact(x, min(ext.rho_max, 1.0 - 1e-12), n)
    except DomainError as exc:
        # x, rho and N are checked, so only a Marcum window can fail, and
        # the windows widen with rho: rho_max is always out of reach
        raise DomainError(
            f"slepian_sandwich: the equi-correlated CDF cannot resolve the field's "
            f"rho_max = {ext.rho_max!r} over N = {n} ports ({exc})"
        ) from exc
    return (lower, upper) if np.ndim(x) == 0 else tuple(zip(lower, upper))


def _partition_indices(n: int, B: int) -> list[tuple[int, int]]:
    """Contiguous near-equal blocks; remainder goes to the leading blocks."""
    return [(int(part[0]), int(part[-1]) + 1) for part in np.array_split(np.arange(n), B)]


def block_refined_bound(R: np.ndarray, x: float, B: int) -> tuple[float, BlockPartition]:
    """Product of per-block equi-correlated CDFs over a contiguous partition.

    Each block contributes F_eq(x; rho_b_min, N_b) with rho_b_min the
    smallest within-block |correlation|; singleton blocks use rho = 0.
    The product is the outage of a surrogate that lowers every
    correlation: within a block to the block minimum, across blocks to
    0. It equals the sandwich's lower side at B = 1. Calling it a lower
    bound takes the same comparison as slepian_sandwich, Slepian's
    inequality for real Gaussians, which for the modulus of a complex
    field holds only along a common scaling of all correlations (Sidak
    1968). It is proven only at B = N, where it is the independent-port
    product and the Gaussian correlation inequality (Royen 2014)
    applies; for other B it is measured, as the acceptance run does.
    On smooth kernels the family tightens from below as B grows, also
    only measured: finer blocks raise the within-block minima but zero
    more pairs.
    The partition reports the largest cross-block |correlation|
    rho_cross_max, which the surrogate sets to 0.
    """
    m = symmetric(R, "block_refined_bound R")
    n = m.shape[0]
    B = whole(B, "block count B", 1, n)
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
        bound *= equicorr_cdf_exact(x, min(rb, 1.0 - 1e-12), size)
    label = np.repeat(np.arange(B), [hi - lo for lo, hi in blocks])
    cross = float(np.abs(m)[label[:, None] != label[None, :]].max(initial=0.0))
    partition = BlockPartition(
        B=B,
        rho_b_min=tuple(rho_mins),
        rho_cross_max=cross,
    )
    return bound, partition
