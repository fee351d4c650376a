"""Self-contained special functions used by the outage models.

Bessel J0 (the isotropic kernel), Marcum Q1 (the equi-correlated CDF),
and Gauss-Hermite and Gauss-Laguerre quadrature rules. J0 is scalar
float64 math on the standard library. Marcum Q1 takes scalars but
evaluates its Poisson mixture as NumPy arrays, one dot product per call.
The quadrature rules are numpy's (Golub-Welsch) wrapped in
QuadratureRule, built once per order and cached with read-only arrays.

The module also keeps the package's one scratch slab (borrow,
give_back): a flat float64 array that the Monte Carlo chunks and the
rank-2 quadrature cells are carved from. Reusing it spares every call
the fresh, zero-filled pages a new large array costs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "bessel_j0",
    "marcum_q1",
    "gauss_hermite",
    "gauss_laguerre",
]

_SERIES_CUTOFF = 12.0  # power series below, Hankel asymptotics above
_MAX_WINDOW = 1 << 20  # Poisson terms per marcum_q1 window
# The idle scratch slab, if any. list.pop and slice assignment are each
# one atomic step, so two live borrowers, in one thread or two, never
# hold the same slab.
_SCRATCH: list[np.ndarray] = []


class DomainError(ValueError):
    """Raised when an argument is outside a function's domain."""


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss quadrature nodes and weights, nodes ascending.

    The arrays are made read-only, so a cached rule cannot be changed
    by a caller.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("quadrature order must be >= 1")
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise DomainError("node/weight length mismatch")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def borrow(n: int) -> np.ndarray:
    """A flat float64 scratch array of at least n elements.

    The caller owns it until it hands it to give_back, and must not
    touch it after that; a slab never given back is simply dropped. Its
    contents are whatever the last owner left. The idle slab is reused
    when it is large enough; otherwise a new one is made, and the
    smaller one is dropped.
    """
    try:
        slab = _SCRATCH.pop()
    except IndexError:
        slab = None
    return slab if slab is not None and slab.size >= n else np.empty(n)


def give_back(slab: np.ndarray) -> None:
    """End the caller's use of a slab from borrow; keep it for the next one."""
    _SCRATCH[:] = [slab]


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Power series up to |x| = 12, Hankel large-argument expansion beyond.
    Absolute error below 1e-10 on |x| <= 50.
    """
    x = _check_finite(x, "x")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        # sum_k (-1)^k (x^2/4)^k / (k!)^2, term recurrence avoids factorials
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        for k in range(1, 200):
            term *= -q / (k * k)
            total += term
            if abs(term) < 1e-17 * max(1.0, abs(total)):
                break
        return total
    return _hankel_j0(ax)


def _hankel_j0(ax: float) -> float:
    """Large-argument asymptotics for J0 via the P/Q phase expansion.

    Standard form J0(x) = sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)],
    chi = x - pi/4, with P, Q summed until terms stop decreasing.
    At x >= 12 the truncation floor sits near 1e-13.
    """
    chi = ax - math.pi / 4.0
    inv8x = 1.0 / (8.0 * ax)

    p_sum = 1.0
    q_sum = 0.0
    term = 1.0
    k = 0
    sign = 1.0
    while True:
        # odd step extends Q, even step extends P
        term *= -((2 * k + 1) ** 2) * inv8x / (k + 1)
        k += 1
        if k % 2 == 1:
            contrib = sign * term
            q_sum += contrib
        else:
            sign = -sign
            contrib = sign * term
            p_sum += contrib
        if abs(term) < 1e-17 or k > 20:
            break
    amp = math.sqrt(2.0 / (math.pi * ax))
    return amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def _poisson_window(lam: float) -> tuple[int, int]:
    """First and last k of the window mean +- (10 sd + 30) of Poisson(lam)."""
    half_width = 10.0 * math.sqrt(lam + 1.0) + 30.0
    return max(0, int(lam - half_width)), int(lam + half_width) + 1


def _poisson_pmf(lam: float, k_lo: int, k_hi: int) -> np.ndarray:
    """Poisson(lam) pmf at k_lo..k_hi, lam > 0.

    One lgamma at k_lo, then the log-ratio recurrence log(lam / k)
    summed by cumsum. More than _MAX_WINDOW terms raise DomainError.
    """
    if k_hi - k_lo + 1 > _MAX_WINDOW:
        raise DomainError(
            f"marcum_q1: Poisson window of {k_hi - k_lo + 1} terms at mean "
            f"{lam:.6g} exceeds the cap of {_MAX_WINDOW}"
        )
    log_pmf = np.empty(k_hi - k_lo + 1)
    log_pmf[0] = k_lo * math.log(lam) - lam - math.lgamma(k_lo + 1.0)
    log_pmf[1:] = math.log(lam) - np.log(np.arange(k_lo + 1.0, k_hi + 1.0))
    return np.exp(np.cumsum(log_pmf))


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b).

    Q1(a, b) = P(Y <= X) for independent X ~ Poisson(a^2/2) and
    Y ~ Poisson(b^2/2), the Poisson mixture
    sum_k pois(k; a^2/2) Q(k+1, b^2/2) with Q(k+1, z) the Poisson(z)
    CDF at k. Both pmfs live on windows of about 10 standard deviations
    around their means, so the sum is one dot product of X's pmf with
    Y's cumulative sum (0 below Y's window, 1 above it). When Y's
    window starts past X's end, Q1 lies within the windows' neglected
    tails and is returned as 0. Arguments in the thousands, which the
    equi-correlated CDF produces at high correlation, stay stable. A
    window that would pass _MAX_WINDOW terms (a^2/2, or b^2/2 with the
    windows overlapping, beyond about 2.7e9) raises DomainError.

    Absolute error against scipy's noncentral chi-square: below 5e-12
    for a, b <= 140, and below 9e-12 on equicorr_cdf_exact's node grid
    up to rho = 0.973. It grows with a^2/2, to 6.1e-10 at a = 685
    (rho = 0.999), because the log-pmf at the window start is the
    difference of two terms near a^2/2 log(a^2/2).
    """
    a = float(a)
    b = float(b)
    if a < 0 or b < 0 or not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"marcum_q1 requires a, b >= 0, got {a!r}, {b!r}")
    alpha = 0.5 * a * a
    beta = 0.5 * b * b
    # branch on the squared quantities: a*a can underflow to 0 for
    # subnormal-range a even though a > 0, and the limits are exact
    if beta == 0.0:
        return 1.0
    if alpha == 0.0:
        return math.exp(-beta)

    kx_lo, kx_hi = _poisson_window(alpha)
    ky_lo, ky_hi = _poisson_window(beta)
    if ky_lo > kx_hi:
        return 0.0
    px = _poisson_pmf(alpha, kx_lo, kx_hi)
    # Y's CDF is needed only up to X's last k. cdf_y[k - ky_lo + 1] is
    # P(Y <= k), with k past either end clipped onto the padding 0 or 1.
    py = _poisson_pmf(beta, ky_lo, min(ky_hi, kx_hi))
    cdf_y = np.concatenate(([0.0], np.cumsum(py), [1.0]))
    j = np.clip(np.arange(kx_lo, kx_hi + 1) - ky_lo + 1, 0, len(cdf_y) - 1)
    return min(1.0, max(0.0, float(px @ cdf_y[j])))


@functools.lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight e^{-t^2} on the real line.

    Standard numpy implementation; nodes come out ascending. Exact for
    polynomials of degree <= 2Q - 1. Q is capped at 64. Built once per
    order; later calls return the same rule.
    """
    order = int(order)
    if not (1 <= order <= 64):
        raise DomainError(f"gauss_hermite order must be in [1, 64], got {order}")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


@functools.lru_cache(maxsize=None)
def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule for weight e^{-t} on [0, inf).

    Used by the equi-correlated CDF expectation. Standard numpy
    implementation; nodes come out ascending already. Orders whose
    nodes or weights come out non-finite (187 and up on NumPy 2.4,
    where the weights' normalisation overflows) raise DomainError.
    Built once per order; later calls return the same rule.
    """
    order = int(order)
    if not (1 <= order <= 256):
        raise DomainError(f"gauss_laguerre order must be in [1, 256], got {order}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes, weights = np.polynomial.laguerre.laggauss(order)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise DomainError(f"gauss_laguerre order {order} gives non-finite nodes or weights")
    return QuadratureRule(order=order, nodes=nodes, weights=weights)
