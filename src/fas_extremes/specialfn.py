"""Self-contained special functions used by the outage models.

Bessel J0 (the isotropic kernel), erf (the Gaussian kernel's spectral
leakage), the exponential integral E1 (the rank-1 ergodic rate),
Marcum Q1 (the equi-correlated CDF), and Gauss-Hermite and
Gauss-Laguerre quadrature rules. The functions are scalar float64 math
on the standard library; numpy enters only for the quadrature node
containers and numpy's Laguerre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "bessel_j0",
    "erf",
    "exp_integral_e1",
    "marcum_q1",
    "gauss_hermite",
    "gauss_laguerre",
]

_SERIES_CUTOFF = 12.0  # power series below, Hankel asymptotics above


class DomainError(ValueError):
    """Raised when an argument is outside a function's domain."""


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss quadrature nodes and weights, nodes ascending."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("quadrature order must be >= 1")
        if len(self.nodes) != self.order or len(self.weights) != self.order:
            raise DomainError("node/weight length mismatch")


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


def erf(x: float) -> float:
    """Error function. Delegates to the C library via math.erf."""
    x = _check_finite(x, "x")
    return math.erf(x)


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = int_1^inf e^{-xt}/t dt, x > 0.

    Convergent series for x <= 1, modified Lentz continued fraction above.
    Relative error below 1e-9 across (0, 700].
    """
    x = float(x)
    if not (x > 0) or not math.isfinite(x):
        raise DomainError(f"E1 requires x > 0, got {x!r}")
    if x <= 1.0:
        # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
        total = -0.5772156649015329 - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
            if abs(term / k) < 1e-18 * abs(total):
                break
        return total
    # continued fraction e^{-x}/(x + 1/(1 + 1/(x + 2/(1 + ...))))
    b = x + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x)


def _log_gamma_q(s: float, z: float) -> float:
    """log of the regularized upper incomplete gamma Q(s, z), s >= 1.

    Series for the lower function when z < s + 1, Lentz continued
    fraction for the upper function otherwise. Works in logs so the
    Marcum window can run at z of order 10^4 without underflow.
    """
    if z <= 0.0:
        return 0.0
    log_prefix = s * math.log(z) - z - math.lgamma(s)
    if z < s + 1.0:
        # P(s,z) series, then Q = 1 - P
        term = 1.0 / s
        total = term
        k = s
        for _ in range(500):
            k += 1.0
            term *= z / k
            total += term
            if term < total * 1e-17:
                break
        p = math.exp(log_prefix) * total
        if p >= 1.0:
            return -math.inf
        return math.log1p(-p)
    # Q(s,z) continued fraction
    b = z + 1.0 - s
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -i * (i - s)
        b += 2.0
        d = a * d + b
        if abs(d) < 1e-300:
            d = 1e-300
        c = b + a / c
        if abs(c) < 1e-300:
            c = 1e-300
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return log_prefix + math.log(h)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q1(a, b).

    Evaluated as a Poisson mixture of upper incomplete gamma tails,
    Q1(a,b) = sum_k pois(k; a^2/2) Q(k+1, b^2/2), summed over a window
    of about 10 standard deviations around the Poisson mean. The whole
    computation runs in log space so arguments in the thousands (which
    the equi-correlated CDF produces at high correlation) stay stable.
    Absolute error below 1e-8.
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

    half_width = 10.0 * math.sqrt(alpha + 1.0) + 30.0
    k_lo = max(0, int(alpha - half_width))
    k_hi = int(alpha + half_width) + 1

    # Poisson log-pmf at the window start, then recur upward.
    log_pois = k_lo * math.log(alpha) - alpha - math.lgamma(k_lo + 1.0)
    log_q = _log_gamma_q(k_lo + 1.0, beta)

    total = 0.0
    for k in range(k_lo, k_hi + 1):
        if log_pois > -745.0 and log_q > -745.0:
            total += math.exp(log_pois + log_q)
        if k < k_hi:
            log_pois += math.log(alpha) - math.log1p(k)
            # Q(s+1, z) = Q(s, z) + z^s e^{-z} / Gamma(s+1)
            s = k + 1.0
            log_inc = s * math.log(beta) - beta - math.lgamma(s + 1.0)
            if log_inc <= log_q - 40.0:
                # increment negligible, Q is flat to 1e-17 here
                pass
            else:
                m = max(log_q, log_inc)
                log_q = m + math.log(math.exp(log_q - m) + math.exp(log_inc - m))
            if log_q > 0.0:
                log_q = 0.0
    return min(1.0, max(0.0, total))


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight e^{-t^2} on the real line.

    Newton iteration on the orthonormal Hermite three-term recurrence
    with the usual asymptotic initial guesses; only the upper half is
    computed, the rest follows by symmetry. Exact for polynomials of
    degree <= 2Q - 1. Q is capped at 64.
    """
    order = int(order)
    if not (1 <= order <= 64):
        raise DomainError(f"gauss_hermite order must be in [1, 64], got {order}")

    n = order
    nodes = np.empty(n)
    weights = np.empty(n)
    pim4 = math.pi ** -0.25
    m = (n + 1) // 2
    z = 0.0
    for i in range(m):
        # initial guesses (Stroud/Secrest), refined downward from the largest root
        if i == 0:
            z = math.sqrt(2.0 * n + 1.0) - 1.85575 * (2.0 * n + 1.0) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * n ** 0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * nodes[n - 1]
        elif i == 3:
            z = 1.91 * z - 0.91 * nodes[n - 2]
        else:
            z = 2.0 * z - nodes[n - i + 1]
        for _ in range(100):
            p1 = pim4
            p2 = 0.0
            for j in range(1, n + 1):
                p3 = p2
                p2 = p1
                p1 = z * math.sqrt(2.0 / j) * p2 - math.sqrt((j - 1.0) / j) * p3
            pp = math.sqrt(2.0 * n) * p2
            dz = p1 / pp
            z -= dz
            if abs(dz) < 1e-15:
                break
        nodes[n - 1 - i] = z
        nodes[i] = -z
        weights[n - 1 - i] = 2.0 / (pp * pp)
        weights[i] = weights[n - 1 - i]
    if n % 2 == 1:
        nodes[n // 2] = 0.0  # exact middle root
    return QuadratureRule(order=n, nodes=nodes, weights=weights)


def gauss_laguerre(order: int) -> QuadratureRule:
    """Gauss-Laguerre rule for weight e^{-t} on [0, inf).

    Used by the equi-correlated CDF expectation. Standard numpy
    implementation; nodes come out ascending already. Orders whose
    nodes or weights come out non-finite (187 and up on NumPy 2.4,
    where the weights' normalisation overflows) raise DomainError.
    """
    order = int(order)
    if not (1 <= order <= 256):
        raise DomainError(f"gauss_laguerre order must be in [1, 256], got {order}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes, weights = np.polynomial.laguerre.laggauss(order)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise DomainError(f"gauss_laguerre order {order} gives non-finite nodes or weights")
    return QuadratureRule(order=order, nodes=nodes, weights=weights)
