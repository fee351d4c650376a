"""Self-contained special functions used by the outage models.

Bessel J0 (the isotropic kernel), Marcum Q1 (the equi-correlated CDF),
and Gauss-Hermite and Gauss-Laguerre quadrature rules. J0 is a midpoint
rule on its integral, scalar float64 math on the standard library and
exact to roundoff at every argument. Marcum Q1 takes a number or a 1-D
array for each argument and returns the grid a x b: each a's Poisson
window and each b's CDF is built once and shared across the grid, and
every value is the same sum, to roundoff, that one pair alone gives.
The quadrature rules are numpy's (Golub-Welsch) wrapped in
QuadratureRule, built once per order and cached with read-only arrays.

The module also keeps the package's one scratch slab (borrow,
give_back): a flat float64 array that the Monte Carlo chunks, the
rank-2 quadrature cells and the Marcum windows are carved from.
Reusing it spares every call the fresh, zero-filled pages a new large
array costs.

Every scalar argument in the package is checked by one of three
helpers here: real (a finite float in [lo, hi)), positive (a finite
float > 0) and whole (an integer in [lo, hi], never truncated). Each
returns the coerced value or raises DomainError naming the argument
and its range, so NaN, infinite, fractional and out-of-range inputs
fail the same way everywhere. reals checks an argument that may be a
number or a non-empty 1-D sequence, entry by entry as real does, and
symmetric is the one structural check on a correlation matrix.
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

_MAX_WINDOW = 1 << 20  # Poisson terms per marcum_q1 window
# The idle scratch slab, if any. list.pop and slice assignment are each
# one atomic step, so two live borrowers, in one thread or two, never
# hold the same slab.
_SCRATCH: list[np.ndarray] = []


class DomainError(ValueError):
    """Raised when an argument is outside a function's domain."""


def real(v, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """v as a float, which must be finite and lie in [lo, hi)."""
    x = float(v)
    if not (lo <= x < hi and math.isfinite(x)):
        raise DomainError(f"{name} must be a finite number in [{lo:g}, {hi:g}), got {v!r}")
    return x


def positive(v, name: str) -> float:
    """v as a float, which must be finite and above 0."""
    x = float(v)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite number > 0, got {v!r}")
    return x


def whole(v, name: str, lo: int = 1, hi: float = math.inf) -> int:
    """v as an int, which must equal v (no truncation) and lie in [lo, hi]."""
    try:
        n = int(v)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n is None or n != v or not lo <= n <= hi:
        raise DomainError(f"{name} must be an integer in [{lo}, {hi}], got {v!r}")
    return n


def reals(v, name: str, lo: float = -math.inf) -> np.ndarray:
    """v as a 1-D float array (a number gives one entry): non-empty, finite, each >= lo."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim != 1 or x.size == 0 or not (np.isfinite(x) & (x >= lo)).all():
        raise DomainError(
            f"{name} must be a finite number >= {lo:g} or a non-empty 1-D sequence of "
            f"them, got {v!r}"
        )
    return x


def symmetric(m, name: str) -> np.ndarray:
    """m as a float array: a non-empty square matrix, finite, symmetric to 1e-12."""
    a = np.asarray(m, dtype=float)
    square = a.ndim == 2 and 0 < a.shape[0] == a.shape[1]
    if not (square and np.isfinite(a).all() and np.allclose(a, a.T, rtol=0.0, atol=1e-12)):
        raise DomainError(f"{name} must be a non-empty finite symmetric matrix (shape {a.shape})")
    return a


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

    J0(x) = (2/pi) int_0^{pi/2} cos(x sin t) dt (Abramowitz & Stegun
    9.1.18), summed by the m-point midpoint rule with
    m = max(32, ceil(|x|/4 + 2 |x|^(1/3) + 8)). The integrand is smooth
    and, over [0, pi], periodic, so the rule's error falls like
    |J_4m(x)| (Trefethen & Weideman, SIAM Review 56, 2014), and m keeps
    it below roundoff. Each node is one math.cos, and math.fsum adds
    them, so the value is standard-library float64 with no NumPy call.
    Absolute error against mpmath: below 1e-15 on |x| <= 60, where m is
    32, and 5e-15 on (60, 700], growing with |x| as the rounding of
    x sin t does. The cost is linear in |x|.
    """
    ax = abs(real(x, "x"))
    m = max(32, math.ceil(ax / 4 + 2 * ax ** (1 / 3) + 8))
    h = math.pi / (2 * m)
    return math.fsum(math.cos(ax * math.sin((k + 0.5) * h)) for k in range(m)) / m


def _poisson_windows(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last k of the windows mean +- (10 sd + 30) of Poisson(lam), as floats.

    An infinite lam gives NaN ends, which no window-size check passes.
    """
    half_width = 10.0 * np.sqrt(lam + 1.0) + 30.0
    return np.maximum(np.trunc(lam - half_width), 0.0), np.floor(lam + half_width) + 1.0


def _check_window(terms: float, lam: float) -> None:
    if not terms <= _MAX_WINDOW:
        raise DomainError(
            f"marcum_q1: Poisson window of {terms:.0f} terms at mean "
            f"{lam:.6g} exceeds the cap of {_MAX_WINDOW}"
        )


def _pmf_rows(lam: np.ndarray, k_lo: np.ndarray, terms: np.ndarray, out: np.ndarray) -> None:
    """Row i of out := the Poisson(lam[i]) pmf at k_lo[i], k_lo[i] + 1, ..., lam > 0.

    Per row: one lgamma at k_lo, then the log-ratio recurrence
    log(lam / k) summed by cumsum along the row. Past terms[i] entries
    the row is 0.
    """
    log_lam = np.array([math.log(v) for v in lam.tolist()])
    body = out[:, 1:]
    np.add(k_lo[:, None], np.arange(1.0, out.shape[1]), out=body)
    np.subtract(log_lam[:, None], np.log(body, out=body), out=body)
    for i, (lam_i, lo_i, n_i) in enumerate(zip(lam.tolist(), k_lo.tolist(), terms.tolist())):
        out[i, 0] = lo_i * log_lam[i] - lam_i - math.lgamma(lo_i + 1.0)
        out[i, int(n_i) :] = -math.inf
    np.exp(np.cumsum(out, axis=1, out=out), out=out)


def marcum_q1(a: float | np.ndarray, b: float | np.ndarray) -> float | np.ndarray:
    """First-order Marcum Q function Q1(a, b) on the grid a x b.

    a and b are each a number or a 1-D array. The result is the array
    Q1(a[i], b[j]), with a scalar argument's axis dropped, so two
    numbers give a float.

    Q1(a, b) = P(Y <= X) for independent X ~ Poisson(a^2/2) and
    Y ~ Poisson(b^2/2), the Poisson mixture
    sum_k pois(k; a^2/2) Q(k+1, b^2/2) with Q(k+1, z) the Poisson(z)
    CDF at k. Both pmfs live on windows of about 10 standard deviations
    around their means, so each value is one sum of X's pmf times Y's
    cumulative sum (0 below Y's window, 1 above it). When Y's window
    starts past X's end, Q1 lies within the windows' neglected tails
    and is exactly 0. Arguments in the thousands, which the
    equi-correlated CDF produces at high correlation, stay stable. A
    window that would pass _MAX_WINDOW terms (a^2/2, or b^2/2 with the
    windows overlapping, beyond about 2.7e9) raises DomainError.

    The work is shared across the grid. Each a's pmf window is built
    once, as a row of one block: every row starts at its own first k
    and is padded with zeros to the widest window. Each b's CDF is
    built once, up to the last k any a needs, and every row gathers its
    own stretch of it. The rows are reduced by NumPy sums, not BLAS, so
    the values do not depend on the BLAS thread count, and a column's
    values are the same in any grid with the same a. The block is
    carved from the scratch slab (borrow, give_back).

    Sharing the work leaves the accuracy as it was for one pair alone.
    Absolute error against scipy's noncentral chi-square: below 5e-12
    for a, b <= 140, and below 9e-12 on equicorr_cdf_exact's node grid
    up to rho = 0.973. It grows with a^2/2, to 6.1e-10 at a = 685
    (rho = 0.999), because the log-pmf at the window start is the
    difference of two terms near a^2/2 log(a^2/2).
    """
    a_arr = reals(a, "marcum_q1 a", 0.0)
    b_arr = reals(b, "marcum_q1 b", 0.0)
    # a^2/2 past the float range is inf, and its window's ends NaN
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = 0.5 * a_arr * a_arr
        beta = 0.5 * b_arr * b_arr
        kx_lo, kx_hi = _poisson_windows(alpha)
        ky_lo, ky_hi = _poisson_windows(beta)
    q = np.zeros((alpha.size, beta.size))
    # a pair needs a window sum when both means are positive and Y's
    # window starts by X's end; NaN ends count as overlapping, so their
    # size check raises
    live = (alpha > 0.0)[:, None] & (beta > 0.0) & ~(ky_lo > kx_hi[:, None])
    x_terms = kx_hi - kx_lo + 1.0
    for i in np.flatnonzero(live.any(axis=1)):
        _check_window(x_terms[i], alpha[i])
    cols = np.flatnonzero(live.any(axis=0))
    # Y's CDF is needed only up to the last k of the rows it meets
    y_hi = [min(ky_hi[j], kx_hi[live[:, j]].max()) for j in cols]
    for j, hi in zip(cols, y_hi):
        _check_window(hi - ky_lo[j] + 1.0, beta[j])

    if cols.size:
        # every a's row, so the block, and with it each sum's order, does
        # not depend on b: a column's values are the same in any grid
        rows = np.flatnonzero((alpha > 0.0) & (x_terms <= _MAX_WINDOW))
        width = int(x_terms[rows].max())
        cells = rows.size * width
        slab = borrow(3 * cells)
        px, gathered, index = (slab[i * cells : (i + 1) * cells].reshape(rows.size, width)
                               for i in range(3))
        index = index.view(np.intp)
        _pmf_rows(alpha[rows], kx_lo[rows], x_terms[rows], px)
        steps = np.arange(width)
        for j, y_end in zip(cols, y_hi):
            py = np.empty((1, int(y_end - ky_lo[j]) + 1))
            _pmf_rows(beta[j : j + 1], ky_lo[j : j + 1], np.array([py.size]), py)
            # cdf_y[k - ky_lo + 1] is P(Y <= k), with k past either end
            # clipped onto the padding 0 or 1; a row whose window ends
            # before Y's starts gathers only the 0, so its sum is 0
            cdf_y = np.concatenate(([0.0], np.cumsum(py), [1.0]))
            np.add((kx_lo[rows] - ky_lo[j] + 1.0).astype(np.intp)[:, None], steps, out=index)
            np.take(cdf_y, index, mode="clip", out=gathered)
            q[rows, j] = np.multiply(px, gathered, out=gathered).sum(axis=1)
        give_back(slab)
    q[alpha == 0.0] = np.exp(-beta)
    q[:, beta == 0.0] = 1.0
    np.clip(q, 0.0, 1.0, out=q)
    if np.ndim(a) == 0:
        q = q[0]
    if np.ndim(b) == 0:
        q = q[..., 0]
    return float(q) if q.ndim == 0 else q


@functools.lru_cache(maxsize=None)
def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight e^{-t^2} on the real line.

    Standard numpy implementation; nodes come out ascending. Exact for
    polynomials of degree <= 2Q - 1. Q is capped at 64. Built once per
    order; later calls return the same rule.
    """
    order = whole(order, "gauss_hermite order", 1, 64)
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
    order = whole(order, "gauss_laguerre order", 1, 256)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        nodes, weights = np.polynomial.laguerre.laggauss(order)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
        raise DomainError(f"gauss_laguerre order {order} gives non-finite nodes or weights")
    return QuadratureRule(order=order, nodes=nodes, weights=weights)
