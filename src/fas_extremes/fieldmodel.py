"""Discrete aperture model: port grid, correlation matrix, eigenstructure.

The antenna aperture [0, W] is sampled at N equally spaced ports. The
port-gain covariance is a symmetric Toeplitz matrix built from one of
the kernels module's correlation functions.

The one factorization, cholesky, is a diagonal-pivoted Cholesky that
stops at the matrix's numerical rank r. It is a loop of elementwise
products and NumPy's own sums, with no BLAS or LAPACK call, so the
factor does not depend on the BLAS build or thread count. It holds the
one rank and PSD rule. The sampler uses it as is, and eigendecompose
takes the eigenmodes from it through an r x r Gram matrix, with a
fixed ordering and sign convention; the N - r modes past the rank are
reported as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import CorrelationModel, correlation
from .specialfn import DomainError, positive, reals, symmetric, whole

__all__ = [
    "ApertureConfig",
    "EigenSpectrum",
    "CholeskyFactor",
    "correlation_matrix",
    "eigendecompose",
    "cholesky",
    "kl_truncate",
]

# cholesky stops once no residual diagonal exceeds _PIVOT_STOP. A residual
# diagonal down to -_PSD_SLACK is roundoff in a PSD matrix's entries; one
# further below makes the matrix indefinite.
_PIVOT_STOP = 1e-12
_PSD_SLACK = 1e-8
# cholesky adds no diagonal shift, so CholeskyFactor.jitter is the class
# constant 0.0; perfbench/spans.py counts a factorization's attempts from
# it, as JITTER_LADDER.index(jitter) + 1
JITTER_LADDER = (0.0,)
# eigendecompose makes each eigenvector's first entry of at least this
# fraction of its largest magnitude positive: far above roundoff, so no
# near-zero entry's sign decides, and far below any entry that matters
_SIGN_FLOOR = 1e-3


@dataclass(frozen=True)
class ApertureConfig:
    """Aperture of W wavelengths sampled at N ports."""

    W: float
    N: int
    model: CorrelationModel

    def __post_init__(self):
        object.__setattr__(self, "W", positive(self.W, "aperture W"))
        object.__setattr__(self, "N", whole(self.N, "port count N"))
        object.__setattr__(self, "model", CorrelationModel(self.model))


@dataclass(frozen=True)
class EigenSpectrum:
    """Descending eigenvalues with matched orthonormal eigenvector columns.

    All N modes, or the K leading ones from kl_truncate (N x K vectors).
    From eigendecompose, the modes past R's numerical rank have
    eigenvalue 0 and a zero column, so only the leading columns are
    orthonormal. The eigenvalues are 1-D, one per eigenvector column,
    each finite and non-negative; a spectrum has at least one mode and
    one port."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lams, vecs = self.eigenvalues, self.eigenvectors
        if lams.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != lams.size or 0 in vecs.shape:
            raise DomainError(
                "an EigenSpectrum needs 1-D eigenvalues and one eigenvector column per"
                f" eigenvalue, at least one of each, got shapes {lams.shape} and {vecs.shape}"
            )
        reals(lams, "eigenvalues")

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    @property
    def truncation_error(self) -> float:
        """1 - sum(lambda)/N, clamped at 0, with N the eigenvectors' rows (see kl_truncate)."""
        total = float(self.eigenvectors.shape[0])  # trace of a unit-diagonal correlation matrix
        return max(0.0, 1.0 - float(self.eigenvalues.sum()) / total)


@dataclass(frozen=True)
class CholeskyFactor:
    """An N x r map L with L L^T = R, up to roundoff and cholesky's stop.

    lower, the one field, is a finite 2-D array with at least one row
    and one column. jitter is the class constant 0.0, not a field: no
    factor shifts R's diagonal, and it stays only because
    perfbench/spans.py reads it (see JITTER_LADDER)."""

    lower: np.ndarray
    jitter = 0.0

    def __post_init__(self):
        lower = self.lower
        if np.ndim(lower) != 2 or 0 in np.shape(lower) or not np.isfinite(lower).all():
            raise DomainError(
                "a CholeskyFactor's lower must be a finite 2-D array with at least one row"
                f" and one column, got shape {np.shape(lower)}"
            )


def correlation_matrix(config: ApertureConfig) -> np.ndarray:
    """Toeplitz correlation matrix R[m, n] = rho((m-n) W/(N-1)).

    Only N distinct kernel values exist on the uniform grid, so the
    kernel is evaluated once per lag and spread along the diagonals.
    """
    n = config.N
    if n == 1:
        return np.ones((1, 1))
    spacing = config.W / (n - 1)
    lags = np.array([correlation(config.model, k * spacing) for k in range(n)])
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return lags[idx]


def eigendecompose(R: np.ndarray) -> EigenSpectrum:
    """All N modes of R, taken from its pivoted cholesky factor.

    With F = cholesky(R).lower (N x r, r the numerical rank), R's
    nonzero spectrum is that of the r x r Gram matrix F^T F = V L V^T,
    and U = F V L^(-1/2) holds the matching orthonormal eigenvectors
    (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 2012). The
    Gram matrix and F V are elementwise products and NumPy sums, one
    column at a time; the one LAPACK call is numpy.linalg.eigh on the
    r x r Gram matrix. cholesky holds the one rank and PSD rule, so R
    must be symmetric and positive semi-definite as it requires. Each
    eigenvalue is within trace(R - F F^T) + O(eps lambda_1) of R's
    (Weyl). The N - r modes past the rank are reported as eigenvalue 0
    with a zero column.

    Eigenvalues are sorted descending; ties keep the smaller pre-sort
    index first. Each eigenvector's sign is fixed so that its first
    entry of magnitude at least _SIGN_FLOOR times its largest is
    positive. A symmetric Toeplitz matrix is centrosymmetric, so each
    eigenvector is symmetric or antisymmetric and its largest entry ties
    with its mirror image; a rule keyed on the largest entry lets
    roundoff pick the sign.
    """
    F = cholesky(R).lower
    n, r = F.shape
    gram = np.empty((r, r))
    for k in range(r):
        gram[:, k] = (F * F[:, k : k + 1]).sum(axis=0)
    vals, V = np.linalg.eigh(gram)
    order = np.lexsort((np.arange(r), -vals))  # descending, stable in index
    vals, V = vals[order], V[:, order]
    vecs = np.zeros((n, n))
    for k in range(r):
        vecs[:, k] = (F * V[:, k]).sum(axis=1) / math.sqrt(vals[k])
    mags = np.abs(vecs)
    lead = np.argmax(mags >= _SIGN_FLOOR * mags.max(axis=0), axis=0)
    vecs *= np.where(vecs[lead, np.arange(n)] < 0, -1.0, 1.0)
    return EigenSpectrum(eigenvalues=np.concatenate([vals, np.zeros(n - r)]), eigenvectors=vecs)


def cholesky(R: np.ndarray) -> CholeskyFactor:
    """Low-rank factor F (N x r) with F F^T = R up to about _PIVOT_STOP.

    Diagonal-pivoted Cholesky (Harbrecht, Peters & Schneider, Appl.
    Numer. Math. 62, 2012): each step takes the port with the largest
    residual diagonal as the pivot and adds its left-looking column,
    until no residual diagonal exceeds _PIVOT_STOP = 1e-12. The rank r
    is the number of steps; a smooth field over a short aperture needs
    far fewer than N (17 of 200 ports for the Gaussian kernel at W = 1),
    so a rank-deficient matrix needs no diagonal shift. F is
    lower-trapezoidal only in pivot order: row p_k of the k-th pivot is
    zero past column k. A column's dot products are an elementwise
    product and a NumPy sum along each row, not a BLAS call, so F is
    the same at every BLAS thread count.

    The loop reads one entry of each mirrored pair, so an R asymmetric
    beyond 1e-12 in any entry raises DomainError. A residual diagonal
    below -_PSD_SLACK means R is indefinite beyond roundoff and raises
    DomainError. Smaller negative residuals are roundoff in R's entries
    or in the updates, and are left out of F with the rest. A matrix with no diagonal entry above
    the stop has no field to sample and raises DomainError too.
    """
    m = symmetric(R, "cholesky R")
    n = m.shape[0]
    lower = np.zeros((n, n))
    resid = m.diagonal().copy()
    rest = np.arange(n)  # ports not yet pivoted on
    rank = 0
    while rest.size:
        at = int(np.argmax(resid[rest]))
        p = rest[at]
        if resid[p] <= _PIVOT_STOP:
            break
        rest = np.delete(rest, at)
        lower[p, rank] = root = math.sqrt(resid[p])
        col = (m[rest, p] - (lower[rest, :rank] * lower[p, :rank]).sum(axis=1)) / root
        lower[rest, rank] = col
        resid[rest] -= np.square(col)
        rank += 1
    if rest.size and resid[rest].min() < -_PSD_SLACK:
        raise DomainError(
            f"matrix is not positive semi-definite: residual diagonal"
            f" {resid[rest].min():.3e} below -{_PSD_SLACK:.3e}"
        )
    if rank == 0:
        raise DomainError(
            f"matrix has no diagonal entry above {_PIVOT_STOP:g}, so no field to sample"
        )
    return CholeskyFactor(lower=lower[:, :rank].copy())


def kl_truncate(spec: EigenSpectrum, K: int) -> EigenSpectrum:
    """Keep the K dominant eigenmodes; truncation_error reports the energy left out.

    truncation_error = 1 - sum(lambda_1..K)/N, using the trace identity
    sum(lambda) = N for unit-diagonal correlation matrices.
    """
    K = whole(K, "truncation rank K", 1, spec.rank)
    return EigenSpectrum(
        eigenvalues=spec.eigenvalues[:K].copy(),
        eigenvectors=spec.eigenvectors[:, :K].copy(),
    )

