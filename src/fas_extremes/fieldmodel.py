"""Discrete aperture model: port grid, correlation matrix, eigenstructure.

The antenna aperture [0, W] is sampled at N equally spaced ports. The
port-gain covariance is a symmetric Toeplitz matrix built from one of
the kernels module's correlation functions. Eigendecomposition is one
LAPACK call (numpy.linalg.eigh) with a fixed ordering and sign
convention. Its input must be positive semi-definite up to the
Cholesky ladder's largest shift. Eigenvalues are reported as
magnitudes, so tail values below the roundoff floor n eps lambda_max
are roundoff, not the true (smaller, positive) eigenvalues.

Two sampling factorizations share one left-looking column update made
of elementwise products and NumPy's own sums, with no BLAS or LAPACK
call, so neither factor depends on the BLAS build or thread count:
cholesky, the full lower-triangular factor with an escalating diagonal
jitter, and pivoted_cholesky, a low-rank factor that stops at the
matrix's numerical rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import CorrelationModel, correlation
from .specialfn import DomainError, positive, real, symmetric, whole

__all__ = [
    "ApertureConfig",
    "EigenSpectrum",
    "CholeskyFactor",
    "FactorizationError",
    "correlation_matrix",
    "eigendecompose",
    "cholesky",
    "pivoted_cholesky",
    "kl_truncate",
]

JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# eigendecompose makes each eigenvector's first entry of at least this
# fraction of its largest magnitude positive: far above roundoff, so no
# near-zero entry's sign decides, and far below any entry that matters
_SIGN_FLOOR = 1e-3


class FactorizationError(ArithmeticError):
    """Matrix stayed non-positive-definite through the whole jitter ladder."""


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
    The eigenvalues are 1-D, one per eigenvector column, each finite and
    non-negative; a spectrum has at least one mode and one port."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lams, vecs = self.eigenvalues, self.eigenvectors
        if lams.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != lams.size or 0 in vecs.shape:
            raise DomainError(
                "an EigenSpectrum needs 1-D eigenvalues and one eigenvector column per"
                f" eigenvalue, at least one of each, got shapes {lams.shape} and {vecs.shape}"
            )
        for lam in lams.tolist():
            real(lam, "eigenvalue", 0.0)

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
    """An N x r map L with L L^T = R + jitter I, up to roundoff.

    jitter is the diagonal shift that made the factorization succeed;
    zero for cleanly positive-definite input. lower is a finite 2-D
    array with at least one row and one column, and jitter a finite
    number >= 0."""

    lower: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        lower = self.lower
        if np.ndim(lower) != 2 or 0 in np.shape(lower) or not np.isfinite(lower).all():
            raise DomainError(
                "a CholeskyFactor's lower must be a finite 2-D array with at least one row"
                f" and one column, got shape {np.shape(lower)}"
            )
        real(self.jitter, "jitter", 0.0)


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
    """Full symmetric eigendecomposition with a reproducible layout.

    One LAPACK call (numpy.linalg.eigh). The input must be positive
    semi-definite, as every correlation matrix is. Its entries carry
    kernel-evaluation error (the series J0 is off by up to 3.4e-13 on
    the Jakes N = 20, W = 3 grid, whose float matrix a 40-digit mpmath
    eigsy finds indefinite at -1.0e-13), so the guard allows what the
    Cholesky sampler allows: an eigenvalue below -JITTER_LADDER[-1]
    (or below the solver's roundoff floor n eps max|lambda|, if that is
    larger) raises DomainError. The rest are reported as |lambda|, the
    matrix's singular values. Those keep the solver's Weyl bound of
    n eps max|lambda| and sit no farther from the eigenvalues of any
    PSD matrix than lambda does. Tail eigenvalues below that floor are
    roundoff magnitudes, not the true values: for the Gaussian kernel
    at N = 50, W = 3, a 120-digit mpmath eigsy puts the smallest
    eigenvalue at 7.1e-24, where eigh returns -6.3e-16.

    Eigenvalues are sorted descending; ties keep the smaller pre-sort
    index first. Each eigenvector's sign is fixed so that its first
    entry of magnitude at least _SIGN_FLOOR times its largest is
    positive. A symmetric Toeplitz matrix is centrosymmetric, so each
    eigenvector is symmetric or antisymmetric and its largest entry ties
    with its mirror image; a rule keyed on the largest entry lets
    roundoff, which follows the BLAS thread count, pick the sign.
    """
    m = symmetric(R, "eigendecompose R")
    n = m.shape[0]
    vals, vecs = np.linalg.eigh(m)
    roundoff = n * np.finfo(float).eps * float(np.abs(vals).max(initial=0.0))
    tol = max(JITTER_LADDER[-1], roundoff)
    if n and vals[0] < -tol:
        raise DomainError(
            f"matrix is not positive semi-definite: eigenvalue {vals[0]:.3e} below -{tol:.3e}"
        )
    vals = np.abs(vals)

    order = np.lexsort((np.arange(n), -vals))  # descending, stable in index
    vals = vals[order]
    vecs = vecs[:, order]
    mags = np.abs(vecs)
    lead = np.argmax(mags >= _SIGN_FLOOR * mags.max(axis=0), axis=0)
    vecs *= np.where(vecs[lead, np.arange(n)] < 0, -1.0, 1.0)
    return EigenSpectrum(eigenvalues=vals, eigenvectors=vecs)


def _column(col: np.ndarray, rows: np.ndarray, pivot_row: np.ndarray, root: float) -> np.ndarray:
    """One left-looking Cholesky column: (col - rows . pivot_row) / root.

    rows holds the factor's earlier columns at the rows being computed,
    pivot_row the same columns at the pivot. The dot products are an
    elementwise product and a NumPy sum along each row, not a BLAS call.
    """
    return (col - (rows * pivot_row).sum(axis=1)) / root


def cholesky(R: np.ndarray) -> CholeskyFactor:
    """Lower-triangular factor of R, with an escalating diagonal jitter.

    Correlation matrices from the Bessel kernel go numerically
    rank-deficient at large N; each failed attempt retries with the next
    shift from JITTER_LADDER. The applied shift is reported so callers
    can surface it in metadata. Each attempt is a left-looking loop over
    the columns (_column), so the factor is the same at every BLAS
    thread count; an attempt fails at the first pivot that is not
    positive.
    """
    m = symmetric(R, "cholesky R")
    n = m.shape[0]
    for jit in JITTER_LADDER:
        lower = np.zeros((n, n))
        for j in range(n):
            s = m[j, j] + jit - np.square(lower[j, :j]).sum()
            if not s > 0.0:
                break
            lower[j, j] = root = math.sqrt(s)
            lower[j + 1 :, j] = _column(m[j + 1 :, j], lower[j + 1 :, :j], lower[j, :j], root)
        else:
            return CholeskyFactor(lower=lower, jitter=jit)
    raise FactorizationError(
        f"matrix not positive definite even with diagonal jitter {JITTER_LADDER[-1]:g}"
    )


def pivoted_cholesky(R: np.ndarray) -> CholeskyFactor:
    """Low-rank factor F (N x r) with F F^T = R up to about JITTER_LADDER[1].

    Diagonal-pivoted Cholesky (Harbrecht, Peters & Schneider, Appl.
    Numer. Math. 62, 2012): each step takes the port with the largest
    residual diagonal as the pivot and adds its column (_column), until
    no residual diagonal exceeds JITTER_LADDER[1] = 1e-12, no more than
    the shift cholesky's ladder adds to a rank-deficient matrix. The
    rank r is the number of steps; a smooth field over a short aperture
    needs far fewer than N (17 of 200 ports for the Gaussian kernel at
    W = 1). F is lower-trapezoidal only in pivot order: row p_k of the
    k-th pivot is zero past column k. No jitter is added, so jitter is
    0.0.

    A residual diagonal below -JITTER_LADDER[-1], the tolerance
    eigendecompose allows, means R is indefinite beyond kernel roundoff
    and raises DomainError. Smaller negative residuals are roundoff (the
    float Jakes matrix at N = 20, W = 3 is indefinite at -1.0e-13) and
    are left out of F with the rest. A matrix with no diagonal entry
    above the stop has no field to sample and raises DomainError too.
    """
    m = symmetric(R, "pivoted_cholesky R")
    n = m.shape[0]
    lower = np.zeros((n, n))
    resid = m.diagonal().copy()
    rest = np.arange(n)  # ports not yet pivoted on
    rank = 0
    while rest.size:
        at = int(np.argmax(resid[rest]))
        p = rest[at]
        if resid[p] <= JITTER_LADDER[1]:
            break
        rest = np.delete(rest, at)
        lower[p, rank] = root = math.sqrt(resid[p])
        col = _column(m[rest, p], lower[rest, :rank], lower[p, :rank], root)
        lower[rest, rank] = col
        resid[rest] -= np.square(col)
        rank += 1
    if rest.size and resid[rest].min() < -JITTER_LADDER[-1]:
        raise DomainError(
            f"matrix is not positive semi-definite: residual diagonal"
            f" {resid[rest].min():.3e} below -{JITTER_LADDER[-1]:.3e}"
        )
    if rank == 0:
        raise DomainError(
            f"matrix has no diagonal entry above {JITTER_LADDER[1]:g}, so no field to sample"
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

