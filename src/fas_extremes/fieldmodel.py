"""Discrete aperture model: port grid, correlation matrix, eigenstructure.

The antenna aperture [0, W] is sampled at N equally spaced ports. The
port-gain covariance is a symmetric Toeplitz matrix built from one of
the kernels module's correlation functions. Eigendecomposition is one
LAPACK call (numpy.linalg.eigh) with a fixed ordering and sign
convention. Its input must be positive semi-definite up to the
Cholesky ladder's largest shift. Eigenvalues are reported as
magnitudes, so tail values below the roundoff floor n eps lambda_max
are roundoff, not the true (smaller, positive) eigenvalues. Sampling
factorizations go through Cholesky with an escalating diagonal jitter.
"""

from __future__ import annotations

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
    "kl_truncate",
]

JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


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
    lower: np.ndarray
    jitter: float = 0.0
    # jitter is the diagonal shift that made the factorization succeed;
    # zero for cleanly positive-definite input


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
    index first. Each eigenvector's sign is fixed so its largest-
    magnitude entry is positive (earliest such entry wins on ties).
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
    peak = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[peak, np.arange(n)] < 0, -1.0, 1.0)
    return EigenSpectrum(eigenvalues=vals, eigenvectors=vecs)


def cholesky(R: np.ndarray) -> CholeskyFactor:
    """Lower-triangular factor of R, with an escalating diagonal jitter.

    Correlation matrices from the Bessel kernel go numerically
    rank-deficient at large N; each failed attempt retries with the next
    shift from JITTER_LADDER. The applied shift is reported so callers
    can surface it in metadata.
    """
    m = symmetric(R, "cholesky R")
    n = m.shape[0]
    eye = np.eye(n)
    for jit in JITTER_LADDER:
        try:
            lower = np.linalg.cholesky(m + jit * eye if jit else m)
            return CholeskyFactor(lower=lower, jitter=jit)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        f"matrix not positive definite even with diagonal jitter {JITTER_LADDER[-1]:g}"
    )


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

