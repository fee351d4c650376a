"""Effective degrees-of-freedom metrics for the correlated aperture.

Two views of "how many independent looks does the aperture give": the
participation ratio of the correlation matrix's eigenvalue spectrum,
and the printed closed-form mode counts K_eff.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import CorrelationModel
from .specialfn import DomainError, positive, symmetric

__all__ = ["participation_ratio", "keff_asymptotic"]


def participation_ratio(R: np.ndarray) -> float:
    """N^2 / tr(R^2) for a unit-diagonal correlation matrix.

    Equals (sum lambda)^2 / sum lambda^2, computed straight from the
    entries since tr(R^2) = sum of squared entries for symmetric R.
    Lies in [1, N]: 1 for full correlation, N for identity.
    """
    m = symmetric(R, "participation_ratio R")
    n = m.shape[0]
    if not np.allclose(np.diag(m), 1.0, atol=1e-9):
        raise DomainError("participation ratio expects a unit-diagonal matrix")
    return float(n * n / (m * m).sum())


def keff_asymptotic(model: CorrelationModel | str, W: float) -> float:
    """Printed effective mode count K_eff for an aperture of W wavelengths.

    Gaussian kernel: pi*sqrt(2)*W, the printed K_eff^G. It is not the
    large-W limit of participation_ratio, which is sqrt(2 pi)*W (the
    aperture length over the correlation length of rho_G^2). Bessel
    kernel: 2W + 1.
    """
    model = CorrelationModel(model)
    W = positive(W, "aperture W")
    if model is CorrelationModel.GAUSSIAN:
        return math.pi * math.sqrt(2.0) * W
    return 2.0 * W + 1.0

