"""Spatial correlation kernels and their spectral descriptions.

Two isotropic models are supported: the Bessel kernel J0(2*pi*delta)
arising from uniform ring scattering, and the squared-exponential kernel
exp(-pi^2 delta^2) that matches it to second order at the origin. Both
share the second spectral moment 2*pi^2, which is the only kernel
parameter the continuum asymptotics need.
"""

from __future__ import annotations

import enum
import math

from .specialfn import DomainError, bessel_j0, real

__all__ = [
    "CorrelationModel",
    "correlation",
    "approx_error",
    "psd",
    "spectral_leakage",
    "SingularityError",
]

LAMBDA2 = 2.0 * math.pi ** 2


class SingularityError(ArithmeticError):
    """Evaluation requested exactly on a non-integrable singularity."""


class CorrelationModel(enum.Enum):
    """A kernel by its CLI name; CorrelationModel(v) raises DomainError for any other v."""

    JAKES = "jakes"
    GAUSSIAN = "gauss"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown correlation model {value!r}, expected 'jakes' or 'gauss'")


def correlation(model: CorrelationModel | str, delta: float) -> float:
    """Spatial correlation at separation delta (in wavelengths)."""
    model = CorrelationModel(model)
    delta = real(delta, "delta")
    if model is CorrelationModel.JAKES:
        return bessel_j0(2.0 * math.pi * abs(delta))
    return math.exp(-(math.pi ** 2) * delta * delta)


def approx_error(delta: float) -> tuple[float, float]:
    """Pointwise kernel gap and its quartic bound.

    Returns (actual, bound) with actual = |rho_J - rho_G| and
    bound = pi^4 delta^4 / 4. The bound is only guaranteed to dominate
    for delta <= 0.30; beyond that callers get the raw numbers.
    """
    delta = real(delta, "delta", 0.0)
    actual = abs(
        correlation(CorrelationModel.JAKES, delta)
        - correlation(CorrelationModel.GAUSSIAN, delta)
    )
    bound = (math.pi ** 4) * delta ** 4 / 4.0
    return actual, bound


def psd(model: CorrelationModel | str, f: float) -> float:
    """Power spectral density of the correlation kernel.

    Bessel kernel: 1/(pi sqrt(1-f^2)) on |f| < 1, zero outside, with an
    inverse-square-root singularity exactly at |f| = 1 (raises).
    Squared-exponential kernel: exp(-f^2)/sqrt(pi). The 1/sqrt(pi)
    normalization is forced by int S df = rho(0) = 1.
    """
    model = CorrelationModel(model)
    f = real(f, "f")
    if model is CorrelationModel.JAKES:
        af = abs(f)
        if af > 1.0:
            return 0.0
        if af == 1.0:
            raise SingularityError("Jakes PSD diverges at |f| = 1")
        return 1.0 / (math.pi * math.sqrt(1.0 - f * f))
    return math.exp(-f * f) / math.sqrt(math.pi)


def spectral_leakage() -> float:
    """Fraction of squared-exponential PSD mass outside |f| > 1.

    Closed form 1 - erf(1) ~ 0.1573. The Bessel kernel has compact
    spectral support, so its leakage is identically zero; this quantity
    measures what the smooth approximation adds beyond it.
    """
    return 1.0 - math.erf(1.0)

