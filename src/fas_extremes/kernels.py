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

from .specialfn import DomainError, bessel_j0, erf

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
    JAKES = "jakes"
    GAUSSIAN = "gauss"

    @classmethod
    def parse(cls, name: str) -> "CorrelationModel":
        key = name.strip().lower()
        for m in cls:
            if key == m.value or key == m.name.lower():
                return m
        if key in ("gaussian",):
            return cls.GAUSSIAN
        raise DomainError(f"unknown correlation model {name!r}")


def correlation(model: CorrelationModel, delta: float) -> float:
    """Spatial correlation at separation delta (in wavelengths)."""
    delta = float(delta)
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta!r}")
    if model is CorrelationModel.JAKES:
        return bessel_j0(2.0 * math.pi * abs(delta))
    return math.exp(-(math.pi ** 2) * delta * delta)


def approx_error(delta: float) -> tuple[float, float]:
    """Pointwise kernel gap and its quartic bound.

    Returns (actual, bound) with actual = |rho_J - rho_G| and
    bound = pi^4 delta^4 / 4. The bound is only guaranteed to dominate
    for delta <= 0.30; beyond that callers get the raw numbers.
    """
    delta = float(delta)
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    actual = abs(
        correlation(CorrelationModel.JAKES, delta)
        - correlation(CorrelationModel.GAUSSIAN, delta)
    )
    bound = (math.pi ** 4) * delta ** 4 / 4.0
    return actual, bound


def psd(model: CorrelationModel, f: float) -> float:
    """Power spectral density of the correlation kernel.

    Bessel kernel: 1/(pi sqrt(1-f^2)) on |f| < 1, zero outside, with an
    inverse-square-root singularity exactly at |f| = 1 (raises).
    Squared-exponential kernel: exp(-f^2)/sqrt(pi). The 1/sqrt(pi)
    normalization is forced by int S df = rho(0) = 1.
    """
    f = float(f)
    if not math.isfinite(f):
        raise DomainError(f"f must be finite, got {f!r}")
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
    return 1.0 - erf(1.0)

