"""Continuous-aperture extreme-value formulas.

With the port grid dense enough, the best-port gain becomes the
supremum of a smooth chi-square field over [0, W], and its exceedance
admits closed asymptotics driven by a single kernel number, the second
spectral moment lambda2 = 2 pi^2 that both kernels share. The aperture
outage is the complement of the Euler-characteristic expansion
(pointwise term plus a boundary-crossing term), and the crossing term
comes with a Rice level-crossing rate. Both are asymptotic: outside
their validity region the raw outage leaves [0, 1] and is clamped,
with the raw number and a flag preserved.

Two further printed results need no code here. The Piterbarg/Pickands
deep-tail exceedance sqrt(pi) W sqrt(u) e^{-u} is written out in
acceptance criterion 13, which tests it against Monte Carlo. The
effective sample count N_eff = 1 + pi sqrt(2) W x only restates the
outage formula as P_out = 1 - e^{-x} N_eff.

Known tension, kept as printed: the crossing term in the exceedance
expansion carries W*sqrt(lambda2)*u*e^{-u} = pi*sqrt(2)*W*u*e^{-u},
which is sqrt(pi u) times the classical Rice count
W*sqrt(2 pi u)*e^{-u} of a chi-square(2) field with lambda2 = 2 pi^2.
The Rice rate here carries sqrt(lambda2/(2 pi))*u*e^{-u} =
sqrt(pi)*u*e^{-u}, which equals the classical sqrt(2 pi u)*e^{-u} only
at u = 2. The Monte Carlo crossing counter
(montecarlo.count_upcrossings) lands on both there, so the acceptance
run's criterion 11, which measures at u = 2, cannot tell them apart;
it does rule out the printed sqrt(lambda2)*u prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernels import LAMBDA2
from .specialfn import DomainError

__all__ = ["ContinuumResult", "outage_continuous", "rice_upcrossing_rate"]


@dataclass(frozen=True)
class ContinuumResult:
    value: float
    raw: float
    clamped: bool


def outage_continuous(x: float, W: float) -> ContinuumResult:
    """Closed-form aperture outage 1 - e^{-x}(1 + pi sqrt(2) W x).

    The complement of the Euler-characteristic exceedance
    e^{-x} (1 + W sqrt(lambda2) x): the pointwise term covers the field
    already above x at the left edge, the length term counts mean
    upcrossings of the interval. Independent of the port count and
    identical for both kernels (they share lambda2 = 2 pi^2). Valid for
    moderate-to-large x; small x drives the exceedance past 1, and the
    outage clamps to 0. W = 0 is the single-port limit 1 - e^{-x}.
    """
    x = float(x)
    W = float(W)
    if not (x > 0) or W < 0:
        raise DomainError("need x > 0 and W >= 0")
    exceedance = math.exp(-x) * (1.0 + W * math.sqrt(LAMBDA2) * x)
    raw = 1.0 - exceedance
    value = min(1.0, max(0.0, raw))
    return ContinuumResult(value=value, raw=raw, clamped=(value != raw))


def rice_upcrossing_rate(u: float) -> float:
    """Rate sqrt(lambda2/(2 pi)) u e^{-u} of level-u upcrossings per unit length.

    Expected crossings over an aperture of W wavelengths is W times
    this. See the module docstring for the prefactor caveat.
    """
    u = float(u)
    if not (u > 0):
        raise DomainError(f"level u must be positive, got {u!r}")
    return math.sqrt(LAMBDA2 / (2.0 * math.pi)) * u * math.exp(-u)
