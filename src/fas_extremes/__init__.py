"""Outage analysis for fluid antenna systems over correlated Rayleigh fading.

The package models an antenna aperture of W wavelengths whose port
gains form a correlated complex-Gaussian field, and computes the outage
probability of best-port selection by three analytical routes plus a
seeded Monte Carlo oracle:

  kernels      correlation kernels (Bessel and squared-exponential),
               spectra, the shared second spectral moment
  fieldmodel   correlation matrices on the port grid and their one
               pivoted-Cholesky factor, which the sampler draws through
               and the eigenmodes come from
  kl_outage    eigenmode truncations: closed-form rank 1 and
               disk-intersection rank 2 (higher ranks go through the
               truncated Monte Carlo sampler)
  dof          participation ratio and the printed mode counts
  bounds       equi-correlated comparisons (two-sided sandwich and
               block-refined products; Slepian's ordering, proven only
               in special cases for complex fields)
  continuum    dense-aperture outage asymptotics and the crossing rate
  montecarlo   seeded simulation oracle, its trials split into
               independent Philox streams run in order
  specialfn    Bessel J0, Marcum Q1, and NumPy's Gauss-Hermite and
               Gauss-Laguerre rules
  cli          the fas-extremes experiment driver
"""

__version__ = "0.1.0"

from .kernels import CorrelationModel  # noqa: F401
