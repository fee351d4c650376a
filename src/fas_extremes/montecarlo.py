"""Seeded Monte Carlo oracle for the correlated-aperture outage model.

Port gains are drawn as g = L z with L the (jittered) Cholesky factor of
the correlation matrix and z a standard complex normal vector; real and
imaginary parts are N(0, 1/2) each so every |g_n|^2 is exactly unit-mean
exponential. Streams are keyed by (seed, worker) through the Philox
counter-based generator: worker w owns a fixed divmod slice of the
trial budget and draws from Philox(seed).jumped(w), so any (seed,
workers, trials) triple reproduces bit-for-bit. Workers run serially
in-process; the knob exists for stream partitioning and metadata, not
OS threads, which keeps the reduction order deterministic at no
accuracy cost.

One private generator (_gain_chunks) yields every chunk of squared port
gains, rows are trials, in worker order. It allocates one set of latent
and port buffers, sized for the largest worker slice, and refills it in
place for every worker, so only the yielded block is a fresh array per
chunk. Each public estimator is a plain loop over those chunks: hit
counts for outage, and exact integer sums of the per-trial count and
its square for the upcrossings.

A threshold sweep reuses one set of draws. simulate_outage and
simulate_outage_truncated accept a sequence of thresholds and count
hits at every one of them from the same chunks, so the estimate at
thresholds[i] is the very integer count, p and std_err that a scalar
call at thresholds[i] with the same McConfig returns; a sweep costs one
pass over the field instead of one per point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fieldmodel import (
    ApertureConfig,
    CholeskyFactor,
    KlSpec,
    cholesky,
    correlation_matrix,
)
from .specialfn import DomainError

__all__ = [
    "McConfig",
    "OutageEstimate",
    "simulate_outage",
    "simulate_outage_truncated",
    "count_upcrossings",
    "truncated_gain_matrix",
]

_CHUNK_BUDGET = 4_000_000  # floats per chunk row-block, keeps peak memory modest


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        if int(self.trials) != self.trials or self.trials < 1:
            raise DomainError(f"trials must be a positive integer, got {self.trials!r}")
        if int(self.workers) != self.workers or self.workers < 1:
            raise DomainError(f"workers must be a positive integer, got {self.workers!r}")
        if int(self.seed) != self.seed or not (0 <= self.seed < 2 ** 64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "workers", int(self.workers))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage: hits of trials, p = hits / trials, binomial std_err."""

    p: float
    trials: int
    hits: int
    std_err: float


def _gain_chunks(mat: np.ndarray, cfg: McConfig):
    """Yield every chunk of squared port gains, rows are trials.

    mat maps the latent standard-normal coordinates to port amplitudes
    (Cholesky factor for the full model, U_K sqrt(L_K) for truncated).
    Two real matmuls beat one complex one and keep the arithmetic
    bit-stable across platforms with the same BLAS. One set of latent
    and port buffers serves every worker and is refilled in place; each
    yielded block is a fresh array the caller may keep.
    """
    nports, ncols = mat.shape
    base, extra = divmod(cfg.trials, cfg.workers)
    rows = max(1024, min(262_144, _CHUNK_BUDGET // max(1, ncols, nports)))
    step = min(rows, base + (extra > 0))  # no more than the largest slice
    z = np.empty((step, ncols))
    gr = np.empty((step, nports))
    gi = np.empty((step, nports))
    root_half = math.sqrt(0.5)
    for w in range(min(cfg.workers, cfg.trials)):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(w))
        n_w = base + (w < extra)
        for done in range(0, n_w, step):
            m = min(step, n_w - done)
            for g in (gr[:m], gi[:m]):  # real part first, then imaginary
                rng.standard_normal(out=z[:m])
                z[:m] *= root_half
                np.matmul(z[:m], mat.T, out=g)
                np.square(g, out=g)
            yield gr[:m] + gi[:m]


def _thresholds(x: float | Sequence[float]) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError(f"threshold x must be a number or a non-empty 1-D sequence, got {x!r}")
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise DomainError(f"threshold x must be positive and finite, got {x!r}")
    return xs


def _outage(
    mat: np.ndarray, x: float | Sequence[float], cfg: McConfig
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    xs = _thresholds(x)
    hits = np.zeros(xs.size, dtype=np.int64)
    for gains in _gain_chunks(mat, cfg):
        hits += np.count_nonzero(gains.max(axis=1)[:, None] < xs, axis=0)
    estimates = []
    for h in map(int, hits):
        p = h / cfg.trials
        estimates.append(
            OutageEstimate(
                p=p, trials=cfg.trials, hits=h, std_err=math.sqrt(p * (1.0 - p) / cfg.trials)
            )
        )
    return estimates[0] if np.ndim(x) == 0 else tuple(estimates)


def simulate_outage(
    R: CholeskyFactor | np.ndarray,
    x: float | Sequence[float],
    cfg: McConfig,
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Fraction of trials where every port gain stays below x.

    A number x gives one OutageEstimate; a sequence gives a tuple of
    estimates in the same order, all counted from one set of draws.
    """
    factor = R if isinstance(R, CholeskyFactor) else cholesky(R)
    return _outage(factor.lower, x, cfg)


def truncated_gain_matrix(kl: KlSpec) -> np.ndarray:
    """Real N x K map U_K sqrt(L_K) from mode coordinates to port amplitudes."""
    return kl.eigenvectors * np.sqrt(np.maximum(kl.eigenvalues, 0.0))


def simulate_outage_truncated(
    kl: KlSpec, x: float | Sequence[float], cfg: McConfig
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Outage of the rank-K truncated field, exact re-parameterization at K = N.

    x is a number or a sequence of thresholds, as in simulate_outage.
    """
    return _outage(truncated_gain_matrix(kl), x, cfg)


def count_upcrossings(
    config: ApertureConfig, u: float, cfg: McConfig
) -> tuple[float, float]:
    """Mean count of grid upcrossings of level u by the squared field.

    An upcrossing is chi[n] < u <= chi[n+1] on the discrete port grid;
    no sub-grid interpolation is attempted, so the count is biased low
    by O(1/N). Use N >= 100 W to keep that under a few percent.
    """
    u = float(u)
    if not (u > 0):
        raise DomainError(f"level u must be positive, got {u!r}")
    if config.N < 2:
        raise DomainError("upcrossing counting needs at least two ports")
    s1 = s2 = 0  # sum(c) and sum(c*c) over trials, as Python ints
    for gains in _gain_chunks(cholesky(correlation_matrix(config)).lower, cfg):
        cross = ((gains[:, :-1] < u) & (gains[:, 1:] >= u)).sum(axis=1)
        s1 += int(cross.sum())
        s2 += int((cross * cross).sum())
    n = cfg.trials
    return s1 / n, math.sqrt((n * s2 - s1 * s1) / n**2 / n)
