"""Seeded Monte Carlo oracle for the correlated-aperture outage model.

Port gains are drawn as g = L z with L the (jittered) Cholesky factor of
the correlation matrix and z a standard complex normal vector; real and
imaginary parts are N(0, 1/2) each so every |g_n|^2 is exactly unit-mean
exponential. Streams are keyed by (seed, worker) through the Philox
counter-based generator: worker w owns a fixed slice of the trial
budget and draws from Philox(seed).jumped(w), so any (seed, workers,
trials) triple reproduces bit-for-bit. Workers run serially in-process;
the knob exists for stream partitioning and metadata, not OS threads,
which keeps the reduction order deterministic at no accuracy cost.
Each worker allocates its latent and port chunk buffers once and
refills them in place, so only the yielded block of squared gains is
a fresh array per chunk.

One private driver (_sample) owns that loop. It takes the
latent-to-port matrix, the McConfig and a per-chunk reducer, and feeds
the reducer every chunk of squared port gains in worker order. Each
public estimator is a reducer over it: hit counts for outage, a
mean/M2 merge (Chan et al.) for the ergodic rate and the upcrossing
count.

A threshold sweep reuses one set of draws. simulate_outage and
simulate_outage_truncated accept a sequence of thresholds and count
hits at every one of them from the same chunks, so the estimate at
thresholds[i] is the very integer count, p and std_err that a scalar
call at thresholds[i] with the same McConfig returns; a sweep costs one
pass over the field instead of one per point.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .fieldmodel import (
    ApertureConfig,
    CholeskyFactor,
    CorrMatrix,
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
    "simulate_ergodic_rate",
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
    jitter: float | None = None


def _worker_slices(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _worker_rng(cfg: McConfig, worker: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed).jumped(worker))


def _chunk_rows(ncols: int) -> int:
    return max(1024, min(262_144, _CHUNK_BUDGET // max(1, ncols)))


def _gain_chunks(mat: np.ndarray, n_rows: int, rng: np.random.Generator):
    """Yield blocks of squared port gains, rows are trials.

    mat maps the latent standard-normal coordinates to port amplitudes
    (Cholesky factor for the full model, U_K sqrt(L_K) for truncated).
    Two real matmuls beat one complex one and keep the arithmetic
    bit-stable across platforms with the same BLAS. The latent and port
    buffers are allocated once per worker and refilled in place; each
    yielded block is a fresh array the caller may keep.
    """
    nports, ncols = mat.shape
    step = min(_chunk_rows(max(ncols, nports)), n_rows)
    z = np.empty((step, ncols))
    gr = np.empty((step, nports))
    gi = np.empty((step, nports))
    root_half = math.sqrt(0.5)
    done = 0
    while done < n_rows:
        m = min(step, n_rows - done)
        for g in (gr[:m], gi[:m]):  # real part first, then imaginary
            rng.standard_normal(out=z[:m])
            z[:m] *= root_half
            np.matmul(z[:m], mat.T, out=g)
            np.square(g, out=g)
        yield gr[:m] + gi[:m]
        done += m


def _sample(mat: np.ndarray, cfg: McConfig, reduce: Callable[[np.ndarray], None]) -> None:
    """Feed every chunk of squared port gains to reduce, in worker order."""
    for w, n_w in enumerate(_worker_slices(cfg.trials, cfg.workers)):
        if n_w == 0:
            continue
        rng = _worker_rng(cfg, w)
        for gains in _gain_chunks(mat, n_w, rng):
            reduce(gains)


class _Moments:
    """Running count, mean and sum of squared deviations of merged chunks.

    Chunks merge by the pairwise update of Chan, Golub and LeVeque, so
    the variance never comes from the cancellation-prone E[r^2] - E[r]^2.
    """

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        n_b = values.size
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        n = self.n + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * self.n * n_b / n
        self.n = n

    def mean_and_std_err(self) -> tuple[float, float]:
        return self.mean, math.sqrt(self.m2 / self.n / self.n)


def _resolve_factor(R: CorrMatrix | CholeskyFactor | np.ndarray) -> CholeskyFactor:
    if isinstance(R, CholeskyFactor):
        return R
    return cholesky(R)


def _thresholds(x: float | Sequence[float]) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError(f"threshold x must be a number or a non-empty 1-D sequence, got {x!r}")
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise DomainError(f"threshold x must be positive and finite, got {x!r}")
    return xs


def _outage(
    mat: np.ndarray,
    x: float | Sequence[float],
    cfg: McConfig,
    jitter: float | None,
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    xs = _thresholds(x)
    hits = np.zeros(xs.size, dtype=np.int64)

    def reduce(gains: np.ndarray) -> None:
        peak = gains.max(axis=1)
        hits[:] += np.count_nonzero(peak[:, None] < xs, axis=0)

    _sample(mat, cfg, reduce)
    estimates = []
    for h in map(int, hits):
        p = h / cfg.trials
        estimates.append(
            OutageEstimate(
                p=p,
                trials=cfg.trials,
                hits=h,
                std_err=math.sqrt(p * (1.0 - p) / cfg.trials),
                jitter=jitter,
            )
        )
    return estimates[0] if np.ndim(x) == 0 else tuple(estimates)


def simulate_outage(
    R: CorrMatrix | CholeskyFactor | np.ndarray,
    x: float | Sequence[float],
    cfg: McConfig,
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Fraction of trials where every port gain stays below x.

    A number x gives one OutageEstimate; a sequence gives a tuple of
    estimates in the same order, all counted from one set of draws.
    """
    factor = _resolve_factor(R)
    return _outage(factor.lower, x, cfg, factor.jitter)


def truncated_gain_matrix(kl: KlSpec) -> np.ndarray:
    """Real N x K map U_K sqrt(L_K) from mode coordinates to port amplitudes."""
    return kl.eigenvectors * np.sqrt(np.maximum(kl.eigenvalues, 0.0))


def simulate_outage_truncated(
    kl: KlSpec, x: float | Sequence[float], cfg: McConfig
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Outage of the rank-K truncated field, exact re-parameterization at K = N.

    x is a number or a sequence of thresholds, as in simulate_outage.
    """
    return _outage(truncated_gain_matrix(kl), x, cfg, None)


def simulate_ergodic_rate(
    R: CorrMatrix | CholeskyFactor | np.ndarray, avg_snr: float, cfg: McConfig
) -> tuple[float, float]:
    """Sample mean and standard error of log2(1 + snr * max_n |g_n|^2)."""
    avg_snr = float(avg_snr)
    if not (avg_snr > 0) or not math.isfinite(avg_snr):
        raise DomainError(f"avg_snr must be positive and finite, got {avg_snr!r}")
    factor = _resolve_factor(R)
    moments = _Moments()
    _sample(
        factor.lower, cfg, lambda gains: moments.add(np.log2(1.0 + avg_snr * gains.max(axis=1)))
    )
    return moments.mean_and_std_err()


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
    factor = cholesky(correlation_matrix(config))
    moments = _Moments()

    def reduce(gains: np.ndarray) -> None:
        cross = ((gains[:, :-1] < u) & (gains[:, 1:] >= u)).sum(axis=1)
        moments.add(cross.astype(float))

    _sample(factor.lower, cfg, reduce)
    return moments.mean_and_std_err()
