"""Seeded Monte Carlo oracle for the correlated-aperture outage model.

Port gains are drawn as g = L z, with L an N x r factor of the
correlation matrix (L L^T = R, up to a shift of at most 1e-8) and z a
standard complex normal vector of r entries; real and imaginary parts
are N(0, 1/2) each so every |g_n|^2 is exactly unit-mean exponential.
simulate_outage factors a bare matrix with the full, jittered Cholesky
factor (r = N), which the oracle fixture pins; a caller may pass any
CholeskyFactor instead, such as fieldmodel.pivoted_cholesky's low-rank
one, whose r is the matrix's numerical rank and which the CLI samples
through. Streams are keyed by (seed, worker) through the Philox
counter-based generator: worker w owns a fixed divmod slice of the
trial budget and draws from Philox(seed).jumped(w), so any (seed,
workers, trials) triple reproduces bit-for-bit. The knob partitions the
stream; it does not set a thread count.

One private generator (_gain_chunks) yields every chunk of squared port
gains, rows are trials, in worker order. Each chunk is a real-part
latent block, then an imaginary-part block, each drawn from its worker's
stream and mapped to the ports by one matmul. While the calling thread
maps block k, a one-thread concurrent.futures pool draws block k + 1
into the other of two latent buffers, when a block's product is large
enough to be worth the handoff (_OVERLAP_MIN); smaller ones are drawn on
the calling thread. The pool's draw is awaited, and a failed draw
re-raised, before every yield, so the pool is idle while the caller
holds a chunk. Each block is drawn from the same stream position, into
the same shape, and mapped by the same matmul call as in a serial loop,
so the results cannot depend on the overlap, and every reduction runs in
worker order on the calling thread. The latent buffers and both gain
blocks are views of one scratch slab (specialfn.borrow), reused from
call to call, so no chunk costs a fresh array; a yielded chunk is valid
only until the next one is requested. Each public estimator is a plain
loop over those chunks: hit counts for outage, and exact integer sums of
the per-trial count and its square for the upcrossings.

A threshold sweep reuses one set of draws. simulate_outage and
simulate_outage_truncated accept a sequence of thresholds and count
hits at every one of them from the same chunks, so the estimate at
thresholds[i] is the very integer count, p and std_err that a scalar
call at thresholds[i] with the same McConfig returns; a sweep costs one
pass over the field instead of one per point.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fieldmodel import (
    ApertureConfig,
    CholeskyFactor,
    EigenSpectrum,
    cholesky,
    correlation_matrix,
)
from .specialfn import DomainError, borrow, give_back, positive, whole

__all__ = [
    "McConfig",
    "OutageEstimate",
    "simulate_outage",
    "simulate_outage_truncated",
    "count_upcrossings",
    "truncated_gain_matrix",
]

# Floats per chunk row-block (past about 3900 ports the 1024-row floor
# exceeds it), which keeps peak memory modest. It also bounds the scratch
# slab the process keeps after a call: four such blocks at most (two
# latent, two gain), so 128 MB; 32 MB for N = 200 with 5000-trial slices.
_CHUNK_BUDGET = 4_000_000
# Multiply-adds in one block's product (rows x latent x ports) below which
# the draws stay on the calling thread: the overlap can save at most the
# product's time (about 2 ms on a 2-vCPU Xeon at one BLAS thread), while
# each handoff wakes the pool's thread, which on a loaded shared host can
# take about as long and varies from run to run.
_OVERLAP_MIN = 2 ** 25


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "trials", whole(self.trials, "trials"))
        object.__setattr__(self, "workers", whole(self.workers, "workers"))
        object.__setattr__(self, "seed", whole(self.seed, "seed", 0, 2**64 - 1))


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo outage: hits of trials, p = hits / trials, binomial std_err."""

    p: float
    trials: int
    hits: int
    std_err: float


def _fill(rng: np.random.Generator, z: np.ndarray) -> None:
    """Draw z in place as independent N(0, 1/2) normals."""
    rng.standard_normal(out=z)
    z *= math.sqrt(0.5)


def _gain_chunks(mat: np.ndarray, cfg: McConfig):
    """Yield every chunk of squared port gains, rows are trials.

    mat maps the latent standard-normal coordinates to port amplitudes
    (a Cholesky factor, full or pivoted, for the full model, U_K sqrt(L_K)
    for truncated).
    Two real matmuls beat one complex one and keep the arithmetic
    bit-stable for one BLAS build and thread count. When a block's
    product has at least _OVERLAP_MIN multiply-adds, a one-thread
    ThreadPoolExecutor draws the next latent block into the second of
    two buffers while this thread maps the current one; otherwise there
    is one latent buffer, and this thread draws the next block into it
    once the current one is mapped. Each draw's future is read before
    the next yield, which re-raises a failed draw here and leaves the
    pool idle while the caller holds a chunk; the pool is shut down,
    its thread joined, when the generator finishes or is closed.

    The buffers and both gain blocks are carved from one scratch slab,
    borrowed on the first request and given back when the generator
    finishes or is closed, after the pool is shut down. Each yielded
    chunk is a view of it: the caller may read it until it requests
    the next chunk, and must copy what it keeps longer.
    """
    nports, ncols = mat.shape
    base, extra = divmod(cfg.trials, cfg.workers)
    rows = max(1024, min(262_144, _CHUNK_BUDGET // max(1, ncols, nports)))
    step = min(rows, base + (extra > 0))  # no more than the largest slice

    def latent_blocks():
        # (stream, rows) per latent block in draw order, keyed lazily
        for w in range(min(cfg.workers, cfg.trials)):
            rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(w))
            n_w = base + (w < extra)
            for done in range(0, n_w, step):
                m = min(step, n_w - done)
                yield rng, m  # real part
                yield rng, m  # imaginary part

    overlap = step * ncols * nports >= _OVERLAP_MIN
    # latent buffers (a second one for the pool's draw ahead), then the
    # real- and imaginary-part gains; block k uses zs[k % len(zs)], gs[k % 2]
    nz, ng = step * ncols, step * nports
    nlatent = 2 * nz if overlap else nz
    # the latent side is sized as if it were full rank (ncols = nports), so
    # passes of different rank over one port count reuse one slab; the
    # latent rows a low-rank pass leaves alone cost no resident memory
    # unless an earlier pass touched them
    top = max(nlatent, ng)
    slab = borrow(top + 2 * ng)
    zs = [slab[i : i + nz].reshape(step, ncols) for i in range(0, nlatent, nz)]
    gs = [slab[i : i + ng].reshape(step, nports) for i in (top, top + ng)]
    if overlap:  # imported here: concurrent.futures loads logging, ~10 ms of start-up
        from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(max_workers=1) if overlap else None
    blocks = latent_blocks()
    try:
        rng, m = next(blocks)
        _fill(rng, zs[0][:m])
        for k in itertools.count():
            z, g = zs[k % len(zs)], gs[k % 2][:m]
            ahead = next(blocks, None)
            if ahead is not None and pool is not None:
                drawn = pool.submit(_fill, ahead[0], zs[(k + 1) % 2][: ahead[1]])
            np.matmul(z[:m], mat.T, out=g)
            np.square(g, out=g)
            if ahead is not None:
                if pool is None:
                    _fill(ahead[0], z[: ahead[1]])  # z is free once mapped
                else:
                    drawn.result()  # re-raises a failed draw here
            if k % 2:
                g += gs[0][:m]  # addition commutes, so the order of the parts is moot
                yield g
            if ahead is None:
                return
            _, m = ahead
    finally:
        if pool is not None:
            pool.shutdown()  # waits for a draw still in flight
        give_back(slab)  # after the shutdown: the pool may still be drawing into it


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
    A bare matrix R is sampled through its full cholesky factor; a
    CholeskyFactor, full or pivoted, is sampled as given.
    """
    factor = R if isinstance(R, CholeskyFactor) else cholesky(R)
    return _outage(factor.lower, x, cfg)


def truncated_gain_matrix(kl: EigenSpectrum) -> np.ndarray:
    """Real N x K map U_K sqrt(L_K) from mode coordinates to port amplitudes."""
    return kl.eigenvectors * np.sqrt(kl.eigenvalues)


def simulate_outage_truncated(
    kl: EigenSpectrum, x: float | Sequence[float], cfg: McConfig
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
    u = positive(u, "level u")
    if config.N < 2:
        raise DomainError("upcrossing counting needs at least two ports")
    s1 = s2 = 0  # sum(c) and sum(c*c) over trials, as Python ints
    for gains in _gain_chunks(cholesky(correlation_matrix(config)).lower, cfg):
        cross = ((gains[:, :-1] < u) & (gains[:, 1:] >= u)).sum(axis=1)
        s1 += int(cross.sum())
        s2 += int((cross * cross).sum())
    n = cfg.trials
    return s1 / n, math.sqrt((n * s2 - s1 * s1) / n**2 / n)
