"""Seeded Monte Carlo oracle for the correlated-aperture outage model.

Port gains are drawn as g = L z, with L an N x r factor of the
correlation matrix (L L^T = R, up to roundoff and a residual of about
1e-12) and z a standard complex normal vector of r entries; real and
imaginary parts are N(0, 1/2) each so every |g_n|^2 is unit-mean
exponential. simulate_outage factors a bare matrix with
fieldmodel.cholesky, whose r is the matrix's numerical rank, as the
CLI does; a caller may pass any CholeskyFactor instead. Streams are
keyed by (seed, worker) through the Philox counter-based generator:
worker w owns a fixed divmod slice of the trial budget and draws from
Philox(seed).jumped(w), so any (seed, workers, trials) triple
reproduces bit-for-bit. The knob partitions the stream; it does not
set a thread count.

One private loop (_sample) serves every estimator. Each worker draws
its slice in latent blocks, a real-part block and then an imaginary-part
one, and maps each block to the ports in row tiles of a few hundred
trials that stay in cache; a tile's matmul is a row slice of the whole
block's product, so the draws and gains are those the oracle fixture
pins. The estimator reduces each tile to integers (hits per threshold,
or the upcrossing count's sum and sum of squares), which are added into
one total. Workers run in order on the calling thread, and no thread
starts. Blocks and tiles are views of one scratch slab
(specialfn.borrow), sized from the block and port count, and reused
from call to call.

A threshold sweep reuses one set of draws. simulate_outage and
simulate_outage_truncated accept a sequence of thresholds (finite and
> 0, checked by specialfn.reals before any draw) and count hits at
every one of them from the same tiles, so the estimate at
thresholds[i] is the very integer count, p and std_err that a scalar
call at thresholds[i] with the same McConfig returns; a sweep costs one
pass over the field instead of one per point. A truncation ladder
reuses them too: simulate_outage_ladder draws each trial's leading k
mode coordinates once and maps them through every rank K = 1..k in
turn, in place of k passes that draw 1 + 2 + ... + k coordinates.
"""

from __future__ import annotations

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
from .specialfn import DomainError, borrow, give_back, positive, reals, whole

__all__ = [
    "McConfig",
    "OutageEstimate",
    "simulate_outage",
    "simulate_outage_truncated",
    "simulate_outage_ladder",
    "count_upcrossings",
    "truncated_gain_matrix",
]

# Floats per latent block. A block's rows (step) are the most it holds,
# within [1024, 262144] and no more than a worker's slice; they fix which
# normals become real and which imaginary parts, so changing this changes
# every draw. The scratch slab holds two blocks and two tiles.
_CHUNK_BUDGET = 4_000_000
# Floats per tile: a tile is the most multiples of 256 rows it holds, so at
# N = 200 a tile's products and row max stay in a 2 MB L2 cache, while a
# field of few ports is not cut into tiles whose numpy-call overhead shows.
_TILE_FLOATS = 65_536


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


def _sample(maps: Sequence[np.ndarray], cfg: McConfig, reduce, nout: int) -> list[list[int]]:
    """Sums over all trials of reduce(gains) under each map, nout Python ints per map.

    Each map takes the latent standard-normal coordinates to the same
    ports (a Cholesky factor for the full model, U_K sqrt(L_K) for
    truncated). The maps share one draw: map j reads the first
    maps[j].shape[1] latent columns of each trial, so the nested
    truncations K = 1..k of one spectrum are counted on common
    random numbers, and a map as wide as the widest sees exactly the
    draws a call with it alone would. reduce takes a tile of squared
    port gains, rows are trials, and returns nout integers; the tile is
    valid only during the call. Two real matmuls beat one complex one
    and keep the arithmetic bit-stable for one BLAS build. Tiles are cut
    at multiples of 256 rows, a block's last tile taking the short
    remainder: a small BLAS call could round its rows differently from
    the whole block's product. Each block is drawn once, and each of its
    tiles is mapped by every map in turn through the same two port-sized
    tile buffers, so the slab does not grow with the number of maps.

    Workers run in order on the calling thread: worker w draws its slice
    from Philox(seed).jumped(w), and every tile's integers are added to
    one int64 total.
    """
    nports = maps[0].shape[0]
    ncols = max(mat.shape[1] for mat in maps)
    base, extra = divmod(cfg.trials, cfg.workers)
    rows = max(1024, min(262_144, _CHUNK_BUDGET // max(1, ncols, nports)))
    step = min(rows, base + (extra > 0))  # no more than the largest slice
    cut = 256 * max(1, _TILE_FLOATS // (256 * nports))
    tall = min(step, 2 * cut - 1)  # the tallest tile: a cut and a remainder
    # two latent blocks sized as if the factor had full rank, so passes of
    # any rank over one port count share one slab (latent rows a low-rank
    # pass leaves alone cost no resident memory), then two tiles
    nz, ng = step * max(ncols, nports), tall * nports
    slab = borrow(2 * (nz + ng))
    zr, zi = (slab[i : i + step * ncols].reshape(step, ncols) for i in (0, nz))
    gr, gi = (slab[i : i + ng].reshape(tall, nports) for i in (2 * nz, 2 * nz + ng))
    total = np.zeros((len(maps), nout), dtype=np.int64)
    try:
        for w in range(min(cfg.workers, cfg.trials)):
            rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(w))
            n_w = base + (w < extra)
            for done in range(0, n_w, step):
                m = min(step, n_w - done)
                _fill(rng, zr[:m])
                _fill(rng, zi[:m])
                starts = range(0, max(cut, m - m % cut), cut)
                for t0, t1 in zip(starts, [*starts[1:], m]):
                    r, i = gr[: t1 - t0], gi[: t1 - t0]
                    for mat, sums in zip(maps, total):
                        c = mat.shape[1]
                        np.matmul(zr[t0:t1, :c], mat.T, out=r)
                        np.square(r, out=r)
                        np.matmul(zi[t0:t1, :c], mat.T, out=i)
                        np.square(i, out=i)
                        i += r  # addition commutes, so the order of the parts is moot
                        sums += reduce(i)
    finally:
        give_back(slab)
    return total.tolist()


def _outage(
    maps: Sequence[np.ndarray], x: float | Sequence[float], cfg: McConfig
) -> list[OutageEstimate | tuple[OutageEstimate, ...]]:
    """Per map, the estimate at x (a number) or a tuple of them (a sequence), from one draw."""
    xs = reals(x, "threshold x", 0.0)
    if not xs.all():
        raise DomainError(f"threshold x must be > 0, got {x!r}")

    def hits(gains):  # trials whose best port stays below each threshold
        return np.count_nonzero(gains.max(axis=1)[:, None] < xs, axis=0)

    n, out = cfg.trials, []
    for counts in _sample(maps, cfg, hits, xs.size):
        estimates = tuple(_estimate(h, n) for h in counts)
        out.append(estimates[0] if np.ndim(x) == 0 else estimates)
    return out


def _estimate(hits: int, n: int) -> OutageEstimate:
    p = hits / n
    return OutageEstimate(p=p, trials=n, hits=hits, std_err=math.sqrt(p * (1.0 - p) / n))


def simulate_outage(
    R: CholeskyFactor | np.ndarray,
    x: float | Sequence[float],
    cfg: McConfig,
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Fraction of trials where every port gain stays below x.

    A number x gives one OutageEstimate; a sequence gives a tuple of
    estimates in the same order, all counted from one set of draws.
    A bare matrix R is sampled through its pivoted cholesky factor, of
    R's numerical rank; a CholeskyFactor is sampled as given.
    """
    factor = R if isinstance(R, CholeskyFactor) else cholesky(R)
    return _outage([factor.lower], x, cfg)[0]


def truncated_gain_matrix(kl: EigenSpectrum) -> np.ndarray:
    """Real N x K map U_K sqrt(L_K) from mode coordinates to port amplitudes."""
    return kl.eigenvectors * np.sqrt(kl.eigenvalues)


def simulate_outage_truncated(
    kl: EigenSpectrum, x: float | Sequence[float], cfg: McConfig
) -> OutageEstimate | tuple[OutageEstimate, ...]:
    """Outage of the rank-K truncated field, exact re-parameterization at K = N.

    x is a number or a sequence of thresholds, as in simulate_outage.
    """
    return _outage([truncated_gain_matrix(kl)], x, cfg)[0]


def simulate_outage_ladder(
    kl: EigenSpectrum, x: float | Sequence[float], cfg: McConfig
) -> tuple[OutageEstimate | tuple[OutageEstimate, ...], ...]:
    """Outage of every truncation K = 1..kl.rank of kl, from one set of draws.

    Entry K - 1 is what simulate_outage_truncated(kl_truncate(kl, K), x,
    cfg) estimates, an estimate or a tuple of them as x is a number or a
    sequence. Every rank reads the leading K of the same kl.rank mode
    coordinates per trial (common random numbers), so neighbouring
    ranks' estimates are positively correlated, and the top one is
    bit-for-bit simulate_outage_truncated(kl, x, cfg).
    """
    mat = truncated_gain_matrix(kl)
    return tuple(_outage([mat[:, :k].copy() for k in range(1, kl.rank + 1)], x, cfg))


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

    def sums(gains):  # sum(c) and sum(c*c) over the tile's trials
        cross = ((gains[:, :-1] < u) & (gains[:, 1:] >= u)).sum(axis=1)
        return cross.sum(), (cross * cross).sum()

    ((s1, s2),) = _sample([cholesky(correlation_matrix(config)).lower], cfg, sums, 2)
    n = cfg.trials
    return s1 / n, math.sqrt((n * s2 - s1 * s1) / n**2 / n)
