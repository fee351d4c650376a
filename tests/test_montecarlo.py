"""Monte Carlo engine: correctness against closed forms, determinism,
threshold sweeps that equal scalar calls exactly, and regression against
committed oracle fixtures.

The committed CSV under tests/fixtures/ freezes four outage estimates
bit-for-bit. Any drift there means the sampler, RNG streaming, chunking,
or Cholesky path changed behavior, which invalidates every cross-check
in the suite, so these comparisons are exact rather than statistical.
"""

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from conftest import full_cholesky

from fas_extremes import cli, fieldmodel, montecarlo
from fas_extremes.fieldmodel import (
    ApertureConfig,
    CholeskyFactor,
    cholesky,
    correlation_matrix,
    eigendecompose,
    kl_truncate,
)
from fas_extremes.kernels import CorrelationModel
from fas_extremes.montecarlo import (
    McConfig,
    OutageEstimate,
    count_upcrossings,
    simulate_outage,
    simulate_outage_ladder,
    simulate_outage_truncated,
)
from fas_extremes.specialfn import DomainError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "mc_oracle.csv")


def _within(est, truth, k=3.0):
    return abs(est.p - truth) <= k * est.std_err


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(trials=0)
        with pytest.raises(DomainError):
            McConfig(trials=10, workers=0)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=-1)
        with pytest.raises(DomainError):
            McConfig(trials=10, seed=2**64)
        with pytest.raises(DomainError):
            McConfig(trials=10.5)
        # non-finite values raise DomainError, not int()'s OverflowError or ValueError
        for bad in ({"trials": math.inf}, {"trials": math.nan}, {"trials": 10, "seed": math.inf},
                    {"trials": 10, "seed": math.nan}, {"trials": 10, "workers": math.inf}):
            with pytest.raises(DomainError):
                McConfig(**bad)

    def test_coerces_to_int(self):
        cfg = McConfig(trials=float(100), seed=float(7), workers=float(2))
        assert cfg.trials == 100 and isinstance(cfg.trials, int)


class TestIdentityChecks:
    """With R = I the exact outage is (1 - e^-x)^N."""

    def test_single_port(self):
        est = simulate_outage(np.eye(1), 1.0, McConfig(trials=200_000, seed=42))
        assert _within(est, 1.0 - math.exp(-1.0))

    def test_four_ports(self):
        est = simulate_outage(np.eye(4), 1.0, McConfig(trials=200_000, seed=42))
        assert _within(est, (1.0 - math.exp(-1.0)) ** 4)


class TestFactorCheck:
    """A CholeskyFactor is checked when it is made, before anything is drawn."""

    @pytest.mark.parametrize(
        "lower", [np.full((3, 3), np.nan), np.zeros((3, 0)), np.zeros((0, 3)), np.ones(3),
                  np.array([[1.0, 0.0], [0.5, math.inf]])],
        ids=["nan", "no-column", "no-row", "1-D", "infinite"],
    )
    def test_bad_lower_raises(self, lower):
        with pytest.raises(DomainError, match="lower"):
            simulate_outage(CholeskyFactor(lower=lower), 1.0, McConfig(trials=100))

    def test_jitter_is_not_a_field(self):
        # no factor shifts R's diagonal, so there is no shift to pass
        with pytest.raises(TypeError):
            CholeskyFactor(lower=np.eye(2), jitter=0.0)
        assert CholeskyFactor(lower=np.eye(2)).jitter == 0.0

    def test_factor_is_sampled_as_given(self):
        cfg = McConfig(trials=5_000, seed=3)
        assert simulate_outage(CholeskyFactor(lower=np.eye(3)), 1.0, cfg) == (
            simulate_outage(np.eye(3), 1.0, cfg)
        )


def _gauss_n8():
    return correlation_matrix(ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN))


SAMPLERS = {
    "full": lambda x, cfg: simulate_outage(_gauss_n8(), x, cfg),
    "truncated": lambda x, cfg: simulate_outage_truncated(
        kl_truncate(eigendecompose(_gauss_n8()), 3), x, cfg
    ),
}


class TestThresholdSweep:
    """A sequence of thresholds is counted from one set of draws."""

    XS = [2.5, 0.3, 1.0, 0.3, 4.0]  # unsorted, with a repeat

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_sweep_equals_scalar_calls(self, monkeypatch, sampler, workers):
        # the smallest chunk is 1024 rows, so every worker reduces several
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        cfg = McConfig(trials=7_001, seed=11, workers=workers)
        sweep = SAMPLERS[sampler](self.XS, cfg)
        assert isinstance(sweep, tuple) and len(sweep) == len(self.XS)
        for x, est in zip(self.XS, sweep):
            assert est == SAMPLERS[sampler](x, cfg)

    def test_scalar_returns_one_estimate(self):
        est = simulate_outage(np.eye(2), 1.0, McConfig(trials=1_000))
        assert isinstance(est, OutageEstimate)
        assert est.p == est.hits / est.trials

    def test_sequence_keeps_input_order(self):
        cfg = McConfig(trials=5_000, seed=3)
        sweep = simulate_outage(np.eye(3), np.array(self.XS), cfg)
        assert sweep[1] == sweep[3]
        ranked = sorted(range(len(self.XS)), key=self.XS.__getitem__)
        hits = [sweep[i].hits for i in ranked]
        assert hits == sorted(hits) and hits[0] < hits[-1]
        assert simulate_outage(np.eye(3), tuple(self.XS), cfg) == sweep

    @pytest.mark.parametrize(
        "x",
        [math.inf, math.nan, [], [1.0, 0.0], [1.0, -2.0], [math.nan], [1.0, math.inf],
         [[1.0]]],
        ids=repr,
    )
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_bad_thresholds_raise_before_any_draw(self, monkeypatch, sampler, x):
        def no_draws(*args):
            raise AssertionError("drew samples for an invalid threshold")

        monkeypatch.setattr(montecarlo, "_sample", no_draws)
        with pytest.raises(DomainError):
            SAMPLERS[sampler](x, McConfig(trials=10))

    @pytest.mark.parametrize("x", [-1.0, 0.0, [1.0, 0.0]], ids=repr)
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_non_positive_threshold_has_one_message(self, monkeypatch, sampler, x):
        # one check, whose message names the range it enforces: a negative
        # threshold and a zero one fail the same way
        def no_draws(*args):
            raise AssertionError("drew samples for an invalid threshold")

        monkeypatch.setattr(montecarlo, "_sample", no_draws)
        message = ("threshold x must be a finite number > 0 or a non-empty 1-D sequence of"
                   f" them, got {x!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            SAMPLERS[sampler](x, McConfig(trials=10))


class TestCliSamplesOncePerField:
    """Each (model, W, N[, K]) is sampled once over all its SNR points,
    from a matrix built once and factored once for the sampler."""

    @pytest.mark.parametrize(
        "argv,full,ladder,refactored",
        [
            (["outage-aperture", "--W", "1", "--N", "10", "--snr-db", "-5,0,5"], 2, 0, 0),
            (["outage-snr", "--N", "6", "--snr-db", "-5,0,5"], 2, 0, 1),
            (["outage-ports", "--W", "1", "--N", "5", "--snr-db", "-5,0"], 2, 0, 0),
            (["gauss-error", "--W", "1", "--N", "6"], 2, 0, 0),
            (["kl-convergence", "--N", "8", "--K", "3"], 2, 2, 2),
            (["slepian-blocks", "--N", "8", "--blocks", "2"], 1, 0, 0),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_call_counts(self, tmp_path, monkeypatch, argv, full, ladder, refactored):
        # kl-convergence samples each model's whole K ladder in one call
        calls = {"full": 0, "truncated": 0, "ladder": 0}
        fields = {"built": 0, "factored": 0, "refactored": 0}

        def tally(kind, fn):
            def wrapper(*args):
                fields[kind] += 1
                return fn(*args)

            return wrapper

        def counting(kind, fn):
            def wrapper(*args, **kwargs):
                # the benchmark's spans read args[0] and args[2]
                assert len(args) == 3 and not kwargs
                assert isinstance(args[2], McConfig)
                calls[kind] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(cli, "simulate_outage", counting("full", simulate_outage))
        monkeypatch.setattr(
            cli, "simulate_outage_truncated", counting("truncated", simulate_outage_truncated)
        )
        monkeypatch.setattr(
            cli, "simulate_outage_ladder", counting("ladder", simulate_outage_ladder)
        )
        monkeypatch.setattr(cli, "correlation_matrix", tally("built", correlation_matrix))
        monkeypatch.setattr(cli, "cholesky", tally("factored", cholesky))
        monkeypatch.setattr(fieldmodel, "cholesky", tally("refactored", cholesky))
        rc = cli.main(argv + ["--trials", "500", "--workers", "1",
                              "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert calls == {"full": full, "truncated": 0, "ladder": ladder}
        # each field is built once and factored once for the sampler, and
        # eigendecompose factors each field it reads again (outage-snr's
        # analytic field, kl-convergence's two); ROADMAP item 22 hands it
        # the sampler's factor instead
        assert fields == {"built": full, "factored": full, "refactored": refactored}


class TestDeterminism:
    def test_bit_identical_rerun(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=10, model=CorrelationModel.GAUSSIAN))
        cfg = McConfig(trials=50_000, seed=42, workers=1)
        a = simulate_outage(R, 1.0, cfg)
        b = simulate_outage(R, 1.0, cfg)
        assert a.p == b.p

    def test_workers_change_stream_not_distribution(self):
        # different worker counts partition the Philox stream differently,
        # so estimates differ, but both must sit near the same truth
        R = correlation_matrix(ApertureConfig(W=1.0, N=10, model=CorrelationModel.GAUSSIAN))
        a = simulate_outage(R, 1.0, McConfig(trials=400_000, seed=42, workers=1))
        b = simulate_outage(R, 1.0, McConfig(trials=400_000, seed=42, workers=4))
        assert abs(a.p - b.p) <= 3.0 * math.hypot(a.std_err, b.std_err)

    def test_workers_past_the_trials_are_never_visited(self):
        # 10^9 workers: those past the fifth own empty slices and cost nothing
        R = _gauss_n8()
        xs = [0.3, 1.0, 2.5, 4.0]
        assert simulate_outage(R, xs, McConfig(trials=5, seed=3, workers=10**9)) == (
            simulate_outage(R, xs, McConfig(trials=5, seed=3, workers=5))
        )

    def test_seed_matters(self):
        R = np.eye(3)
        a = simulate_outage(R, 1.0, McConfig(trials=50_000, seed=1))
        b = simulate_outage(R, 1.0, McConfig(trials=50_000, seed=2))
        assert a.p != b.p


class TestMarginals:
    def test_per_port_cdf(self):
        """Each port's marginal gain is unit-mean exponential.

        Deterministic at seed 42; the 3-sigma band is tight enough that
        roughly one seed in twelve would trip it by chance, which is why
        the seed is pinned rather than drawn.
        """
        config = ApertureConfig(W=1.5, N=8, model=CorrelationModel.JAKES)
        factor = cholesky(correlation_matrix(config))
        rng = np.random.Generator(np.random.Philox(42))
        n = 200_000
        z = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        gains = np.abs((z / math.sqrt(2.0)) @ factor.lower.T) ** 2
        for x in (0.3, 1.0, 2.5):
            truth = 1.0 - math.exp(-x)
            for port in range(8):
                p = float((gains[:, port] < x).mean())
                se = math.sqrt(truth * (1.0 - truth) / n)
                assert abs(p - truth) <= 3.0 * se


def _tiles(mat, cfg):
    """Copies of every tile of squared gains the sampler reduces, in the order reduced."""
    got = []

    def keep(gains):
        got.append(gains.copy())
        return (len(gains),)

    assert montecarlo._sample([mat], cfg, keep, 1) == [[cfg.trials]]
    return got


def _serial_latents(nports, ncols, cfg):
    """Every worker's latent blocks, (real, imaginary), drawn whole one after another."""
    base, extra = divmod(cfg.trials, cfg.workers)
    rows = max(1024, min(262_144, montecarlo._CHUNK_BUDGET // max(1, ncols, nports)))
    step = min(rows, base + (extra > 0))
    root_half = math.sqrt(0.5)
    for w in range(min(cfg.workers, cfg.trials)):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(w))
        n_w = base + (w < extra)
        for done in range(0, n_w, step):
            m = min(step, n_w - done)
            zr = rng.standard_normal((m, ncols)) * root_half
            zi = rng.standard_normal((m, ncols)) * root_half
            yield zr, zi


def _port_major(mat, zr, zi):
    """One block's squared gains, trials x ports, mapped port-major at the sampler's tile cuts.

    Tiles are multiples of 256 rows, and a block's last tile takes the
    short remainder, mapped over its rows rounded up to a multiple of 8
    with zero latents. A tile's port-major product need not be a column
    slice of the whole block's, nor of an unpadded tile's, so the
    reference cuts and pads where the sampler does.
    """
    m, cut = len(zr), 256 * max(1, montecarlo._TILE_FLOATS // (256 * len(mat)))
    zr, zi = (np.vstack([z, np.zeros((-m % 8, z.shape[1]))]) for z in (zr, zi))
    starts = list(range(0, max(cut, m - m % cut), cut))
    tiles = []
    for t0, t1 in zip(starts, [*starts[1:], m]):
        t8 = t0 + montecarlo._eights(t1 - t0)
        tiles.append(((mat @ zr[t0:t8].T) ** 2 + (mat @ zi[t0:t8].T) ** 2)[:, : t1 - t0].T)
    return np.concatenate(tiles)


def _serial_gain_chunks(mat, cfg):
    """The sampler's blocks, drawn whole in turn and mapped tile by tile: the reference."""
    for zr, zi in _serial_latents(*mat.shape, cfg):
        yield _port_major(mat, zr, zi)


class TestGainChunks:
    """Blocks mapped in tiles change no bit of the serial loop's gains."""

    XS = [0.3, 1.0, 2.5, 4.0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rank", [6, 2])
    def test_reused_buffers_match_fresh_products(self, monkeypatch, rank, workers):
        # one slab is refilled in place across blocks, tiles and workers;
        # the tiles, in the order reduced, must still equal the reference's
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)  # 1024-row blocks
        monkeypatch.setattr(montecarlo, "_TILE_FLOATS", 1)  # 256-row tiles
        config = ApertureConfig(W=1.0, N=6, model=CorrelationModel.GAUSSIAN)
        mat = montecarlo.truncated_gain_matrix(
            kl_truncate(eigendecompose(correlation_matrix(config)), rank)
        )
        cfg = McConfig(trials=2500, seed=9, workers=workers)
        tiles = _tiles(mat, cfg)
        # a block's last tile takes its short remainder: 1024 = 3 x 256 + 256,
        # 452 = 256 + 196 and 226 < 256
        sizes = {1: [1024, 1024, 452], 2: [1024, 226, 1024, 226]}[workers]
        cuts = {1024: [256] * 4, 452: [452], 226: [226]}
        assert [len(t) for t in tiles] == [n for m in sizes for n in cuts[m]]
        ref = np.concatenate(list(_serial_gain_chunks(mat, cfg)))
        assert np.array_equal(np.concatenate(tiles), ref)

    @pytest.mark.parametrize("budget", [None, 1], ids=["budget-default", "budget-1"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("N", [7, 64, 200])
    def test_matches_serial_loop(self, monkeypatch, N, workers, budget):
        if budget is not None:  # 1024-row blocks, several per worker
            monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", budget)
        R = correlation_matrix(ApertureConfig(W=1.0, N=N, model=CorrelationModel.GAUSSIAN))
        factor, kl = cholesky(R), kl_truncate(eigendecompose(R), 3)
        for trials in (1, 5, 1_025, 5_003):
            cfg = McConfig(trials=trials, seed=13, workers=workers)
            for mat, estimates in (
                (factor.lower, simulate_outage(factor, self.XS, cfg)),
                (montecarlo.truncated_gain_matrix(kl), simulate_outage_truncated(kl, self.XS, cfg)),
            ):
                ref = list(_serial_gain_chunks(mat, cfg))
                # the tiles, in the order reduced, are the blocks' rows in order
                assert np.array_equal(np.concatenate(_tiles(mat, cfg)), np.concatenate(ref))
                best = np.concatenate([c.max(axis=1) for c in ref])
                assert [e.hits for e in estimates] == [
                    int(np.count_nonzero(best < x)) for x in self.XS
                ]

    @pytest.mark.parametrize("N", [7, 64, 200])
    def test_tiles_are_port_major(self, N):
        # every tile reduced has its trial axis contiguous, so a trial's
        # best port is a max over contiguous port rows; 1025 trials give a
        # padded last tile at every N (one 1025-row tile at N = 7, and 256-row
        # cuts and a 257-row remainder at N = 200)
        R = correlation_matrix(ApertureConfig(W=1.0, N=N, model=CorrelationModel.GAUSSIAN))
        tiles = []

        def keep(gains):
            tiles.append((gains.shape, gains.strides[0] == gains.itemsize))
            return (len(gains),)

        montecarlo._sample([cholesky(R).lower], McConfig(trials=1_025, seed=13), keep, 1)
        assert sum(shape[0] for shape, _ in tiles) == 1_025
        assert tiles == [((shape[0], N), True) for shape, _ in tiles]

    def test_failed_draw_raised_by_caller(self, monkeypatch, scratch):
        # a failing draw re-raises in the caller, which still gives its slab back
        fill, drawn = montecarlo._fill, []

        def failing(rng, z):
            drawn.append(len(z))
            if len(drawn) == 4:  # the imaginary part of worker 0's second, 644-row block
                raise RuntimeError("draw failed")
            fill(rng, z)

        monkeypatch.setattr(montecarlo, "_fill", failing)
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate_outage(cholesky(_gauss_n8()), 1.0, McConfig(trials=5_003, seed=3, workers=3))
        assert drawn == [1024, 1024, 644, 644]
        assert len(scratch) == 1

    def test_large_product_starts_no_thread(self, monkeypatch):
        # full rank at N = 200 with 5000-row blocks (2e8 multiply-adds per
        # block) on a host of four CPUs: the workers run in order on the
        # calling thread, and no thread is started
        def no_thread(self):
            raise AssertionError("started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        R = correlation_matrix(ApertureConfig(W=1.0, N=200, model=CorrelationModel.GAUSSIAN))
        cfg = McConfig(trials=10_000, seed=3, workers=2)
        mat = full_cholesky(R)
        ref = np.concatenate([c.max(axis=1) for c in _serial_gain_chunks(mat, cfg)])
        hits = simulate_outage(CholeskyFactor(lower=mat), 1.0, cfg).hits
        assert hits == int(np.count_nonzero(ref < 1.0))


class TestScratchSlab:
    """Every block and tile is carved from a reused slab, which must change no result."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_warm_slab_cannot_leak(self, monkeypatch, scratch, workers):
        # 1024-row blocks: 5003 trials end every worker's slice on a
        # short block, which leaves stale rows past it in the slab
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        config = ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(config)
        factor, kl = cholesky(R), kl_truncate(eigendecompose(R), 3)
        cfg = McConfig(trials=5_003, seed=11, workers=workers)
        calls = (
            lambda: simulate_outage(factor, [0.3, 1.0, 2.5], cfg),
            lambda: simulate_outage_truncated(kl, [0.3, 1.0, 2.5], cfg),
            lambda: simulate_outage_ladder(kl, [0.3, 1.0, 2.5], cfg),
            lambda: count_upcrossings(config, 1.0, cfg),
        )
        cold = []
        for call in calls:
            scratch.clear()
            cold.append(call())
        for call, expect in zip(calls, cold):
            poisoned = np.full(100_000, np.nan)
            scratch[:] = [poisoned]
            assert call() == expect
            assert scratch == [poisoned]  # the NaN slab was the one used

    def test_live_generators_own_their_slabs(self, monkeypatch, scratch):
        # a reduce that samples: while each tile of an outer pass is live,
        # an inner pass runs. Every live pass must own its slab, and
        # together they leave one idle slab.
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        full = cholesky(_gauss_n8()).lower
        cfg_a = McConfig(trials=5_003, seed=3, workers=2)
        cfg_c = McConfig(trials=500, seed=5)  # needs less slab than a
        first_c = next(_serial_gain_chunks(full, cfg_c))
        outer = []

        def outer_reduce(g):
            inner = []

            def inner_reduce(c):
                assert not np.shares_memory(c, g)
                inner.append(c.copy())
                return (len(c),)

            assert montecarlo._sample([full], cfg_c, inner_reduce, 1) == [[500]]
            assert len(inner) == 1 and np.array_equal(inner[0], first_c)
            outer.append(g.copy())  # the inner pass left the outer tile alone
            return (len(g),)

        assert montecarlo._sample([full], cfg_a, outer_reduce, 1) == [[5_003]]
        assert len(outer) == 6
        ref = list(_serial_gain_chunks(full, cfg_a))
        assert np.array_equal(np.concatenate(outer), np.concatenate(ref))
        assert len(scratch) == 1

    def test_passes_of_different_rank_share_one_slab(self, scratch):
        # dense-aperture's two fields: rank 10, then rank 17, over 200 ports.
        # A slab sized by the rank would be dropped and mapped anew here.
        Rs = [correlation_matrix(ApertureConfig(W=1.0, N=200, model=m))
              for m in (CorrelationModel.JAKES, CorrelationModel.GAUSSIAN)]
        assert [cholesky(R).lower.shape[1] for R in Rs] == [10, 17]
        cfg = McConfig(trials=2_000, seed=5, workers=2)
        cli._mc(Rs[0], [1.0], cfg)
        (slab,) = scratch
        cli._mc(Rs[1], [1.0], cfg)
        assert len(scratch) == 1 and scratch[0] is slab


_FAULT_PROBE = """
import resource, sys
from fas_extremes import cli
argv = ["kl-convergence", "--N", "64", "--W", "1", "--K", "12", "--snr-db", "-5,5",
        "--trials", "6000", "--workers", "2", "--out", sys.argv[1]]
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_repeated_cli_call_takes_few_page_faults(tmp_path):
    # kl-ladder's argv: 4 sampler calls per CLI call, whose blocks and
    # tiles come from the reused scratch slab, so a warm call takes
    # almost no minor faults.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(tmp_path / "kl.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 1_000


_BLAS_PROBE = """
import hashlib, threading
from conftest import full_cholesky
from fas_extremes import montecarlo
from fas_extremes.fieldmodel import ApertureConfig, cholesky, correlation_matrix
from fas_extremes.kernels import CorrelationModel
for model in CorrelationModel:
    R = correlation_matrix(ApertureConfig(W=1.0, N=200, model=model))
    odd = cholesky(correlation_matrix(ApertureConfig(W=1.0, N=201, model=model))).lower
    for mat, workers, trials in ((cholesky(R).lower, 2, 10_000), (full_cholesky(R), 2, 10_000),
                                 (full_cholesky(R), 8, 40_000), (odd, 8, 2_000)):
        digests, threads = [], set()

        def keep(gains):
            digests.append(hashlib.sha256(gains.tobytes()).hexdigest())
            threads.add(threading.current_thread() is threading.main_thread())
            return (len(gains),)

        cfg = montecarlo.McConfig(trials=trials, seed=42, workers=workers)
        montecarlo._sample([mat], cfg, keep, 1)
        print(hashlib.sha256("".join(sorted(digests)).encode()).hexdigest(), sorted(threads))
"""


def test_draws_do_not_depend_on_blas_threads():
    # dense-aperture's sampler config through cholesky's pivoted factor
    # (ranks 10 and 17), at full rank through the tests' reference factor
    # with 2 and 8 workers (5000-row blocks), and the pivoted factor over
    # 201 ports in 8 slices of 250 trials, whose Gauss tiles rounded
    # differently by thread count when trial-major, and when port-major
    # over 250 unpadded trials; every tile mapped on the calling thread.
    # BLAS reads its thread count at load. LAPACK's Cholesky (OpenBLAS
    # 0.3.31 dpotrf) gives factors up to 1.2e-4 apart at 1 and 2 threads,
    # so neither factor may call it.
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                   p for p in (src, tests, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert outputs[0] == outputs[1]
    assert [line.split(" ", 1)[1] for line in outputs[0]] == ["[True]"] * 8


class TestMultiWorkerPins:
    """Multi-worker draws, frozen bit-for-bit.

    The oracle fixture holds only workers=1 rows, while the CLI defaults
    to 8 workers. These counts pin how trials split across workers, how
    each worker's Philox stream is keyed and jumped, and the chunk edges
    inside every worker (1024-row chunks at a patched _CHUNK_BUDGET).
    """

    XS = [0.3, 1.0, 2.5, 4.0]

    @staticmethod
    def _field():
        config = ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(config)
        return config, R, kl_truncate(eigendecompose(R), 3)

    @pytest.mark.parametrize(
        "trials,workers,full,truncated,upcrossings",
        [
            (7_001, 3, [22, 947, 4646, 6334], [154, 1688, 5410, 6626],
             (0.8731609770032852, 0.007704406210774208)),
            (2, 4, [0, 1, 2, 2], [0, 1, 2, 2], (0.0, 0.0)),
        ],
        ids=["7001-trials-3-workers", "2-trials-4-workers"],
    )
    def test_pinned_counts(self, monkeypatch, trials, workers, full, truncated, upcrossings):
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        config, R, kl = self._field()
        cfg = McConfig(trials=trials, seed=11, workers=workers)
        assert [e.hits for e in simulate_outage(R, self.XS, cfg)] == full
        assert [e.hits for e in simulate_outage_truncated(kl, self.XS, cfg)] == truncated
        assert count_upcrossings(config, 1.0, cfg) == upcrossings

    @pytest.mark.parametrize("trials", [1, 2, 5, 1_025, 3_000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_every_trial_counted_once(self, monkeypatch, trials, workers):
        # a threshold above every gain is a hit in each trial exactly once
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        _, R, kl = self._field()
        cfg = McConfig(trials=trials, seed=11, workers=workers)
        assert simulate_outage(R, 1e6, cfg).hits == trials
        assert simulate_outage_truncated(kl, 1e6, cfg).hits == trials


class TestPivotedFactor:
    @pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
    def test_matches_full_factor(self, model):
        # dense-aperture's fields: the low-rank draws estimate the same
        # outage as the tests' full-rank reference factor
        R = correlation_matrix(ApertureConfig(W=1.0, N=200, model=model))
        cfg = McConfig(trials=200_000, seed=42, workers=2)
        xs = [0.316, 1.0, 3.16]
        ref = full_cholesky(R)
        assert ref.shape[1] == 200 > cholesky(R).lower.shape[1]  # two factors, not one twice
        full = simulate_outage(CholeskyFactor(lower=ref), xs, cfg)
        low = simulate_outage(R, xs, cfg)
        for a, b in zip(full, low, strict=True):
            assert 0 < a.hits < a.trials
            assert abs(a.p - b.p) <= 3.0 * math.hypot(a.std_err, b.std_err)


class TestTruncated:
    def test_full_rank_matches_direct(self):
        config = ApertureConfig(W=1.0, N=6, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(config)
        kl = kl_truncate(eigendecompose(R), 6)
        cfg = McConfig(trials=300_000, seed=42)
        a = simulate_outage(R, 1.0, cfg)
        b = simulate_outage_truncated(kl, 1.0, cfg)
        assert abs(a.p - b.p) <= 3.0 * math.hypot(a.std_err, b.std_err)

    def test_heavy_truncation_biases_up(self):
        # dropping modes removes gain energy, so outage goes up
        config = ApertureConfig(W=2.0, N=30, model=CorrelationModel.JAKES)
        spec = eigendecompose(correlation_matrix(config))
        cfg = McConfig(trials=200_000, seed=42)
        full = simulate_outage_truncated(kl_truncate(spec, 30), 1.0, cfg)
        trunc = simulate_outage_truncated(kl_truncate(spec, 2), 1.0, cfg)
        assert trunc.p > full.p + 3.0 * math.hypot(full.std_err, trunc.std_err)


class TestLadder:
    """Every truncation rank K = 1..k from one draw of k mode coordinates per trial."""

    XS = [0.3, 1.0, 2.5, 4.0]

    @staticmethod
    def _spectrum():
        return kl_truncate(eigendecompose(_gauss_n8()), 5)

    @pytest.mark.parametrize("budget", [None, 1], ids=["budget-default", "budget-1"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_rungs_match_explicit_reference(self, monkeypatch, workers, budget):
        if budget is not None:  # 1024-row blocks, several per worker
            monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", budget)
        kl = self._spectrum()
        cfg = McConfig(trials=5_003, seed=11, workers=workers)
        ladder = simulate_outage_ladder(kl, self.XS, cfg)
        assert len(ladder) == kl.rank
        B = montecarlo.truncated_gain_matrix(kl)
        blocks = list(_serial_latents(*B.shape, cfg))
        for K, rung in enumerate(ladder, start=1):
            # rank K reads the first K of the same coordinates
            best = np.concatenate([
                ((zr[:, :K] @ B[:, :K].T) ** 2 + (zi[:, :K] @ B[:, :K].T) ** 2).max(axis=1)
                for zr, zi in blocks
            ])
            assert [e.hits for e in rung] == [int(np.count_nonzero(best < x)) for x in self.XS]

    def test_rungs_match_port_major_tiles_at_kl_ladder_shape(self):
        # kl-ladder's field and rank (Gauss, N = 64, W = 1, k = 12) and its
        # two workers: 1024-row tiles, and slices of 3001 and 3000 trials,
        # so the last tile of the first is mapped over 960 rows for its 953
        kl = kl_truncate(eigendecompose(correlation_matrix(
            ApertureConfig(W=1.0, N=64, model=CorrelationModel.GAUSSIAN))), 12)
        cfg = McConfig(trials=6_001, seed=11, workers=2)
        ladder = simulate_outage_ladder(kl, self.XS, cfg)
        assert len(ladder) == 12
        B = montecarlo.truncated_gain_matrix(kl)
        blocks = list(_serial_latents(*B.shape, cfg))
        for K, rung in enumerate(ladder, start=1):
            best = np.concatenate([
                _port_major(B[:, :K].copy(), zr[:, :K], zi[:, :K]).max(axis=1)
                for zr, zi in blocks
            ])
            assert [e.hits for e in rung] == [int(np.count_nonzero(best < x)) for x in self.XS]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_top_rung_is_the_truncated_pass(self, monkeypatch, workers):
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        kl = self._spectrum()
        cfg = McConfig(trials=5_003, seed=11, workers=workers)
        ladder = simulate_outage_ladder(kl, self.XS, cfg)
        assert ladder[-1] == simulate_outage_truncated(kl, self.XS, cfg)
        # the rungs below it are other draws of the lower ranks' outage
        assert ladder[0] != simulate_outage_truncated(kl_truncate(kl, 1), self.XS, cfg)

    @pytest.mark.parametrize("trials", [1, 5, 3_000])
    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_every_trial_counted_once_per_rung(self, monkeypatch, trials, workers):
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        cfg = McConfig(trials=trials, seed=11, workers=workers)
        ladder = simulate_outage_ladder(self._spectrum(), 1e6, cfg)
        assert [est.hits for est in ladder] == [trials] * 5

    def test_bad_thresholds_raise_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples for an invalid threshold")

        monkeypatch.setattr(montecarlo, "_sample", no_draws)
        with pytest.raises(DomainError):
            simulate_outage_ladder(self._spectrum(), [1.0, 0.0], McConfig(trials=10))


class TestUpcrossings:
    def test_deterministic_and_positive(self):
        config = ApertureConfig(W=1.0, N=200, model=CorrelationModel.GAUSSIAN)
        cfg = McConfig(trials=2_000, seed=42)
        a = count_upcrossings(config, 2.0, cfg)
        b = count_upcrossings(config, 2.0, cfg)
        assert a == b
        assert a[0] > 0.0

    def test_extreme_level_yields_zero(self):
        config = ApertureConfig(W=1.0, N=50, model=CorrelationModel.GAUSSIAN)
        mean, se = count_upcrossings(config, 60.0, McConfig(trials=5_000, seed=42))
        assert mean == 0.0 and se == 0.0

    def test_std_err_matches_two_pass_on_same_draws(self, monkeypatch):
        # three workers of 1024-row chunks: the moment sums run across
        # chunk and worker edges and must match one pass over all draws
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        config = ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN)
        cfg = McConfig(trials=5_003, seed=5, workers=3)
        mean, se = count_upcrossings(config, 1.0, cfg)
        gains = np.concatenate(
            list(_serial_gain_chunks(cholesky(correlation_matrix(config)).lower, cfg))
        )
        cross = ((gains[:, :-1] < 1.0) & (gains[:, 1:] >= 1.0)).sum(axis=1)
        assert cross.std() > 0
        assert mean == pytest.approx(cross.mean(), rel=1e-13)
        assert se == pytest.approx(cross.std() / math.sqrt(cross.size), rel=1e-12)

    def test_model_name_selects_its_kernel(self):
        cfg = McConfig(trials=2_000, seed=42)
        by_name = count_upcrossings(ApertureConfig(W=1.0, N=20, model="jakes"), 1.0, cfg)
        by_member = count_upcrossings(
            ApertureConfig(W=1.0, N=20, model=CorrelationModel.JAKES), 1.0, cfg
        )
        assert by_name == by_member

    def test_domain(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew samples for an invalid level")

        monkeypatch.setattr(montecarlo, "_sample", no_draws)
        config = ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN)
        for u in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                count_upcrossings(config, u, McConfig(trials=10))

    def test_needs_two_ports(self):
        with pytest.raises(DomainError):
            count_upcrossings(
                ApertureConfig(W=1.0, N=1, model=CorrelationModel.GAUSSIAN),
                2.0,
                McConfig(trials=10),
            )


class TestFixtureRegression:
    CASES = [
        ("gauss_n10_w1_x1", CorrelationModel.GAUSSIAN, 10, 1.0, 1.0),
        ("jakes_n10_w1_x1", CorrelationModel.JAKES, 10, 1.0, 1.0),
        ("gauss_n20_w2_xhalf", CorrelationModel.GAUSSIAN, 20, 2.0, 0.5),
        ("jakes_n20_w2_xsqrt10", CorrelationModel.JAKES, 20, 2.0, 10**0.5),
    ]

    @staticmethod
    @pytest.fixture(scope="class")
    def stored():
        with open(FIXTURES, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        by_label = {row["label"]: row for row in rows}
        assert len(by_label) == len(rows), "duplicate fixture label"
        return by_label

    @pytest.mark.parametrize("label,model,N,W,x", CASES, ids=[c[0] for c in CASES])
    def test_oracle_reproduces_bit_for_bit(self, stored, label, model, N, W, x):
        row = stored[label]
        trials, seed, workers = int(row["trials"]), int(row["seed"]), int(row["workers"])
        # sorted keys, repr values: a type change (1 vs 1.0) changes the hash
        config = dict(model=model.value, N=N, W=W, x=x,
                      trials=trials, seed=seed, workers=workers)
        canon = ";".join(f"{k}={config[k]!r}" for k in sorted(config))
        assert row["config_hash"] == hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]
        R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
        cfg = McConfig(trials=trials, seed=seed, workers=workers)
        est = simulate_outage(R, x, cfg)
        assert est.p == float(row["estimate"])
        assert est.std_err == float(row["std_err"])

    def test_known_value(self, stored):
        # spot pin so the CSV itself cannot silently regenerate
        assert float(stored["gauss_n10_w1_x1"]["estimate"]) == 0.12032

    # The rows as the full N x N factor with a jitter ladder sampled them,
    # before every bare matrix went through the pivoted factor: same
    # configs, seed 42, 1 worker, 10^6 trials. (estimate, std_err)
    FULL_FACTOR_ROWS = {
        "gauss_n10_w1_x1": (0.119372, 0.000324225732501293),
        "jakes_n10_w1_x1": (0.14965, 0.00035672801614114918),
        "gauss_n20_w2_xhalf": (0.000501, 2.2377421634317036e-05),
        "jakes_n20_w2_xsqrt10": (0.677112, 0.00046758030268179607),
    }

    def test_agrees_with_full_factor_rows(self, stored):
        # independent draws of one outage: within 3 combined sigma
        assert stored.keys() == self.FULL_FACTOR_ROWS.keys()
        for label, (p_full, se_full) in self.FULL_FACTOR_ROWS.items():
            p, se = float(stored[label]["estimate"]), float(stored[label]["std_err"])
            assert abs(p - p_full) <= 3.0 * math.hypot(se, se_full), label
