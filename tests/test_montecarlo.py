"""Monte Carlo engine: correctness against closed forms, determinism,
threshold sweeps that equal scalar calls exactly, and regression against
committed oracle fixtures.

The committed CSV under tests/fixtures/ freezes four outage estimates
bit-for-bit. Any drift there means the sampler, RNG streaming, chunking,
or Cholesky path changed behavior, which invalidates every cross-check
in the suite, so these comparisons are exact rather than statistical.
"""

import csv
import gc
import hashlib
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from fas_extremes import cli, montecarlo
from fas_extremes.fieldmodel import (
    ApertureConfig,
    cholesky,
    correlation_matrix,
    eigendecompose,
    kl_truncate,
)
from fas_extremes.kernels import CorrelationModel
from fas_extremes.montecarlo import (
    McConfig,
    OutageEstimate,
    _gain_chunks,
    count_upcrossings,
    simulate_outage,
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

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            simulate_outage(np.eye(2), 0.0, McConfig(trials=10))
        with pytest.raises(DomainError):
            simulate_outage(np.eye(2), -1.0, McConfig(trials=10))


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

        monkeypatch.setattr(montecarlo, "_gain_chunks", no_draws)
        with pytest.raises(DomainError):
            SAMPLERS[sampler](x, McConfig(trials=10))


class TestCliSamplesOncePerField:
    """Each (model, W, N[, K]) is sampled once over all its SNR points,
    from a matrix built and factored once."""

    @pytest.mark.parametrize(
        "argv,full,truncated",
        [
            (["outage-aperture", "--W", "1", "--N", "10", "--snr-db", "-5,0,5"], 2, 0),
            (["outage-snr", "--N", "6", "--snr-db", "-5,0,5"], 2, 0),
            (["outage-ports", "--W", "1", "--N", "5", "--snr-db", "-5,0"], 2, 0),
            (["gauss-error", "--W", "1", "--N", "6"], 2, 0),
            (["kl-convergence", "--N", "8", "--K", "3"], 2, 6),
            (["slepian-blocks", "--N", "8", "--blocks", "2"], 1, 0),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_call_counts(self, tmp_path, monkeypatch, argv, full, truncated):
        calls = {"full": 0, "truncated": 0}
        fields = {"built": 0, "factored": 0}

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
        monkeypatch.setattr(cli, "correlation_matrix", tally("built", correlation_matrix))
        monkeypatch.setattr(cli, "cholesky", tally("factored", cholesky))
        rc = cli.main(argv + ["--trials", "500", "--workers", "1",
                              "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert calls == {"full": full, "truncated": truncated}
        # each field is built once and factored once, whatever else reads it
        assert fields == {"built": full, "factored": full}


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


class TestGainChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rank", [6, 2])
    def test_reused_buffers_match_fresh_products(self, monkeypatch, rank, workers):
        # one buffer set is refilled in place across chunks and workers;
        # every yielded block must still equal the fresh-array products of
        # its worker's Philox(9).jumped(w) draws
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)  # 1024-row chunks
        config = ApertureConfig(W=1.0, N=6, model=CorrelationModel.GAUSSIAN)
        mat = montecarlo.truncated_gain_matrix(
            kl_truncate(eigendecompose(correlation_matrix(config)), rank)
        )
        cfg = McConfig(trials=2500, seed=9, workers=workers)
        chunks = [c.copy() for c in _gain_chunks(mat, cfg)]
        sizes = {1: [[1024, 1024, 452]], 2: [[1024, 226], [1024, 226]]}[workers]
        assert [c.shape for c in chunks] == [(m, 6) for slice_ in sizes for m in slice_]
        blocks = iter(chunks)
        for w, slice_ in enumerate(sizes):
            rng = np.random.Generator(np.random.Philox(key=9).jumped(w))
            for m in slice_:
                zr = rng.standard_normal((m, rank)) * math.sqrt(0.5)
                zi = rng.standard_normal((m, rank)) * math.sqrt(0.5)
                assert np.array_equal(next(blocks), (zr @ mat.T) ** 2 + (zi @ mat.T) ** 2)


def _serial_gain_chunks(mat, cfg):
    """The sampler's chunks drawn and mapped one after another: the reference."""
    nports, ncols = mat.shape
    base, extra = divmod(cfg.trials, cfg.workers)
    rows = max(1024, min(262_144, montecarlo._CHUNK_BUDGET // max(1, ncols, nports)))
    step = min(rows, base + (extra > 0))
    z = np.empty((step, ncols))
    gr = np.empty((step, nports))
    gi = np.empty((step, nports))
    root_half = math.sqrt(0.5)
    for w in range(min(cfg.workers, cfg.trials)):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(w))
        n_w = base + (w < extra)
        for done in range(0, n_w, step):
            m = min(step, n_w - done)
            for g in (gr[:m], gi[:m]):
                rng.standard_normal(out=z[:m])
                z[:m] *= root_half
                np.matmul(z[:m], mat.T, out=g)
                np.square(g, out=g)
            yield gr[:m] + gi[:m]


class TestDrawAhead:
    """The helper thread draws one block ahead without changing a bit."""

    XS = [0.3, 1.0, 2.5, 4.0]

    @pytest.fixture
    def always_overlap(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_OVERLAP_MIN", 0)

    @pytest.mark.parametrize("overlap", [0, None], ids=["helper-always", "helper-default"])
    @pytest.mark.parametrize("budget", [None, 1], ids=["budget-default", "budget-1"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("N", [7, 64, 200])
    def test_matches_serial_loop(self, monkeypatch, N, workers, budget, overlap):
        if budget is not None:  # 1024-row chunks, several per worker
            monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", budget)
        if overlap is not None:
            monkeypatch.setattr(montecarlo, "_OVERLAP_MIN", overlap)
        R = correlation_matrix(ApertureConfig(W=1.0, N=N, model=CorrelationModel.GAUSSIAN))
        factor, kl = cholesky(R), kl_truncate(eigendecompose(R), 3)
        for trials in (1, 5, 1_025, 5_003):
            cfg = McConfig(trials=trials, seed=13, workers=workers)
            for mat, estimates in (
                (factor.lower, simulate_outage(factor, self.XS, cfg)),
                (montecarlo.truncated_gain_matrix(kl), simulate_outage_truncated(kl, self.XS, cfg)),
            ):
                ref = list(_serial_gain_chunks(mat, cfg))
                got = [c.copy() for c in _gain_chunks(mat, cfg)]
                assert len(got) == len(ref)
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))
                best = np.concatenate([c.max(axis=1) for c in ref])
                assert [e.hits for e in estimates] == [
                    int(np.count_nonzero(best < x)) for x in self.XS
                ]

    @pytest.mark.usefixtures("always_overlap")
    @pytest.mark.parametrize("stop", ["exhausted", "break", "consumer-raises", "dropped"])
    def test_no_thread_outlives_the_generator(self, monkeypatch, stop):
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        mat = cholesky(_gauss_n8()).lower
        before = threading.active_count()
        if stop == "exhausted":
            cfg = McConfig(trials=5_003, seed=3, workers=2)
            chunks = [c.copy() for c in _gain_chunks(mat, cfg)]
            assert sum(len(c) for c in chunks) == 5_003
        elif stop == "break":
            # 10^9 workers of 1000 trials each: only the first is ever keyed
            for chunk in _gain_chunks(mat, McConfig(trials=10**12, seed=3, workers=10**9)):
                assert chunk.shape == (1000, 8)
                break
        elif stop == "consumer-raises":
            with pytest.raises(ZeroDivisionError):
                for n, _ in enumerate(_gain_chunks(mat, McConfig(trials=5_003, seed=3))):
                    1 / (2 - n)
        else:
            chunks = _gain_chunks(mat, McConfig(trials=5_003, seed=3))
            assert next(chunks).shape == (1024, 8)
            del chunks
            gc.collect()
        assert threading.active_count() == before

    @pytest.mark.usefixtures("always_overlap")
    def test_helper_failure_raised_by_caller(self, monkeypatch):
        fill, threads = montecarlo._fill, []

        def failing(rng, z):
            threads.append(threading.current_thread())
            if len(threads) == 4:  # the first chunk's two blocks and one ahead are drawn
                raise RuntimeError("draw failed")
            fill(rng, z)

        monkeypatch.setattr(montecarlo, "_fill", failing)
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        before = threading.active_count()
        chunks = _gain_chunks(cholesky(_gauss_n8()).lower, McConfig(trials=5_003, seed=3))
        assert next(chunks).shape == (1024, 8)
        with pytest.raises(RuntimeError, match="draw failed"):
            next(chunks)
        # the first block is drawn here, every later one on the helper
        assert threads[0] is threading.current_thread()
        assert threads[1] is threads[2] is threads[3] is not threads[0]
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "N, trials, helper",
        [(8, 5_003, False), (20, 20_000, False), (64, 6_000, False), (200, 10_000, True)],
    )
    def test_helper_only_for_large_products(self, monkeypatch, N, trials, helper):
        # after the first block, N = 200 draws run on the helper; smaller products stay here
        fill, threads = montecarlo._fill, []

        def recording(rng, z):
            threads.append(threading.current_thread())
            fill(rng, z)

        monkeypatch.setattr(montecarlo, "_fill", recording)
        R = correlation_matrix(ApertureConfig(W=1.0, N=N, model=CorrelationModel.GAUSSIAN))
        cfg = McConfig(trials=trials, seed=3, workers=2)
        mat = cholesky(R).lower
        assert all(np.array_equal(a, b) for a, b in
                   zip(_gain_chunks(mat, cfg), _serial_gain_chunks(mat, cfg), strict=True))
        assert threads[0] is threading.current_thread()
        assert {t is threads[0] for t in threads[1:]} == {not helper}


_EXIT_PROBE = """
import threading
from fas_extremes import montecarlo
from fas_extremes.fieldmodel import ApertureConfig, cholesky, correlation_matrix
from fas_extremes.kernels import CorrelationModel
montecarlo._OVERLAP_MIN = 0  # every draw after the first goes to the pool
montecarlo._CHUNK_BUDGET = 1  # 1024-row chunks, so the generator outlives one
R = correlation_matrix(ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN))
chunks = montecarlo._gain_chunks(cholesky(R).lower, montecarlo.McConfig(trials=5_003, seed=3))
next(chunks)
print("threads", threading.active_count())  # the pool's thread is live until chunks is closed
"""


def test_interpreter_exits_with_a_live_generator():
    # the pool's thread is not a daemon: interpreter exit must still
    # stop it while a module-level generator holds the pool open
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _EXIT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["threads", "2"]
    assert "Traceback" not in done.stderr, done.stderr


class TestScratchSlab:
    """Every chunk is carved from a reused slab, which must change no result."""

    @pytest.mark.parametrize("overlap", [0, None], ids=["helper-always", "helper-default"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_warm_slab_cannot_leak(self, monkeypatch, scratch, workers, overlap):
        # 1024-row chunks: 5003 trials end every worker's slice on a
        # short chunk, which leaves stale rows past it in the slab
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        if overlap is not None:
            monkeypatch.setattr(montecarlo, "_OVERLAP_MIN", overlap)
        config = ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(config)
        factor, kl = cholesky(R), kl_truncate(eigendecompose(R), 3)
        cfg = McConfig(trials=5_003, seed=11, workers=workers)
        calls = (
            lambda: simulate_outage(factor, [0.3, 1.0, 2.5], cfg),
            lambda: simulate_outage_truncated(kl, [0.3, 1.0, 2.5], cfg),
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

    @pytest.mark.parametrize("overlap", [0, None], ids=["helper-always", "helper-default"])
    def test_live_generators_own_their_slabs(self, monkeypatch, scratch, overlap):
        # two generators interleaved, and at every step a third one that
        # is closed by break and leaves its slab idle for the next
        monkeypatch.setattr(montecarlo, "_CHUNK_BUDGET", 1)
        if overlap is not None:
            monkeypatch.setattr(montecarlo, "_OVERLAP_MIN", overlap)
        full = cholesky(_gauss_n8()).lower
        truncated = montecarlo.truncated_gain_matrix(kl_truncate(eigendecompose(_gauss_n8()), 3))
        cfg_a = McConfig(trials=5_003, seed=3, workers=2)
        cfg_b = McConfig(trials=5_003, seed=4, workers=2)
        cfg_c = McConfig(trials=500, seed=5)  # needs less slab than a or b
        first_c = next(_serial_gain_chunks(full, cfg_c))
        steps = 0
        for a, b, ref_a, ref_b in zip(
            _gain_chunks(full, cfg_a), _gain_chunks(truncated, cfg_b),
            _serial_gain_chunks(full, cfg_a), _serial_gain_chunks(truncated, cfg_b),
            strict=True,
        ):
            for c in _gain_chunks(full, cfg_c):
                assert not np.shares_memory(c, a) and not np.shares_memory(c, b)
                assert np.array_equal(c, first_c)
                break
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, ref_a) and np.array_equal(b, ref_b)
            steps += 1
        assert steps == 6
        assert len(scratch) == 1


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
    # kl-ladder's argv: 26 sampler calls per CLI call. Fresh chunk
    # buffers there cost about 31,000 minor faults per call; the reused
    # scratch slab leaves a warm call almost none.
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
import hashlib
from fas_extremes.fieldmodel import ApertureConfig, cholesky, correlation_matrix
from fas_extremes.kernels import CorrelationModel
from fas_extremes.montecarlo import McConfig, _gain_chunks
digest = hashlib.sha256()
for model in CorrelationModel:
    R = correlation_matrix(ApertureConfig(W=1.0, N=200, model=model))
    for chunk in _gain_chunks(cholesky(R).lower, McConfig(trials=10_000, seed=42, workers=2)):
        digest.update(chunk.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.xfail(
    strict=False,
    reason="OpenBLAS 0.3.31's Cholesky (dpotrf) gives different, equally valid N = 200 "
    "factors at 1 and 2 threads, so the draws differ; another BLAS may agree",
)
def test_draws_do_not_depend_on_blas_threads():
    # dense-aperture's sampler config; BLAS reads its thread count at load
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


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
            (7_001, 3, [19, 909, 4605, 6337], [154, 1688, 5410, 6626],
             (0.8824453649478646, 0.007644438224729878)),
            (2, 4, [0, 0, 2, 2], [0, 1, 2, 2], (1.5, 0.3535533905932738)),
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
            [c.copy() for c in _gain_chunks(cholesky(correlation_matrix(config)).lower, cfg)]
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

        monkeypatch.setattr(montecarlo, "_gain_chunks", no_draws)
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
        assert float(stored["gauss_n10_w1_x1"]["estimate"]) == 0.119372
