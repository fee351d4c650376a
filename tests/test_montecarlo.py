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
    """Each (model, W, N[, K]) is sampled once over all its SNR points."""

    @pytest.mark.parametrize(
        "argv,full,truncated",
        [
            (["outage-aperture", "--W", "1", "--N", "10", "--snr-db", "-5,0,5"], 2, 0),
            (["outage-snr", "--N", "6", "--snr-db", "-5,0,5"], 2, 0),
            (["outage-ports", "--W", "1", "--N", "5", "--snr-db", "-5,0"], 2, 0),
            (["gauss-error", "--W", "1", "--N", "6"], 2, 0),
            (["kl-convergence", "--N", "8", "--K", "3"], 2, 6),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_call_counts(self, tmp_path, monkeypatch, argv, full, truncated):
        calls = {"full": 0, "truncated": 0}

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
        rc = cli.main(argv + ["--trials", "500", "--workers", "1",
                              "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert calls == {"full": full, "truncated": truncated}


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
        chunks = list(_gain_chunks(mat, McConfig(trials=2500, seed=9, workers=workers)))
        sizes = {1: [[1024, 1024, 452]], 2: [[1024, 226], [1024, 226]]}[workers]
        assert [c.shape for c in chunks] == [(m, 6) for slice_ in sizes for m in slice_]
        blocks = iter(chunks)
        for w, slice_ in enumerate(sizes):
            rng = np.random.Generator(np.random.Philox(key=9).jumped(w))
            for m in slice_:
                zr = rng.standard_normal((m, rank)) * math.sqrt(0.5)
                zi = rng.standard_normal((m, rank)) * math.sqrt(0.5)
                assert np.array_equal(next(blocks), (zr @ mat.T) ** 2 + (zi @ mat.T) ** 2)


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
            list(_gain_chunks(cholesky(correlation_matrix(config)).lower, cfg))
        )
        cross = ((gains[:, :-1] < 1.0) & (gains[:, 1:] >= 1.0)).sum(axis=1)
        assert cross.std() > 0
        assert mean == pytest.approx(cross.mean(), rel=1e-13)
        assert se == pytest.approx(cross.std() / math.sqrt(cross.size), rel=1e-12)

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
