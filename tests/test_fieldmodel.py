"""Aperture config, correlation matrices, eigensolver, the pivoted
Cholesky factor, KL truncation.

The eigensolver is checked against raw numpy.linalg.eigh across the
configuration grid the experiments use, and against a 50-digit mpmath
eigsy of the same matrices, which resolves the tail that double
precision reports only as roundoff.
"""

import math

import mpmath
import numpy as np
import pytest

from fas_extremes.bounds import rho_extremes
from fas_extremes.fieldmodel import (
    _PSD_SLACK,
    JITTER_LADDER,
    ApertureConfig,
    EigenSpectrum,
    cholesky,
    correlation_matrix,
    eigendecompose,
    kl_truncate,
)
from fas_extremes.kernels import CorrelationModel, correlation
from fas_extremes.montecarlo import McConfig, simulate_outage
from fas_extremes.specialfn import DomainError

GRID = [
    (N, W, model)
    for N in (5, 10, 20, 50)
    for W in (0.5, 1.0, 2.0, 3.0)
    for model in CorrelationModel
]


class TestCorrelationMatrix:
    def test_matches_kernel_entrywise(self):
        cfg = ApertureConfig(W=1.5, N=6, model=CorrelationModel.JAKES)
        R = correlation_matrix(cfg)
        for i in range(6):
            for j in range(6):
                expect = correlation(cfg.model, abs(i - j) * 1.5 / 5)
                assert R[i, j] == pytest.approx(expect, abs=1e-15)

    def test_symmetric_unit_diagonal_toeplitz(self):
        cfg = ApertureConfig(W=2.0, N=12, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(cfg)
        assert np.array_equal(R, R.T)
        assert np.all(np.diag(R) == 1.0)
        # constant along diagonals
        for k in range(1, 12):
            band = np.diag(R, k)
            assert np.all(band == band[0])

    def test_model_name_selects_its_kernel(self):
        by_name = correlation_matrix(ApertureConfig(W=1.0, N=3, model="jakes"))
        by_member = correlation_matrix(ApertureConfig(W=1.0, N=3, model=CorrelationModel.JAKES))
        assert np.array_equal(by_name, by_member)

    def test_jakes_matrix_is_semi_definite_to_roundoff(self):
        # singular to roundoff: a kernel off by 1e-13 makes it indefinite at -1e-13
        R = correlation_matrix(ApertureConfig(W=3.0, N=20, model=CorrelationModel.JAKES))
        assert np.linalg.eigvalsh(R)[0] >= -20 * np.finfo(float).eps

    def test_single_port(self):
        cfg = ApertureConfig(W=1.0, N=1, model=CorrelationModel.GAUSSIAN)
        assert np.array_equal(correlation_matrix(cfg), np.eye(1))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ApertureConfig(W=0.0, N=10, model=CorrelationModel.JAKES)
        with pytest.raises(DomainError):
            ApertureConfig(W=1.0, N=0, model=CorrelationModel.JAKES)
        for N in (math.inf, math.nan):  # DomainError, not int()'s OverflowError or ValueError
            with pytest.raises(DomainError):
                ApertureConfig(W=1.0, N=N, model=CorrelationModel.JAKES)
        with pytest.raises(DomainError):
            ApertureConfig(W=1.0, N=10, model="rician")


class TestEigendecompose:
    def test_two_by_two_analytic(self):
        rho = 0.3
        spec = eigendecompose(np.array([[1.0, rho], [rho, 1.0]]))
        assert spec.eigenvalues == pytest.approx([1.3, 0.7], abs=1e-14)
        r = 1 / math.sqrt(2)
        assert np.allclose(np.abs(spec.eigenvectors), r, atol=1e-14)

    @pytest.mark.parametrize("N,W,model", GRID)
    def test_matches_lapack(self, N, W, model):
        R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
        spec = eigendecompose(R)
        ref = np.linalg.eigh(R)[0][::-1]
        assert np.allclose(spec.eigenvalues, ref, atol=1e-9)

    def test_reconstruction_orthonormality_trace(self):
        cfg = ApertureConfig(W=2.0, N=20, model=CorrelationModel.GAUSSIAN)
        R = correlation_matrix(cfg)
        spec = eigendecompose(R)
        U = spec.eigenvectors
        lam = spec.eigenvalues
        assert np.max(np.abs(U @ np.diag(lam) @ U.T - R)) < 1e-7
        assert np.max(np.abs(U.T @ U - np.eye(20))) < 1e-8
        assert abs(lam.sum() - 20.0) < 1e-8

    def test_descending_order_and_dominant_mode(self):
        for N, W, model in ((10, 1.0, CorrelationModel.JAKES), (20, 2.0, CorrelationModel.GAUSSIAN)):
            spec = eigendecompose(correlation_matrix(ApertureConfig(W=W, N=N, model=model)))
            lam = spec.eigenvalues
            assert np.all(np.diff(lam) <= 1e-12)
            # trace N spread over N modes puts the top one at or above 1
            assert lam[0] >= 1.0

    def test_sign_convention_deterministic(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=9, model=CorrelationModel.GAUSSIAN))
        a = eigendecompose(R).eigenvectors
        b = eigendecompose(np.array(R, copy=True)).eigenvectors
        assert np.array_equal(a, b)
        # the first entry of at least 1e-3 of each column's largest magnitude is positive
        for col in a.T:
            mags = np.abs(col)
            assert col[np.argmax(mags >= 1e-3 * mags.max())] > 0

    def test_sign_survives_roundoff(self):
        # each eigenvector of a symmetric Toeplitz matrix is symmetric or
        # antisymmetric, so its largest entry ties with its mirror image;
        # roundoff-sized changes to R must flip no resolved mode's sign
        R = correlation_matrix(ApertureConfig(W=2.0, N=20, model=CorrelationModel.GAUSSIAN))
        spec = eigendecompose(R)
        resolved = spec.eigenvectors[:, spec.eigenvalues > 1e-6]
        rng = np.random.default_rng(0)
        for _ in range(20):
            noise = rng.standard_normal(R.shape) * 1e-16
            got = eigendecompose(R + noise + noise.T).eigenvectors[:, : resolved.shape[1]]
            assert np.all(np.sum(got * resolved, axis=0) > 0)

    def test_positive_spectrum_where_resolvable(self):
        # configs whose smallest eigenvalue sits clear of solver roundoff
        configs = [
            (5, 0.5), (5, 1.0), (5, 2.0), (5, 3.0),
            (10, 0.5), (10, 1.0), (10, 2.0), (10, 3.0),
            (20, 2.0), (20, 3.0),
        ]
        for N, W in configs:
            spec = eigendecompose(
                correlation_matrix(ApertureConfig(W=W, N=N, model=CorrelationModel.GAUSSIAN))
            )
            assert spec.eigenvalues.min() > 0, f"N={N} W={W}"

    def test_smooth_decay_reference_config(self):
        spec = eigendecompose(
            correlation_matrix(ApertureConfig(W=3.0, N=50, model=CorrelationModel.GAUSSIAN))
        )
        lam = spec.eigenvalues
        assert lam.min() > 0
        # decays by many orders across the spectrum without plateaus up front
        assert lam[0] / lam.min() > 1e15
        assert lam[20] < 1e-2
        head = lam[:12]
        assert np.all(np.diff(head) < 0)

    def test_rejects_asymmetric_input(self):
        m = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(DomainError):
            eigendecompose(m)

    def test_rejects_indefinite_input(self):
        with pytest.raises(DomainError):
            eigendecompose(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1

    @pytest.mark.parametrize("model", list(CorrelationModel))
    def test_matches_mpmath_oracle(self, model):
        R = correlation_matrix(ApertureConfig(W=2.0, N=20, model=model))
        spec = eigendecompose(R)
        with mpmath.workdps(50):
            exact, _ = mpmath.eigsy(mpmath.matrix(R.tolist()))
            oracle = np.array(sorted((float(v) for v in exact), reverse=True))
        lam = spec.eigenvalues
        assert np.all(lam >= 0)
        # the float matrix may be indefinite in its tail, so the
        # reported |lambda| are held to the oracle's singular values
        floor = 20 * np.finfo(float).eps * lam[0]
        assert np.all(np.abs(lam - np.sort(np.abs(oracle))[::-1]) <= floor)
        # relative agreement where the absolute bound leaves room for it;
        # below ~1e-6 that bound allows more than 1e-9 (Jakes: 1.4e-8 at
        # lambda = 7.6e-10, inside the bound above)
        big = oracle > 1e-6
        assert np.allclose(lam[big], oracle[big], rtol=1e-9, atol=0)


@pytest.mark.parametrize("reader", [cholesky, eigendecompose, rho_extremes])
def test_asymmetry_past_1e_12_rejected(reader):
    # the matrix readers share specialfn.symmetric, whose tolerance is
    # 1e-12 absolute with no relative slack: a 1e-9 gap between an entry
    # and its mirror would otherwise be read from one of the two
    m = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
    with pytest.raises(DomainError, match="symmetric"):
        reader(m)
    m[1, 0] = 0.5 + 1e-13  # roundoff-sized, within the tolerance
    reader(m)


def _nan_at(entry):
    m = correlation_matrix(ApertureConfig(W=1.0, N=8, model=CorrelationModel.GAUSSIAN))
    m[entry] = m[entry[::-1]] = math.nan
    return m


class TestCholesky:
    """fieldmodel.cholesky, the one sampling factor: what it returns and rejects."""

    def test_identity_needs_no_jitter(self):
        factor = cholesky(np.eye(4))
        assert factor.jitter == 0.0
        assert np.array_equal(factor.lower, np.eye(4))

    def test_reconstructs_input(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=10, model=CorrelationModel.GAUSSIAN))
        f = cholesky(R)
        assert f.jitter == 0.0
        assert np.max(np.abs(f.lower @ f.lower.T - R)) < 1e-12

    def test_indefinite_matrix_rejected(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
        with pytest.raises(DomainError):
            cholesky(m)

    @pytest.mark.parametrize(
        "m",
        [
            _nan_at((0, 1)),
            _nan_at((1, 1)),
            np.ones(3),
            np.ones((2, 3)),
            [[1.0, 0.9], [0.0, 1.0]],
            np.zeros((0, 0)),
        ],
        ids=["off-diagonal", "diagonal", "1-D", "non-square", "asymmetric", "empty"],
    )
    def test_non_finite_matrix_rejected(self, m):
        # a NaN entry would give a NaN factor, which samples as zero
        # outage; a 1-D input must not broadcast, nor an asymmetric one
        # be read by one triangle
        with pytest.raises(DomainError):
            cholesky(m)
        with pytest.raises(DomainError):
            simulate_outage(m, 1.0, McConfig(trials=100))

    def test_ladder_shape(self):
        assert JITTER_LADDER[0] == 0.0
        assert list(JITTER_LADDER) == sorted(JITTER_LADDER)
        # perfbench/spans.py counts attempts as JITTER_LADDER.index(jitter) + 1
        assert JITTER_LADDER.index(cholesky(np.eye(3)).jitter) == 0

    @pytest.mark.parametrize(
        "N,W,model", GRID + [(200, W, m) for W in (1.0, 5.0) for m in CorrelationModel]
    )
    def test_product_within_n_eps(self, N, W, model):
        # the pivoted factor's backward error on its pivot columns: column
        # k is R's pivot column less the earlier columns' part, so F F^T
        # reproduces R there to roundoff. The k-th pivot is the largest
        # entry of column k (Cauchy-Schwarz on the PSD residual), and its
        # row is zero past column k.
        R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
        F = cholesky(R).lower
        r = F.shape[1]
        pivots = F.argmax(axis=0)
        assert len(set(pivots.tolist())) == r
        assert all(F[p, k] > 0.0 and not F[p, k + 1 :].any() for k, p in enumerate(pivots))
        err = np.max(np.abs(F @ F[pivots].T - R[:, pivots]))
        assert err <= N * np.finfo(float).eps


def _rank_and_residual(R):
    F = cholesky(R).lower
    return F.shape[1], np.max(np.abs(F @ F.T - R))


class TestPivotedCholesky:
    """The same factor's numerical rank and pivot-order structure."""

    @pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
    @pytest.mark.parametrize("W", [1.0, 5.0])
    @pytest.mark.parametrize("N", [1, 20, 64, 200, 400])
    def test_reconstructs_input(self, N, W, model):
        R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
        f = cholesky(R)
        assert f.jitter == 0.0
        assert f.lower.shape[0] == N and 1 <= f.lower.shape[1] <= N
        assert _rank_and_residual(R)[1] <= 1.5e-12

    @pytest.mark.parametrize(
        "model,N,W,rank",
        [
            (CorrelationModel.GAUSSIAN, 200, 1.0, 17),
            (CorrelationModel.JAKES, 200, 1.0, 10),
            (CorrelationModel.JAKES, 400, 5.0, 21),
            (CorrelationModel.GAUSSIAN, 400, 5.0, 63),
        ],
    )
    def test_numerical_rank(self, model, N, W, rank):
        R = correlation_matrix(ApertureConfig(W=W, N=N, model=model))
        assert _rank_and_residual(R)[0] == rank

    def test_lower_trapezoidal_in_pivot_order(self):
        R = correlation_matrix(ApertureConfig(W=1.0, N=200, model=CorrelationModel.GAUSSIAN))
        F = cholesky(R).lower
        r = F.shape[1]
        last = np.array([np.flatnonzero(row).max() for row in F])
        # one pivot row ends at each column but the last, and has a
        # positive diagonal there; every other row runs to the last column
        ends = np.bincount(last, minlength=r)
        assert list(ends[:-1]) == [1] * (r - 1)
        assert ends[-1] == 200 - (r - 1)
        pivots = [int(np.flatnonzero(last == k)[0]) for k in range(r - 1)]
        assert all(F[p, k] > 0.0 for k, p in enumerate(pivots))

    def test_exact_on_identity_and_all_ones(self):
        for n in (1, 7):
            f = cholesky(np.eye(n))
            assert f.lower.shape == (n, n)
            assert np.array_equal(f.lower @ f.lower.T, np.eye(n))
            f = cholesky(np.ones((n, n)))
            assert f.lower.shape == (n, 1)
            assert np.array_equal(f.lower @ f.lower.T, np.ones((n, n)))

    def test_indefinite_matrix_rejected(self):
        # the largest residual diagonal of [[1, 2], [2, 1]] after one step
        # is -3: stopping there would return a rank-1 factor of nothing
        with pytest.raises(DomainError, match="not positive semi-definite"):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_roundoff_indefinite_matrix_factors(self):
        # a correlation matrix pushed 1e-13 below zero along the
        # eigenvector of its smallest eigenvalue: indefinite by roundoff
        R = correlation_matrix(ApertureConfig(W=3.0, N=20, model=CorrelationModel.JAKES))
        u = np.linalg.eigh(R)[1][:, 0]
        R = R - 1e-13 * np.outer(u, u)
        assert -_PSD_SLACK < np.linalg.eigvalsh(R)[0] < 0.0
        rank, residual = _rank_and_residual(R)
        assert rank < 20 and residual <= 1.5e-12

    @pytest.mark.parametrize(
        "m",
        [
            _nan_at((0, 1)),
            np.ones(3),
            np.ones((2, 3)),
            [[1.0, 0.9], [0.0, 1.0]],
            np.zeros((0, 0)),
            np.zeros((3, 3)),
        ],
        ids=["nan", "1-D", "non-square", "asymmetric", "empty", "zero"],
    )
    def test_bad_matrix_rejected(self, m):
        with pytest.raises(DomainError):
            cholesky(m)


class TestKlTruncate:
    def test_full_rank_keeps_everything(self, gauss_spectrum_20_2):
        kl = kl_truncate(gauss_spectrum_20_2, 20)
        assert kl.rank == 20
        assert kl.truncation_error == 0.0
        assert kl.eigenvalues.shape == (20,)
        assert kl.eigenvectors.shape == (20, 20)

    def test_frozen_energy_deficit_at_rank_nine(self, gauss_spectrum_20_2):
        kl = kl_truncate(gauss_spectrum_20_2, 9)
        assert kl.truncation_error == pytest.approx(0.0058798568607925095, rel=1e-12)

    def test_error_decreases_with_rank(self, gauss_spectrum_20_2):
        errs = [kl_truncate(gauss_spectrum_20_2, K).truncation_error for K in range(1, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
        assert errs[-1] == 0.0

    def test_truncated_spectrum_truncates_again(self, gauss_spectrum_20_2):
        twice = kl_truncate(kl_truncate(gauss_spectrum_20_2, 3), 2)
        once = kl_truncate(gauss_spectrum_20_2, 2)
        assert twice.rank == 2
        assert np.array_equal(twice.eigenvectors, once.eigenvectors)
        assert twice.truncation_error == once.truncation_error

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_spectrum_rejects_bad_eigenvalue(self, bad):
        with pytest.raises(DomainError):
            EigenSpectrum(np.array([1.0, bad]), np.eye(2))

    @pytest.mark.parametrize(
        "lams,vecs",
        [
            (np.ones(3), np.eye(2)),  # more eigenvalues than columns
            (np.ones(2), np.ones((3, 1))),  # fewer
            (np.ones((2, 1)), np.eye(2)),  # 2-D eigenvalues
            (np.ones(2), np.ones(2)),  # 1-D eigenvectors
            (np.ones(0), np.ones((3, 0))),  # no mode
            (np.ones(1), np.ones((0, 1))),  # no port
        ],
        ids=["3-values-2-columns", "2-values-1-column", "2d-values", "1d-vectors", "no-mode",
             "no-port"],
    )
    def test_spectrum_rejects_mismatched_eigenvectors(self, lams, vecs):
        # unchecked, these gave rank-1/rank-2 outages of 0.632 and 0.437, or
        # a bare IndexError, ValueError or ZeroDivisionError further on
        with pytest.raises(DomainError):
            EigenSpectrum(lams, vecs)

    def test_rank_validation(self, gauss_spectrum_20_2):
        with pytest.raises(DomainError):
            kl_truncate(gauss_spectrum_20_2, 0)
        with pytest.raises(DomainError):
            kl_truncate(gauss_spectrum_20_2, 21)
        for K in (2.7, math.nan, math.inf):  # never truncated to a rank
            with pytest.raises(DomainError):
                kl_truncate(gauss_spectrum_20_2, K)

