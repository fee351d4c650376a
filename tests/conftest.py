"""Shared fixtures, a full-rank reference factor and the acceptance scorecard printer."""

import math

import numpy as np
import pytest

from fas_extremes import specialfn
from fas_extremes.fieldmodel import ApertureConfig, correlation_matrix, eigendecompose
from fas_extremes.kernels import CorrelationModel

# Populated by tests/test_acceptance.py; printed once at the end of the run
# so the scorecard survives pytest's per-test output capture.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (ok, detail)


def full_cholesky(R) -> np.ndarray:
    """Reference N x N lower-triangular factor of R + shift I: the first shift that factors.

    The unpivoted left-looking loop, whose dot products are elementwise
    products and NumPy sums, with no LAPACK call: LAPACK's dpotrf gave
    N = 200 factors up to 1.2e-4 apart at 1 and 2 BLAS threads. A
    numerically singular correlation matrix needs a shift of about
    1e-12. fieldmodel.cholesky, the pivoted factor the program samples
    through, is checked against this one.
    """
    m = np.asarray(R, dtype=float)
    n = len(m)
    shifts = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
    for shift in shifts:
        lower = np.zeros((n, n))
        for j in range(n):
            s = m[j, j] + shift - np.square(lower[j, :j]).sum()
            if not s > 0.0:
                break
            lower[j, j] = root = math.sqrt(s)
            rows, pivot_row = lower[j + 1 :, :j], lower[j, :j]
            lower[j + 1 :, j] = (m[j + 1 :, j] - (rows * pivot_row).sum(axis=1)) / root
        else:
            return lower
    raise AssertionError(f"no shift in {shifts} makes the matrix positive definite")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        ok, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:02d}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def gauss_spectrum_20_2():
    """Eigendecomposition reused across KL and bounds tests."""
    cfg = ApertureConfig(W=2.0, N=20, model=CorrelationModel.GAUSSIAN)
    return eigendecompose(correlation_matrix(cfg))


@pytest.fixture(scope="session")
def gauss_matrix_20_1():
    cfg = ApertureConfig(W=1.0, N=20, model=CorrelationModel.GAUSSIAN)
    return correlation_matrix(cfg)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def scratch(monkeypatch):
    """A private, empty scratch-slab pool for one test: its idle slab, if any."""
    pool: list = []
    monkeypatch.setattr(specialfn, "_SCRATCH", pool)
    return pool
