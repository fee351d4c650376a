"""Shared fixtures and the acceptance scorecard printer."""

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
