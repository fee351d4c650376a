"""Effective degree-of-freedom measures."""

import math

import numpy as np
import pytest

from fas_extremes.dof import keff_asymptotic, participation_ratio
from fas_extremes.fieldmodel import ApertureConfig, correlation_matrix, eigendecompose
from fas_extremes.kernels import CorrelationModel
from fas_extremes.specialfn import DomainError


class TestParticipationRatio:
    def test_identity_matrix_counts_every_mode(self):
        assert participation_ratio(np.eye(7)) == pytest.approx(7.0, abs=1e-12)

    def test_fully_correlated_counts_one(self):
        assert participation_ratio(np.ones((6, 6))) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_reference_value(self):
        R = correlation_matrix(ApertureConfig(W=3.0, N=200, model=CorrelationModel.GAUSSIAN))
        assert participation_ratio(R) == pytest.approx(7.889719455151805, rel=1e-12)

    def test_equals_eigenvalue_form(self):
        # N^2 / tr(R^2) is the same number as (sum lam)^2 / sum lam^2
        R = correlation_matrix(ApertureConfig(W=1.0, N=15, model=CorrelationModel.JAKES))
        lam = eigendecompose(R).eigenvalues
        eig_form = lam.sum() ** 2 / (lam**2).sum()
        assert participation_ratio(R) == pytest.approx(eig_form, rel=1e-10)

    def test_grows_with_aperture(self):
        prs = [
            participation_ratio(
                correlation_matrix(ApertureConfig(W=W, N=100, model=CorrelationModel.GAUSSIAN))
            )
            for W in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(prs, prs[1:]))

    def test_requires_unit_diagonal(self):
        with pytest.raises(DomainError):
            participation_ratio(np.array([[2.0, 0.0], [0.0, 2.0]]))


class TestKeffAsymptotic:
    def test_formula_values(self):
        assert keff_asymptotic(CorrelationModel.GAUSSIAN, 3.0) == pytest.approx(
            math.pi * math.sqrt(2) * 3.0, rel=1e-15
        )
        assert keff_asymptotic(CorrelationModel.JAKES, 3.0) == 7.0
        assert keff_asymptotic(CorrelationModel.JAKES, 2.5) == 6.0

    def test_rejects_nonpositive_aperture(self):
        with pytest.raises(DomainError):
            keff_asymptotic(CorrelationModel.JAKES, 0.0)
