import numpy as np
import pytest

from alssnn import models
from alssnn.dataio import Dataset


@pytest.fixture
def set_bound(monkeypatch):
    """Set the divergence bound of every free run and closed loop for one
    test: set_bound(b) replaces the step engine's DIVERGENCE_BOUND until it
    ends."""
    def set_to(bound):
        monkeypatch.setattr(models, "DIVERGENCE_BOUND", bound)
    return set_to


@pytest.fixture
def tanh_record():
    """300 samples of a stable 2-state plant driven by white noise, read
    through y + 0.3 tanh(2y). Trained with n = 2, gamma = 0.1 and seed 3, LM
    stops on loss_tol with two-unit nets and runs its damping past
    lambda_max with one-unit nets."""
    u = np.random.default_rng(3).standard_normal((300, 1))
    lin = models.LinearSS(A=[[0.7, 0.2], [-0.1, 0.5]], B=[[1.0], [0.3]], C=[[1.0, 0.0]])
    y = models.simulate(lin, u).y
    return Dataset(u=u, y=y + 0.3 * np.tanh(2 * y), name="tanh-record")
