import pytest

from alssnn import models


@pytest.fixture
def set_bound(monkeypatch):
    """Set the divergence bound of every free run and closed loop for one
    test: set_bound(b) replaces the step engine's DIVERGENCE_BOUND until it
    ends."""
    def set_to(bound):
        monkeypatch.setattr(models, "DIVERGENCE_BOUND", bound)
    return set_to
