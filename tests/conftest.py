import pytest

from alssnn import linear_id


@pytest.fixture
def set_bound(monkeypatch):
    """Set the divergence bound of every free run and closed loop for one
    test: set_bound(b) replaces the step engine's DIVERGENCE_BOUND until it
    ends."""
    def set_to(bound):
        monkeypatch.setattr(linear_id, "DIVERGENCE_BOUND", bound)
    return set_to
