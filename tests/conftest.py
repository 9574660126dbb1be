import pytest

from spincalc import construct


@pytest.fixture
def empty_rules(monkeypatch):
    """The process's rule table, empty for this test and restored after it."""
    monkeypatch.setattr(construct, "_rules", {})
    monkeypatch.setattr(construct, "_size", 0)
