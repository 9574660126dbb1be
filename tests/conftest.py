import pytest

from spincalc import abelian, construct


@pytest.fixture
def empty_rules(monkeypatch):
    """The process's rule and group tables, empty for this test and restored after it."""
    monkeypatch.setattr(construct, "_rules", {})
    monkeypatch.setattr(construct, "_size", 0)
    monkeypatch.setattr(abelian, "_groups", {})
