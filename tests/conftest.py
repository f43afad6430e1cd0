"""Fixtures shared by the test modules."""

import pytest

from localzeta import cache, groups


@pytest.fixture
def generated(monkeypatch):
    """(ring literal, given a lower table) of every generate call, with an
    empty memo and no disk cache."""
    real, calls = groups.generate, []

    def recording(ring, *args, **kwargs):
        calls.append((ring.literal, kwargs.get("lower") is not None))
        return real(ring, *args, **kwargs)

    monkeypatch.setattr(groups, "generate", recording)
    monkeypatch.delenv("ZETA_CACHE_DIR", raising=False)
    cache.clear_memo()
    yield calls
    cache.clear_memo()
