"""Settings every test module shares."""

import pytest


@pytest.fixture(autouse=True)
def _no_precision_from_the_environment(monkeypatch):
    # A table's decimals follow SCINDEX_PRECISION when it is set, so each
    # test starts without it, and a test that needs it sets it itself.
    monkeypatch.delenv("SCINDEX_PRECISION", raising=False)
