"""Shared fixtures and markers for the test suite."""

import random

import pytest

from repro.core.kernels import GAIN_BACKINGS, resolve_gain_backing


def available_gain_backings():
    """Every gain backing runnable in this environment, fastest first."""
    available = []
    for backing in GAIN_BACKINGS:
        try:
            resolve_gain_backing(backing)
        except ValueError:
            continue
        available.append(backing)
    return available


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )


@pytest.fixture
def rng():
    """A deterministic RNG; tests needing different streams derive their own."""
    return random.Random(0xC0FFEE)


@pytest.fixture(params=available_gain_backings())
def each_backing(request, monkeypatch):
    """Run the test once per gain backing, pinned via ``REPRO_GAIN_BACKING``.

    monkeypatch restores the environment on teardown, so a failing test
    can never leak its backing into the rest of the session. Every attack
    builds its own engine, which resolves the pinned backing when it is
    built.
    """
    monkeypatch.setenv("REPRO_GAIN_BACKING", request.param)
    yield request.param
