"""Observability tests share one invariant: leave no obs state behind."""

import os

import pytest

from repro import faults, obs


@pytest.fixture(autouse=True)
def clean_obs(monkeypatch):
    """Fresh registry, trace and injector around every test."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
    obs.reset_metrics()
    obs.set_metrics(None)
    obs.reset_trace()
    faults.clear()
    yield
    # The CLI's _arm_obs exports these for forked workers; monkeypatch
    # can't undo writes it didn't make, so pop them here.
    os.environ.pop("REPRO_METRICS", None)
    os.environ.pop("REPRO_TRACE", None)
    obs.reset_metrics()
    obs.set_metrics(None)
    obs.reset_trace()
    faults.clear()


@pytest.fixture
def metrics_on():
    obs.set_metrics(True)
    yield
