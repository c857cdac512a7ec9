"""Chaos tests share one invariant: leave no fault state behind."""

import pytest

from repro import faults


@pytest.fixture(autouse=True)
def clean_chaos():
    """Fresh injector before and after every chaos test."""
    faults.clear()
    yield
    faults.clear()
