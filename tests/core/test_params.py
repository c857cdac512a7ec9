"""Tests for the majority-quorum threshold."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import majority_threshold


class TestThresholds:
    @given(st.integers(1, 20))
    def test_majority(self, r):
        s = majority_threshold(r)
        # Object dies exactly when survivors < majority.
        survivors_at_death = r - s
        assert survivors_at_death < r // 2 + 1
        assert r - (s - 1) >= r // 2 + 1

    def test_examples(self):
        assert majority_threshold(3) == 2
        assert majority_threshold(4) == 2  # needs 3 of 4 alive; dies at 2 lost
        assert majority_threshold(5) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            majority_threshold(0)
