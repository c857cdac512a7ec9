"""Tests for SystemParams and the majority-quorum threshold."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import SystemParams, majority_threshold


class TestSystemParams:
    def test_paper_configurations_valid(self):
        for n in (31, 71, 257):
            for r in range(2, 6):
                for s in range(1, r + 1):
                    SystemParams(n=n, b=600, r=r, s=s, k=max(s, 2))

    def test_average_load(self):
        params = SystemParams(n=31, b=600, r=5, s=3, k=3)
        assert params.average_load == pytest.approx(5 * 600 / 31)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, b=1, r=1, s=1, k=1),
            dict(n=10, b=0, r=2, s=1, k=2),
            dict(n=10, b=5, r=11, s=1, k=2),  # r > n
            dict(n=10, b=5, r=3, s=0, k=2),  # s < 1
            dict(n=10, b=5, r=3, s=4, k=4),  # s > r
            dict(n=10, b=5, r=3, s=2, k=1),  # k < s
            dict(n=10, b=5, r=3, s=2, k=10),  # k >= n
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    def test_with_objects_and_failures(self):
        params = SystemParams(n=71, b=600, r=3, s=2, k=3)
        assert params.with_objects(1200).b == 1200
        assert params.with_failures(5).k == 5
        with pytest.raises(ValueError):
            params.with_failures(1)  # below s


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
