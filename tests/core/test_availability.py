"""Tests for the availability evaluation harness."""

import random

from repro.core.availability import evaluate_availability
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy


class TestEvaluate:
    def test_report_fields(self):
        placement = RandomStrategy(12, 3).place(30, random.Random(0))
        report = evaluate_availability(placement, 3, 2, effort="exact")
        assert report.b == 30
        assert report.available + report.failed == 30
        assert report.available == 30 - report.attack.damage
        assert 0.0 <= report.fraction_available <= 1.0
        assert report.exact

    def test_heuristic_flagged(self):
        placement = RandomStrategy(40, 3).place(300, random.Random(0))
        report = evaluate_availability(placement, 4, 2, effort="fast")
        assert not report.exact

    def test_simple_beats_bound(self):
        strategy = SimpleStrategy(13, 3, 1)
        placement = strategy.place(26)
        report = evaluate_availability(placement, 3, 2, effort="exact")
        assert report.available >= strategy.lower_bound(26, 3, 2)

