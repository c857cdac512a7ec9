"""Tests for the churn trace that drives the simulator's arrivals and departures."""

import random
from itertools import islice

import pytest

from repro.sim import SimConfig
from repro.sim.events import EventKind
from repro.sim.processes import churn_trace


class TestChurnTrace:
    def test_churn_trace_shape(self):
        events = list(churn_trace(50, 0.7, warmup_arrivals=10, rng=random.Random(0)))
        assert len(events) == 60
        assert all(kind == EventKind.ARRIVAL for kind in events[:10])
        arrivals = sum(1 for kind in events[10:] if kind == EventKind.ARRIVAL)
        assert 20 <= arrivals <= 50

    def test_exact_warmup_prefix(self):
        for warmup in (0, 1, 7, 32):
            events = list(
                churn_trace(40, 0.3, warmup_arrivals=warmup,
                            rng=random.Random(1))
            )
            assert len(events) == warmup + 40
            assert all(
                kind == EventKind.ARRIVAL for kind in events[:warmup]
            ), f"warmup={warmup} leading events must all be arrivals"

    def test_deterministic_under_seeded_rng(self):
        first = list(
            churn_trace(200, 0.55, warmup_arrivals=8, rng=random.Random(77))
        )
        second = list(
            churn_trace(200, 0.55, warmup_arrivals=8, rng=random.Random(77))
        )
        assert first == second
        different = list(
            churn_trace(200, 0.55, warmup_arrivals=8, rng=random.Random(78))
        )
        assert first != different

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_probability_bounds_are_degenerate_traces(self, probability):
        events = list(
            churn_trace(60, probability, warmup_arrivals=5,
                        rng=random.Random(0))
        )
        expected = (
            EventKind.ARRIVAL if probability == 1.0 else EventKind.DEPARTURE
        )
        assert all(kind == expected for kind in events[5:])

    def test_arrival_fraction_tracks_probability(self):
        rng = random.Random(123)
        events = list(churn_trace(4000, 0.6, warmup_arrivals=0, rng=rng))
        arrivals = sum(1 for kind in events if kind == EventKind.ARRIVAL)
        assert 0.55 < arrivals / len(events) < 0.65

    def test_is_lazy(self):
        # A huge trace must not materialize: take a prefix only.
        trace = churn_trace(10**9, 0.5, warmup_arrivals=2,
                            rng=random.Random(0))
        assert len(list(islice(trace, 10))) == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"events": 5, "arrival_probability": 1.5},
            {"events": 5, "arrival_probability": -0.1},
            {"events": -1, "arrival_probability": 0.5},
            {"events": 5, "arrival_probability": 0.5, "warmup_arrivals": -2},
        ],
    )
    def test_validation(self, kwargs):
        # The trace's shape is validated with the rest of the config,
        # before any trace is drawn.
        with pytest.raises(ValueError):
            SimConfig(**kwargs).validate()
