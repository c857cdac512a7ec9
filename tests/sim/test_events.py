"""Tests for the discrete-event substrate."""

import pytest

from repro.sim.events import Event, EventKind, EventQueue, SimClockError


def ev(kind=EventKind.MEASURE, **payload):
    return Event(kind=kind, **payload)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, ev(EventKind.STRIKE))
        queue.push(1.0, ev(EventKind.ARRIVAL))
        queue.push(2.0, ev(EventKind.MEASURE))
        kinds = [queue.pop()[1].kind for _ in range(3)]
        assert kinds == [EventKind.ARRIVAL, EventKind.MEASURE, EventKind.STRIKE]

    def test_same_time_is_fifo(self):
        queue = EventQueue()
        for node in range(5):
            queue.push(1.0, ev(EventKind.NODE_REPAIR, node=node))
        assert [queue.pop()[1].node for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_clock_advances_and_rejects_the_past(self):
        queue = EventQueue()
        queue.push(2.0, ev())
        assert queue.now == 0.0
        time, _event = queue.pop()
        assert time == 2.0
        assert queue.now == 2.0
        with pytest.raises(SimClockError):
            queue.push(1.5, ev())
        queue.push(2.0, ev())  # same instant is fine

    def test_rejects_non_finite_times(self):
        queue = EventQueue()
        with pytest.raises(SimClockError):
            queue.push(float("nan"), ev())
        with pytest.raises(SimClockError):
            queue.push(float("inf"), ev())

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(4.0, ev())
        assert queue and len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_interleaved_push_pop_stays_sorted(self):
        queue = EventQueue()
        queue.push(1.0, ev(EventKind.ARRIVAL))
        queue.push(5.0, ev(EventKind.STRIKE))
        time, _ = queue.pop()
        queue.push(time + 2.0, ev(EventKind.MEASURE))
        times = [queue.pop()[0] for _ in range(2)]
        assert times == [3.0, 5.0]
