"""The metrics registry: catalog, gating, deltas, merge, rollback."""

import pytest

from repro import obs
from repro.obs.metrics import CATALOG, MetricsError


class TestCatalog:
    def test_unknown_instrument_raises(self, metrics_on):
        with pytest.raises(MetricsError, match="unknown instrument"):
            obs.count("no.such.counter")

    def test_kind_mismatch_raises(self, metrics_on):
        with pytest.raises(MetricsError, match="is a counter"):
            obs.observe("attack.searches", 1)
        with pytest.raises(MetricsError, match="is a histogram"):
            obs.count("attack.damage")

    def test_every_instrument_has_description(self):
        for inst in CATALOG.values():
            assert inst.description
            assert inst.kind in ("counter", "histogram")

    def test_always_instruments_are_counters(self):
        # Control-plane instruments are rare discrete occurrences.
        for inst in CATALOG.values():
            if inst.always:
                assert inst.kind == "counter"
                assert not inst.deterministic

    def test_deterministic_set_is_semantic_work(self):
        names = {n for n, i in CATALOG.items() if i.deterministic}
        assert "attack.searches" in names
        assert "kernel.evaluations" in names
        # Topology-dependent instruments must never be pinned.
        assert "engine.builds" not in names
        assert "runner.shard_retries" not in names


class TestGating:
    def test_off_by_default(self):
        assert not obs.metrics_enabled()
        obs.count("attack.searches")
        assert obs.counter_value("attack.searches") == 0

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.set_metrics(None)
        assert obs.metrics_enabled()
        obs.count("attack.searches")
        assert obs.counter_value("attack.searches") == 1

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "maybe")
        obs.set_metrics(None)
        with pytest.raises(MetricsError, match="REPRO_METRICS"):
            obs.metrics_enabled()

    def test_always_counters_record_when_off(self):
        assert not obs.metrics_enabled()
        obs.count("runner.shard_retries")
        assert obs.counter_value("runner.shard_retries") == 1

    def test_events_record_when_off(self):
        obs.record_event("runner.shard_retry", start=4, reason="test")
        (entry,) = obs.events()
        assert entry["event"] == "runner.shard_retry"
        assert entry["fields"]["start"] == 4
        assert entry["seq"] == 1


class TestHistograms:
    def test_power_of_two_buckets(self, metrics_on):
        for value in (0, 1, 2, 3, 8, 9):
            obs.observe("attack.damage", value)
        hist = obs.snapshot()["histograms"]["attack.damage"]
        assert hist["count"] == 6
        assert hist["sum"] == 23
        # 0 -> "0", 1 -> "1", 2..3 -> "2", 8..9 -> "4"
        assert hist["buckets"] == {"0": 1, "1": 1, "2": 2, "4": 2}


class TestDeltas:
    def test_delta_since_drops_zero_entries(self, metrics_on):
        obs.count("attack.searches", 5)
        mark = obs.checkpoint()
        obs.count("kernel.evaluations", 7)
        delta = obs.delta_since(mark)
        assert delta["counters"] == {"kernel.evaluations": 7}

    def test_delta_value(self, metrics_on):
        mark = obs.checkpoint()
        obs.count("runner.shard_retries", 3)
        assert obs.delta_value("runner.shard_retries", mark) == 3

    def test_merge_delta_roundtrip(self, metrics_on):
        obs.count("attack.searches", 2)
        obs.observe("attack.damage", 4)
        mark = obs.checkpoint()
        obs.count("attack.searches", 3)
        obs.observe("attack.damage", 4)
        delta = obs.delta_since(mark)
        obs.rollback(mark)
        obs.merge_delta(delta)
        assert obs.counter_value("attack.searches") == 5
        hist = obs.snapshot()["histograms"]["attack.damage"]
        assert hist["count"] == 2

    def test_deterministic_delta_filters_and_sorts(self, metrics_on):
        mark = obs.checkpoint()
        obs.count("kernel.evaluations", 2)
        obs.count("attack.searches", 1)
        obs.count("engine.builds", 9)  # ops: must not appear
        obs.count("runner.shard_retries")  # ops/always: must not appear
        obs.observe("attack.damage", 3)
        det = obs.deterministic_delta(mark)
        assert list(det["counters"]) == ["attack.searches", "kernel.evaluations"]
        assert list(det["histograms"]) == ["attack.damage"]
        assert set(det) == {"counters", "histograms"}

    def test_rollback_keeps_always_counters(self, metrics_on):
        mark = obs.checkpoint()
        obs.count("attack.searches", 4)
        obs.count("runner.shard_retries", 2)
        obs.rollback(mark)
        assert obs.counter_value("attack.searches") == 0
        assert obs.counter_value("runner.shard_retries") == 2

    def test_rollback_restores_hists(self, metrics_on):
        obs.observe("attack.damage", 3)
        mark = obs.checkpoint()
        obs.observe("attack.damage", 5)
        obs.observe("store.commit_bytes", 7)
        obs.rollback(mark)
        snap = obs.snapshot()
        assert snap["histograms"]["attack.damage"]["count"] == 1
        assert snap["histograms"]["attack.damage"]["sum"] == 3
        assert "store.commit_bytes" not in snap["histograms"]

    def test_reset_zeroes_everything(self, metrics_on):
        obs.count("attack.searches")
        obs.record_event("faults.injected", site="x", kind="error")
        obs.reset_metrics()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["events"] == []
