"""Span schema validation, trace loading, and metric rendering."""

import pytest

from repro import obs
from repro.obs.report import (
    load_trace,
    metrics_json,
    render_metrics,
    validate_span,
)


def _good_span(**overrides):
    record = {
        "name": "engine.attack",
        "ts": 1.5,
        "dur": 0.25,
        "pid": 42,
        "seq": 7,
        "parent": None,
        "depth": 0,
        "attrs": {"k": 2},
    }
    record.update(overrides)
    return record


class TestValidateSpan:
    def test_accepts_well_formed(self):
        validate_span(_good_span())
        validate_span(_good_span(parent=3, depth=1))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_span([1, 2])

    def test_rejects_missing_field(self):
        record = _good_span()
        del record["dur"]
        with pytest.raises(ValueError, match="missing 'dur'"):
            validate_span(record)

    def test_rejects_extra_field(self):
        with pytest.raises(ValueError, match="unknown fields"):
            validate_span(_good_span(extra=1))

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="'pid' has type"):
            validate_span(_good_span(pid="42"))

    def test_rejects_bool_masquerading_as_int(self):
        with pytest.raises(ValueError, match="'seq' has type"):
            validate_span(_good_span(seq=True))

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration is negative"):
            validate_span(_good_span(dur=-0.1))

    def test_rejects_parent_depth_disagreement(self):
        with pytest.raises(ValueError, match="parent/depth disagree"):
            validate_span(_good_span(parent=3, depth=0))
        with pytest.raises(ValueError, match="parent/depth disagree"):
            validate_span(_good_span(parent=None, depth=1))


class TestLoadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure_trace(str(path))
        with obs.span("store.commit", index=0):
            pass
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert len(load_trace(str(path))) == 1

    def test_bad_json_reports_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"name": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:1: .*missing"):
            load_trace(str(path))
        path.write_text("not json\n")
        with pytest.raises(ValueError, match=r"t\.jsonl:1: not valid JSON"):
            load_trace(str(path))


class TestRenderMetrics:
    def test_empty_snapshot_fallback(self):
        assert render_metrics({}, title="metrics (run)") == (
            "metrics (run): (nothing recorded)"
        )

    def test_tables_and_events(self, metrics_on):
        obs.count("attack.searches", 3)
        obs.count("engine.builds", 2)
        obs.observe("attack.damage", 10)
        obs.record_event("runner.shard_retry", start=4, reason="test")
        text = render_metrics(obs.snapshot())
        assert "attack.searches" in text
        assert "engine.builds" in text
        assert "attack.damage" in text
        assert "runner.shard_retry reason='test' start=4" in text
        # Catalog descriptions ride along.
        assert "description" in text

    def test_metrics_json_is_stable(self, metrics_on):
        obs.count("attack.searches", 3)
        obs.count("kernel.evaluations", 9)
        first = metrics_json(obs.snapshot())
        second = metrics_json(obs.snapshot())
        assert first == second
        assert first.index('"attack.searches"') < first.index(
            '"kernel.evaluations"'
        )
