"""FaultPlan: canonical identity, env parsing, validation."""

import json

import pytest

from repro.faults import (
    ABSORBED_SITES,
    FAULT_KINDS,
    SITES,
    FaultPlan,
    FaultPlanError,
    prob_plan,
)


def _plan():
    return FaultPlan.build(
        [
            {"site": "store.commit", "kind": "torn",
             "when": {"index": 3, "hit": 3}, "times": 1},
            {"site": "runner.shard_start", "kind": "error", "prob": 0.25},
        ],
        seed=42,
    )


class TestIdentity:
    def test_round_trips_through_dict(self):
        plan = _plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_canonical_json_is_order_insensitive(self):
        plan = _plan()
        payload = json.loads(plan.canonical_json())
        # Same content through a differently-ordered payload: same hash.
        reordered = {key: payload[key] for key in reversed(list(payload))}
        assert FaultPlan.from_dict(reordered).plan_hash() == plan.plan_hash()

    def test_distinct_plans_get_distinct_hashes(self):
        plan = _plan()
        reseeded = FaultPlan.build(
            [rule.to_dict() for rule in plan.rules], seed=43
        )
        assert reseeded.plan_hash() != plan.plan_hash()

    def test_hash_is_sha256_hex(self):
        digest = _plan().plan_hash()
        assert len(digest) == 64
        int(digest, 16)


class TestEnvParsing:
    @pytest.mark.parametrize("value", ["", "  ", "off", "0", "none", "OFF"])
    def test_off_values_disable(self, value):
        assert FaultPlan.from_env(value) is None

    def test_prob_shorthand(self):
        plan = FaultPlan.from_env("prob:0.02:1234")
        assert plan.seed == 1234
        # Only the sites whose injected error something absorbs: an
        # error anywhere else propagates, as a real failure would.
        assert [rule.site for rule in plan.rules] == [
            "runner.shard_start", "native.compile",
        ]
        assert set(ABSORBED_SITES) <= set(SITES)
        assert all(rule.kind == "error" for rule in plan.rules)
        assert all(rule.prob == 0.02 for rule in plan.rules)

    def test_prob_shorthand_default_seed(self):
        assert FaultPlan.from_env("prob:0.5").seed == 0

    def test_inline_json(self):
        plan = _plan()
        assert FaultPlan.from_env(plan.canonical_json()) == plan

    def test_plan_file(self, tmp_path):
        plan = _plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.canonical_json())
        assert FaultPlan.from_env(str(path)) == plan

    @pytest.mark.parametrize("value", [
        "prob:not-a-number",
        "prob:0.1:0.5:extra",
        '{"rules": [',
        "/nonexistent/chaos-plan.json",
    ])
    def test_garbage_raises_naming_the_knob(self, value):
        with pytest.raises(FaultPlanError, match="REPRO_CHAOS"):
            FaultPlan.from_env(value)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultPlan.from_env("prob:1.5")


class TestValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="site"):
            FaultPlan.build([{"site": "nowhere", "kind": "error"}])

    def test_unknown_kind_rejected(self):
        for kind in ("meltdown", "backend"):
            with pytest.raises(FaultPlanError, match="kind"):
                FaultPlan.build([{"site": SITES[0], "kind": kind}])

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            FaultPlan.build(
                [{"site": SITES[0], "kind": "error", "severity": 9}]
            )

    def test_bad_prob_rejected(self):
        with pytest.raises(FaultPlanError, match="prob"):
            FaultPlan.build([{"site": SITES[0], "kind": "error", "prob": 2}])

    def test_bad_times_rejected(self):
        with pytest.raises(FaultPlanError, match="times"):
            FaultPlan.build(
                [{"site": SITES[0], "kind": "error", "times": 0}]
            )

    def test_non_scalar_when_rejected(self):
        with pytest.raises(FaultPlanError, match="scalar"):
            FaultPlan.build(
                [{"site": SITES[0], "kind": "error", "when": {"k": [1]}}]
            )

    def test_every_kind_is_buildable(self):
        for kind in FAULT_KINDS:
            plan = prob_plan(0.5, kind=kind)
            assert all(rule.kind == kind for rule in plan.rules)
