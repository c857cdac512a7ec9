"""Injector semantics: determinism, matching, torn actions."""

import pytest

from repro import faults
from repro.faults import FaultPlan, InjectedFault, TornWrite, prob_plan


def _fires(plan, site, visits, **context):
    """Replay ``visits`` calls against a fresh counter state."""
    faults.configure(plan)
    fired = []
    for _ in range(visits):
        try:
            faults.inject(site, **context)
            fired.append(False)
        except InjectedFault:
            fired.append(True)
    return fired


class TestDisabled:
    def test_no_plan_is_a_no_op(self):
        faults.configure(None)
        assert faults.inject("store.commit", length=10) is None

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "prob:1.0")
        faults.configure(None)
        assert faults.inject("runner.shard_start", start=0) is None

    def test_clear_restores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "prob:1.0")
        faults.configure(None)
        faults.clear()
        with pytest.raises(InjectedFault):
            faults.inject("runner.shard_start", start=0)


class TestMatching:
    def test_when_matches_context_subset(self):
        plan = FaultPlan.build(
            [{"site": "store.commit", "kind": "error", "when": {"k": 3}}]
        )
        faults.configure(plan)
        assert faults.inject("store.commit", k=2, attempt=0) is None
        with pytest.raises(InjectedFault):
            faults.inject("store.commit", k=3, attempt=0)

    def test_missing_when_key_never_matches(self):
        plan = FaultPlan.build(
            [{"site": "store.commit", "kind": "error", "when": {"rack": 1}}]
        )
        faults.configure(plan)
        assert faults.inject("store.commit", k=3) is None

    def test_hit_pseudo_key_counts_site_visits(self):
        plan = FaultPlan.build(
            [{"site": "store.commit", "kind": "error", "when": {"hit": 2}}]
        )
        assert _fires(plan, "store.commit", 5, k=1) == [
            False, False, True, False, False,
        ]

    def test_times_caps_firing(self):
        plan = FaultPlan.build(
            [{"site": "store.commit", "kind": "error", "times": 2}]
        )
        assert _fires(plan, "store.commit", 5, k=1) == [
            True, True, False, False, False,
        ]

    def test_sites_are_independent(self):
        plan = prob_plan(1.0, sites=("store.commit",))
        faults.configure(plan)
        assert faults.inject("runner.shard_start", start=0) is None
        with pytest.raises(InjectedFault):
            faults.inject("store.commit", length=5)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan.build([
            {"site": "store.commit", "kind": "error", "times": 1},
            {"site": "store.commit", "kind": "torn"},
        ])
        faults.configure(plan)
        with pytest.raises(InjectedFault) as first:
            faults.inject("store.commit", k=1)
        second = faults.inject("store.commit", k=1)
        assert first.value.site == "store.commit"
        assert isinstance(second, TornWrite)


class TestDeterminism:
    def test_same_plan_same_schedule(self):
        plan = prob_plan(0.5, seed=7, sites=("store.commit",))
        first = _fires(plan, "store.commit", 50, k=1)
        second = _fires(plan, "store.commit", 50, k=1)
        assert first == second
        assert any(first) and not all(first)

    def test_different_seed_different_schedule(self):
        one = _fires(prob_plan(0.5, seed=1, sites=("store.commit",)),
                     "store.commit", 50, k=1)
        two = _fires(prob_plan(0.5, seed=2, sites=("store.commit",)),
                     "store.commit", 50, k=1)
        assert one != two

    def test_context_changes_the_draw(self):
        plan = prob_plan(0.5, seed=7, sites=("store.commit",))
        one = _fires(plan, "store.commit", 50, k=1)
        two = _fires(plan, "store.commit", 50, k=2)
        assert one != two


class TestTornAction:
    def test_cut_is_strictly_inside_the_payload(self):
        plan = FaultPlan.build(
            [{"site": "store.commit", "kind": "torn"}], seed=3
        )
        faults.configure(plan)
        action = faults.inject("store.commit", length=100, index=0)
        assert isinstance(action, TornWrite)
        assert 1 <= action.length <= 99
        assert action.exit_code == 137

    def test_cut_offsets_vary_with_seed(self):
        cuts = set()
        for seed in range(8):
            faults.configure(FaultPlan.build(
                [{"site": "store.commit", "kind": "torn"}], seed=seed
            ))
            cuts.add(faults.inject("store.commit", length=1000, index=0).length)
        assert len(cuts) > 1

    def test_args_pin_the_cut_and_exit_code(self):
        plan = FaultPlan.build([{
            "site": "store.commit", "kind": "torn",
            "args": {"bytes": 7, "exit": 9},
        }])
        faults.configure(plan)
        action = faults.inject("store.commit", length=100, index=0)
        assert action.length == 7
        assert action.exit_code == 9
