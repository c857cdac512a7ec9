"""Degradation ladder: demotions, auto resolution, forced backend faults."""

import random

import pytest

from repro import faults
from repro.core import native
from repro.core.adversary import damage
from repro.core.kernels import (
    GAIN_BACKINGS,
    demote_backing,
    demoted_backings,
    make_kernel,
    resolve_gain_backing,
    restore_backings,
)
from repro.core.random_placement import RandomStrategy
from repro.faults import FaultPlan, InjectedFault


def _placement():
    return RandomStrategy(11, 3).place(40, random.Random(7))


needs_native = pytest.mark.skipif(
    not native.available(), reason="native is the only demotable rung"
)


class TestDemotionBookkeeping:
    @needs_native
    def test_demote_and_restore(self):
        demote_backing("native", "test fault")
        assert demoted_backings() == {"native": "test fault"}
        restore_backings()
        assert demoted_backings() == {}

    @needs_native
    def test_first_reason_wins(self):
        demote_backing("native", "first")
        demote_backing("native", "second")
        assert demoted_backings()["native"] == "first"

    def test_python_floor_is_never_demotable(self):
        with pytest.raises(ValueError, match="floor"):
            demote_backing("python", "nope")

    def test_unknown_backing_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            demote_backing("gpu", "nope")


class TestResolution:
    def test_auto_skips_demoted_rungs(self, monkeypatch):
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        ladder = [resolve_gain_backing()]
        while ladder[-1] != GAIN_BACKINGS[-1]:
            demote_backing(ladder[-1], "test demotion")
            ladder.append(resolve_gain_backing())
        # Strictly descending through the (available) ladder to python.
        positions = [GAIN_BACKINGS.index(backing) for backing in ladder]
        assert positions == sorted(set(positions))
        assert ladder[-1] == "python"

    @needs_native
    def test_explicit_demoted_choice_raises(self):
        demote_backing("native", "watchdog fault")
        with pytest.raises(ValueError, match="demoted"):
            resolve_gain_backing("native")


class TestForcedBackendFault:
    def test_backend_fault_degrades_with_identical_damages(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        top = resolve_gain_backing()
        if top == GAIN_BACKINGS[-1]:
            pytest.skip("auto already resolves to the python floor")
        placement = _placement()

        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "backend",
            "when": {"hit": 0}, "times": 1,
        }]))
        kernel = make_kernel(placement, 2)
        assert top in demoted_backings()
        nodes = [0, 3, 7]
        assert kernel.damage_for(nodes) == damage(placement, nodes, 2)

    def test_injected_errors_propagate_without_demotion(self):
        """Dispatch retries nothing: the shard supervisor is the one
        layer that retries an injected error."""
        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "error",
            "when": {"hit": 0}, "times": 1,
        }]))
        with pytest.raises(InjectedFault) as raised:
            make_kernel(_placement(), 2)
        assert raised.value.kind == "error"
        assert demoted_backings() == {}

    def test_bad_arguments_propagate_without_demoting(self, monkeypatch):
        """A ValueError is a caller bug, not a broken backing."""
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        with pytest.raises(ValueError, match="s"):
            make_kernel(_placement(), 0)
        assert demoted_backings() == {}

    def test_explicit_backing_never_silently_degrades(self, monkeypatch):
        """A pinned backing propagates real failures; no demotion."""
        if not native.available():
            pytest.skip("only the python floor is available")
        pinned = "native"
        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "backend",
        }]))
        with pytest.raises(Exception):
            make_kernel(_placement(), 2, gain_backing=pinned)
        assert pinned not in demoted_backings()
