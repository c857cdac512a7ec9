"""Spec identity: canonical hashing, round-trips, validation."""

import json
import subprocess
import sys

import pytest

from repro.exp.spec import (
    ExperimentSpec,
    SpecError,
    cell_key,
)


def _spec(**overrides):
    payload = dict(
        experiment="fig2",
        axes={"b": (600, 1200), "s": (2, 3)},
        constants={"n": 71, "r": 3, "x": 1, "k_max": 4,
                   "effort": "fast", "b_cap": 9600},
    )
    payload.update(overrides)
    return ExperimentSpec.build(**payload)


class TestIdentity:
    def test_declaration_order_never_changes_the_hash(self):
        forward = ExperimentSpec.build(
            "fig2",
            axes={"b": (600, 1200), "s": (2, 3)},
            constants={"n": 71, "x": 1},
        )
        reversed_order = ExperimentSpec.build(
            "fig2",
            axes={"s": (2, 3), "b": (600, 1200)},
            constants={"x": 1, "n": 71},
        )
        assert forward == reversed_order
        assert forward.spec_hash() == reversed_order.spec_hash()
        assert forward.axes == reversed_order.axes

    def test_hash_is_stable_across_processes(self):
        import os

        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        spec = _spec()
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src_root!r})\n"
            "from repro.exp.spec import ExperimentSpec\n"
            f"spec = ExperimentSpec.from_dict(json.loads({spec.canonical_json()!r}))\n"
            "print(spec.spec_hash())\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == spec.spec_hash()

    def test_any_mutation_changes_the_hash(self):
        base = _spec().spec_hash()
        assert _spec(axes={"b": (600, 1200, 2400), "s": (2, 3)}).spec_hash() != base
        assert _spec(axes={"b": (1200, 600), "s": (2, 3)}).spec_hash() != base
        assert _spec(experiment="fig7").spec_hash() != base
        mutated_constants = dict(
            n=71, r=3, x=2, k_max=4, effort="fast", b_cap=9600
        )
        assert _spec(constants=mutated_constants).spec_hash() != base

    def test_axis_value_order_is_semantic_but_name_order_is_not(self):
        # Value order changes expansion (and so identity); name order is
        # canonicalized away.
        a = _spec(axes={"b": (600, 1200), "s": (2, 3)})
        b = _spec(axes={"b": (1200, 600), "s": (2, 3)})
        assert a.axes != b.axes
        assert a.spec_hash() != b.spec_hash()


class TestRoundTrip:
    def test_dict_round_trip_preserves_identity(self):
        spec = _spec()
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_nested_lists_freeze_to_tuples(self):
        spec = ExperimentSpec.build(
            "fig7",
            axes={"b": [150, 300]},
            constants={"configs": [[31, 5, 3, [3, 4]]]},
        )
        assert spec.constant("configs") == ((31, 5, 3, (3, 4)),)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_accessors(self):
        spec = _spec()
        assert spec.axis("b") == (600, 1200)
        assert spec.constant("n") == 71
        assert spec.constant("missing", 42) == 42
        with pytest.raises(SpecError):
            spec.axis("nope")
        with pytest.raises(SpecError):
            spec.constant("nope")


class TestValidation:
    def test_non_json_values_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.build("fig2", axes={"b": (object(),)})
        with pytest.raises(SpecError):
            ExperimentSpec.build("fig2", constants={"fn": len})

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.build("fig2", axes={"b": ()})

    def test_newer_version_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(
                {"experiment": "fig2", "version": 99}
            )

    def test_missing_experiment_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict({"axes": {}})


class TestCells:
    def test_cell_key_is_order_independent(self):
        assert cell_key({"b": 600, "s": 2}) == cell_key({"s": 2, "b": 600})
