"""Experiment specs: pure-data sweep descriptions with a canonical identity.

An :class:`ExperimentSpec` names an experiment *kernel* (a registered
expansion/execution/assembly triple, see :mod:`repro.exp.registry`) and
carries the sweep's **axes** (named value ladders, e.g. ``b`` or ``s``)
and **constants** (scalar parameters such as ``n`` or the adversary
effort). Everything in a spec is JSON-native, so a spec

* round-trips losslessly through ``to_dict``/``from_dict`` (the
  ``repro run myspec.json`` entry point);
* has a *canonical* identity — :meth:`ExperimentSpec.spec_hash` digests
  the sorted-key canonical JSON, so axis/constant declaration order,
  process boundaries, and dict iteration order never change the hash
  (the checksummed-header discipline of :mod:`repro.core.artifact`
  applied to experiment definitions);
* fully determines its results: environment knobs that affect values
  (effort, Monte-Carlo repetitions, the ``b`` cap) are resolved *into*
  the spec when it is built, never read during execution, so a run store
  keyed by the hash can safely serve cached cells. :func:`env_int` is
  the one parser of the integer ``REPRO_*`` knobs, shared by the spec
  builders and the runner.

Cells — one parameter point each — are plain ``{axis: value}`` dicts
produced by the kernel's expansion. :func:`cell_key` gives the canonical
JSON identity of a cell, which the run store uses to pin stored lines to
expansion slots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Sequence, Tuple

SPEC_FORMAT = "repro-experiment-spec"
SPEC_VERSION = 1

_MISSING = object()


class SpecError(ValueError):
    """Raised on malformed, non-canonical, or non-JSON-native specs."""


def _freeze(value: Any, where: str) -> Any:
    """Validate + normalize one value to an immutable JSON-native form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, where) for item in value)
    raise SpecError(
        f"{where}: spec values must be JSON-native scalars or lists, "
        f"got {type(value).__name__}"
    )


def _thaw(value: Any) -> Any:
    """Tuples back to lists for JSON serialization."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative sweep: kernel name + axes + constants.

    Construct via :meth:`build` (which validates and canonicalizes) rather
    than the raw dataclass constructor. Axes and constants are stored as
    name-sorted tuples of pairs so that equal specs are equal objects and
    hash equally regardless of declaration order.
    """

    experiment: str
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    constants: Tuple[Tuple[str, Any], ...] = ()
    version: int = SPEC_VERSION

    @classmethod
    def build(
        cls,
        experiment: str,
        axes: Mapping[str, Sequence[Any]] = (),
        constants: Mapping[str, Any] = (),
        version: int = SPEC_VERSION,
    ) -> "ExperimentSpec":
        if not experiment or not isinstance(experiment, str):
            raise SpecError(f"experiment must be a non-empty string, got {experiment!r}")
        frozen_axes = []
        for name, values in sorted(dict(axes).items()):
            if not isinstance(name, str):
                raise SpecError(f"axis names must be strings, got {name!r}")
            values = _freeze(values, f"axis {name!r}")
            if not isinstance(values, tuple) or not values:
                raise SpecError(f"axis {name!r} must be a non-empty sequence")
            frozen_axes.append((name, values))
        frozen_constants = []
        for name, value in sorted(dict(constants).items()):
            if not isinstance(name, str):
                raise SpecError(f"constant names must be strings, got {name!r}")
            frozen_constants.append((name, _freeze(value, f"constant {name!r}")))
        return cls(
            experiment=experiment,
            axes=tuple(frozen_axes),
            constants=tuple(frozen_constants),
            version=int(version),
        )

    # -- access ----------------------------------------------------------

    def axis(self, name: str) -> Tuple[Any, ...]:
        for axis_name, values in self.axes:
            if axis_name == name:
                return values
        raise SpecError(f"spec {self.experiment!r} has no axis {name!r}")

    def constant(self, name: str, default: Any = _MISSING) -> Any:
        for constant_name, value in self.constants:
            if constant_name == name:
                return value
        if default is _MISSING:
            raise SpecError(f"spec {self.experiment!r} has no constant {name!r}")
        return default

    # -- identity --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": SPEC_FORMAT,
            "version": self.version,
            "experiment": self.experiment,
            "axes": {name: _thaw(values) for name, values in self.axes},
            "constants": {name: _thaw(value) for name, value in self.constants},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"spec payload must be a mapping, got {type(payload).__name__}")
        if payload.get("format", SPEC_FORMAT) != SPEC_FORMAT:
            raise SpecError(f"unknown spec format {payload.get('format')!r}")
        version = int(payload.get("version", SPEC_VERSION))
        if version > SPEC_VERSION:
            raise SpecError(
                f"spec version {version} is newer than supported {SPEC_VERSION}"
            )
        try:
            experiment = payload["experiment"]
        except KeyError:
            raise SpecError("spec payload is missing the 'experiment' field") from None
        return cls.build(
            experiment,
            axes=payload.get("axes", {}),
            constants=payload.get("constants", {}),
            version=version,
        )

    def canonical_json(self) -> str:
        """Sorted-key, tight-separator JSON — the hashed identity text."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """sha256 hex digest of the canonical JSON: the spec's identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def cell_key(cell: Mapping[str, Any]) -> str:
    """Canonical JSON identity of one cell (used to pin stored lines)."""
    return json.dumps(dict(cell), sort_keys=True, separators=(",", ":"))


def env_int(name: str, default: int, minimum: int) -> int:
    """An integer env knob: unset or empty means ``default``; below
    ``minimum`` is rejected."""
    raw = os.environ.get(name, "")
    if raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value
