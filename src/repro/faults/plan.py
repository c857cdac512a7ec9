"""Fault plans: pure-data chaos descriptions with a canonical identity.

A :class:`FaultPlan` is to fault injection what
:class:`~repro.exp.spec.ExperimentSpec` is to experiments: everything in
it is JSON-native, it round-trips losslessly through
``to_dict``/``from_dict``, and :meth:`FaultPlan.plan_hash` digests the
sorted-key canonical JSON so the same plan always has the same identity.
A chaos soak therefore names exactly which faults it injected, and two
runs of one plan inject bit-identical fault schedules.

Each :class:`FaultRule` names an injection *site*, a fault *kind*, and
when it fires:

* ``prob`` — per-visit firing probability (decided by a deterministic
  hash of the plan seed, rule, site visit counter, and call context —
  never the global RNG);
* ``when`` — a subset match against the site's call context (e.g.
  ``{"start": 12, "attempt": 0}`` fires only for the shard at expansion
  index 12 on its first attempt; the pseudo-key ``hit`` matches the
  per-process visit counter of the site);
* ``times`` — a per-process cap on how often the rule fires.

``REPRO_CHAOS`` accepts a plan three ways: a path to a plan JSON file,
inline JSON (starts with ``{``), or the shorthand ``prob:<p>[:<seed>]``
— ``error`` rules with probability ``p`` at the
:data:`ABSORBED_SITES`, the form the chaos-smoke CI job uses. Those are
the sites whose injected ``error`` something absorbs, so suites still
pass underneath it; an error at any other site propagates, exactly as a
real failure there would.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

PLAN_FORMAT = "repro-fault-plan"
PLAN_VERSION = 1

#: Injection points threaded through the stack.
SITES: Tuple[str, ...] = (
    "store.commit",
    "runner.shard_start",
    "native.compile",
)

#: The sites whose injected ``error`` is absorbed: the shard supervisor
#: retries ``runner.shard_start``, and after a failed ``native.compile``
#: ``auto`` resolves to python. ``prob_plan`` defaults to these.
ABSORBED_SITES: Tuple[str, ...] = ("runner.shard_start", "native.compile")

#: ``crash`` calls ``os._exit`` (or SIGKILLs itself with
#: ``args={"signal": "kill"}``); ``hang`` sleeps ``args["seconds"]``;
#: ``error`` raises an :class:`~repro.faults.injector.InjectedFault`;
#: and ``torn`` makes the cooperating site write a prefix of its payload
#: and die mid-append.
FAULT_KINDS: Tuple[str, ...] = ("crash", "hang", "error", "torn")


class FaultPlanError(ValueError):
    """Raised on malformed plans or unparsable ``REPRO_CHAOS`` values."""


def _scalar(value: Any, where: str) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise FaultPlanError(
        f"{where}: fault-plan values must be JSON-native scalars, "
        f"got {type(value).__name__}"
    )


def _freeze_mapping(payload: Any, where: str) -> Tuple[Tuple[str, Any], ...]:
    if payload in (None, (), {}):
        return ()
    if not isinstance(payload, Mapping):
        raise FaultPlanError(f"{where} must be a mapping, got {type(payload).__name__}")
    frozen = []
    for key in sorted(payload):
        if not isinstance(key, str):
            raise FaultPlanError(f"{where} keys must be strings, got {key!r}")
        frozen.append((key, _scalar(payload[key], f"{where}[{key!r}]")))
    return tuple(frozen)


@dataclass(frozen=True)
class FaultRule:
    """One fault: site + kind + firing condition + kind-specific args."""

    site: str
    kind: str
    prob: float = 1.0
    when: Tuple[Tuple[str, Any], ...] = ()
    times: Optional[int] = None
    args: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def build(cls, payload: Mapping[str, Any]) -> "FaultRule":
        if not isinstance(payload, Mapping):
            raise FaultPlanError(
                f"fault rules must be mappings, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"site", "kind", "prob", "when", "times", "args"}
        if unknown:
            raise FaultPlanError(f"unknown fault-rule fields: {sorted(unknown)}")
        site = payload.get("site")
        if site not in SITES:
            raise FaultPlanError(
                f"unknown injection site {site!r}; use one of {SITES}"
            )
        kind = payload.get("kind")
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {kind!r}; use one of {FAULT_KINDS}"
            )
        prob = payload.get("prob", 1.0)
        if not isinstance(prob, (int, float)) or isinstance(prob, bool) or not 0.0 <= prob <= 1.0:
            raise FaultPlanError(f"rule prob must be in [0, 1], got {prob!r}")
        times = payload.get("times")
        if times is not None and (not isinstance(times, int) or isinstance(times, bool) or times < 1):
            raise FaultPlanError(f"rule times must be a positive int, got {times!r}")
        return cls(
            site=site,
            kind=kind,
            prob=float(prob),
            when=_freeze_mapping(payload.get("when"), "rule 'when'"),
            times=times,
            args=_freeze_mapping(payload.get("args"), "rule 'args'"),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "kind": self.kind,
            "prob": self.prob,
            "when": dict(self.when),
            "times": self.times,
            "args": dict(self.args),
        }


@dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list plus the seed for probabilistic decisions."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    version: int = PLAN_VERSION

    @classmethod
    def build(
        cls,
        rules: Sequence[Any],
        seed: int = 0,
        version: int = PLAN_VERSION,
    ) -> "FaultPlan":
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise FaultPlanError(f"plan seed must be an int, got {seed!r}")
        built = tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.build(rule)
            for rule in rules
        )
        return cls(seed=seed, rules=built, version=int(version))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PLAN_FORMAT,
            "version": self.version,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(payload, Mapping):
            raise FaultPlanError(
                f"fault plan must be a mapping, got {type(payload).__name__}"
            )
        if payload.get("format", PLAN_FORMAT) != PLAN_FORMAT:
            raise FaultPlanError(f"unknown fault-plan format {payload.get('format')!r}")
        version = int(payload.get("version", PLAN_VERSION))
        if version > PLAN_VERSION:
            raise FaultPlanError(
                f"fault-plan version {version} is newer than supported {PLAN_VERSION}"
            )
        return cls.build(
            payload.get("rules", ()),
            seed=payload.get("seed", 0),
            version=version,
        )

    def canonical_json(self) -> str:
        """Sorted-key, tight-separator JSON — the hashed identity text."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def plan_hash(self) -> str:
        """sha256 hex digest of the canonical JSON: the plan's identity."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_env(cls, value: str) -> Optional["FaultPlan"]:
        """Parse a ``REPRO_CHAOS`` value: path, inline JSON, or shorthand.

        Returns None for the explicit off values (empty, ``off``, ``0``).
        Anything unparsable raises :class:`FaultPlanError` naming the
        knob, never silently disables chaos.
        """
        text = (value or "").strip()
        if not text or text.lower() in ("off", "0", "none"):
            return None
        if text.startswith("prob:"):
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise FaultPlanError(
                    f"REPRO_CHAOS shorthand must be prob:<p>[:<seed>], got {value!r}"
                )
            try:
                probability = float(parts[1])
                seed = int(parts[2]) if len(parts) == 3 else 0
            except ValueError:
                raise FaultPlanError(
                    f"REPRO_CHAOS shorthand must be prob:<p>[:<seed>], got {value!r}"
                ) from None
            return prob_plan(probability, seed=seed)
        if text.startswith("{"):
            try:
                payload = json.loads(text)
            except ValueError as exc:
                raise FaultPlanError(
                    f"REPRO_CHAOS inline plan is not valid JSON: {exc}"
                ) from None
            return cls.from_dict(payload)
        try:
            with open(text, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise FaultPlanError(f"REPRO_CHAOS plan file unreadable: {exc}") from None
        except ValueError as exc:
            raise FaultPlanError(
                f"REPRO_CHAOS plan file {text!r} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(payload)


def prob_plan(
    probability: float,
    seed: int = 0,
    sites: Sequence[str] = ABSORBED_SITES,
    kind: str = "error",
) -> FaultPlan:
    """A uniform low-probability plan: one ``kind`` rule per site.

    The default (``error`` faults at the :data:`ABSORBED_SITES`) is the
    only shape safe to run underneath an arbitrary process: the runner
    retries those errors and ``auto`` resolves to python after a failed
    compile,
    while crash/torn/hang faults would kill the host process and belong
    in explicit targeted plans.
    """
    if not 0.0 <= probability <= 1.0:
        raise FaultPlanError(
            f"fault probability must be in [0, 1], got {probability!r}"
        )
    return FaultPlan.build(
        [{"site": site, "kind": kind, "prob": probability} for site in sites],
        seed=seed,
    )
