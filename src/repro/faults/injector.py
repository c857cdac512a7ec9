"""The fault-injection runtime: named sites, deterministic decisions.

Consumers call :func:`inject` at a named site with their call context
(shard index, attempt number, payload length, ...). With no active plan
the call is a dictionary lookup and a return — cheap enough to leave in
hot paths. With one, every decision is a deterministic function of
(plan seed, rule, per-process site visit counter, context), so a chaos
run replays bit-identically: same plan, same faults, same places.

Kinds ``crash``/``hang``/``error`` are handled here (die, sleep, raise
:class:`InjectedFault`). ``torn`` needs the site's cooperation: it
returns a :class:`TornWrite` telling the store how many bytes to write
before dying mid-append.

The active plan comes from :func:`configure` (tests, the soak driver) or
else the ``REPRO_CHAOS`` environment variable (parsed once per value, so
fork-inherited workers see the same plan). Visit counters are
per-process; a forked worker starts counting from its fork point.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import Any, Dict, Mapping, Optional

from repro import obs
from repro.faults.plan import FaultPlan, FaultRule

_EXIT_CRASH = 134  # simulated abort(); distinguishable from python errors
_EXIT_TORN = 137  # what a SIGKILL mid-append looks like to a supervisor


class InjectedFault(RuntimeError):
    """An injected ``error`` fault."""

    def __init__(self, site: str):
        super().__init__(f"injected error fault at {site}")
        self.site = site


class TornWrite:
    """Cooperative torn-write: write ``length`` bytes, then exit hard."""

    __slots__ = ("length", "exit_code")

    def __init__(self, length: int, exit_code: int = _EXIT_TORN):
        self.length = length
        self.exit_code = exit_code


_override: Optional[FaultPlan] = None
_override_set = False
_env_raw: Optional[str] = None
_env_plan: Optional[FaultPlan] = None
_hits: Dict[str, int] = {}
_fired: Dict[int, int] = {}


def configure(plan: Optional[FaultPlan]) -> None:
    """Pin the active plan (None = chaos off), overriding ``REPRO_CHAOS``."""
    global _override, _override_set
    _override, _override_set = plan, True
    reset_counters()


def clear() -> None:
    """Drop any :func:`configure` override; ``REPRO_CHAOS`` rules again."""
    global _override, _override_set
    _override, _override_set = None, False
    reset_counters()


def reset_counters() -> None:
    """Zero the per-process visit and fire counters."""
    _hits.clear()
    _fired.clear()


def active_plan() -> Optional[FaultPlan]:
    """The plan now in force: the override if set, else ``REPRO_CHAOS``."""
    global _env_raw, _env_plan
    if _override_set:
        return _override
    raw = os.environ.get("REPRO_CHAOS")
    if not raw:
        return None
    if raw != _env_raw:
        _env_plan = FaultPlan.from_env(raw)
        _env_raw = raw
    return _env_plan


def _decision(
    seed: int, rule_index: int, site: str, hit: int,
    context: Mapping[str, Any], label: str = "fire",
) -> float:
    """Deterministic uniform draw in [0, 1) for one rule at one visit."""
    digest = hashlib.sha256()
    digest.update(f"{seed}/{rule_index}/{site}/{hit}/{label}".encode())
    for key in sorted(context):
        digest.update(f"/{key}={context[key]!r}".encode())
    return int.from_bytes(digest.digest()[:8], "big") / 2.0 ** 64


def _matches(rule: FaultRule, context: Mapping[str, Any], hit: int) -> bool:
    for key, want in rule.when:
        have = hit if key == "hit" else context.get(key, _MISSING)
        if have != want:
            return False
    return True


_MISSING = object()


def inject(site: str, **context: Any) -> Optional[TornWrite]:
    """Evaluate the active plan at ``site``; act on the first firing rule.

    Returns None (no fault, or a handled hang), raises
    :class:`InjectedFault` for the ``error`` kind, never returns
    for ``crash``, and returns a :class:`TornWrite` for ``torn`` — the
    caller must then write that prefix and exit with the action's code.
    """
    plan = active_plan()
    if plan is None:
        return None
    hit = _hits.get(site, 0)
    _hits[site] = hit + 1
    for index, rule in enumerate(plan.rules):
        if rule.site != site:
            continue
        if rule.times is not None and _fired.get(index, 0) >= rule.times:
            continue
        if not _matches(rule, context, hit):
            continue
        if rule.prob < 1.0 and _decision(
            plan.seed, index, site, hit, context
        ) >= rule.prob:
            continue
        _fired[index] = _fired.get(index, 0) + 1
        obs.count("faults.injected")
        obs.record_event(
            "faults.injected", site=site, kind=rule.kind, rule=index, hit=hit
        )
        return _act(rule, index, site, hit, context, plan.seed)
    return None


def _act(
    rule: FaultRule, index: int, site: str, hit: int,
    context: Mapping[str, Any], seed: int,
) -> Optional[TornWrite]:
    args = dict(rule.args)
    if rule.kind == "error":
        raise InjectedFault(site)
    if rule.kind == "hang":
        time.sleep(float(args.get("seconds", 30.0)))
        return None
    if rule.kind == "crash":
        if args.get("signal") == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(int(args.get("exit", _EXIT_CRASH)))
    # torn: pick a byte offset strictly inside the payload so the victim
    # dies mid-line (offset 0 would be a clean shard-boundary kill).
    length = int(context.get("length", 0))
    cut = args.get("bytes")
    if cut is None:
        if length > 1:
            span = length - 1
            cut = 1 + int(
                _decision(seed, index, site, hit, context, label="offset") * span
            )
        else:
            cut = 0
    cut = max(0, min(int(cut), max(0, length - 1)))
    return TornWrite(cut, int(args.get("exit", _EXIT_TORN)))
