"""Keeping one warm delta-aware attack engine aligned with a mutating cluster.

The simulator mutates its cluster object-by-object (arrivals, departures,
re-replication moves), while :class:`~repro.core.batch.AttackEngine`
addresses objects by dense slot ids with swap-with-last compaction (see
:class:`~repro.core.kernels.DeltaIncidence`). :class:`EngineMirror` is the
adapter between the two id spaces: it buffers churn as it happens, flushes
it as one batched ``apply_delta`` right before an attack (so a burst of
churn between strikes costs a single delta), and replays the engine's
exact slot semantics on its own id table so external object ids keep
resolving to engine slots.

The engine is built cold on the first flush with a live population and
dropped if the population ever empties; in between, every flush is
O(changed replicas).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.batch import AttackEngine
from repro.core.placement import Placement


class EngineMirror:
    """A delta-aware engine plus the external-id -> engine-slot table."""

    def __init__(
        self,
        n: int,
        strategy_label: str = "sim",
    ) -> None:
        self.n = n
        self.strategy_label = strategy_label
        self.engine: Optional[AttackEngine] = None
        self._slot_ids: List[int] = []          # slot -> external id
        self._slots: Dict[int, int] = {}        # external id -> slot
        self._pending_add: Dict[int, Tuple[int, ...]] = {}
        self._pending_remove: Dict[int, None] = {}
        self.flushes = 0
        self.deltas_applied = 0

    # -- churn buffering -----------------------------------------------------

    def add(self, obj_id: int, nodes: Sequence[int]) -> None:
        """Track a newly placed object."""
        if obj_id in self._slots or obj_id in self._pending_add:
            raise KeyError(f"object {obj_id} is already tracked")
        self._pending_add[obj_id] = tuple(nodes)

    def remove(self, obj_id: int) -> None:
        """Track an object deletion."""
        if obj_id in self._pending_add:
            del self._pending_add[obj_id]
        elif obj_id in self._slots and obj_id not in self._pending_remove:
            self._pending_remove[obj_id] = None
        else:
            raise KeyError(f"object {obj_id} is not tracked")

    def replace(self, obj_id: int, nodes: Sequence[int]) -> None:
        """Track a replica move (re-replication rebuilds the object)."""
        if obj_id in self._pending_add:
            self._pending_add[obj_id] = tuple(nodes)
        elif obj_id in self._slots and obj_id not in self._pending_remove:
            self._pending_remove[obj_id] = None
            self._pending_add[obj_id] = tuple(nodes)
        else:
            raise KeyError(f"object {obj_id} is not tracked")

    @property
    def size(self) -> int:
        """Live objects after the buffered churn is applied."""
        return (
            len(self._slot_ids)
            - len(self._pending_remove)
            + len(self._pending_add)
        )

    # -- flushing ------------------------------------------------------------

    def flush(self) -> Optional[AttackEngine]:
        """Apply buffered churn and return the aligned engine (None if empty)."""
        if not self._pending_add and not self._pending_remove:
            return self.engine
        self.flushes += 1
        if self.size == 0:
            # Population emptied: no placement to hold; restart cold later.
            self.engine = None
            self._slot_ids.clear()
            self._slots.clear()
            self._pending_add.clear()
            self._pending_remove.clear()
            return None
        if self.engine is None:
            return self._build_cold()
        removed_slots = sorted(
            (self._slots[obj_id] for obj_id in self._pending_remove),
            reverse=True,
        )
        added = list(self._pending_add.values())
        self.engine.apply_delta(
            added_objects=added, removed_objects=removed_slots
        )
        self.deltas_applied += 1
        # Replay the engine's swap-with-last compaction on the id table:
        # removals in descending slot order (the last slot's object moves
        # into the freed slot), then additions appended in order.
        for slot in removed_slots:
            del self._slots[self._slot_ids[slot]]
            last = len(self._slot_ids) - 1
            if slot != last:
                moved_id = self._slot_ids[last]
                self._slot_ids[slot] = moved_id
                self._slots[moved_id] = slot
            self._slot_ids.pop()
        for obj_id in self._pending_add:
            self._slots[obj_id] = len(self._slot_ids)
            self._slot_ids.append(obj_id)
        self._pending_add.clear()
        self._pending_remove.clear()
        return self.engine

    def _build_cold(self) -> AttackEngine:
        """First flush with a live population: build the engine once."""
        assert not self._pending_remove, "removals without an engine"
        ids = list(self._pending_add)
        # from_arrays validates (simulator processes are an untrusted
        # boundary) but stays array-native — no frozensets at any scale.
        placement = Placement.from_arrays(
            self.n,
            [self._pending_add[obj_id] for obj_id in ids],
            strategy=self.strategy_label,
        )
        self.engine = AttackEngine(placement)
        self._slot_ids = ids
        self._slots = {obj_id: slot for slot, obj_id in enumerate(ids)}
        self._pending_add.clear()
        return self.engine

    def slot_of(self, obj_id: int) -> int:
        """The engine slot currently holding ``obj_id`` (post-flush ids)."""
        return self._slots[obj_id]

    def __repr__(self) -> str:
        return (
            f"EngineMirror(live={self.size}, "
            f"pending=+{len(self._pending_add)}/-{len(self._pending_remove)}, "
            f"deltas={self.deltas_applied})"
        )
