"""The simulated cluster: one array-backed state for replicas and failures.

:class:`Cluster` is the single owner of the lifetime simulator's state:
``objects`` maps each object id to its sorted replica-node tuple
(insertion-ordered), and per-node lists hold the hosted object ids, the
replica load and the up/failed flag, all maintained in place on every
mutation. Node ``i`` sits in rack ``i % racks``.

The warm attack engine is fed from the same state: :meth:`Cluster.engine`
builds one :class:`~repro.core.batch.AttackEngine` from ``objects`` on
first use, and from then on the cluster records which object ids change
and applies them as one batched ``apply_delta`` per call, so a burst of
churn between strikes costs a single O(changed replicas) delta.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.batch import AttackEngine
from repro.core.placement import Placement


class ClusterError(RuntimeError):
    """Raised on invalid cluster operations (double faults, unknown ids...)."""


class Cluster:
    """``n`` nodes hosting replicated objects, some of them failed.

    An object is dead once ``s`` of its replicas sit on failed nodes (the
    paper's fatality threshold); :meth:`availability` is the live share.
    """

    def __init__(self, n: int, racks: int = 1) -> None:
        if n < 1:
            raise ClusterError(f"need at least one node, got {n}")
        if racks < 1:
            raise ClusterError(f"need at least one rack, got {racks}")
        self.n = n
        self._racks = racks
        self.objects: Dict[int, Tuple[int, ...]] = {}
        self._hosted: List[Set[int]] = [set() for _ in range(n)]
        self._loads: List[int] = [0] * n
        self._up: List[bool] = [True] * n
        # The attached engine, its slot -> object id table (mirroring the
        # engine's swap-with-last compaction), and the ids changed since
        # the last engine() call; recorded only while an engine is attached.
        self._engine: Optional[AttackEngine] = None
        self._slot_ids: List[int] = []
        self._slots: Dict[int, int] = {}
        self._changed: Dict[int, None] = {}

    @property
    def racks(self) -> int:
        return min(self._racks, self.n)

    # -- objects -------------------------------------------------------------

    def add_object(self, obj_id: int, replica_nodes: Iterable[int]) -> None:
        if obj_id in self.objects:
            raise ClusterError(f"object {obj_id} already exists")
        nodes = tuple(sorted(replica_nodes))
        for node in nodes:
            self._check_node(node)
        if len(set(nodes)) != len(nodes):
            raise ClusterError(f"object {obj_id} repeats a node: {list(nodes)}")
        for node in nodes:
            self._hosted[node].add(obj_id)
            self._loads[node] += 1
        self.objects[obj_id] = nodes
        if self._engine is not None:
            # A re-added id goes to the end, like any new row.
            self._changed.pop(obj_id, None)
            self._changed[obj_id] = None

    def remove_object(self, obj_id: int) -> None:
        if obj_id not in self.objects:
            raise ClusterError(f"object {obj_id} does not exist")
        for node in self.objects.pop(obj_id):
            self._hosted[node].discard(obj_id)
            self._loads[node] -= 1
        if self._engine is not None:
            if obj_id in self._slots:
                self._changed[obj_id] = None
            else:
                self._changed.pop(obj_id, None)  # added since the last flush

    def move_replica(self, obj_id: int, old: int, new: int) -> None:
        """Move ``obj_id``'s replica from node ``old`` to node ``new``.

        The row is edited in place, so the object keeps its position in
        ``objects``.
        """
        nodes = self.objects.get(obj_id)
        if nodes is None:
            raise ClusterError(f"object {obj_id} does not exist")
        self._check_node(new)
        if old not in nodes:
            raise ClusterError(f"object {obj_id} has no replica on node {old}")
        if new in nodes:
            raise ClusterError(
                f"object {obj_id} already has a replica on node {new}"
            )
        self.objects[obj_id] = tuple(
            sorted(new if node == old else node for node in nodes)
        )
        self._hosted[old].discard(obj_id)
        self._loads[old] -= 1
        self._hosted[new].add(obj_id)
        self._loads[new] += 1
        if self._engine is not None:
            self._changed[obj_id] = None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ClusterError(f"node {node} outside [0, {self.n})")

    # -- failures ------------------------------------------------------------

    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        ids = list(node_ids)
        for node in ids:
            self._check_node(node)
            if not self._up[node]:
                raise ClusterError(f"node {node} is already failed")
        for node in ids:
            self._up[node] = False

    def recover(self, node: int) -> None:
        self._check_node(node)
        self._up[node] = True

    def failed_nodes(self) -> FrozenSet[int]:
        return frozenset(node for node, up in enumerate(self._up) if not up)

    def is_up(self, node: int) -> bool:
        return self._up[node]

    def up_nodes(self) -> List[int]:
        return [node for node, up in enumerate(self._up) if up]

    def up_mask(self) -> List[bool]:
        """The maintained per-node up flags (live state: do not mutate)."""
        return self._up

    def rack_nodes(self, rack: int) -> List[int]:
        return list(range(rack, self.n, self._racks))

    def availability(self, s: int) -> float:
        """The share of objects with fewer than ``s`` replicas on failed nodes."""
        if not self.objects:
            return 1.0
        up = self._up
        live = sum(
            1
            for nodes in self.objects.values()
            if sum(1 for node in nodes if not up[node]) < s
        )
        return live / len(self.objects)

    # -- introspection ---------------------------------------------------------

    def loads(self) -> List[int]:
        """The maintained per-node replica loads (live state: do not mutate)."""
        return self._loads

    def hosted(self, node: int) -> Set[int]:
        """Object ids with a replica on ``node`` (live state: do not mutate)."""
        return self._hosted[node]

    def placement_snapshot(self) -> Placement:
        """The current object population as a Placement (ids renumbered)."""
        if not self.objects:
            raise ClusterError("cluster hosts no objects")
        # Rows were validated at add/move time (in-range, distinct,
        # sorted), so the snapshot takes the trusted array path — no
        # per-object revalidation per attack snapshot.
        rows = array("i")
        r = len(next(iter(self.objects.values())))
        for obj_id in sorted(self.objects):
            nodes = self.objects[obj_id]
            if len(nodes) != r:
                raise ClusterError(
                    f"object {obj_id} has {len(nodes)} replicas, expected {r}"
                )
            rows.extend(nodes)
        return Placement.from_arrays(
            self.n, rows, r=r, strategy="snapshot", validate=False
        )

    # -- the warm attack engine ------------------------------------------------

    def engine(self) -> Optional[AttackEngine]:
        """The attack engine aligned with ``objects`` (None while empty).

        The first call builds the engine cold from ``objects`` in
        insertion order. Later calls apply the ids changed since the
        previous call as one ``apply_delta``: the vacated slots in
        descending order, then the current rows of added and moved
        objects, in the order they were added or first moved. An emptied
        population drops the engine; the next call with objects builds a
        new one.
        """
        if not self.objects:
            self._engine = None
            self._slot_ids, self._slots = [], {}
            self._changed.clear()
            return None
        if self._engine is None:
            self._slot_ids = list(self.objects)
            self._slots = {
                obj_id: slot for slot, obj_id in enumerate(self._slot_ids)
            }
            self._engine = AttackEngine(
                Placement.from_arrays(
                    self.n, list(self.objects.values()), strategy="sim"
                )
            )
        elif self._changed:
            self._flush()
        return self._engine

    def _flush(self) -> None:
        slots = self._slots
        removed = sorted(
            (slots[obj_id] for obj_id in self._changed if obj_id in slots),
            reverse=True,
        )
        added = [obj_id for obj_id in self._changed if obj_id in self.objects]
        self._engine.apply_delta(
            added_objects=[self.objects[obj_id] for obj_id in added],
            removed_objects=removed,
        )
        # Replay the engine's swap-with-last compaction on the slot table:
        # removals in descending slot order (the last slot's object moves
        # into the freed slot), then additions appended in order.
        for slot in removed:
            del self._slots[self._slot_ids[slot]]
            last = len(self._slot_ids) - 1
            if slot != last:
                moved = self._slot_ids[last]
                self._slot_ids[slot] = moved
                self._slots[moved] = slot
            self._slot_ids.pop()
        for obj_id in added:
            self._slots[obj_id] = len(self._slot_ids)
            self._slot_ids.append(obj_id)
        self._changed.clear()

    def __repr__(self) -> str:
        return (
            f"Cluster(n={self.n}, objects={len(self.objects)}, "
            f"failed={len(self.failed_nodes())})"
        )
