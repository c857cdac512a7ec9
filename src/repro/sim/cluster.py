"""The simulated cluster: replicas and failures, O(what changes) per operation.

:class:`Cluster` is the single owner of the lifetime simulator's state:
``objects`` maps each object id to its sorted replica-node tuple
(insertion-ordered), per-node lists hold the hosted object ids and the
replica load, and a set holds the failed nodes. Node ``i`` sits in rack
``i % racks``.

Every mutation also keeps two derived views current, so no query rescans
the population:

* a count of failed replicas per object plus a histogram of those counts
  over ``0..r``, which makes :meth:`Cluster.availability` O(r) for any
  threshold ``s``;
* the up nodes in load buckets (load -> ``bisect``-sorted node ids, plus
  the sorted list of occupied loads), which makes
  :meth:`Cluster.pick_repair_target` O(r): it walks the lowest buckets
  and skips at most the ``r`` excluded nodes.

A node failure or recovery costs O(its load); adding, removing or moving
a replica costs O(r) plus the bucket edits.

The warm attack engine is fed from the same state: :meth:`Cluster.engine`
builds one :class:`~repro.core.batch.AttackEngine` from ``objects`` on
first use, and from then on the cluster records the changes and applies
them as one batched ``apply_delta`` per call: replica moves as in-place
moves (the object keeps its engine slot), departures and arrivals as
row removals and appends. A burst of churn between strikes therefore
costs one delta of O(r) words per changed replica.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import (
    Container, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

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
        self._failed: Set[int] = set()
        # Failed replicas per object, and how many objects have each count.
        self._down: Dict[int, int] = {}
        self._down_hist: List[int] = [0]
        # Up nodes by load: load -> sorted node ids, and the occupied loads.
        self._buckets: Dict[int, List[int]] = {0: list(range(n))}
        self._bucket_loads: List[int] = [0]
        # The attached engine, its slot -> object id table (mirroring the
        # engine's swap-with-last compaction), the ids added or removed
        # since the last engine() call and the replica moves of slotted
        # objects since then; recorded only while an engine is attached.
        self._engine: Optional[AttackEngine] = None
        self._slot_ids: List[int] = []
        self._slots: Dict[int, int] = {}
        self._changed: Dict[int, None] = {}
        self._moves: List[Tuple[int, int, int]] = []

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
        hosted, failed = self._hosted, self._failed
        down = 0
        for node in nodes:
            hosted[node].add(obj_id)
            self._shift_load(node, 1)
            if node in failed:
                down += 1
        hist = self._down_hist
        if len(hist) <= len(nodes):
            hist.extend([0] * (len(nodes) + 1 - len(hist)))
        hist[down] += 1
        self._down[obj_id] = down
        self.objects[obj_id] = nodes
        if self._engine is not None:
            # A re-added id goes to the end, like any new row.
            self._changed.pop(obj_id, None)
            self._changed[obj_id] = None

    def remove_object(self, obj_id: int) -> None:
        if obj_id not in self.objects:
            raise ClusterError(f"object {obj_id} does not exist")
        hosted = self._hosted
        for node in self.objects.pop(obj_id):
            hosted[node].discard(obj_id)
            self._shift_load(node, -1)
        self._down_hist[self._down.pop(obj_id)] -= 1
        if self._engine is not None:
            if obj_id in self._slots:
                self._changed[obj_id] = None
            else:
                self._changed.pop(obj_id, None)  # added since the last flush

    def move_replica(self, obj_id: int, old: int, new: int) -> None:
        """Move ``obj_id``'s replica from node ``old`` to node ``new``.

        The row is edited in place, so the object keeps its position in
        ``objects`` and its engine slot.
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
        row = list(nodes)
        row[row.index(old)] = new
        row.sort()
        self.objects[obj_id] = tuple(row)
        hosted = self._hosted
        hosted[old].discard(obj_id)
        hosted[new].add(obj_id)
        self._shift_load(old, -1)
        self._shift_load(new, 1)
        failed = self._failed
        lost = (new in failed) - (old in failed)
        if lost:
            down = self._down[obj_id]
            hist = self._down_hist
            hist[down] -= 1
            hist[down + lost] += 1
            self._down[obj_id] = down + lost
        if obj_id in self._slots:
            self._moves.append((obj_id, old, new))

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ClusterError(f"node {node} outside [0, {self.n})")

    # -- load buckets ----------------------------------------------------------

    def _shift_load(self, node: int, step: int) -> None:
        load = self._loads[node]
        self._loads[node] = load + step
        if node not in self._failed:
            self._rebucket(node, load, load + step)

    def _rebucket(
        self, node: int, old: Optional[int], new: Optional[int]
    ) -> None:
        """Move ``node`` between load buckets (None: no bucket, i.e. failed)."""
        buckets = self._buckets
        if old is not None:
            nodes = buckets[old]
            if len(nodes) == 1:
                del buckets[old]
                loads = self._bucket_loads
                del loads[bisect_left(loads, old)]
            else:
                del nodes[bisect_left(nodes, node)]
        if new is not None:
            nodes = buckets.get(new)
            if nodes is None:
                buckets[new] = [node]
                insort(self._bucket_loads, new)
            else:
                insort(nodes, node)

    def pick_repair_target(self, exclude: Container[int]) -> Optional[int]:
        """The node to host a rebuilt replica, or None when no candidate exists.

        Deterministic: the least loaded up node outside ``exclude``, ties
        to the lowest node id (so repair placement is a pure function of
        cluster state and never draws randomness). Walks the buckets from
        the lowest load, so it visits at most ``len(exclude) + 1`` nodes.
        """
        buckets = self._buckets
        for load in self._bucket_loads:
            for node in buckets[load]:
                if node not in exclude:
                    return node
        return None

    # -- failures ------------------------------------------------------------

    def fail_nodes(self, node_ids: Iterable[int]) -> None:
        ids = list(node_ids)
        for node in ids:
            self._check_node(node)
            if node in self._failed:
                raise ClusterError(f"node {node} is already failed")
        if len(set(ids)) != len(ids):
            raise ClusterError(f"node ids repeat (a double fault): {ids}")
        for node in ids:
            self._failed.add(node)
            self._rebucket(node, self._loads[node], None)
            self._count_down(node, 1)

    def recover(self, node: int) -> None:
        self._check_node(node)
        if node not in self._failed:
            return
        self._failed.remove(node)
        self._rebucket(node, None, self._loads[node])
        self._count_down(node, -1)

    def _count_down(self, node: int, step: int) -> None:
        """Shift the failed-replica count of every object on ``node``."""
        down, hist = self._down, self._down_hist
        for obj_id in self._hosted[node]:
            count = down[obj_id]
            hist[count] -= 1
            hist[count + step] += 1
            down[obj_id] = count + step

    def failed_nodes(self) -> FrozenSet[int]:
        return frozenset(self._failed)

    def is_up(self, node: int) -> bool:
        return node not in self._failed

    def up_nodes(self) -> List[int]:
        failed = self._failed
        return [node for node in range(self.n) if node not in failed]

    def rack_nodes(self, rack: int) -> List[int]:
        return list(range(rack, self.n, self._racks))

    def availability(self, s: int) -> float:
        """The share of objects with fewer than ``s`` replicas on failed nodes.

        O(r): a sum over the maintained failed-replica histogram.
        """
        if not self.objects:
            return 1.0
        return sum(self._down_hist[:max(s, 0)]) / len(self.objects)

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
        insertion order. Later calls apply the changes since the previous
        call as one ``apply_delta``: the replica moves of objects that
        kept their slot, in the order they happened; the vacated slots in
        descending order; then the current rows of added objects, in the
        order they were added. An emptied population drops the engine;
        the next call with objects builds a new one.
        """
        if not self.objects:
            self._engine = None
            self._slot_ids, self._slots = [], {}
            self._changed.clear()
            self._moves.clear()
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
        elif self._changed or self._moves:
            self._flush()
        return self._engine

    def _flush(self) -> None:
        slots, changed = self._slots, self._changed
        # Moves of an object removed since the last flush are dropped with
        # its slot; if the id came back, its current row goes out whole.
        moved = [
            (slots[obj_id], old, new)
            for obj_id, old, new in self._moves
            if obj_id not in changed
        ]
        removed = sorted(
            (slots[obj_id] for obj_id in changed if obj_id in slots),
            reverse=True,
        )
        added = [obj_id for obj_id in changed if obj_id in self.objects]
        self._engine.apply_delta(
            added_objects=[self.objects[obj_id] for obj_id in added],
            removed_objects=removed,
            moved_replicas=moved,
        )
        # Replay the engine's swap-with-last compaction on the slot table:
        # removals in descending slot order (the last slot's object moves
        # into the freed slot), then additions appended in order. Moves
        # keep their slots.
        for slot in removed:
            del slots[self._slot_ids[slot]]
            last = len(self._slot_ids) - 1
            if slot != last:
                tail = self._slot_ids[last]
                self._slot_ids[slot] = tail
                slots[tail] = slot
            self._slot_ids.pop()
        for obj_id in added:
            slots[obj_id] = len(self._slot_ids)
            self._slot_ids.append(obj_id)
        changed.clear()
        self._moves.clear()

    def __repr__(self) -> str:
        return (
            f"Cluster(n={self.n}, objects={len(self.objects)}, "
            f"failed={len(self.failed_nodes())})"
        )
