"""The ``Placement`` value type: objects mapped to replica node sets.

A placement ``pi : O -> 2^N`` (paper Sec. III) assigns each object a set of
``r`` distinct nodes. This module is deliberately strategy-agnostic: Simple,
Combo and Random builders all produce the same type, and the adversary,
availability evaluation and cluster simulator consume only this type.

Storage is *array-native*: the canonical representation is one flat,
row-major ``array('i')`` of shape ``(b, r)`` with every row sorted
ascending — 4 bytes per replica instead of a Python ``frozenset`` per
object (~200 bytes each plus per-element boxes). Everything downstream
derives from that buffer:

* ``replica_matrix()`` — a zero-copy numpy ``(b, r)`` int32 view (imports
  numpy; the bulk failure queries read it);
* ``node_csr()`` — the cached node -> objects incidence in CSR form
  (``node_off``/``node_objs`` int32 arrays), shared zero-copy with the
  damage kernels in :mod:`repro.core.kernels`;
* ``load_array()`` — per-node replica counts as an int32 array;
* ``fingerprint()`` — one ``sha256.update`` over the raw buffer.

The historical frozenset-facing API (``replica_sets``) remains as a
lazily built *view*, so existing call sites keep working; new
code and the hot engines consume the arrays. Builders use
:meth:`Placement.from_arrays` (with ``validate=False`` on trusted paths)
so a million-object placement never materializes a million sets.

Bulk passes (loads, CSR, row sort and validation, failure queries) run in
pure Python below :data:`repro.util.lazynumpy.BULK_MIN_B` objects and in
numpy above it; both branches produce identical buffers and errors, and
numpy is never imported for a placement too small to repay its import.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter, deque
from itertools import accumulate, chain
from operator import eq
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.util import lazynumpy

# The native kernels and the artifact format assume array('i') is int32,
# which holds on every supported platform (CPython on 32/64-bit Linux,
# macOS, Windows).
assert array("i").itemsize == 4, "array('i') must be 32-bit"

#: Entries per chunk of the streaming CSR counting sort.
_CSR_CHUNK = 1 << 20


def _as_int_array(buffer) -> array:
    """``buffer`` as an ``array('i')`` (identity for arrays, copy otherwise).

    Placements loaded with ``mmap=True`` carry an int32 ``memoryview`` as
    their row buffer; operations that need real array semantics
    (concatenation, mutation of a copy) normalize through this helper.
    """
    return buffer if isinstance(buffer, array) else array("i", buffer)


class PlacementError(ValueError):
    """Raised when replica sets violate placement rules."""


def _np_rows(np, flat: array, b: int, r: int):
    """Zero-copy numpy ``(b, r)`` int32 view over the flat buffer."""
    return np.frombuffer(flat, dtype=np.int32).reshape(b, r)


class Placement:
    """An immutable placement of ``b`` objects on ``n`` nodes.

    Object ``i``'s replicas live on the sorted node row
    ``rows[i*r : (i+1)*r]`` of the backing buffer; ``replica_sets[i]`` is
    the equivalent frozenset view. Instances are immutable by convention:
    the backing buffer must never be written after construction (derived
    caches, kernel bindings and fingerprints all assume it).
    """

    def __init__(
        self,
        n: int,
        replica_sets: Optional[Iterable[FrozenSet[int]]] = None,
        strategy: str = "",
        rows: Optional[array] = None,
        r: Optional[int] = None,
    ) -> None:
        """Non-validating constructor (the historical dataclass behaviour).

        Exactly one of ``replica_sets`` (iterable of node sets, trusted)
        or ``rows`` (flat row-sorted ``array('i')`` plus ``r``, trusted —
        ownership transfers to the placement) must be provided. External
        callers should prefer :meth:`from_replica_sets` /
        :meth:`from_arrays`, which validate.
        """
        self.n = n
        self.strategy = strategy
        if rows is not None:
            if r is None or r <= 0:
                raise PlacementError("rows-backed construction needs r >= 1")
            if len(rows) % r:
                raise PlacementError(
                    f"flat rows length {len(rows)} is not a multiple of r={r}"
                )
            self._rows: Optional[array] = rows
            self._b = len(rows) // r
            self._r = r
            self._sets: Optional[Tuple[FrozenSet[int], ...]] = None
        elif replica_sets is not None:
            sets = tuple(replica_sets)
            if not sets:
                raise PlacementError("a placement needs at least one object")
            self._rows = None
            self._sets = sets
            self._b = len(sets)
            self._r = len(sets[0])
        else:
            raise PlacementError("Placement needs replica_sets or rows")
        if self._b == 0:
            raise PlacementError("a placement needs at least one object")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_replica_sets(
        n: int, replica_sets: Iterable[Iterable[int]], strategy: str = ""
    ) -> "Placement":
        """Validate per-object node iterables into a placement."""
        flat = array("i")
        r = None
        obj_id = -1
        for obj_id, nodes in enumerate(replica_sets):
            node_list = sorted(nodes)
            if r is None:
                r = len(node_list)
                if r == 0:
                    raise PlacementError("objects need at least one replica")
            if len(node_list) != r:
                raise PlacementError(
                    f"object {obj_id} has {len(node_list)} replicas, expected {r}"
                )
            if node_list[0] < 0 or node_list[-1] >= n:
                bad = node_list[0] if node_list[0] < 0 else node_list[-1]
                raise PlacementError(
                    f"object {obj_id} places a replica on node {bad}, "
                    f"outside [0, {n})"
                )
            for i in range(1, r):
                if node_list[i] == node_list[i - 1]:
                    raise PlacementError(
                        f"object {obj_id} places multiple replicas on one "
                        f"node: {node_list}"
                    )
            flat.extend(node_list)
        if obj_id < 0:
            raise PlacementError("a placement needs at least one object")
        return Placement(n=n, rows=flat, r=r, strategy=strategy)

    @staticmethod
    def from_arrays(
        n: int,
        rows,
        r: Optional[int] = None,
        strategy: str = "",
        validate: bool = True,
    ) -> "Placement":
        """Array-native constructor: the builders' and loaders' fast path.

        ``rows`` may be a numpy ``(b, r)`` integer matrix, a flat
        ``array('i')`` (requires ``r``), or a sequence of node sequences.
        With ``validate=True`` rows are copied/normalized (sorted
        ascending) and checked for distinct in-range nodes — O(b r) bulk
        work, vectorized under numpy at scale. With ``validate=False`` the
        input is **trusted**: rows must already be row-sorted,
        duplicate-free and in ``[0, n)``, and flat-array input is adopted
        without copying —
        the path used by internal builders and checksum-verified artifact
        reloads, where re-validation would be pure overhead.
        """
        if lazynumpy.is_array(rows):
            np = lazynumpy.module()
            if rows.ndim != 2:
                raise PlacementError(
                    f"rows matrix must be 2-D (b, r), got shape {rows.shape}"
                )
            width = int(rows.shape[1])
            if r is not None and r != width:
                raise PlacementError(f"r={r} does not match matrix width {width}")
            matrix = np.ascontiguousarray(rows, dtype=np.int32)
            if validate:
                if matrix is rows:
                    matrix = matrix.copy()
                matrix.sort(axis=1)
            flat = array("i")
            flat.frombytes(matrix.tobytes())
            placement = Placement(n=n, rows=flat, r=width, strategy=strategy)
        elif isinstance(rows, array) and rows.typecode == "i":
            if r is None:
                raise PlacementError("flat array rows need an explicit r")
            flat = array("i", rows) if validate else rows
            placement = Placement(n=n, rows=flat, r=r, strategy=strategy)
            if validate:
                placement._sort_rows()
        else:
            row_list = rows if isinstance(rows, (list, tuple)) else list(rows)
            if validate:
                return Placement.from_replica_sets(n, row_list, strategy=strategy)
            if not row_list:
                raise PlacementError("a placement needs at least one object")
            width = len(row_list[0])
            flat = array("i", chain.from_iterable(row_list))
            placement = Placement(n=n, rows=flat, r=width, strategy=strategy)
        if validate:
            placement._validate_rows()
        return placement

    def _sort_rows(self) -> None:
        """Sort each row of the (owned, pre-publication) buffer ascending."""
        flat, b, r = self._rows, self._b, self._r
        if r == 1:
            return
        np = lazynumpy.for_bulk(b)
        if np is not None:
            _np_rows(np, flat, b, r).sort(axis=1)
            return
        for i in range(0, b * r, r):
            row = sorted(flat[i:i + r])
            flat[i:i + r] = array("i", row)

    def _validate_rows(self) -> None:
        """Check distinct, in-range nodes per (already sorted) row.

        Range first, then distinctness, each reporting its lowest
        offending object — the same error on both branches.
        """
        flat, b, r, n = self._rows, self._b, self._r, self.n
        np = lazynumpy.for_bulk(b)
        if np is not None:
            matrix = _np_rows(np, flat, b, r)
            low = matrix[:, 0] < 0
            high = matrix[:, -1] >= n
            if low.any() or high.any():
                obj_id = int(np.argmax(low | high))
                bad = int(matrix[obj_id, 0] if low[obj_id] else matrix[obj_id, -1])
                raise PlacementError(
                    f"object {obj_id} places a replica on node {bad}, "
                    f"outside [0, {n})"
                )
            if r > 1:
                dup = (matrix[:, 1:] == matrix[:, :-1]).any(axis=1)
                if dup.any():
                    obj_id = int(np.argmax(dup))
                    raise PlacementError(
                        f"object {obj_id} places multiple replicas on one "
                        f"node: {matrix[obj_id].tolist()}"
                    )
            return
        # Sorted rows: the first and last columns bound each row's range,
        # and a repeat shows up as two equal neighbouring columns. Both
        # checks scan column slices at C speed; only a failing one walks
        # the rows to name the culprit.
        lows, highs = flat[0::r], flat[r - 1::r]
        if min(lows) < 0 or max(highs) >= n:
            for obj_id, (low, high) in enumerate(zip(lows, highs)):
                if low < 0 or high >= n:
                    raise PlacementError(
                        f"object {obj_id} places a replica on node "
                        f"{low if low < 0 else high}, outside [0, {n})"
                    )
        if any(any(map(eq, flat[j::r], flat[j + 1::r])) for j in range(r - 1)):
            for obj_id in range(b):
                row = flat[obj_id * r:(obj_id + 1) * r]
                if any(map(eq, row[1:], row[:-1])):
                    raise PlacementError(
                        f"object {obj_id} places multiple replicas on one "
                        f"node: {list(row)}"
                    )

    # -- shape -------------------------------------------------------------

    @property
    def b(self) -> int:
        """Number of objects."""
        return self._b

    @property
    def r(self) -> int:
        """Replicas per object."""
        return self._r

    # -- array accessors ----------------------------------------------------

    def replica_array(self) -> array:
        """The canonical flat ``(b * r,)`` int32 buffer (row-sorted).

        Treat as read-only: kernels export zero-copy pointers into it.
        """
        if self._rows is None:
            flat = array("i")
            for nodes in self._sets:
                flat.extend(sorted(nodes))
            self._rows = flat
        return self._rows

    def replica_matrix(self):
        """Zero-copy numpy ``(b, r)`` int32 view (imports numpy)."""
        np = lazynumpy.optional()
        if np is None:  # pragma: no cover - numpy-less guard
            raise RuntimeError("replica_matrix requires numpy")
        return _np_rows(np, self.replica_array(), self._b, self._r)

    def _cached(self, name: str, build):
        # Derived structures are memoized on the instance: every adversary
        # kernel and load query reuses one computation per placement.
        value = self.__dict__.get(name)
        if value is None:
            value = build()
            self.__dict__[name] = value
        return value

    def load_array(self) -> array:
        """Replicas hosted per node as an int32 array, computed once."""

        def build() -> array:
            flat = self.replica_array()
            np = lazynumpy.for_bulk(self._b)
            if np is not None:
                counts = np.bincount(
                    np.frombuffer(flat, dtype=np.int32), minlength=self.n
                ).astype(np.int32)
                loads = array("i")
                loads.frombytes(counts.tobytes())
                return loads
            counts = Counter(flat)
            return array("i", [counts[node] for node in range(self.n)])

        return self._cached("_load", build)

    def load_profile(self) -> Tuple[int, ...]:
        """Replicas hosted per node, as a tuple (compat view)."""
        return self._cached("_load_profile", lambda: tuple(self.load_array()))

    def loads(self) -> List[int]:
        """Replicas hosted per node (the load-balance profile)."""
        return list(self.load_array())

    def max_load(self) -> int:
        return max(self.load_array())

    def node_csr(self) -> Tuple[array, array]:
        """Node -> objects incidence as ``(node_off, node_objs)`` CSR arrays.

        ``node_objs[node_off[v] : node_off[v + 1]]`` lists the objects
        hosted on node ``v`` in ascending object-id order (``node_off``
        has ``n + 1`` entries). Built once per placement — a streaming
        counting sort under numpy, per-node buckets otherwise — and shared
        zero-copy with every damage kernel bound to this placement.
        """

        def build() -> Tuple[array, array]:
            flat = self.replica_array()
            n, r = self.n, self._r
            np = lazynumpy.for_bulk(self._b)
            if np is not None:
                # Streaming chunked counting sort. The historical one-shot
                # ``argsort(cols)`` materializes an int64 permutation of
                # all b*r entries (240 MB at b=1e7, r=3) before a thing is
                # written; chunking bounds temp memory at O(chunk) while
                # producing the identical result: per-node cursors carry
                # the global write positions across chunks, and the
                # *stable* per-chunk argsort keeps flat order — ascending
                # object id — within each node's run. The sort key is the
                # narrowest unsigned type holding n - 1: numpy's stable
                # sort is a radix sort for 8- and 16-bit keys (~5x faster
                # than on int32 keys for a 1M-entry chunk at n = 512), and
                # stability makes the result the same for every key width.
                cols = np.frombuffer(flat, dtype=np.int32)
                key_type = np.min_scalar_type(n - 1)
                counts = np.bincount(cols, minlength=n)
                node_off_np = np.zeros(n + 1, dtype=np.int32)
                np.cumsum(counts, out=node_off_np[1:], dtype=np.int32)
                total = len(cols)
                node_objs = array("i", bytes(4 * total))
                out = np.frombuffer(node_objs, dtype=np.int32)
                cursor = node_off_np[:n].astype(np.int64)
                chunk = _CSR_CHUNK
                for lo in range(0, total, chunk):
                    sub = cols[lo:lo + chunk]
                    order = np.argsort(sub.astype(key_type), kind="stable")
                    seg_counts = np.bincount(sub, minlength=n)
                    seg_off = np.cumsum(seg_counts) - seg_counts
                    # Sorted position j of node v's run lands at
                    # cursor[v] + (j - seg_off[v]).
                    shift = np.repeat(cursor - seg_off, seg_counts)
                    dest = shift + np.arange(len(sub))
                    out[dest] = ((order + lo) // r).astype(np.int32)
                    cursor += seg_counts
                node_off = array("i")
                node_off.frombytes(node_off_np.tobytes())
                return node_off, node_objs
            # Bucket each column's objects by node with C-level map/append
            # (no bytecode per entry), then merge each node's r ascending
            # runs with one sort: ~2x the per-entry loop at b = 9,600.
            buckets: List[List[int]] = [[] for _ in range(n)]
            drain = deque(maxlen=0).extend
            for column in range(r):
                drain(map(
                    list.append, map(buckets.__getitem__, flat[column::r]),
                    range(self._b),
                ))
            node_objs = array("i")
            for bucket in buckets:
                bucket.sort()
                node_objs.fromlist(bucket)
            node_off = array("i", accumulate(map(len, buckets), initial=0))
            return node_off, node_objs

        return self._cached("_node_csr", build)

    # -- frozenset-facing views ---------------------------------------------

    @property
    def replica_sets(self) -> Tuple[FrozenSet[int], ...]:
        """``replica_sets[i]`` is the node set hosting object ``i`` (view)."""
        if self._sets is None:
            flat, r = self._rows, self._r
            self._sets = tuple(
                frozenset(flat[i:i + r]) for i in range(0, self._b * r, r)
            )
        return self._sets

    # -- digests -------------------------------------------------------------

    def fingerprint(self) -> str:
        """A structural digest: equal iff ``(n, rows)`` are equal.

        One ``sha256.update`` over the raw int32 buffer (plus a shape
        header) instead of ``b`` per-object string joins. ``__hash__``
        uses it, and it names a structure in one string (equal before
        and after an artifact round trip). The strategy label is
        deliberately excluded — attacks depend only on structure.
        """

        def build() -> str:
            digest = hashlib.sha256()
            digest.update(f"pla1:{self.n}:{self._b}:{self._r}|".encode())
            digest.update(memoryview(self.replica_array()))
            return digest.hexdigest()

        return self._cached("_fingerprint", build)

    # -- failure queries -----------------------------------------------------

    def failed_objects(self, failed_nodes: Iterable[int], s: int) -> List[int]:
        """Objects with at least ``s`` replicas on ``failed_nodes``.

        Counts each object's failed replicas via the cached incidence.
        """
        failed = {
            node for node in failed_nodes if 0 <= node < self.n
        }
        np = lazynumpy.for_bulk(self._b)
        if np is not None:
            mask = np.zeros(self.n, dtype=bool)
            if failed:
                mask[list(failed)] = True
            hits = mask[self.replica_matrix()].sum(axis=1)
            return (hits >= s).nonzero()[0].tolist()
        counts = [0] * self._b
        node_off, node_objs = self.node_csr()
        for node in failed:
            for obj_id in node_objs[node_off[node]:node_off[node + 1]]:
                counts[obj_id] += 1
        return [obj_id for obj_id, c in enumerate(counts) if c >= s]

    def concatenated_with(self, other: "Placement") -> "Placement":
        """Both object populations on the same node set."""
        if other.n != self.n:
            raise PlacementError(
                f"cannot concatenate placements on {self.n} and {other.n} nodes"
            )
        if other.r != self.r:
            raise PlacementError(
                f"cannot concatenate placements with r={self.r} and r={other.r}"
            )
        label = self.strategy if self.strategy == other.strategy else (
            f"{self.strategy}+{other.strategy}"
        )
        return Placement(
            n=self.n,
            rows=_as_int_array(self.replica_array())
            + _as_int_array(other.replica_array()),
            r=self._r,
            strategy=label,
        )

    def relabeled(self, strategy: str) -> "Placement":
        """Same structure under a new strategy label (buffer shared)."""
        return Placement(
            n=self.n, rows=self.replica_array(), r=self._r, strategy=strategy
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-friendly snapshot (used by the cluster simulator's logs)."""
        flat, r = self.replica_array(), self._r
        return {
            "n": self.n,
            "strategy": self.strategy,
            "replica_sets": [
                list(flat[i:i + r]) for i in range(0, self._b * r, r)
            ],
        }

    @staticmethod
    def from_dict(payload: Dict[str, object], validate: bool = True) -> "Placement":
        return Placement.from_arrays(
            int(payload["n"]),
            payload["replica_sets"],  # type: ignore[arg-type]
            strategy=str(payload.get("strategy", "")),
            validate=validate,
        )

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self.n == other.n
            and self.strategy == other.strategy
            and self._b == other._b
            and self._r == other._r
            and self.replica_array() == other.replica_array()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.strategy, self.fingerprint()))

    def __getstate__(self):
        # Pickle the compact buffer, never the frozenset views (workers
        # rebuild views lazily, and most never need them).
        return {
            "n": self.n,
            "strategy": self.strategy,
            "r": self._r,
            "rows": self.replica_array().tobytes(),
        }

    def __setstate__(self, state) -> None:
        self.n = state["n"]
        self.strategy = state["strategy"]
        flat = array("i")
        flat.frombytes(state["rows"])
        self._rows = flat
        self._r = state["r"]
        self._b = len(flat) // state["r"]
        self._sets = None

    def __repr__(self) -> str:
        label = f", strategy={self.strategy!r}" if self.strategy else ""
        return f"Placement(n={self.n}, b={self.b}, r={self.r}{label})"
