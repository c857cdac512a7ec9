"""Binary placement artifacts: ``.npz`` with a versioned JSON header.

JSON placements (:meth:`Placement.to_dict`) are convenient but cost
seconds of parse + validation at million-object scale. This module adds a
binary format that round-trips the array-native core in milliseconds:

* ``rows.npy`` — the ``(b, r)`` row-sorted replica matrix as a standard
  NPY v1.0 array (little-endian int32), so ``numpy.load`` can open the
  archive directly;
* ``header.json`` — ``{"format": "repro-placement", "version": 1, "n",
  "b", "r", "strategy", "sha256"}`` where ``sha256`` digests the raw row
  bytes.

Both members live in an uncompressed zip (the ``.npz`` container). The
writer and reader are dependency-free — the NPY header is tiny and
hand-rolled — so the format works on the no-numpy ladder too.

Loading verifies shape and checksum and then takes the **trusted**
:meth:`Placement.from_arrays` path (``validate=False``): a placement that
hashed correctly was validated when it was saved, so re-running the
O(b r) structural checks on every reload is pure overhead. Pass
``validate=True`` to re-check anyway (e.g. for artifacts of unknown
provenance).

:func:`save_placement` / :func:`load_placement` dispatch on the file
extension, so every CLI entry point (``repro place/attack/audit/
simulate``) speaks both formats through one pair of calls.
"""

from __future__ import annotations

import ast
import hashlib
import json
import mmap as _mmaplib
import struct
import sys
import warnings
from array import array
from operator import lt
from typing import Dict, Optional, Set, Tuple

# zipfile (which pulls in pathlib, shutil, bz2 and lzma) is imported
# inside the functions that read or write an archive: ~14 ms per process
# that invocations never touching an artifact would pay for nothing.

from repro import obs
from repro.core.placement import Placement, PlacementError
from repro.util import lazynumpy

# Reasons already warned about for mmap -> eager fallback (one warning
# per distinct reason per process, so a sweep over many artifacts does
# not spam while the degradation still gets surfaced once).
_MMAP_FALLBACK_WARNED: Set[str] = set()

PLACEMENT_FORMAT = "repro-placement"
PLACEMENT_VERSION = 1

#: Engine-state snapshots: a placement plus the packed gain-kernel state
#: for one or more thresholds ``s`` (see ``repro.core.kernels``'s
#: ``GAIN_STATE_VERSION`` wire format), so a warm engine rehydrates from
#: mmap instead of paying the O(b r) cold build. Members beyond the
#: placement's ``rows.npy``: ``loads.npy`` (per-node replica counts),
#: ``node_objs.npy`` (the node -> objects CSR payload) and one
#: ``state_<s>.npy`` per threshold — all little-endian int32 column
#: vectors, individually checksummed in the header. The rows member is
#: gated by the placement *fingerprint* (sha256 over the shape prefix +
#: row bytes): the loader recomputes it from the file region, so a
#: tampered header cannot smuggle a mismatched fingerprint into the
#: batch engine's cache keys.
ENGINE_FORMAT = "repro-engine-state"
ENGINE_VERSION = 1

_NPY_MAGIC = b"\x93NUMPY"


class ArtifactError(ValueError):
    """Raised on malformed, corrupt, or version-incompatible artifacts."""


class ArtifactVersionError(ArtifactError):
    """An artifact from a *newer* writer (format or packed-state version).

    Distinct from corruption: the bytes are intact but this process
    cannot interpret them, so callers holding a rebuild path (engine
    hydration) fall back to the cold build instead of failing the run.
    """


def _row_bytes_le(placement: Placement) -> bytes:
    """The raw row buffer as little-endian int32 bytes."""
    return _i32_bytes_le(placement.replica_array())


def _i32_bytes_le(values) -> bytes:
    """Any int32 buffer (array/memoryview) as little-endian bytes."""
    packed = values if isinstance(values, array) else array("i", values)
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        packed = array("i", packed)
        packed.byteswap()
    return packed.tobytes()


def _npy_bytes(row_data: bytes, b: int, r: int) -> bytes:
    """A standard NPY v1.0 envelope around the little-endian int32 rows."""
    header = (
        "{'descr': '<i4', 'fortran_order': False, "
        f"'shape': ({b}, {r}), }}"
    ).encode("latin1")
    # Pad with spaces so magic + version + length + header is 64-aligned.
    unpadded = len(_NPY_MAGIC) + 2 + 2 + len(header) + 1
    header += b" " * (-unpadded % 64) + b"\n"
    return (
        _NPY_MAGIC + bytes((1, 0)) + struct.pack("<H", len(header))
        + header + row_data
    )


def _parse_npy(blob: bytes, name: str = "rows.npy"):
    """Minimal NPY v1/v2 reader for an int32 matrix member."""
    if blob[:6] != _NPY_MAGIC:
        raise ArtifactError(f"{name}: not an NPY file")
    major = blob[6]
    if major == 1:
        (header_len,) = struct.unpack("<H", blob[8:10])
        offset = 10
    elif major == 2:  # pragma: no cover - we never write v2
        (header_len,) = struct.unpack("<I", blob[8:12])
        offset = 12
    else:
        raise ArtifactError(f"{name}: unsupported NPY version {major}")
    header = ast.literal_eval(blob[offset:offset + header_len].decode("latin1"))
    if header.get("fortran_order"):
        raise ArtifactError(f"{name}: fortran order is not supported")
    descr = header.get("descr")
    if descr not in ("<i4", "|i4", ">i4"):
        raise ArtifactError(f"{name}: expected int32 rows, got {descr!r}")
    shape = header.get("shape")
    if not (isinstance(shape, tuple) and len(shape) == 2):
        raise ArtifactError(f"{name}: expected a (b, r) matrix, got {shape}")
    data = blob[offset + header_len:]
    rows = array("i")
    rows.frombytes(data[: 4 * shape[0] * shape[1]])
    if len(rows) != shape[0] * shape[1]:
        raise ArtifactError(f"{name}: truncated row data")
    swap = (descr == ">i4") != (sys.byteorder == "big")
    if swap:  # pragma: no cover - no big-endian CI leg
        rows.byteswap()
    return rows, shape


def _member_span(path: str, info: zipfile.ZipInfo) -> Tuple[int, int]:
    """``(file_offset, size)`` of an uncompressed zip member's raw data.

    ``ZipInfo.header_offset`` points at the member's *local* header, whose
    name/extra fields can differ in length from the central directory's
    copy — the offset must come from the local record itself.
    """
    import zipfile

    if info.compress_type != zipfile.ZIP_STORED:
        # A compressed member is a *valid* artifact that simply has no
        # mappable byte range — plain ValueError so load_npz falls back
        # to the eager decompressing path instead of rejecting the file.
        raise ValueError(
            f"{path}: member {info.filename!r} is compressed; "
            f"mmap needs the stored layout save_npz writes"
        )
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ArtifactError(f"{path}: corrupt local header for {info.filename!r}")
    name_len, extra_len = struct.unpack("<HH", local[26:30])
    return info.header_offset + 30 + name_len + extra_len, info.file_size


def _npy_data_span(
    path: str, info: zipfile.ZipInfo, shape: Tuple[int, int]
) -> Tuple[int, int]:
    """``(file_offset, size)`` of the int32 payload inside a stored member.

    Parses just the NPY envelope (magic + header) from the member head
    and checks dtype/order/shape; raises :class:`ArtifactError` for bad
    artifacts and plain ``ValueError`` (via :func:`_member_span`) when
    the member has no mappable byte range.
    """
    name = info.filename
    member_offset, member_size = _member_span(path, info)
    with open(path, "rb") as handle:
        handle.seek(member_offset)
        head = handle.read(min(member_size, 1 << 12))
    if head[:6] != _NPY_MAGIC:
        raise ArtifactError(f"{name}: not an NPY file")
    if head[6] == 1:
        (header_len,) = struct.unpack("<H", head[8:10])
        header_start = 10
    elif head[6] == 2:  # pragma: no cover - we never write v2
        (header_len,) = struct.unpack("<I", head[8:12])
        header_start = 12
    else:
        raise ArtifactError(f"{name}: unsupported NPY version {head[6]}")
    npy_offset = header_start + header_len
    if npy_offset > len(head):
        raise ArtifactError(f"{name}: oversized NPY header")
    npy_header = ast.literal_eval(
        head[header_start:npy_offset].decode("latin1")
    )
    if npy_header.get("fortran_order"):
        raise ArtifactError(f"{name}: fortran order is not supported")
    if npy_header.get("descr") not in ("<i4", "|i4"):
        raise ArtifactError(
            f"{name}: expected little-endian int32 rows, "
            f"got {npy_header.get('descr')!r}"
        )
    if npy_header.get("shape") != shape:
        raise ArtifactError(
            f"{path}: header says {shape} but {name} holds "
            f"{npy_header.get('shape')}"
        )
    data_size = 4 * shape[0] * shape[1]
    if npy_offset + data_size > member_size:
        raise ArtifactError(f"{name}: truncated row data")
    return member_offset + npy_offset, data_size


def _stream_digest(path: str, offset: int, size: int, seed: bytes = b"") -> str:
    """sha256 of a file region, read in chunks (never via a mapping).

    ``seed`` is folded in before the region — the placement fingerprint
    is a digest over a shape prefix plus the row bytes, so passing the
    prefix here lets the loader verify rows *against the fingerprint
    itself* instead of a separate (tamperable) checksum field.
    """
    digest = hashlib.sha256(seed)
    with open(path, "rb") as handle:
        handle.seek(offset)
        remaining = size
        while remaining > 0:
            chunk = handle.read(min(remaining, 1 << 20))
            if not chunk:
                raise ArtifactError(f"{path}: truncated row data")
            digest.update(chunk)
            remaining -= len(chunk)
    return digest.hexdigest()


def _map_rows(path: str, offset: int, size: int):
    """An int32 memoryview over a file region via a copy-on-write mapping.

    ``ACCESS_COPY`` keeps the mapping writable (ctypes ``from_buffer``
    refuses read-only buffers) without ever dirtying the file; pages fault
    in lazily as kernels touch them. The returned view pins the mapping
    alive; the descriptor is closed immediately (mappings outlive fds).
    """
    grain = _mmaplib.ALLOCATIONGRANULARITY
    base = offset - offset % grain
    delta = offset - base
    with open(path, "rb") as handle:
        mapped = _mmaplib.mmap(
            handle.fileno(), delta + size,
            access=_mmaplib.ACCESS_COPY, offset=base,
        )
    return memoryview(mapped)[delta:delta + size].cast("i")


def _validate_view(view, n: int, b: int, r: int, path: str) -> None:
    """Structural validation of an int32 row view without copying it.

    Stricter than the artifact checksum: every row must be strictly
    ascending (which covers both sortedness — a format invariant — and
    replica distinctness) with nodes in ``[0, n)``.
    """
    np = lazynumpy.optional()
    if np is not None:
        matrix = np.frombuffer(view, dtype=np.int32).reshape(b, r)
        ok = bool((matrix[:, 0] >= 0).all()) and bool((matrix[:, -1] < n).all())
        if ok and r > 1:
            ok = bool((matrix[:, 1:] > matrix[:, :-1]).all())
    else:
        # Column slices of the view: first column >= 0, last < n, and
        # each column strictly below the next one.
        ok = min(view[0::r]) >= 0 and max(view[r - 1::r]) < n and all(
            all(map(lt, view[j::r], view[j + 1::r])) for j in range(r - 1)
        )
    if not ok:
        raise ArtifactError(
            f"{path}: rows are not sorted distinct in-range node ids"
        )


def save_npz(placement: Placement, path: str) -> None:
    """Write ``placement`` as a ``.npz`` artifact (versioned, checksummed)."""
    import zipfile

    row_data = _row_bytes_le(placement)
    header = {
        "format": PLACEMENT_FORMAT,
        "version": PLACEMENT_VERSION,
        "n": placement.n,
        "b": placement.b,
        "r": placement.r,
        "strategy": placement.strategy,
        "sha256": hashlib.sha256(row_data).hexdigest(),
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        archive.writestr("header.json", json.dumps(header, indent=1) + "\n")
        archive.writestr(
            "rows.npy", _npy_bytes(row_data, placement.b, placement.r)
        )


def load_npz(path: str, validate: bool = False, mmap: bool = False) -> Placement:
    """Read a ``.npz`` placement artifact written by :func:`save_npz`.

    The rows checksum is always verified; ``validate=True`` additionally
    re-runs the full structural validation. The default trusts the
    artifact — the checksum only proves the bytes are the ones that were
    written, not that a well-behaved writer produced them — so this
    function is for artifacts *this program wrote* (the memoized reload
    path). Boundary code loading files of unknown provenance goes
    through :func:`load_placement`, which validates by default.

    ``mmap=True`` memory-maps the row matrix out of the archive instead
    of copying it into the heap: the checksum is still enforced (by
    streaming the file region, so page-cache reads — never the process
    mapping — pay for it) and the placement's row buffer becomes a lazy
    copy-on-write view whose pages fault in as kernels touch them — the
    difference between "engine-ready" RSS scaling with b and scaling with
    the touched working set. Falls back to the eager load when the
    filesystem refuses to map (network mounts, exotic platforms).
    """
    import zipfile

    if mmap:
        try:
            return _load_npz_mmap(path, validate=validate)
        except ArtifactError:
            raise  # bad artifacts stay rejected; only mmap refusal falls back
        except (OSError, ValueError) as exc:
            # mmap refused (filesystem, platform, zero-length quirk):
            # the eager path reads the same checked bytes. Degrading
            # silently would hide a real capability loss (lazy page-in at
            # large b), so name the reason once per process.
            reason = f"{type(exc).__name__}: {exc}"
            # Every fallback is counted (capacity loss is per-load), but
            # the warning and the structured event fire once per reason —
            # a sweep over a network mount degrades loudly exactly once.
            obs.count("artifact.mmap_fallback")
            if reason not in _MMAP_FALLBACK_WARNED:
                _MMAP_FALLBACK_WARNED.add(reason)
                obs.record_event(
                    "artifact.mmap_fallback", path=str(path), reason=reason
                )
                warnings.warn(
                    f"{path}: mmap load failed ({reason}); falling back to "
                    "the eager loader — results are identical but rows are "
                    "read up front instead of paged in lazily",
                    RuntimeWarning,
                    stacklevel=2,
                )
    try:
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            if "header.json" not in names or "rows.npy" not in names:
                raise ArtifactError(
                    f"{path}: not a placement artifact "
                    f"(members: {sorted(names)})"
                )
            header = json.loads(archive.read("header.json"))
            blob = archive.read("rows.npy")
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
    if header.get("format") != PLACEMENT_FORMAT:
        raise ArtifactError(
            f"{path}: unknown artifact format {header.get('format')!r}"
        )
    if int(header.get("version", -1)) > PLACEMENT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {header.get('version')} is newer "
            f"than supported version {PLACEMENT_VERSION}"
        )
    rows, shape = _parse_npy(blob)
    try:
        n = int(header["n"])
        b, r = int(header["b"]), int(header["r"])
        expected_digest = header["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: malformed artifact header: {exc!r}"
        ) from None
    if shape != (b, r):
        raise ArtifactError(
            f"{path}: header says ({b}, {r}) but rows.npy holds {shape}"
        )
    row_data = rows.tobytes()
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        swapped = array("i", rows)
        swapped.byteswap()
        row_data = swapped.tobytes()
    digest = hashlib.sha256(row_data).hexdigest()
    if digest != expected_digest:
        raise ArtifactError(
            f"{path}: rows checksum mismatch (corrupt artifact)"
        )
    return Placement.from_arrays(
        n,
        rows,
        r=r,
        strategy=str(header.get("strategy", "")),
        validate=validate,
    )


def _load_npz_mmap(path: str, validate: bool) -> Placement:
    """The mmap-backed arm of :func:`load_npz`.

    Header parsing and checksum verification read through the page cache;
    only the row matrix itself is mapped. Raises :class:`ArtifactError`
    for bad artifacts and ``OSError``/``ValueError`` when the platform or
    filesystem refuses the mapping (the caller falls back to eager).
    """
    import zipfile

    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        raise ValueError("mmap rows are little-endian; eager load byteswaps")
    try:
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
            if "header.json" not in names or "rows.npy" not in names:
                raise ArtifactError(
                    f"{path}: not a placement artifact "
                    f"(members: {sorted(names)})"
                )
            header = json.loads(archive.read("header.json"))
            member = archive.getinfo("rows.npy")
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
    if header.get("format") != PLACEMENT_FORMAT:
        raise ArtifactError(
            f"{path}: unknown artifact format {header.get('format')!r}"
        )
    if int(header.get("version", -1)) > PLACEMENT_VERSION:
        raise ArtifactError(
            f"{path}: artifact version {header.get('version')} is newer "
            f"than supported version {PLACEMENT_VERSION}"
        )
    try:
        n = int(header["n"])
        b, r = int(header["b"]), int(header["r"])
        expected_digest = header["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: malformed artifact header: {exc!r}"
        ) from None
    data_offset, data_size = _npy_data_span(path, member, (b, r))
    if _stream_digest(path, data_offset, data_size) != expected_digest:
        raise ArtifactError(
            f"{path}: rows checksum mismatch (corrupt artifact)"
        )
    view = _map_rows(path, data_offset, data_size)
    if validate:
        _validate_view(view, n, b, r, path)
    return Placement(
        n=n, rows=view, r=r, strategy=str(header.get("strategy", ""))
    )


def save_placement(placement: Placement, path: str) -> None:
    """Write a placement artifact; format chosen by extension.

    ``.npz`` gets the binary format; anything else gets the JSON snapshot
    (:meth:`Placement.to_dict`).
    """
    if path.endswith(".npz"):
        save_npz(placement, path)
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(placement.to_dict(), handle)
        handle.write("\n")


def load_placement(
    path: str, validate: Optional[bool] = None, mmap: bool = False
) -> Placement:
    """Read a placement artifact; format chosen by extension.

    This is the boundary loader (the CLI routes through it), so rows are
    fully validated by default for both formats — a checksum-consistent
    ``.npz`` from an unknown writer can still hold out-of-range or
    duplicate node ids, which would otherwise reach the kernels' C index
    paths unchecked. Internal reload paths that wrote the artifact
    themselves pass ``validate=False`` (or call :func:`load_npz`
    directly) to skip the O(b r) re-check.

    ``mmap=True`` (``.npz`` only; ignored for JSON) backs the rows with a
    lazy copy-on-write mapping — see :func:`load_npz`. Validation still
    runs by default (in place over the view, no copy).
    """
    if path.endswith(".npz"):
        return load_npz(
            path, validate=True if validate is None else validate, mmap=mmap
        )
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: not valid JSON: {exc}") from None
    try:
        return Placement.from_dict(payload)
    except (KeyError, TypeError) as exc:
        raise ArtifactError(
            f"{path}: missing placement fields: {exc}"
        ) from None
    except PlacementError:
        raise


# -- engine-state snapshots ---------------------------------------------------


class EngineStateArtifact:
    """A loaded engine-state bundle: the placement plus packed states.

    ``states`` maps each threshold ``s`` to the canonical little-endian
    packed bytes a gain kernel's ``seed_empty_state``/``import_state``
    accepts. The placement arrives with its load array, node -> objects
    CSR and fingerprint pre-seeded from the artifact's verified members,
    so no consumer pays the O(b r) cold derivations.
    """

    __slots__ = ("placement", "states", "fingerprint")

    def __init__(
        self, placement: Placement, states: Dict[int, bytes], fingerprint: str
    ) -> None:
        self.placement = placement
        self.states = states
        self.fingerprint = fingerprint


def save_engine_state(
    path: str,
    placement: Placement,
    states: Dict[int, bytes],
    state_version: int = 1,
) -> None:
    """Write an engine-state snapshot (placement + packed kernel states).

    ``states`` maps thresholds ``s`` to the packed bytes a gain kernel's
    ``export_state`` produced; ``state_version`` records the packed wire
    format (``repro.core.kernels.GAIN_STATE_VERSION``) so a future layout
    change degrades to a rebuild instead of misparsing.
    """
    import zipfile

    b, n, r = placement.b, placement.n, placement.r
    expected = 4 * (b + n + 1)
    state_members = {}
    checks = {}
    for s in sorted(states):
        if not 1 <= int(s) <= r:
            raise ValueError(f"state threshold s={s} outside [1, {r}]")
        data = bytes(states[s])
        if len(data) != expected:
            raise ValueError(
                f"packed state for s={s} is {len(data)} bytes; "
                f"b={b}, n={n} needs {expected}"
            )
        name = f"state_{int(s)}.npy"
        checks[name] = hashlib.sha256(data).hexdigest()
        state_members[name] = _npy_bytes(data, b + n + 1, 1)
    row_data = _row_bytes_le(placement)
    loads_data = _i32_bytes_le(placement.load_array())
    node_objs = placement.node_csr()[1]
    objs_data = _i32_bytes_le(node_objs)
    checks["loads.npy"] = hashlib.sha256(loads_data).hexdigest()
    checks["node_objs.npy"] = hashlib.sha256(objs_data).hexdigest()
    header = {
        "format": ENGINE_FORMAT,
        "version": ENGINE_VERSION,
        "state_version": int(state_version),
        "n": n,
        "b": b,
        "r": r,
        "strategy": placement.strategy,
        "fingerprint": placement.fingerprint(),
        "s_values": [int(s) for s in sorted(states)],
        "sha256": checks,
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        archive.writestr("header.json", json.dumps(header, indent=1) + "\n")
        archive.writestr("rows.npy", _npy_bytes(row_data, b, r))
        archive.writestr("loads.npy", _npy_bytes(loads_data, n, 1))
        archive.writestr("node_objs.npy", _npy_bytes(objs_data, b * r, 1))
        for name, blob in sorted(state_members.items()):
            archive.writestr(name, blob)


def _engine_header(path: str, archive, state_version: Optional[int]):
    """Parse and cross-check an engine-state header; shared by both arms."""
    names = set(archive.namelist())
    if "header.json" not in names or "rows.npy" not in names:
        raise ArtifactError(
            f"{path}: not an engine-state artifact (members: {sorted(names)})"
        )
    header = json.loads(archive.read("header.json"))
    if header.get("format") != ENGINE_FORMAT:
        raise ArtifactError(
            f"{path}: unknown artifact format {header.get('format')!r}"
        )
    if int(header.get("version", -1)) > ENGINE_VERSION:
        raise ArtifactVersionError(
            f"{path}: engine-state version {header.get('version')} is newer "
            f"than supported version {ENGINE_VERSION}"
        )
    try:
        n, b, r = int(header["n"]), int(header["b"]), int(header["r"])
        fingerprint = str(header["fingerprint"])
        s_values = [int(s) for s in header["s_values"]]
        checks = dict(header["sha256"])
        artifact_state_version = int(header.get("state_version", -1))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: malformed artifact header: {exc!r}"
        ) from None
    if state_version is not None and artifact_state_version != int(state_version):
        raise ArtifactVersionError(
            f"{path}: packed-state version {artifact_state_version} does not "
            f"match this process's version {state_version}"
        )
    if n < 1 or b < 1 or r < 1:
        raise ArtifactError(f"{path}: invalid shape n={n}, b={b}, r={r}")
    if len(set(s_values)) != len(s_values) or any(
        not 1 <= s <= r for s in s_values
    ):
        raise ArtifactError(f"{path}: invalid s_values {s_values}")
    required = ["loads.npy", "node_objs.npy"]
    required += [f"state_{s}.npy" for s in s_values]
    for name in required:
        if name not in names:
            raise ArtifactError(f"{path}: missing member {name!r}")
        if name not in checks:
            raise ArtifactError(f"{path}: header lacks a checksum for {name!r}")
    return header, n, b, r, fingerprint, s_values, checks


def _member_i32(archive, name: str, shape, checks, path: str):
    """Read, shape-check and checksum one little-endian int32 member.

    Returns ``(machine_order_array, little_endian_bytes)``.
    """
    values, got = _parse_npy(archive.read(name), name=name)
    if got != shape:
        raise ArtifactError(
            f"{path}: header says {shape} but {name} holds {got}"
        )
    le_data = _i32_bytes_le(values)
    if hashlib.sha256(le_data).hexdigest() != checks[name]:
        raise ArtifactError(
            f"{path}: {name} checksum mismatch (corrupt artifact)"
        )
    return values, le_data


def _validate_objs(view, b: int, path: str) -> None:
    """Range-check CSR object ids without copying the buffer."""
    np = lazynumpy.optional()
    if np is not None:
        ids = np.frombuffer(view, dtype=np.int32)
        if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= b):
            raise ArtifactError(
                f"{path}: node_objs holds out-of-range object ids"
            )
        return
    for obj_id in view:  # pragma: no cover - exercised in the no-numpy leg
        if not 0 <= obj_id < b:
            raise ArtifactError(
                f"{path}: node_objs holds out-of-range object ids"
            )


def _assemble_engine_state(
    path: str, n: int, b: int, r: int, header, fingerprint: str,
    loads, rows, node_objs, states: Dict[int, bytes], validate: bool,
) -> EngineStateArtifact:
    """Cross-check member consistency and seed the placement's caches."""
    node_off = array("i", bytes(4 * (n + 1)))
    position = 0
    for node, load in enumerate(loads):
        if load < 0:
            raise ArtifactError(f"{path}: negative load for node {node}")
        node_off[node] = position
        position += load
    node_off[n] = position
    if position != b * r:
        raise ArtifactError(
            f"{path}: loads sum to {position}, rows hold {b * r} replicas"
        )
    if validate:
        _validate_view(rows, n, b, r, path)
        _validate_objs(node_objs, b, path)
    placement = Placement(
        n=n, rows=rows, r=r, strategy=str(header.get("strategy", ""))
    )
    placement.__dict__["_load"] = array("i", loads)
    placement.__dict__["_node_csr"] = (node_off, node_objs)
    if sys.byteorder == "little":
        # The stored fingerprint digests little-endian row bytes, which
        # equal this host's in-memory buffer — safe to seed the cache.
        # (A big-endian host recomputes it lazily from machine bytes.)
        placement.__dict__["_fingerprint"] = fingerprint
    return EngineStateArtifact(placement, states, fingerprint)


def load_engine_state(
    path: str,
    mmap: bool = True,
    validate: bool = False,
    state_version: Optional[int] = None,
) -> EngineStateArtifact:
    """Read an engine-state snapshot written by :func:`save_engine_state`.

    The rows member is verified against the header *fingerprint* (the
    digest is recomputed over the file region with the placement's shape
    prefix as the seed) and every other member against its checksum;
    ``validate=True`` additionally re-runs structural validation of rows
    and CSR ids for artifacts of unknown provenance. ``state_version``
    pins the packed wire format; a mismatch (or a newer artifact
    version) raises :class:`ArtifactVersionError`, which hydration
    callers treat as "rebuild cold", while corruption stays a hard
    :class:`ArtifactError`.

    ``mmap=True`` maps the rows and CSR payloads copy-on-write (the
    checksums stream through the page cache first) and falls back to the
    eager loader — once-per-reason warning, ``artifact.mmap_fallback``
    count — when the filesystem refuses to map.
    """
    if mmap:
        try:
            return _load_engine_mmap(path, validate, state_version)
        except ArtifactError:
            raise  # bad artifacts stay rejected; only mmap refusal falls back
        except (OSError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            obs.count("artifact.mmap_fallback")
            if reason not in _MMAP_FALLBACK_WARNED:
                _MMAP_FALLBACK_WARNED.add(reason)
                obs.record_event(
                    "artifact.mmap_fallback", path=str(path), reason=reason
                )
                warnings.warn(
                    f"{path}: mmap load failed ({reason}); falling back to "
                    "the eager loader — results are identical but state is "
                    "read up front instead of paged in lazily",
                    RuntimeWarning,
                    stacklevel=2,
                )
    return _load_engine_eager(path, validate, state_version)


def _load_engine_mmap(
    path: str, validate: bool, state_version: Optional[int]
) -> EngineStateArtifact:
    """The mmap-backed arm of :func:`load_engine_state`."""
    import zipfile

    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        raise ValueError("mmap members are little-endian; eager load byteswaps")
    try:
        with zipfile.ZipFile(path) as archive:
            header, n, b, r, fingerprint, s_values, checks = _engine_header(
                path, archive, state_version
            )
            rows_info = archive.getinfo("rows.npy")
            objs_info = archive.getinfo("node_objs.npy")
            loads, _ = _member_i32(archive, "loads.npy", (n, 1), checks, path)
            states = {}
            for s in s_values:
                _, le_data = _member_i32(
                    archive, f"state_{s}.npy", (b + n + 1, 1), checks, path
                )
                states[s] = le_data
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
    rows_off, rows_size = _npy_data_span(path, rows_info, (b, r))
    seed = f"pla1:{n}:{b}:{r}|".encode()
    if _stream_digest(path, rows_off, rows_size, seed=seed) != fingerprint:
        raise ArtifactError(
            f"{path}: rows fingerprint mismatch (corrupt artifact)"
        )
    objs_off, objs_size = _npy_data_span(path, objs_info, (b * r, 1))
    if _stream_digest(path, objs_off, objs_size) != checks["node_objs.npy"]:
        raise ArtifactError(
            f"{path}: node_objs.npy checksum mismatch (corrupt artifact)"
        )
    rows_view = _map_rows(path, rows_off, rows_size)
    objs_view = _map_rows(path, objs_off, objs_size)
    return _assemble_engine_state(
        path, n, b, r, header, fingerprint, loads, rows_view, objs_view,
        states, validate,
    )


def _load_engine_eager(
    path: str, validate: bool, state_version: Optional[int]
) -> EngineStateArtifact:
    """The dependency-free eager arm of :func:`load_engine_state`."""
    import zipfile

    try:
        with zipfile.ZipFile(path) as archive:
            header, n, b, r, fingerprint, s_values, checks = _engine_header(
                path, archive, state_version
            )
            rows, shape = _parse_npy(archive.read("rows.npy"))
            if shape != (b, r):
                raise ArtifactError(
                    f"{path}: header says ({b}, {r}) but rows.npy holds "
                    f"{shape}"
                )
            node_objs, _ = _member_i32(
                archive, "node_objs.npy", (b * r, 1), checks, path
            )
            loads, _ = _member_i32(archive, "loads.npy", (n, 1), checks, path)
            states = {}
            for s in s_values:
                _, le_data = _member_i32(
                    archive, f"state_{s}.npy", (b + n + 1, 1), checks, path
                )
                states[s] = le_data
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
    digest = hashlib.sha256(f"pla1:{n}:{b}:{r}|".encode())
    digest.update(_i32_bytes_le(rows))
    if digest.hexdigest() != fingerprint:
        raise ArtifactError(
            f"{path}: rows fingerprint mismatch (corrupt artifact)"
        )
    return _assemble_engine_state(
        path, n, b, r, header, fingerprint, loads, rows, node_objs,
        states, validate,
    )
