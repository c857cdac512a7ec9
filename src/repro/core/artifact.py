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
from typing import Optional, Set, Tuple

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

_NPY_MAGIC = b"\x93NUMPY"


class ArtifactError(ValueError):
    """Raised on malformed, corrupt, or version-incompatible artifacts."""


def _row_bytes_le(placement: Placement) -> bytes:
    """The raw row buffer as little-endian int32 bytes."""
    rows = placement.replica_array()
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        rows = array("i", rows)
        rows.byteswap()
    return rows.tobytes()


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


def _parse_npy(blob: bytes):
    """Minimal NPY v1/v2 reader for the int32 ``rows.npy`` member."""
    name = "rows.npy"
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


def _stream_digest(path: str, offset: int, size: int) -> str:
    """sha256 of a file region, read in chunks (never via a mapping)."""
    digest = hashlib.sha256()
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
            header, n, b, r, expected_digest = _npz_header(path, archive)
            blob = archive.read("rows.npy")
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
    rows, shape = _parse_npy(blob)
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


def _npz_header(path: str, archive):
    """Check members, format and version; parse ``n, b, r, sha256``.

    Shared by both arms of :func:`load_npz`; returns ``(header, n, b, r,
    rows_sha256)``.
    """
    names = set(archive.namelist())
    if "header.json" not in names or "rows.npy" not in names:
        raise ArtifactError(
            f"{path}: not a placement artifact (members: {sorted(names)})"
        )
    header = json.loads(archive.read("header.json"))
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
    return header, n, b, r, expected_digest


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
            header, n, b, r, expected_digest = _npz_header(path, archive)
            member = archive.getinfo("rows.npy")
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path}: not a zip archive: {exc}") from None
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
