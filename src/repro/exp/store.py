"""Content-addressed on-disk run store: resumable, checksummed, append-only.

Layout (one directory per spec identity under the store root)::

    runs/
      <spec-hash16>/
        manifest.json   # format/version, full spec, spec_sha256, completion
        cells.jsonl     # one line per completed cell, in expansion order

``manifest.json`` follows the checksummed-header pattern of
:mod:`repro.core.artifact`: it pins the full spec dict plus its sha256,
and once the run completes it additionally records the cell count and the
sha256 of ``cells.jsonl`` — a complete run that fails its checksum is
reported as corrupt instead of silently re-served.

``cells.jsonl`` is written **strictly in expansion order** (the runner
commits shards in order even when they finish out of order), which buys
two properties cheaply:

* a killed run leaves a valid *prefix* (plus at most one torn trailing
  line, which :meth:`RunState.load_prefix` truncates away), so resuming
  is "skip the prefix, recompute the rest";
* an interrupted-then-resumed run produces a ``cells.jsonl`` that is
  byte-identical to an uninterrupted run's.

Floats ride JSON's exact ``repr`` round-trip, so metrics loaded from the
store are indistinguishable from freshly computed ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from typing import Any, Dict, IO, List, Mapping, Optional, Sequence

from repro import faults, obs
from repro.exp.spec import ExperimentSpec, cell_key

RUN_FORMAT = "repro-run"
RUN_VERSION = 1

#: Directory names use a 16-hex prefix of the spec hash; the manifest pins
#: the full digest, so a (cosmically unlikely) prefix collision is caught
#: at open time rather than silently mixing runs.
_DIR_HASH_CHARS = 16


class RunStoreError(ValueError):
    """Raised on corrupt, mismatched, or version-incompatible run stores."""


def _dump_line(cell: Mapping[str, Any], metrics: Mapping[str, Any]) -> str:
    return json.dumps(
        {"cell": dict(cell), "metrics": dict(metrics)},
        sort_keys=True,
        separators=(",", ":"),
    ) + "\n"


def _fsync_directory(path: str) -> None:
    """Best-effort fsync of a directory entry (after an ``os.replace``)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems rejecting dir fsync
        pass
    finally:
        os.close(fd)


def _write_atomic(path: str, text: str) -> None:
    """Durable atomic replace: write, fsync, rename, fsync the directory.

    Without the fsyncs a crash shortly after ``os.replace`` can surface
    the new name pointing at unwritten data (or the old name lingering);
    with them a manifest update is all-or-nothing across power loss too.
    """
    # tempfile pulls in shutil, bz2 and lzma (~4 ms); only a process that
    # writes a store pays for it.
    import tempfile

    directory = os.path.dirname(path)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        _fsync_directory(directory)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _acquire_lock(path: str) -> Optional[IO[str]]:
    """Take the run directory's advisory lock (kernel ``flock``).

    Two processes running the same spec against one store would otherwise
    race: the second one's restart policy can unlink the cells file the
    first still holds open, and whichever finalizes first records a
    checksum of the other's half-written data. A non-blocking exclusive
    ``flock`` on ``<run>/lock`` serializes them with no staleness
    protocol at all — the kernel drops the lock the instant its holder
    exits (cleanly or not), so crashed runs never wedge the store and
    there is no pid-file read/reclaim race. The file itself is never
    unlinked (unlink-while-locked is its own race); its pid content is
    diagnostic only. Returns the open handle owning the lock, or None on
    platforms without ``fcntl`` (best-effort: no locking there).
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    lock_path = os.path.join(path, "lock")
    handle = open(lock_path, "a+", encoding="utf-8")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.seek(0)
        owner = handle.read().strip() or "unknown"
        handle.close()
        raise RunStoreError(
            f"{path}: run is in use by another process (pid {owner}); "
            "wait for it to finish or use a different --store"
        ) from None
    handle.seek(0)
    handle.truncate()
    handle.write(str(os.getpid()))
    handle.flush()
    return handle


class RunState:
    """One open run directory: prefix loading, ordered appends, completion.

    Opening a run takes an advisory per-directory lock (released by
    :meth:`close` / :meth:`finalize`, reclaimed automatically from dead
    processes), so concurrent runs of one spec against one store fail
    fast instead of corrupting each other.
    """

    def __init__(
        self,
        path: str,
        spec: ExperimentSpec,
        manifest: Dict[str, Any],
        lock: Optional[IO[str]] = None,
    ):
        self.path = path
        self.spec = spec
        self.manifest = manifest
        self._handle: Optional[IO[bytes]] = None
        self._lock = lock

    @property
    def cells_path(self) -> str:
        return os.path.join(self.path, "cells.jsonl")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.path, "manifest.json")

    @property
    def complete(self) -> bool:
        return bool(self.manifest.get("complete"))

    def load_prefix(self, cells: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
        """Validated metrics for the stored prefix of ``cells``.

        Reads ``cells.jsonl``, checks every stored line against the
        expected cell at its expansion slot, truncates a torn trailing
        line (the kill-mid-write case), and — for complete runs — also
        verifies the manifest's cells checksum. Returns the prefix's
        metric dicts; the run resumes at index ``len(result)``.
        """
        if not os.path.exists(self.cells_path):
            if self.complete:
                raise RunStoreError(
                    f"{self.path}: manifest says complete but cells.jsonl "
                    "is missing"
                )
            return []
        with open(self.cells_path, "rb") as handle:
            blob = handle.read()
        if self.complete:
            digest = hashlib.sha256(blob).hexdigest()
            if digest != self.manifest.get("cells_sha256"):
                raise RunStoreError(
                    f"{self.path}: cells.jsonl checksum mismatch "
                    "(corrupt run store)"
                )
        metrics: List[Dict[str, Any]] = []
        offset = 0
        for raw_line in blob.splitlines(keepends=True):
            if not raw_line.endswith(b"\n"):
                # Appends write line+newline in one call, so a line
                # without its newline is an interrupted append — and it
                # is necessarily the file's last line. Truncate it away;
                # the runner recomputes that cell.
                if self.complete:
                    raise RunStoreError(
                        f"{self.path}: torn trailing line in a complete "
                        "run (corrupt run store)"
                    )
                with open(self.cells_path, "r+b") as handle:
                    handle.truncate(offset)
                break
            try:
                payload = json.loads(raw_line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = None
            if not isinstance(payload, dict):
                # A newline-terminated line that does not parse was fully
                # written and then damaged: corruption, not a torn append.
                # In a partial run the good prefix is still exactly a
                # prefix, so quarantine the damaged suffix and resume from
                # it rather than aborting the whole run.
                if self.complete:
                    raise RunStoreError(
                        f"{self.path}: corrupt line {len(metrics)} in "
                        "cells.jsonl"
                    )
                self._quarantine(
                    offset,
                    f"corrupt line {len(metrics)} in cells.jsonl",
                )
                break
            index = len(metrics)
            if index >= len(cells):
                raise RunStoreError(
                    f"{self.path}: cells.jsonl holds more lines than the "
                    f"spec expands to ({len(cells)} cells)"
                )
            stored_cell = payload.get("cell")
            if not isinstance(stored_cell, dict) or cell_key(stored_cell) != cell_key(cells[index]):
                raise RunStoreError(
                    f"{self.path}: stored cell {index} does not match the "
                    "spec expansion (corrupt or mismatched run store)"
                )
            stored_metrics = payload.get("metrics")
            if not isinstance(stored_metrics, dict):
                if self.complete:
                    raise RunStoreError(
                        f"{self.path}: stored cell {index} has no metrics dict"
                    )
                self._quarantine(
                    offset, f"stored cell {index} has no metrics dict"
                )
                break
            metrics.append(stored_metrics)
            offset += len(raw_line)
        if self.complete and len(metrics) != len(cells):
            raise RunStoreError(
                f"{self.path}: manifest says complete with "
                f"{self.manifest.get('cells')} cells but cells.jsonl holds "
                f"{len(metrics)} of {len(cells)}"
            )
        return metrics

    def _quarantine(self, offset: int, reason: str) -> None:
        """Move the damaged suffix aside and truncate to the good prefix.

        The quarantined bytes stay on disk (``cells.quarantine.<n>``) for
        post-mortems; the run itself resumes from the surviving prefix and
        recomputes the rest, ending byte-identical to an undamaged run.
        """
        with open(self.cells_path, "r+b") as handle:
            handle.seek(offset)
            tail = handle.read()
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        sequence = 0
        while True:
            target = os.path.join(self.path, f"cells.quarantine.{sequence}")
            if not os.path.exists(target):
                break
            sequence += 1
        with open(target, "wb") as handle:
            handle.write(tail)
            handle.flush()
            os.fsync(handle.fileno())
        warnings.warn(
            f"{self.path}: {reason}; quarantined {len(tail)} bytes to "
            f"{os.path.basename(target)} and truncated cells.jsonl — "
            "resuming recomputes from the surviving prefix",
            RuntimeWarning,
            stacklevel=3,
        )

    def append(
        self,
        cell: Mapping[str, Any],
        metrics: Mapping[str, Any],
        index: int = -1,
    ) -> None:
        """Append one completed cell (runner guarantees expansion order).

        ``index`` is the cell's absolute expansion index when the caller
        knows it; fault plans use it to target specific commits in a way
        that stays stable across process restarts (unlike hit counters,
        which reset per process). This is the ``store.commit`` injection
        point: an injected ``error`` propagates exactly as a failed write
        would, and ``--resume`` heals the run from the committed prefix.
        """
        data = _dump_line(cell, metrics).encode("utf-8")
        action = faults.inject(
            "store.commit", path=self.path, length=len(data), index=index
        )
        if self._handle is None:
            self._handle = open(self.cells_path, "ab")
        if action is not None:
            # Injected torn write: flush a strict prefix of the line to
            # disk, then die the way a SIGKILL mid-append would.
            self._handle.write(data[: action.length])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            os._exit(action.exit_code)
        with obs.span("store.commit", index=index, bytes=len(data)):
            self._handle.write(data)
        obs.count("store.cells_committed")
        obs.observe("store.commit_bytes", len(data))

    def flush(self) -> None:
        """Flush buffered appends and fsync them to disk (commit point)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.close()  # closing the fd drops the flock
            self._lock = None

    def close(self) -> None:
        """Close the append handle and release the run lock (idempotent)."""
        self._close_handle()
        self._release_lock()

    def finalize(
        self,
        cell_count: int,
        faults_record: Optional[Dict[str, Any]] = None,
        obs_record: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Mark the run complete: record cell count + cells.jsonl checksum.

        ``faults_record`` (shard retries) and ``obs_record``
        (the deterministic metrics delta of this invocation, see
        :func:`repro.obs.deterministic_delta`) land in the manifest only
        when non-empty, so fault-free uninstrumented manifests are
        byte-identical to pre-chaos ones.
        """
        self._close_handle()
        if not os.path.exists(self.cells_path):
            # A spec can legitimately expand to zero cells (e.g. every b
            # above the cap); the complete run is an empty file.
            with open(self.cells_path, "wb"):
                pass
        with open(self.cells_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        self.manifest = {
            **self.manifest,
            "complete": True,
            "cells": cell_count,
            "cells_sha256": digest,
        }
        if faults_record:
            self.manifest["faults"] = dict(faults_record)
        if obs_record:
            self.manifest["obs"] = dict(obs_record)
        _write_atomic(self.manifest_path, json.dumps(self.manifest, indent=1) + "\n")
        self._release_lock()  # finalize is terminal; the run is reopenable

    def reset(self) -> None:
        """Drop stored cells and completion state (fresh restart)."""
        self._close_handle()
        if os.path.exists(self.cells_path):
            os.unlink(self.cells_path)
        self.manifest = {
            key: value
            for key, value in self.manifest.items()
            if key not in ("complete", "cells", "cells_sha256", "faults", "obs")
        }
        self.manifest["complete"] = False
        _write_atomic(self.manifest_path, json.dumps(self.manifest, indent=1) + "\n")


class RunStore:
    """A directory of content-addressed runs, one subdirectory per spec."""

    def __init__(self, root: str):
        self.root = root

    def run_path(self, spec: ExperimentSpec) -> str:
        return os.path.join(self.root, spec.spec_hash()[:_DIR_HASH_CHARS])

    def cells_file(self, spec: ExperimentSpec) -> str:
        """Path of the run's ``cells.jsonl`` (no lock taken — read-only
        inspection; use :meth:`open_run` to mutate a run)."""
        return os.path.join(self.run_path(spec), "cells.jsonl")

    def open_run(self, spec: ExperimentSpec, resume: bool = False) -> RunState:
        """Open (creating if needed) the run directory for ``spec``.

        Policy: complete runs are always reused (re-renders never
        recompute); a partial run is continued when ``resume`` is true
        and restarted from scratch otherwise. Delete the run directory
        (or pass a fresh store root) to force recomputation of a
        complete run.
        """
        path = self.run_path(spec)
        manifest_path = os.path.join(path, "manifest.json")
        os.makedirs(path, exist_ok=True)
        lock = _acquire_lock(path)
        try:
            if not os.path.exists(manifest_path):
                manifest = {
                    "format": RUN_FORMAT,
                    "version": RUN_VERSION,
                    "experiment": spec.experiment,
                    "spec": spec.to_dict(),
                    "spec_sha256": spec.spec_hash(),
                    "complete": False,
                }
                _write_atomic(
                    manifest_path, json.dumps(manifest, indent=1) + "\n"
                )
                return RunState(path, spec, manifest, lock)
            try:
                with open(manifest_path, encoding="utf-8") as handle:
                    manifest = json.load(handle)
            except ValueError as exc:
                raise RunStoreError(
                    f"{manifest_path}: not valid JSON: {exc}"
                ) from None
            if manifest.get("format") != RUN_FORMAT:
                raise RunStoreError(
                    f"{path}: unknown run format {manifest.get('format')!r}"
                )
            if int(manifest.get("version", -1)) > RUN_VERSION:
                raise RunStoreError(
                    f"{path}: run version {manifest.get('version')} is newer "
                    f"than supported version {RUN_VERSION}"
                )
            if manifest.get("spec_sha256") != spec.spec_hash():
                raise RunStoreError(
                    f"{path}: stored spec hash "
                    f"{manifest.get('spec_sha256')!r} does not match this "
                    f"spec ({spec.spec_hash()}); the run directory is "
                    "corrupt or hand-edited"
                )
            state = RunState(path, spec, manifest, lock)
            if not state.complete and not resume:
                state.reset()
            return state
        except BaseException:
            if lock is not None:
                lock.close()
            raise
