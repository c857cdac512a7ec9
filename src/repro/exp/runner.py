"""Sharded experiment runner: expand, group, fan out, stream in order.

Execution model:

* the kernel expands the spec into an ordered cell list and labels each
  cell with a **group key**. Cells sharing a key form one *shard* — they
  ride one warm :class:`~repro.core.batch.AttackEngine` (placement
  construction, incidence, per-threshold kernels) and one warm-start
  incumbent chain, exactly as the hand-written figure loops did. The
  expansion must keep groups contiguous; the runner enforces this, which
  is what lets the store hold a plain in-order prefix;
* each shard is computed **serially inside one process**, with
  single-threaded kernels — the only parallelism is *across* shards.
  Because a shard's randomness derives from the spec alone, results are
  bit-identical for every worker count, including 1. This module is the
  only process-parallel layer of the program;
* sharded fan-out runs on a persistent worker pool: one supervised
  worker process per slot lives for the whole run and serves the shards
  a fixed longest-first plan assigns to it. The supervisor owns the
  watchdog and bounded retries, and the result is bit-identical to the
  serial run. Serial and pool shards share one attempt
  (:func:`_run_attempt`) and one retry rule (:func:`_retry_or_raise`):
  only an injected fault is retried, anything else ends the run;
* shards are scheduled longest-first (``group_cost`` hint) but
  **committed in expansion order**: a shard that finishes early parks in
  memory until every earlier shard has been flushed. The store therefore
  only ever holds an exact prefix of the run, so an interrupted sweep
  resumes by recomputing just the shards past (or straddling) the
  prefix, and the final ``cells.jsonl`` is byte-identical to an
  uninterrupted run's;
* metrics are normalized through a JSON round-trip at the shard
  boundary, so freshly computed, worker-returned, and store-loaded
  results are indistinguishable — assembly cannot tell how a cell was
  obtained.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.exp import registry
from repro.exp.spec import ExperimentSpec, env_int
from repro.exp.store import RunState, RunStore
from repro.util.rng import derive_rng


class ExperimentError(ValueError):
    """Raised on kernel-contract violations (non-contiguous groups, ...)."""


#: Decorrelated-jitter backoff bounds for shard retries (seconds). The
#: schedule is seeded from (spec hash, shard start, attempt), so retry
#: timing is reproducible run to run.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: How long a worker whose pipe reads end-of-file gets to exit before
#: its exit code is read for the retry record.
_REAP_GRACE = 0.5


def worker_count() -> int:
    """Shard workers for ``run_experiment`` (``REPRO_WORKERS``; 1 = serial)."""
    return env_int("REPRO_WORKERS", 1, 1)


def _env_shard_retries() -> int:
    return env_int("REPRO_SHARD_RETRIES", 2, 0)


def _env_shard_timeout() -> Optional[float]:
    raw = os.environ.get("REPRO_SHARD_TIMEOUT")
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SHARD_TIMEOUT must be a float (seconds), got {raw!r}"
        ) from None
    if not value > 0:  # NaN compares false both ways
        raise ValueError(f"REPRO_SHARD_TIMEOUT must be > 0, got {value}")
    return value


def _backoff_delay(spec_hash: str, start: int, attempt: int, previous: float) -> float:
    """One decorrelated-jitter step: min(cap, U(base, 3 * previous))."""
    rng = derive_rng(0, "shard-backoff", spec_hash, start, attempt)
    return min(_BACKOFF_CAP, rng.uniform(_BACKOFF_BASE, max(_BACKOFF_BASE, previous) * 3))


@dataclass(frozen=True)
class _Group:
    """One contiguous shard: expansion slice [start, end) sharing a key."""

    key: Any
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class RunResult:
    """Everything one :func:`run_experiment` call produced.

    ``metrics`` aligns with ``cells``; entries are ``None`` only when a
    ``limit`` stopped the run early. ``loaded`` cells were served from the
    run store, ``computed`` were executed now, and ``recomputed`` counts
    the stored cells that had to be re-executed (and are included in
    ``computed``) because their shard straddled the stored prefix —
    always 0 when the interruption fell on a shard boundary, e.g. any
    ``limit``-bounded run.
    """

    spec: ExperimentSpec
    cells: List[Dict[str, Any]]
    metrics: List[Optional[Dict[str, Any]]]
    loaded: int = 0
    computed: int = 0
    recomputed: int = 0
    groups: int = 0
    elapsed: float = 0.0
    store_path: Optional[str] = None
    retries: int = 0
    #: Deterministic metrics delta of this invocation (None when metrics
    #: are off); the same dict the store manifest records under "obs".
    obs: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        return all(entry is not None for entry in self.metrics)

    def result(self) -> Any:
        """Assemble the figure's result object (requires a complete run)."""
        if not self.complete:
            missing = sum(1 for entry in self.metrics if entry is None)
            raise ExperimentError(
                f"run of {self.spec.experiment!r} is incomplete "
                f"({missing} of {len(self.cells)} cells missing); resume it "
                "to assemble a result"
            )
        kernel = registry.kernel(self.spec.experiment)
        return kernel.assemble(self.spec, self.cells, self.metrics)

    def render(self) -> str:
        kernel = registry.kernel(self.spec.experiment)
        return kernel.render(self.result())

    def summary(self) -> str:
        state = "complete" if self.complete else "partial"
        text = (
            f"{self.spec.experiment} [{self.spec.spec_hash()[:12]}] "
            f"{state}: {len(self.cells)} cells "
            f"({self.loaded} loaded, {self.computed} computed, "
            f"{self.recomputed} recomputed) across {self.groups} shards "
            f"in {self.elapsed:.2f}s"
        )
        if self.retries:
            text += f" [{self.retries} shard retries]"
        return text


def _normalize(metrics: Any) -> Dict[str, Any]:
    """JSON round-trip so in-memory metrics match store-loaded metrics."""
    if not isinstance(metrics, dict):
        raise ExperimentError(
            f"kernels must return one metrics dict per cell, got "
            f"{type(metrics).__name__}"
        )
    return json.loads(json.dumps(metrics))


def _contiguous_groups(
    spec: ExperimentSpec,
    kernel: registry.ExperimentKernel,
    cells: Sequence[Dict[str, Any]],
) -> List[_Group]:
    groups: List[_Group] = []
    seen = set()
    for index, cell in enumerate(cells):
        key = kernel.group_key(spec, cell)
        if groups and groups[-1].key == key:
            groups[-1] = _Group(key, groups[-1].start, index + 1)
            continue
        if key in seen:
            raise ExperimentError(
                f"kernel {kernel.name!r} expansion interleaves group "
                f"{key!r}; groups must be contiguous in expansion order"
            )
        seen.add(key)
        groups.append(_Group(key, index, index + 1))
    return groups


def _group_cost(
    spec: ExperimentSpec,
    kernel: registry.ExperimentKernel,
    group: _Group,
    cells: Sequence[Dict[str, Any]],
) -> float:
    if kernel.group_cost is None:
        return float(group.size)
    return float(
        kernel.group_cost(spec, group.key, cells[group.start:group.end])
    )


def run_experiment(
    spec: ExperimentSpec,
    workers: Optional[int] = None,
    store: Optional[Union[RunStore, str]] = None,
    resume: bool = False,
    limit: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    shard_retries: Optional[int] = None,
) -> RunResult:
    """Run one spec: expand, serve the stored prefix, compute the rest.

    ``workers`` defaults to ``REPRO_WORKERS`` (serial when unset); results
    are identical for every value. ``store`` (a :class:`RunStore` or a
    root path) makes the run resumable and re-renderable without
    recomputation. ``limit`` caps the number of *newly computed* cells —
    the run stops at the first shard boundary at or past the cap, leaving
    a clean resumable prefix (used by budgeted sweeps and the CI smoke
    job).

    Sharded runs are *supervised*: shards run on a persistent
    worker pool with a wall-clock watchdog
    (``shard_timeout`` / ``REPRO_SHARD_TIMEOUT``; off by default) and up
    to ``shard_retries`` re-dispatches (``REPRO_SHARD_RETRIES``, default
    2) under seeded decorrelated-jitter backoff. A re-dispatched shard replays its whole
    incumbent chain from the spec, so retried results are bit-identical
    to fault-free ones. Only an injected fault (or, on the pool, a
    worker's death or watchdog timeout) is retried; a genuine exception
    ends the run at once, whatever the worker count.
    """
    started = time.perf_counter()
    run_mark = obs.checkpoint()
    kernel = registry.kernel(spec.experiment)
    if workers is None:
        workers = worker_count()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if shard_retries is None:
        shard_retries = _env_shard_retries()
    if shard_retries < 0:
        raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
    if shard_timeout is None:
        shard_timeout = _env_shard_timeout()
    if shard_timeout is not None and not shard_timeout > 0:
        # ``not > 0`` also rejects NaN, whose deadline would never fire.
        raise ValueError(f"shard_timeout must be > 0, got {shard_timeout}")

    cells = [dict(cell) for cell in kernel.expand(spec)]
    groups = _contiguous_groups(spec, kernel, cells)
    metrics: List[Optional[Dict[str, Any]]] = [None] * len(cells)

    if isinstance(store, str):
        store = RunStore(store)
    state: Optional[RunState] = None
    try:
        prefix = 0
        if store is not None:
            # Inside the try: open_run takes the run lock, and a corrupt
            # store raising out of load_prefix must still release it.
            state = store.open_run(spec, resume=resume)
            stored = state.load_prefix(cells)
            prefix = len(stored)
            metrics[:prefix] = stored

        pending = [group for group in groups if group.end > prefix]
        if limit is not None:
            budget, kept = limit, []
            for group in pending:
                if budget <= 0:
                    break
                kept.append(group)
                budget -= group.end - max(group.start, prefix)
            pending = kept
        recomputed = sum(max(0, prefix - group.start) for group in pending)
        if prefix - recomputed:
            obs.count("store.cells_loaded", prefix - recomputed)
        if recomputed:
            obs.count("store.cells_recomputed", recomputed)

        def flush(group: _Group, chunk: Sequence[Any]) -> None:
            if len(chunk) != group.size:
                raise ExperimentError(
                    f"kernel {kernel.name!r} returned {len(chunk)} metric "
                    f"dicts for a {group.size}-cell shard"
                )
            for offset, entry in enumerate(chunk):
                metrics[group.start + offset] = _normalize(entry)
            if state is not None:
                for index in range(max(group.start, prefix), group.end):
                    state.append(cells[index], metrics[index], index=index)
                state.flush()

        if workers > 1 and len(pending) > 1:
            _run_sharded_pool(
                spec, kernel, cells, pending, workers, flush,
                shard_timeout, shard_retries,
            )
        else:
            for group in pending:
                flush(group, _run_group_serial(
                    spec, kernel, group, cells, shard_retries
                ))
        computed = sum(
            group.end - max(group.start, prefix) for group in pending
        ) + recomputed
        # The metrics registry is the single source of truth for retry
        # accounting: every retry site (supervisor fail(), serial replay)
        # records runner.shard_retries, and both RunResult.summary and
        # the manifest "faults" record read this one counter delta.
        retries = obs.delta_value("runner.shard_retries", run_mark)
        faults_record = {"shard_retries": retries} if retries else None
        obs_record: Optional[Dict[str, Any]] = None
        if obs.metrics_enabled():
            det = obs.deterministic_delta(run_mark)
            if det["counters"] or det["histograms"]:
                obs_record = det
        complete = all(entry is not None for entry in metrics)
        if state is not None and complete and not state.complete:
            state.finalize(len(cells), faults_record, obs_record)
    finally:
        if state is not None:
            state.close()

    return RunResult(
        spec=spec,
        cells=cells,
        metrics=metrics,
        loaded=prefix - recomputed,
        computed=computed,
        recomputed=recomputed,
        groups=len(groups),
        elapsed=time.perf_counter() - started,
        store_path=state.path if state is not None else None,
        retries=retries,
        obs=obs_record,
    )


def _announce_retry(group, attempt: int, reason: str) -> None:
    """Write one flushed stderr line for a retry as it is scheduled.

    A run killed before its summary line (a torn store write exits the
    process) still leaves these lines behind, so ``repro chaos-soak``
    counts retries from them in every run.
    """
    print(
        f"runner: shard retry at cells[{group.start}:{group.end}] "
        f"(attempt {attempt}): {' '.join(str(reason).split())}",
        file=sys.stderr, flush=True,
    )


def _retry_or_raise(
    spec, group, count: int, shard_retries: int, reason: str,
    watchdog: bool, previous: float,
) -> float:
    """The one retry rule: book the ``count``-th failed attempt of a shard.

    Raises :class:`ExperimentError` once ``count`` exceeds
    ``shard_retries``; otherwise counts the retry, records its event,
    announces it, and returns the seeded backoff delay before the next
    attempt (``previous`` is the last delay, or ``_BACKOFF_BASE``).
    """
    if count > shard_retries:
        raise ExperimentError(
            f"shard at cells[{group.start}:{group.end}] of "
            f"{spec.experiment!r} failed after {count} attempts: {reason}"
        )
    obs.count("runner.shard_retries")
    obs.record_event(
        "runner.shard_retry", start=group.start, attempt=count,
        reason=reason, watchdog=watchdog,
    )
    _announce_retry(group, count, reason)
    return _backoff_delay(spec.spec_hash(), group.start, count, previous)


def _run_attempt(
    spec, kernel, task_cells, start: int, ordinal: int, attempt: int,
    mode: str,
) -> List[Any]:
    """One attempt at one shard, serial or on a pool worker.

    Fires the ``runner.shard_start`` site, runs the kernel's group under
    a ``runner.shard`` span and returns its metric dicts. A failed
    attempt rolls its gated recordings back — the retry re-records the
    work, wherever it runs — while always-counters (the retry itself,
    fault fires) keep counting; the exception propagates.
    """
    mark = obs.checkpoint()
    try:
        faults.inject(
            "runner.shard_start", start=start, ordinal=ordinal,
            attempt=attempt, mode=mode,
        )
        with obs.span(
            "runner.shard", start=start, end=start + len(task_cells),
            ordinal=ordinal, attempt=attempt, mode=mode,
        ):
            return list(kernel.run_group(spec, task_cells))
    except BaseException:
        obs.rollback(mark)
        raise


def _run_group_serial(
    spec, kernel, group, cells, shard_retries
) -> Sequence[Any]:
    """One shard in-process, retrying injected transient faults.

    Only :class:`~repro.faults.InjectedFault` is retried — a genuine
    kernel exception propagates unchanged, exactly as before the chaos
    harness existed. Returns the shard's metric dicts.
    """
    delay = _BACKOFF_BASE
    attempt = 0
    while True:
        try:
            return _run_attempt(
                spec, kernel, cells[group.start:group.end], group.start,
                -1, attempt, "serial",
            )
        except faults.InjectedFault as exc:
            attempt += 1
            delay = _retry_or_raise(
                spec, group, attempt, shard_retries, str(exc), False, delay
            )
            time.sleep(delay)


def _bind_to_supervisor() -> None:
    """Die with the supervisor instead of orphaning the pool worker.

    A torn-write fault (or plain SIGKILL) takes the supervisor out
    without unwinding the pool; a persistent worker waiting on its pipe
    would then outlive it holding inherited fds — the run-store lock and
    any pipes the caller captured — wedging every resume.
    ``PR_SET_PDEATHSIG`` delivers SIGTERM the instant the parent dies
    (Linux); elsewhere the worker's poll-timeout loop falls back to
    polling ``os.getppid``.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError, TypeError):  # pragma: no cover
        pass


def _pool_worker(spec_json: str, conn: Any) -> None:
    """Persistent pool worker: serve shards off the slot's pipe.

    One boot (spec parse, kernel lookup) amortizes over every shard the
    supervisor routes here. Each task is answered with one
    ``(status, payload)`` message, sent synchronously on the slot's own
    pipe, so a worker that dies can tear nothing but that pipe. The
    status is ``ok`` (the chunk and the attempt's metrics delta),
    ``retry`` for an injected fault, or ``fatal`` for any other
    exception — the same split serial replay makes. The worker keeps
    serving after a failed attempt, so one injected error never costs a
    worker boot. The supervisor terminates the worker when the run ends.
    """
    try:
        _bind_to_supervisor()
        spec = ExperimentSpec.from_dict(json.loads(spec_json))
        kernel = registry.kernel(spec.experiment)
    except BaseException:  # noqa: BLE001 - the supervisor sees the EOF
        os._exit(70)
    parent = os.getppid()
    while True:
        try:
            if not conn.poll(0.5):
                if os.getppid() != parent:  # pragma: no cover - non-Linux path
                    os._exit(0)  # orphaned: PDEATHSIG was unavailable
                continue
            ordinal, attempt, start, task_cells = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        mark = obs.checkpoint()
        try:
            chunk = _run_attempt(
                spec, kernel, task_cells, start, ordinal, attempt, "shard"
            )
            message = ("ok", (chunk, obs.delta_since(mark)))
        except BaseException as exc:  # noqa: BLE001 - reported to the supervisor
            status = "retry" if isinstance(exc, faults.InjectedFault) else "fatal"
            message = (status, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
        except BaseException:  # noqa: BLE001 - dead pipe: the supervisor acts
            os._exit(70)


class _PoolSlot:
    """Supervision state for one persistent pool worker and its pipe."""

    __slots__ = ("proc", "conn", "work", "current", "deadline")

    def __init__(self, work):
        self.proc = None
        self.conn = None  # supervisor end of the slot's duplex pipe
        self.work = list(work)  # ordinals, dispatch order; retries jump in
        self.current = None  # ordinal while a task is in flight
        self.deadline = None


def _lpt_plan(spec, kernel, cells, pending, slots) -> List[List[int]]:
    """Deterministic longest-processing-time assignment of shards to slots.

    Shards go heaviest first (``group_cost`` hint; ties: expansion
    order) onto the least-loaded slot (ties: lowest slot), so each
    slot runs its shards longest-first. The plan depends only on
    (spec, kernel, cells), never on timing, so the shard->worker map is
    reproducible run to run and crash to crash.
    """
    costs = [_group_cost(spec, kernel, group, cells) for group in pending]
    buckets: List[List[int]] = [[] for _ in range(slots)]
    loads = [0.0] * slots
    for ordinal in sorted(range(len(pending)), key=lambda o: (-costs[o], o)):
        slot = min(range(slots), key=lambda i: (loads[i], i))
        buckets[slot].append(ordinal)
        loads[slot] += costs[ordinal]
    return [bucket for bucket in buckets if bucket]


def _run_sharded_pool(
    spec, kernel, cells, pending, workers, flush,
    shard_timeout=None, shard_retries=2,
) -> None:
    """Persistent-pool shard fan-out; commit in expansion order.

    One supervised worker process per slot lives for the whole run and
    computes every shard :func:`_lpt_plan` assigns to it, so the
    per-shard fixed cost is a pipe round trip. Each slot owns
    one duplex pipe; the supervisor multiplexes the busy slots' pipes
    with :func:`multiprocessing.connection.wait`, so no lock or buffer
    is shared between workers and a dying worker cannot stall the
    others. The supervisor watches for four failure shapes:

    * a ``retry`` message — the worker's attempt raised an injected
      fault, which serial replay would retry too;
    * a ``fatal`` message — any other exception: a genuine bug, so the
      run ends at once with a :class:`RuntimeError` naming the shard and
      the worker's ``Type: message``, as serial replay would end it;
    * a watchdog timeout — the shard exceeded ``shard_timeout`` wall
      clock and its worker is killed (hung kernel, injected hang);
    * a silent death — the worker exited without sending a result
      (SIGKILL, ``os._exit``, segfault), seen as end-of-file on its pipe.

    Retryable failures are re-dispatched up to ``shard_retries`` times
    under seeded decorrelated-jitter backoff (:func:`_retry_or_raise`);
    because a shard's randomness derives from the spec alone, a replayed
    shard recomputes the exact incumbent chain and the run stays
    bit-identical to a fault-free one. A failed worker is replaced in
    place — fresh fork, fresh pipe, same slot — and its shard retries at
    the front of that slot's queue, so the deterministic shard->worker
    map survives any crash schedule.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    spec_json = json.dumps(spec.to_dict())
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    processes = min(workers, len(pending))

    slots = [
        _PoolSlot(bucket)
        for bucket in _lpt_plan(spec, kernel, cells, pending, processes)
    ]
    slot_of = {
        ordinal: index
        for index, slot in enumerate(slots)
        for ordinal in slot.work
    }
    finished: Dict[int, Any] = {}
    attempts: Dict[int, int] = {}
    delays: Dict[int, float] = {}
    blocked: List[Tuple[float, int]] = []  # (not-before, ordinal) backoffs
    next_flush = 0

    def spawn(slot: _PoolSlot) -> None:
        slot.conn, child = context.Pipe()
        slot.proc = context.Process(
            target=_pool_worker, args=(spec_json, child), daemon=True,
        )
        slot.proc.start()
        # Only the worker may hold the child end, so that its death is
        # an end-of-file on slot.conn.
        child.close()
        slot.current = None
        slot.deadline = None

    def respawn(slot: _PoolSlot) -> None:
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join()
        slot.conn.close()
        spawn(slot)

    def dispatch(slot: _PoolSlot) -> None:
        ordinal = slot.work.pop(0)
        group = pending[ordinal]
        slot.current = ordinal
        slot.deadline = (
            time.monotonic() + shard_timeout
            if shard_timeout is not None else None
        )
        try:
            slot.conn.send((
                ordinal, attempts.get(ordinal, 0), group.start,
                cells[group.start:group.end],
            ))
        except OSError:
            pass  # the worker died: its pipe reads end-of-file next

    def fail(ordinal: int, reason: str, watchdog: bool) -> None:
        count = attempts.get(ordinal, 0) + 1
        attempts[ordinal] = count
        delay = _retry_or_raise(
            spec, pending[ordinal], count, shard_retries, reason, watchdog,
            delays.get(ordinal, _BACKOFF_BASE),
        )
        delays[ordinal] = delay
        blocked.append((time.monotonic() + delay, ordinal))

    try:
        for slot in slots:
            spawn(slot)
        while next_flush < len(pending):
            now = time.monotonic()
            for entry in list(blocked):
                if entry[0] <= now:
                    blocked.remove(entry)
                    # The retry jumps its slot's queue: same worker, next.
                    slots[slot_of[entry[1]]].work.insert(0, entry[1])
            for slot in slots:
                if slot.current is None and slot.work:
                    if not slot.proc.is_alive():
                        respawn(slot)
                    dispatch(slot)
            busy = {slot.conn: slot for slot in slots if slot.current is not None}
            if not busy:
                # Everything runnable is backing off; sleep toward the
                # earliest retry instead of spinning.
                wake = min(entry[0] for entry in blocked)
                time.sleep(max(0.0, min(wake - time.monotonic(), _BACKOFF_CAP)))
                continue
            # Sleep until a result, a death, the next deadline or the
            # next retry, whichever comes first.
            wakes = [entry[0] for entry in blocked] + [
                slot.deadline for slot in busy.values()
                if slot.deadline is not None
            ]
            timeout = (
                max(0.0, min(wakes) - time.monotonic()) if wakes else None
            )
            for conn in wait(list(busy), timeout):
                slot = busy[conn]
                ordinal = slot.current
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    # Silent death: the worker's end of the pipe closed
                    # with no result in it.
                    slot.proc.join(_REAP_GRACE)
                    code = slot.proc.exitcode
                    respawn(slot)
                    fail(
                        ordinal,
                        f"worker died without a result (exit code {code})",
                        watchdog=True,
                    )
                    continue
                slot.current = None
                slot.deadline = None
                if status == "ok":
                    chunk, delta = payload
                    # Merge only successful attempts' recordings: failed
                    # attempts rolled back worker-side, so half-done work
                    # never skews the totals.
                    obs.merge_delta(delta)
                    finished[ordinal] = chunk
                elif status == "retry":
                    fail(ordinal, payload, watchdog=False)
                else:
                    group = pending[ordinal]
                    raise RuntimeError(
                        f"shard at cells[{group.start}:{group.end}] of "
                        f"{spec.experiment!r} failed: {payload}"
                    )
            now = time.monotonic()
            for slot in slots:
                if (
                    slot.current is not None and slot.deadline is not None
                    and now >= slot.deadline
                ):
                    ordinal = slot.current
                    respawn(slot)  # kills the hung worker, fresh pipe
                    fail(
                        ordinal,
                        f"exceeded the {shard_timeout:.1f}s shard watchdog",
                        watchdog=True,
                    )
            while next_flush in finished:
                flush(pending[next_flush], finished.pop(next_flush))
                next_flush += 1
    finally:
        # Always reap every child — KeyboardInterrupt included — so an
        # interrupted run releases the store lock with no orphan workers.
        for slot in slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.terminate()
        for slot in slots:
            if slot.proc is None:
                continue
            slot.conn.close()
            slot.proc.join(timeout=5)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5)

