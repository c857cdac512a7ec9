"""End-to-end benchmark of the ``repro`` CLI: cold invocations, closed loop.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of cold ``repro run`` / ``repro simulate``
processes, started one at a time (a closed loop with one client). Every
process goes through ``child.py``, which stamps when the work starts
and how long it runs, so nothing under ``src/`` is touched.

Workloads (their size is fixed; ``--seconds`` is accepted for the
benchmark interface and not used):

* ``catalog``  — every figure of ``repro run --list`` as one
  ``repro run <fig> --workers 1`` with a fresh store, in a seeded order;
  each figure must print exactly the tables of
  ``benchmarks/output/<fig>.txt``.
* ``certify``  — exact (branch-and-bound) certification sweeps at
  ``--workers 2``: the Fig. 2 kernel over Simple placements plus Fig. 7
  sweeps over seeded Random placements; every attack must come back
  certified exact.
* ``lifetime`` — ``repro simulate`` at n=71, k=4 with node and rack
  failures, repair policies lazy/eager/none and strike periods 4 and 16,
  seeded; each report must cover every event with no Lemma-3 violation.

``--trace 0`` reports the end-to-end metrics, summed over the
workload's invocations: ``wall_s`` (spawn to exit), ``setup_s`` (spawn
to the first call into the experiment runner or the simulator; every
invocation is started ``SETUP_REPEATS`` times, the extra starts ending
there, and counts with its median), ``work_s`` (time inside those
calls) and ``peak_rss_mb`` (largest RSS of any process, pool workers
included). Times are host-calibrated: the raw sums, printed on the
``raw`` line, times ``PROBE_REF_S`` over the run's median ``probe.py``
reading, so that a shared host's slow and fast spells, which last
minutes, move them less. ``--trace 1`` runs the invocations once
plainly and once more with ``--stats``, ``--trace`` and ``child.py``'s
layer wrappers, replays one traced invocation to check that outputs
and deterministic counters repeat, and reports the per-layer
breakdown. The last line of standard output is the JSON result.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(ROOT, "benchmarks", "output")
NATIVE_CACHE = os.path.join(ROOT, ".bench_build", "repro-native")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")

#: Wall-clock budget of one benchmark process after the warm-up.
RUN_BUDGET_S = 165.0
#: The warm-up may compile the native kernel on a fresh checkout.
WARMUP_TIMEOUT_S = 600.0

#: Fig. 2 kernel at exact effort (Simple placements, n=71); one
#: invocation per s.
FIG2_EXACT = {
    "experiment": "fig2",
    "axes": {"b": [600, 1200, 2400, 4800, 9600], "s": [2, 3]},
    "constants": {"b_cap": 9600, "effort": "exact", "k_max": 4,
                  "n": 71, "r": 3, "x": 1},
}
#: Fig. 7 kernel at exact effort over Random placements; one invocation
#: per seed.
FIG7_EXACT = {
    "experiment": "fig7",
    "axes": {"b": [300, 1200, 2400]},
    "constants": {"b_cap": 9600, "effort": "exact", "reps": 1,
                  "configs": [[31, 5, 3, [3, 4, 5]], [71, 5, 2, [2, 3, 4]]]},
}
FIG7_SEEDS = 2

LIFETIME_EVENTS = 6000
LIFETIME_BASE = ["simulate", "--n", "71", "--k", "4",
                 "--rack-failure-rate", "0.005",
                 "--events", str(LIFETIME_EVENTS)]
#: Report fields that carry wall-clock readings (excluded from replays).
CLOCK_FIELDS = ("wall_seconds", "events_per_sec")

#: Cold starts per invocation: the full run plus set-up-only repeats.
SETUP_REPEATS = 2
#: ``probe.py`` time at which calibrated seconds equal raw seconds:
#: about its median on the 2-vCPU Xeon host the bounds were set on.
PROBE_REF_S = 0.01


@dataclass
class Invocation:
    """One cold CLI process of a workload and how to check its output."""

    name: str
    args: List[str]
    check: Callable[["Outcome"], Optional[str]]
    output: Callable[["Outcome"], bytes]
    files: Dict[str, str] = field(default_factory=dict)  # name -> text
    exact: bool = False


@dataclass
class Outcome:
    invocation: Invocation
    directory: str
    rc: Optional[int] = None
    wall: float = 0.0
    setup: Optional[float] = None
    imported: Optional[float] = None
    work: float = 0.0
    rss_mb: float = 0.0
    probe: float = 0.0
    record: dict = field(default_factory=dict)
    error: Optional[str] = None

    def path(self, name):
        return os.path.join(self.directory, name)

    def read(self, name):
        with open(self.path(name), "rb") as handle:
            return handle.read()


# ---------------------------------------------------------------- checks


def _blocks(text):
    return [b for b in re.split(r"\n\s*\n", text.strip("\n")) if b.strip()]


#: The x axis of an ascii plot; references hold plots ``repro run`` omits.
PLOT_AXIS = re.compile(r"^\s*\+-{8,}\s*$", re.MULTILINE)


def check_figure(figure):
    """The run must print exactly the table blocks of the checked-in
    reference, whole and in order (its ascii-plot blocks excepted)."""
    def check(outcome):
        reference_path = os.path.join(REFERENCES, f"{figure}.txt")
        try:
            with open(reference_path, encoding="utf-8") as handle:
                reference = handle.read()
        except OSError as exc:
            return f"no reference: {exc}"
        expected = [b for b in _blocks(reference) if not PLOT_AXIS.search(b)]
        printed = _blocks(outcome.read("stdout").decode("utf-8"))
        for index, (got, want) in enumerate(zip(printed, expected)):
            if got != want:
                return f"table {index + 1} differs from {reference_path}"
        if len(printed) != len(expected):
            return (f"{len(printed)} tables printed, {reference_path} "
                    f"has {len(expected)}")
        return None
    return check


def _store_cells(outcome):
    """The cells.jsonl lines of the invocation's single-run store."""
    store = outcome.path("store")
    runs = [entry for entry in os.listdir(store)
            if os.path.isfile(os.path.join(store, entry, "manifest.json"))]
    if len(runs) != 1:
        raise ValueError(f"expected one run in the store, found {len(runs)}")
    run = os.path.join(store, runs[0])
    with open(os.path.join(run, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not manifest.get("complete"):
        raise ValueError("run store is not complete")
    with open(os.path.join(run, "cells.jsonl"), "rb") as handle:
        data = handle.read()
    lines = [json.loads(line) for line in data.splitlines() if line.strip()]
    if len(lines) != manifest.get("cells") or not lines:
        raise ValueError(f"{len(lines)} cells stored, manifest says "
                         f"{manifest.get('cells')}")
    return data, lines


def check_certified(outcome):
    try:
        _, cells = _store_cells(outcome)
    except (OSError, ValueError) as exc:
        return str(exc)
    # Fig. 2 cells carry the exactness flag; for every other sweep the
    # --require-exact hook of child.py fails the run on a non-exact attack.
    inexact = [c["cell"] for c in cells if c["metrics"].get("exact") is False]
    if inexact:
        return f"{len(inexact)} cells not certified exact, first {inexact[0]}"
    return None


def store_output(outcome):
    return _store_cells(outcome)[0]


def check_lifetime(events):
    def check(outcome):
        try:
            report = json.loads(outcome.read("report.json"))
        except (OSError, ValueError) as exc:
            return f"no report: {exc}"
        if report.get("events") != events:
            return f"report covers {report.get('events')} of {events} events"
        if report.get("bound_violations") != 0:
            return f"{report.get('bound_violations')} Lemma-3 violations"
        return None
    return check


def lifetime_output(outcome):
    report = json.loads(outcome.read("report.json"))
    for name in CLOCK_FIELDS:
        report.pop(name, None)
    return json.dumps(report, sort_keys=True).encode("utf-8")


def stdout_output(outcome):
    return outcome.read("stdout")


# ------------------------------------------------------------- workloads


def catalog(seed, figures):
    order = list(figures)
    random.Random(f"catalog:{seed}").shuffle(order)
    return [
        Invocation(fig, ["run", fig, "--workers", "1", "--store", "store"],
                   check_figure(fig), stdout_output)
        for fig in order
    ]


def certify(seed, figures):
    rng = random.Random(f"certify:{seed}")
    specs = []
    for s in FIG2_EXACT["axes"]["s"]:
        spec = json.loads(json.dumps(FIG2_EXACT))
        spec["axes"]["s"] = [s]
        specs.append((f"fig2-exact-s{s}", spec))
    for part in range(FIG7_SEEDS):
        spec = json.loads(json.dumps(FIG7_EXACT))
        spec["constants"]["seed"] = rng.randrange(1, 2 ** 31)
        specs.append((f"fig7-exact-{part}", spec))
    return [
        Invocation(name, ["run", "spec.json", "--workers", "2", "--store", "store"],
                   check_certified, store_output,
                   files={"spec.json": json.dumps(spec)}, exact=True)
        for name, spec in specs
    ]


def lifetime(seed, figures):
    rng = random.Random(f"lifetime:{seed}")
    return [
        Invocation(
            f"sim-{repair}-p{period}",
            LIFETIME_BASE + [
                "--repair", repair, "--strike-period", period,
                "--seed", str(rng.randrange(1, 2 ** 31)),
                "--json", "report.json",
            ],
            check_lifetime(LIFETIME_EVENTS), lifetime_output,
        )
        for period in ("4", "16")
        for repair in ("lazy", "eager", "none")
    ]


WORKLOADS = {"catalog": catalog, "certify": certify, "lifetime": lifetime}


# ------------------------------------------------------------- processes


class HostProbe:
    """Readings of ``probe.py`` (host speed), served by one process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", PROBE],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _become_subreaper():
    """Adopt orphaned grandchildren so they can be reaped (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_orphans(pgid, deadline_s=10.0):
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        REPRO_NATIVE_CACHE=NATIVE_CACHE,
        TMPDIR=os.path.join(WORK_ROOT, "tmp"),
    )
    return env


class Harness:
    def __init__(self, workdir, deadline, probe):
        self.workdir = workdir
        self.deadline = deadline
        self.probe = probe
        self.env = child_env()
        self.count = 0

    def launch(self, invocation, child_options=(), extra_args=(),
               timeout=None, directory=None, setup_only=False):
        """Run one cold child process; returns its Outcome (never raises
        for a failing child). ``setup_only`` ends it at the work entry."""
        self.count += 1
        directory = directory or os.path.join(
            self.workdir, f"{self.count:03d}-{invocation.name}")
        os.makedirs(directory)
        for name, text in invocation.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        outcome = Outcome(invocation, directory)
        options = list(child_options)
        if invocation.exact:
            options.append("--require-exact")
        if setup_only:
            options.append("--setup-only")
        command = [sys.executable, CHILD, outcome.path("record.json"), *options,
                   "--", *invocation.args, *extra_args]
        if timeout is None:
            timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            outcome.error = "run budget exhausted"
            return outcome
        outcome.probe = self.probe()
        with open(outcome.path("stdout"), "wb") as out, \
                open(outcome.path("stderr"), "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(command, cwd=directory, env=self.env,
                                    stdout=out, stderr=err,
                                    process_group=0)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                # Also on the way out of an interrupted run: no process
                # of the group may outlive the harness.
                _kill_group(proc.pid)
                _reap_orphans(proc.pid)
            end = time.monotonic()
        proc.returncode = outcome.rc = os.waitstatus_to_exitcode(status)
        outcome.wall = end - start
        outcome.rss_mb = usage.ru_maxrss / 1024.0
        try:
            with open(outcome.path("record.json"), encoding="utf-8") as handle:
                outcome.record = json.load(handle)
        except (OSError, ValueError):
            outcome.record = {}
        if outcome.record.get("ready") is not None:
            outcome.setup = outcome.record["ready"] - start
        if outcome.record.get("imported") is not None:
            outcome.imported = outcome.record["imported"] - start
        outcome.work = outcome.record.get("work", 0.0)
        if outcome.rc != 0:
            outcome.error = (f"exit code {outcome.rc}"
                             + (" (timed out)" if end - start >= timeout else ""))
        elif outcome.setup is None and invocation.args:
            outcome.error = "the work entry point was never called"
        elif not setup_only:
            outcome.error = invocation.check(outcome)
        return outcome


def warm_up(harness):
    """Untimed: compile the native kernel into the fixed cache, warm the
    page cache and byte-code, and read the host fingerprint."""
    probe = Invocation("warmup", [], lambda outcome: None, stdout_output)
    outcome = harness.launch(probe, child_options=["--fingerprint"],
                             timeout=WARMUP_TIMEOUT_S)
    if outcome.rc != 0 or "fingerprint" not in outcome.record:
        sys.stderr.write(outcome.read("stderr").decode("utf-8", "replace"))
        raise SystemExit("warm-up failed")
    return outcome.record["fingerprint"]


def code_identity():
    """git sha when the checkout is a repository, and a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


# -------------------------------------------------------------- metrics


def e2e_metrics(outcomes, setups, probes):
    """Sums over the invocations, in host-calibrated seconds (see
    ``probe.py``); ``setups`` holds every cold start's set-up per
    invocation and each invocation counts with its median. Returns the
    metrics and the uncalibrated sums."""
    raw = {
        "wall_s": sum(o.wall for o in outcomes),
        "setup_s": sum(statistics.median(s) for s in setups if s),
        "work_s": sum(o.work for o in outcomes),
    }
    scale = PROBE_REF_S / statistics.median(probes)
    metrics = {name: (value * scale, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (max(o.rss_mb for o in outcomes), "MB")
    return metrics, raw


def _load_tables(outcome):
    tables = []
    for name in sorted(os.listdir(outcome.directory)):
        if name.startswith("agg-") and name.endswith(".json"):
            with open(os.path.join(outcome.directory, name), encoding="utf-8") as handle:
                tables.append(json.load(handle))
    return tables


#: Layers whose metrics take other names; a None share is not reported.
OUTPUT_NAMES = {
    "runner.run": ("runner.calls", "runner.self_share"),
    "batch.engine_build": ("batch.engine_builds", "batch.engine_build.self_share"),
    "native.load": ("native.load.calls", None),
}


#: Layers whose self time is not attributed to a named layer.
UNATTRIBUTED = ("runner.wait", "runner.shard", "runner.run")


def layer_metrics(traced, untraced):
    """Per-layer breakdown of a traced pass (see layers.LAYERS)."""
    from layers import COUNTERS, LAYERS

    names = sorted({layer for layer, *_ in LAYERS} | {"runner.shard"})
    total = {name: [0, 0.0, 0.0] for name in names}
    busy = 0.0
    worker_busy = 0.0
    pool_capacity = 0.0
    imports = 0.0
    counters = {name: 0 for name in COUNTERS}
    for outcome in traced:
        runner_cum = 0.0
        for table in _load_tables(outcome):
            for name, (calls, self_s, cum_s) in table["layers"].items():
                row = total[name]
                row[0] += calls
                row[1] += self_s
                row[2] += cum_s
            if table["main"]:
                runner_cum += table["layers"].get("runner.run", [0, 0.0, 0.0])[2]
                busy += outcome.wall - table["layers"].get(
                    "runner.wait", [0, 0.0, 0.0])[1]
            else:
                worker_busy += table["layers"].get("runner.shard", [0, 0.0, 0.0])[2]
        workers = _workers_of(outcome.invocation)
        if workers > 1:
            pool_capacity += workers * runner_cum
        imports += outcome.imported or 0.0
        for name, value in outcome.record.get("counters", {}).items():
            counters[name] += value
    busy += worker_busy
    # Waiting is not busy time, and the self time of a shard or of the
    # runner is whatever no finer layer caught: both stay in other_s.
    named = imports + sum(row[1] for name, row in total.items()
                          if name not in UNATTRIBUTED)
    # Self times are reported as shares of busy_s: a layer that a workload
    # never enters would otherwise read exactly 0 s on every run.
    metrics = {}
    for name in names:
        calls_name, share_name = OUTPUT_NAMES.get(
            name, (f"{name}.calls", f"{name}.self_share"))
        metrics[calls_name] = (total[name][0], "count")
        if share_name is not None:
            metrics[share_name] = (total[name][1] / busy if busy else 0.0, "ratio")
    attack_s = total["batch.attack"][2]
    engine_for = total["batch.engine_for"][0]
    builds = total["batch.engine_build"][0]
    traced_wall = sum(o.wall for o in traced)
    untraced_wall = sum(o.wall for o in untraced)
    metrics.update({
        "runner.shard_share": (
            total["runner.shard"][2] / busy if busy else 0.0, "ratio"),
        "native.load_s": (total["native.load"][2], "s"),
        "runner.worker_busy_ratio": (
            worker_busy / pool_capacity if pool_capacity else 0.0, "ratio"),
        "batch.engine_hit_ratio": (
            max(0.0, 1.0 - builds / engine_for) if engine_for else 0.0, "ratio"),
        "adversary.evaluations_per_s": (
            counters["kernel.evaluations"] / attack_s if attack_s else 0.0, "1/s"),
        "setup.import_s": (imports, "s"),
        "busy_s": (busy, "s"),
        "other_s": (busy - named, "s"),
        "layers.coverage_ratio": (named / busy if busy else 0.0, "ratio"),
        "host.probe_s": (statistics.median(o.probe for o in traced), "s"),
        "trace.overhead_ratio": (
            traced_wall / untraced_wall if untraced_wall else 0.0, "ratio"),
    })
    for name, value in counters.items():
        metrics[name] = (value, "count")
    return metrics


def _workers_of(invocation):
    args = invocation.args
    if "--workers" in args:
        return int(args[args.index("--workers") + 1])
    return 1


# ------------------------------------------------------------------ main


def run_pass(harness, invocations, traced=False):
    """Run the invocations one after another; ``traced`` adds the layer
    wrappers, ``--stats`` and ``--trace``."""
    label = "traced" if traced else "timed"
    outcomes = []
    for invocation in invocations:
        options, extra, directory = (), (), None
        if traced:
            directory = os.path.join(
                harness.workdir, f"traced-{len(outcomes):03d}-{invocation.name}")
            options, extra = ["--layers", directory], _traced_args(directory)
        outcome = harness.launch(invocation, options, extra, directory=directory)
        outcomes.append(outcome)
        _log(label, outcome)
    return outcomes


def _log(label, outcome):
    setup = f"{outcome.setup:8.3f}" if outcome.setup is not None else "       -"
    print(f"{label:6s} {outcome.invocation.name:22s} wall {outcome.wall:8.3f} s  "
          f"setup {setup} s  work {outcome.work:8.3f} s  "
          f"rss {outcome.rss_mb:7.1f} MB  probe {outcome.probe * 1e3:6.2f} ms  "
          f"{'ok' if outcome.error is None else 'FAIL: ' + outcome.error}",
          flush=True)


def run_setup_repeats(harness, invocations):
    """SETUP_REPEATS - 1 more passes of set-up-only cold starts, so each
    invocation's set-up is a median of readings spread over the run."""
    passes = []
    for _ in range(SETUP_REPEATS - 1):
        outcomes = []
        for invocation in invocations:
            outcome = harness.launch(invocation, setup_only=True)
            outcomes.append(outcome)
            _log("setup", outcome)
        passes.append(outcomes)
    return passes


def traced_checks(harness, untraced, traced):
    """Tracing must not change outputs; counters and outputs must repeat."""
    problems = []
    for plain, instrumented in zip(untraced, traced):
        if (plain.error is None and instrumented.error is None
                and plain.invocation.output(plain)
                != instrumented.invocation.output(instrumented)):
            problems.append(f"{plain.invocation.name}: traced output differs")
        trace = instrumented.path("trace.jsonl")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", trace, "--validate"],
            cwd=instrumented.directory, env=harness.env,
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            problems.append(f"{instrumented.invocation.name}: trace invalid: "
                            f"{result.stderr.strip()[:200]}")
    # Replay the cheapest invocation whose deterministic counters moved.
    replayed = min(traced, key=lambda o: (
        not any(o.record.get("counters", {}).values()), o.wall))
    layers_dir = os.path.join(harness.workdir, "repeat")
    repeat = harness.launch(replayed.invocation,
                            ["--layers", layers_dir], _traced_args(layers_dir),
                            directory=layers_dir)
    if repeat.error is not None:
        problems.append(f"repeat of {replayed.invocation.name}: {repeat.error}")
    else:
        if repeat.record.get("counters") != replayed.record.get("counters"):
            problems.append(f"{replayed.invocation.name}: counters do not repeat: "
                            f"{replayed.record.get('counters')} vs "
                            f"{repeat.record.get('counters')}")
        if replayed.invocation.output(replayed) != repeat.invocation.output(repeat):
            problems.append(f"{replayed.invocation.name}: repeated output differs")
    return problems


def _traced_args(directory):
    return ["--stats", "--trace", os.path.join(directory, "trace.jsonl")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no repro sources under {SRC}; run from the checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(NATIVE_CACHE, mode=0o700, exist_ok=True)
    os.makedirs(os.path.join(WORK_ROOT, "tmp"), exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    _become_subreaper()
    # A terminated harness unwinds through ``finally``, killing its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    probe = HostProbe()
    try:
        harness = Harness(workdir, float("inf"), probe)
        fingerprint = warm_up(harness)
        fingerprint.update(code_identity())
        figures = fingerprint.pop("figures")
        print("fingerprint " + json.dumps(fingerprint, sort_keys=True), flush=True)
        harness.deadline = time.monotonic() + RUN_BUDGET_S
        invocations = WORKLOADS[args.workload](args.seed, figures)
        untraced = run_pass(harness, invocations)
        broken = [o.error is not None for o in untraced]
        probes = [o.probe for o in untraced]
        problems = []
        if args.trace == 0:
            setups = [[o.setup] if o.error is None else [] for o in untraced]
            for repeat in run_setup_repeats(harness, invocations):
                for index, outcome in enumerate(repeat):
                    probes.append(outcome.probe)
                    if outcome.error is None:
                        setups[index].append(outcome.setup)
                    else:
                        broken[index] = True
            metrics, raw = e2e_metrics(untraced, setups, probes)
            print("raw " + json.dumps(raw), flush=True)
        else:
            traced = run_pass(harness, invocations, traced=True)
            broken = [b or o.error is not None for b, o in zip(broken, traced)]
            problems = traced_checks(harness, untraced, traced)
            metrics = layer_metrics(traced, untraced)
        attempted = len(invocations)
        failed = sum(broken)
        print("host.probe_s " + json.dumps({
            "min": min(probes), "median": statistics.median(probes),
            "max": max(probes)}), flush=True)
        for problem in problems:
            print(f"check: {problem}")
        result = {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
