"""Child-process entry of the end-to-end benchmark: one cold ``repro`` run.

The harness (``run.py``) starts one interpreter per invocation on this
file. It imports ``repro.cli``, hooks the two work entry points
(``repro.exp.runner.run_experiment`` and ``LifetimeSimulator.run``) so
set-up and work time can be told apart, calls ``repro.cli.main`` with
the given arguments and writes a small JSON record of clock stamps.
With ``--setup-only`` it leaves at the first work entry, so the harness
can repeat a cold start without repeating the work.
All stamps are ``time.monotonic()``, which on Linux is one clock for
every process, so the harness can subtract its own spawn stamp.

With ``--layers DIR`` it also wraps the functions of each layer
(``layers.LAYERS``) and keeps, per process, a call count plus self and
cumulative time for each layer. Forked pool workers flush their table
to ``DIR/agg-<pid>.json`` after every shard, because they leave through
``os._exit``. Coarse layers also emit span records through
``repro.obs.trace``, so ``repro stats <trace>`` renders them.

Usage, from the checkout root with ``PYTHONPATH=src``::

    python child.py RECORD [--layers DIR] [--require-exact] [--setup-only] -- ARGS...
    python child.py RECORD --fingerprint
"""

import time

T_START = time.monotonic()

import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import repro.cli  # noqa: E402

T_IMPORTED = time.monotonic()
MAIN_PID = os.getpid()

from layers import COUNTERS, LAYERS  # noqa: E402


class LayerTable:
    """Per-process call count, self time and cumulative time per layer."""

    def __init__(self, directory):
        self.directory = directory
        self.rows = {}
        self.child = [0.0]  # time spent in wrapped callees of the open frame
        self.pid = os.getpid()

    def reset_after_fork(self):
        # Wrappers hold their row lists, so clear them in place.
        for row in self.rows.values():
            row[:] = [0, 0.0, 0.0]
        self.child[0] = 0.0
        self.pid = os.getpid()

    def wrap(self, layer, fn, coarse):
        row = self.rows.setdefault(layer, [0, 0.0, 0.0])
        child = self.child
        span = None
        if coarse:
            from repro.obs.trace import span

        def timed(*args, **kwargs):
            outer = child[0]
            child[0] = 0.0
            start = perf_counter()
            try:
                if span is None:
                    return fn(*args, **kwargs)
                with span(layer):
                    return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                row[0] += 1
                row[1] += elapsed - child[0]
                row[2] += elapsed
                child[0] = outer + elapsed

        timed.__wrapped__ = fn
        return timed

    def flush(self, main):
        path = os.path.join(self.directory, f"agg-{self.pid}.json")
        payload = {"pid": self.pid, "main": main, "layers": self.rows}
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)


def _rebind(original, replacement):
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module_name, attribute, make):
    """Replace ``module.attribute`` (``Class.method`` allowed) by
    ``make(original)``; a target the program no longer has is skipped."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(
        module, name, None)
    if original is None:
        return
    replacement = make(original)
    setattr(owner, name, replacement)
    if owner is module:
        _rebind(original, replacement)


def install_layers(table):
    for layer, module_name, attribute, coarse in LAYERS:
        _patch(module_name, attribute,
               lambda fn, layer=layer, coarse=coarse: table.wrap(layer, fn, coarse))
    # Shards: wrap each kernel's run_group as the registry hands it out,
    # in the supervisor and in forked workers alike, and flush worker
    # tables after every shard.
    registry = importlib.import_module("repro.exp.registry")
    resolve = registry.kernel
    wrapped = {}

    def flushing(fn):
        def run_group(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != MAIN_PID:
                    table.flush(main=False)
        return run_group

    def kernel(name):
        if name not in wrapped:
            found = resolve(name)
            shard = table.wrap("runner.shard", found.run_group, True)
            wrapped[name] = dataclasses.replace(found, run_group=flushing(shard))
        return wrapped[name]

    registry.kernel = kernel
    os.register_at_fork(after_in_child=table.reset_after_fork)


def install_entry_hooks(record, record_path, setup_only=False):
    """Stamp the first entry into the work and sum the time inside it;
    with ``setup_only`` the process ends right at that first entry."""
    def entry(fn):
        def timed(*args, **kwargs):
            start = time.monotonic()
            if record["ready"] is None:
                record["ready"] = start
                if setup_only:
                    record["rc"] = 0
                    _write(record_path, record)
                    sys.stdout.flush()
                    os._exit(0)
            try:
                return fn(*args, **kwargs)
            finally:
                record["work"] += time.monotonic() - start
        return timed

    _patch("repro.exp.runner", "run_experiment", entry)
    _patch("repro.sim.simulator", "LifetimeSimulator.run", entry)


class NotCertified(RuntimeError):
    """An attack in a certification run came back without an exactness proof."""


def install_exactness_check():
    def certified(fn):
        def attack(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not result.exact:
                raise NotCertified("attack result is not certified exact")
            return result
        return attack

    _patch("repro.core.batch", "AttackEngine.attack", certified)


def fingerprint():
    """Host and toolchain fingerprint. Also compiles the native kernel and
    imports every ``repro`` module, warming byte-code and page cache."""
    import pkgutil
    import platform

    import repro
    from repro.core import native
    from repro.exp.registry import figure_names

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    native.available()
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "native": native.compile_info(),
        "native_error": native.load_error(),
        "figures": list(figure_names()),
    }


def main(argv):
    record_path = argv[0]
    options, args = argv[1:], []
    if "--" in options:
        cut = options.index("--")
        options, args = options[:cut], options[cut + 1:]
    record = {"start": T_START, "imported": T_IMPORTED, "ready": None,
              "work": 0.0, "end": None, "rc": None}
    if "--fingerprint" in options:
        record["fingerprint"] = fingerprint()
        record["rc"] = 0
        _write(record_path, record)
        return 0
    table = None
    if "--layers" in options:
        table = LayerTable(options[options.index("--layers") + 1])
        install_layers(table)
    if "--require-exact" in options:
        install_exactness_check()
    install_entry_hooks(record, record_path, "--setup-only" in options)
    try:
        record["rc"] = repro.cli.main(args)
    finally:
        record["end"] = time.monotonic()
        if table is not None:
            table.flush(main=True)
            from repro import obs

            counters = obs.snapshot().get("counters", {})
            record["counters"] = {name: counters.get(name, 0) for name in COUNTERS}
        _write(record_path, record)
    return record["rc"]


def _write(path, record):
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
