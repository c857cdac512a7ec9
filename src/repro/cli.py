"""Command-line interface: ``python -m repro <command>``.

The commands cover the library's workflows without writing Python:

* ``run``      — run a registered figure or a custom ``spec.json`` sweep
  through the declarative experiment engine (:mod:`repro.exp`) with a
  resumable content-addressed run store (``--resume``, ``--workers``,
  ``--limit``; ``--list`` shows the catalog);
* ``place``    — compute a placement (combo/simple/random) and print it,
  save it as JSON, or save the binary ``.npz`` artifact (``--format``);
* ``attack``   — run the worst-case adversary against a saved placement
  (JSON or ``.npz``);
* ``simulate`` — run the discrete-event cluster lifetime simulator
  (churn + failures + repair + a recurring online adversary) and render
  its time series;
* ``bounds``   — compare the Combo guarantee against Random's probable
  availability for a parameter point (one Fig. 9 cell);
* ``audit``    — measure a placement's overlaps and certify floors;
* ``catalog``  — query the design-existence catalog;
* ``stats``    — render a run manifest's ``"obs"`` metrics snapshot, or
  validate and profile a span trace JSONL (``repro.obs``).

``run``, ``attack``, and ``simulate`` all accept ``--stats`` (record and
print the metrics registry; exported as ``$REPRO_METRICS`` so forked
workers inherit it) and ``--trace <path>`` (append timing spans as JSONL;
exported as ``$REPRO_TRACE``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from repro import __version__
from repro.core.combo import ComboStrategy
from repro.core.rand_analysis import pr_avail_rnd
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy
from repro.designs.catalog import Existence, existence, largest_order, steiner_orders


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """The shared observability flags (run / attack / simulate)."""
    command.add_argument(
        "--stats", action="store_true",
        help="record the metrics registry during this invocation and "
        "print it to stderr afterwards (exported as $REPRO_METRICS=1 "
        "so worker processes inherit it)",
    )
    command.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="append one JSON line per timing span to PATH (exported as "
        "$REPRO_TRACE; inspect with `repro stats PATH`)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worst-case availability replica placement (ICDCS 2015).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="run a figure or spec.json sweep via the experiment engine",
    )
    run.add_argument("target", nargs="?",
                     help="registered figure name (see --list) or a path to "
                     "an experiment spec JSON file")
    run.add_argument("--list", action="store_true",
                     help="list runnable figures with descriptions")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for shard fan-out "
                     "(default: $REPRO_WORKERS/1; results are identical "
                     "for every value)")
    run.add_argument("--store", type=str, default=None,
                     help="run-store root directory "
                     "(default: $REPRO_RUNS_DIR or ./runs)")
    run.add_argument("--no-store", action="store_true",
                     help="compute without persisting (not resumable)")
    run.add_argument("--resume", action="store_true",
                     help="continue a partially stored run instead of "
                     "restarting it")
    run.add_argument("--limit", type=int, default=None,
                     help="stop after computing about this many new cells "
                     "(at the next shard boundary), leaving a resumable "
                     "partial run")
    run.add_argument("--chaos", type=str, default=None, metavar="PLAN",
                     help="fault-injection plan: a plan JSON file, inline "
                     "JSON, or prob:<p>[:<seed>] shorthand (exported as "
                     "$REPRO_CHAOS so worker processes inherit it)")
    run.add_argument("--shard-timeout", type=float, default=None,
                     help="per-shard wall-clock watchdog in seconds; a "
                     "shard past its deadline is killed and retried "
                     "(default: $REPRO_SHARD_TIMEOUT/off)")
    run.add_argument("--shard-retries", type=int, default=None,
                     help="re-dispatch attempts per failed shard before "
                     "the run errors (default: $REPRO_SHARD_RETRIES/2)")
    _add_obs_flags(run)

    place = commands.add_parser("place", help="compute and emit a placement")
    place.add_argument("--strategy", choices=("combo", "simple", "random"),
                       default="combo")
    place.add_argument("--n", type=int, required=True, help="number of nodes")
    place.add_argument("--r", type=int, required=True, help="replicas per object")
    place.add_argument("--b", type=int, required=True, help="number of objects")
    place.add_argument("--s", type=int, default=None,
                       help="fatality threshold (combo; default: majority)")
    place.add_argument("--k", type=int, default=None,
                       help="failures planned for (combo; default: s)")
    place.add_argument("--x", type=int, default=1, help="overlap bound (simple)")
    place.add_argument("--seed", type=int, default=0, help="rng seed (random)")
    place.add_argument("--output", type=str, default=None,
                       help="write the placement here instead of stdout")
    place.add_argument("--format", choices=("auto", "json", "npz"),
                       default="auto",
                       help="artifact format (auto: by --output extension; "
                       "npz is the binary format and needs --output)")

    attack = commands.add_parser("attack", help="worst-case attack a placement")
    attack.add_argument("placement", type=str,
                        help="placement artifact (JSON or .npz)")
    attack.add_argument("--k", type=int, action="append", required=True,
                        help="nodes to fail (repeatable: batches a k-grid "
                        "through one shared incidence structure)")
    attack.add_argument("--s", type=int, required=True, help="fatality threshold")
    attack.add_argument("--effort", choices=("fast", "auto", "exact"),
                        default="auto")
    attack.add_argument("--mmap", action="store_true",
                        help="memory-map .npz placement rows instead of "
                        "loading them eagerly (lazy page-in at large b)")
    _add_obs_flags(attack)

    simulate = commands.add_parser(
        "simulate",
        help="discrete-event cluster lifetime simulation (repro.sim)",
    )
    simulate.add_argument("--n", type=int, default=31, help="number of nodes")
    simulate.add_argument("--r", type=int, default=3, help="replicas per object")
    simulate.add_argument("--s", type=int, default=2, help="fatality threshold")
    simulate.add_argument("--k", type=int, default=3,
                          help="nodes per adversary strike")
    simulate.add_argument("--events", type=int, default=2000,
                          help="event budget (churn, failures, strikes, ...)")
    simulate.add_argument("--seed", type=int, default=0, help="master seed")
    simulate.add_argument("--racks", type=int, default=4,
                          help="failure-domain count")
    simulate.add_argument("--churn-prob", type=float, default=0.6,
                          help="arrival probability per churn step")
    simulate.add_argument("--warmup", type=int, default=64,
                          help="leading arrivals before mixed churn")
    simulate.add_argument("--failure-rate", type=float, default=0.02,
                          help="random node crashes per time unit (0 = off)")
    simulate.add_argument("--rack-failure-rate", type=float, default=0.0,
                          help="correlated rack crashes per time unit (0 = off)")
    simulate.add_argument("--repair-time", type=float, default=8.0,
                          help="node downtime before recovery")
    simulate.add_argument("--strike-period", type=float, default=16.0,
                          help="time between adversary strikes (0 = off)")
    simulate.add_argument("--measure-period", type=float, default=8.0,
                          help="time between metric samples (0 = off)")
    simulate.add_argument("--effort", choices=("fast", "auto", "exact"),
                          default="fast", help="adversary effort per strike")
    simulate.add_argument("--engine", choices=("delta", "rebuild"),
                          default="delta",
                          help="delta-aware warm engine vs per-strike rebuild")
    simulate.add_argument("--repair", choices=("eager", "lazy", "none"),
                          default="none", help="re-replication policy")
    simulate.add_argument("--grace", type=float, default=4.0,
                          help="lazy-repair grace period")
    simulate.add_argument("--json", type=str, default=None,
                          help="also write the full report as JSON here")
    simulate.add_argument("--final-placement", type=str, default=None,
                          help="write the final population snapshot as a "
                          "placement artifact (JSON or .npz, by extension)")
    _add_obs_flags(simulate)

    soak = commands.add_parser(
        "chaos-soak",
        help="run a figure grid under injected faults; verify the final "
        "store is byte-identical to a fault-free run",
    )
    soak.add_argument("target", nargs="?", default="fig2",
                      help="registered figure name or a spec.json path "
                      "(default: fig2)")
    soak.add_argument("--faults", type=int, default=20,
                      help="injected-fault budget, split across worker "
                      "crashes, torn store writes, worker errors, and "
                      "(with --shard-timeout) hangs; the soak plans the "
                      "share that fits the grid")
    soak.add_argument("--seed", type=int, default=0,
                      help="fault-schedule seed (same seed, same faults)")
    soak.add_argument("--workers", type=int, default=2,
                      help="worker processes per soak iteration")
    soak.add_argument("--root", type=str, default="chaos-soak",
                      help="scratch directory for the spec, plan, chaos "
                      "store, and fault-free reference store")
    soak.add_argument("--shard-timeout", type=float, default=None,
                      help="arm the shard watchdog and include hang "
                      "faults (seconds)")
    soak.add_argument("--shard-retries", type=int, default=3,
                      help="re-dispatch attempts per failed shard")

    bounds = commands.add_parser(
        "bounds", help="Combo guarantee vs Random prediction for one cell"
    )
    for flag, help_text in (
        ("--n", "nodes"), ("--r", "replicas"), ("--s", "threshold"),
        ("--b", "objects"), ("--k", "failures"),
    ):
        bounds.add_argument(flag, type=int, required=True, help=help_text)

    audit = commands.add_parser(
        "audit", help="measure a placement's overlaps and certify floors"
    )
    audit.add_argument("placement", type=str,
                       help="placement artifact (JSON or .npz)")
    audit.add_argument("--k", type=int, action="append", required=True,
                       help="failure count (repeatable)")
    audit.add_argument("--s", type=int, action="append", required=True,
                       help="fatality threshold (repeatable)")

    stats = commands.add_parser(
        "stats",
        help="render a run manifest's metrics snapshot or profile a "
        "span trace JSONL",
    )
    stats.add_argument(
        "path",
        help="a span trace JSONL file (from --trace / $REPRO_TRACE), a "
        "run manifest.json, or a run directory / store root holding "
        "exactly one run",
    )
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="emit JSON instead of text tables")
    stats.add_argument("--validate", action="store_true",
                       help="only validate the trace against the span "
                       "schema and report the span count")

    catalog = commands.add_parser("catalog", help="query design existence")
    catalog.add_argument("--r", type=int, required=True, help="block size")
    catalog.add_argument("--t", type=int, required=True, help="design strength")
    catalog.add_argument("--v", type=int, default=None,
                         help="query one order (default: list orders)")
    catalog.add_argument("--max-v", type=int, default=150)
    catalog.add_argument("--tier", choices=("constructible", "known"),
                         default="known")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _run_exp,
        "chaos-soak": _run_chaos_soak,
        "place": _run_place,
        "attack": _run_attack,
        "simulate": _run_simulate,
        "audit": _run_audit,
        "bounds": _run_bounds,
        "catalog": _run_catalog,
        "stats": _run_stats,
    }[args.command]
    return handler(args)


def _arm_obs(args):
    """Honor --stats/--trace; returns the checkpoint to report against."""
    from repro import obs

    if getattr(args, "trace", None):
        # Exported (not just configured in-process) so forked shard and
        # pool workers inherit the export path.
        os.environ["REPRO_TRACE"] = args.trace
        obs.reset_trace()
    if getattr(args, "stats", False):
        os.environ["REPRO_METRICS"] = "1"
        obs.set_metrics(True)
        return obs.checkpoint()
    return None


def _report_obs(mark) -> None:
    """Print the metrics recorded since ``mark`` (from --stats)."""
    if mark is None:
        return
    from repro import obs
    from repro.obs.report import render_metrics

    print(
        render_metrics(
            obs.delta_since(mark), title="metrics (this invocation)"
        ),
        file=sys.stderr,
    )


def _resolve_manifest_path(path: str) -> Optional[str]:
    """The manifest.json a stats path refers to, or None (trace file).

    Accepts the manifest itself, a run directory containing one, or a
    store root whose subdirectories hold exactly one run.
    """
    if os.path.basename(path) == "manifest.json":
        return path
    if not os.path.isdir(path):
        return None
    direct = os.path.join(path, "manifest.json")
    if os.path.exists(direct):
        return direct
    nested = [
        os.path.join(path, entry, "manifest.json")
        for entry in sorted(os.listdir(path))
        if os.path.exists(os.path.join(path, entry, "manifest.json"))
    ]
    if len(nested) == 1:
        return nested[0]
    if nested:
        raise ValueError(
            f"{path} holds {len(nested)} runs; point at one run directory "
            "or its manifest.json"
        )
    raise ValueError(f"{path}: no manifest.json found")


def _run_stats(args) -> int:
    from repro.obs.profile import build_profile, render_profile
    from repro.obs.report import load_trace, metrics_json, render_metrics

    try:
        manifest_path = _resolve_manifest_path(args.path)
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    if manifest_path is not None:
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"stats: cannot read {manifest_path}: {exc}",
                  file=sys.stderr)
            return 2
        record = manifest.get("obs")
        if not record:
            print(
                f"stats: {manifest_path} has no \"obs\" record — the run "
                "was not instrumented (rerun with --stats or "
                "REPRO_METRICS=1)",
                file=sys.stderr,
            )
            return 1
        if args.as_json:
            print(metrics_json(record))
        else:
            print(render_metrics(record, title="manifest obs snapshot"))
        return 0
    try:
        records = load_trace(args.path)
    except OSError as exc:
        print(f"stats: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    if args.validate:
        print(f"{args.path}: {len(records)} spans, schema ok")
        return 0
    if args.as_json:
        print(json.dumps(build_profile(records), indent=1))
        return 0
    print(f"{args.path}: {len(records)} spans")
    print(render_profile(build_profile(records)))
    return 0


def _run_simulate(args) -> int:
    from repro.analysis.timeseries import render_report
    from repro.sim import LifetimeSimulator, SimConfig

    mark = _arm_obs(args)
    config = SimConfig(
        n=args.n, r=args.r, s=args.s, k=args.k,
        events=args.events, seed=args.seed, racks=args.racks,
        arrival_probability=args.churn_prob, warmup_arrivals=args.warmup,
        failure_rate=args.failure_rate,
        rack_failure_rate=args.rack_failure_rate,
        repair_time=args.repair_time, strike_period=args.strike_period,
        measure_period=args.measure_period, effort=args.effort,
        engine_mode=args.engine, repair=args.repair,
        repair_grace=args.grace,
    )
    try:
        simulator = LifetimeSimulator(config)
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    report = simulator.run()
    print(render_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"\nwrote report JSON to {args.json}", file=sys.stderr)
    if args.final_placement:
        from repro.core.artifact import save_placement

        if not simulator.cluster.objects:
            print(
                "population is empty; no final placement written",
                file=sys.stderr,
            )
        else:
            snapshot = simulator.cluster.placement_snapshot()
            save_placement(snapshot, args.final_placement)
            print(
                f"wrote final placement ({snapshot.b} objects) to "
                f"{args.final_placement}",
                file=sys.stderr,
            )
    _report_obs(mark)
    return 0


def _load_placement_arg(command: str, path: str, mmap: bool = False):
    """Load a placement file named on the command line.

    A missing, unreadable or malformed file is user input, not internal
    state: print one ``<command>: ...`` line and return None.
    """
    from repro.core.artifact import ArtifactError, load_placement
    from repro.core.placement import PlacementError

    try:
        return load_placement(path, mmap=mmap)
    except (OSError, ArtifactError, PlacementError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None


def _run_audit(args) -> int:
    from repro.core.inspect import audit_placement

    placement = _load_placement_arg("audit", args.placement)
    if placement is None:
        return 2
    audit = audit_placement(
        placement, k_values=tuple(args.k), s_values=tuple(args.s)
    )
    print(audit.render())
    return 0


def _load_run_target(target: str, command: str):
    """Resolve a figure name or spec.json path; exits are (None, code)."""
    from repro.exp.registry import figure_spec, spec_from_payload
    from repro.exp.spec import SpecError

    try:
        if target.endswith(".json") or os.path.sep in target:
            with open(target, encoding="utf-8") as handle:
                return spec_from_payload(json.load(handle)), 0
        return figure_spec(target), 0
    except OSError as exc:
        print(f"{command}: cannot read spec file: {exc}", file=sys.stderr)
        return None, 2
    except (SpecError, ValueError) as exc:
        print(f"{command}: {exc}", file=sys.stderr)
        return None, 2


def _run_exp(args) -> int:
    from repro.exp.registry import describe_figures
    from repro.exp.runner import run_experiment
    from repro.exp.store import RunStoreError
    from repro.faults import FaultPlanError
    from repro.faults.plan import FaultPlan

    if args.list:
        entries = describe_figures()
        width = max(len(name) for name, _ in entries)
        for name, description in entries:
            print(f"{name:<{width}}  {description}")
        return 0
    if args.target is None:
        print("run: target required (figure name or spec.json; --list "
              "shows the catalog)", file=sys.stderr)
        return 2
    if args.chaos is not None:
        try:
            FaultPlan.from_env(args.chaos)  # fail fast on a bad plan
        except FaultPlanError as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
        # Exported (not just configured in-process) so forked shard
        # workers inherit the plan.
        os.environ["REPRO_CHAOS"] = args.chaos
    mark = _arm_obs(args)
    spec, code = _load_run_target(args.target, "run")
    if spec is None:
        return code
    store = None
    if not args.no_store:
        store = args.store or os.environ.get("REPRO_RUNS_DIR") or "runs"
    try:
        run = run_experiment(
            spec,
            workers=args.workers,
            store=store,
            resume=args.resume,
            limit=args.limit,
            shard_timeout=args.shard_timeout,
            shard_retries=args.shard_retries,
        )
    except RunStoreError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # SpecError from a kernel reading a malformed custom spec,
        # ExperimentError on kernel-contract violations, bad --workers/
        # --limit values: user input, not internal state.
        print(f"run: {exc}", file=sys.stderr)
        return 2
    if run.complete:
        print(run.render())
    else:
        if store is None:
            # Nothing was stored, so --resume would recompute every cell.
            advice = "nothing was stored (--no-store); rerun without --limit:"
            rerun = ["repro", "run", args.target, "--no-store"]
        else:
            advice = "finish with"
            rerun = ["repro", "run", args.target, "--resume"]
            if args.store:
                rerun += ["--store", args.store]
        if args.workers is not None:
            rerun += ["--workers", str(args.workers)]
        print(
            f"partial run: {len(run.cells) - run.loaded - run.computed} "
            f"cells still missing; {advice} `{' '.join(rerun)}`",
            file=sys.stderr,
        )
    print(run.summary(), file=sys.stderr)
    if run.store_path is not None:
        print(f"run store: {run.store_path}", file=sys.stderr)
    _report_obs(mark)
    return 0


def _run_chaos_soak(args) -> int:
    from repro.faults.soak import SoakError, soak

    spec, code = _load_run_target(args.target, "chaos-soak")
    if spec is None:
        return code
    try:
        report = soak(
            spec,
            args.root,
            faults=args.faults,
            seed=args.seed,
            workers=args.workers,
            shard_timeout=args.shard_timeout,
            shard_retries=args.shard_retries,
        )
    except SoakError as exc:
        print(f"chaos-soak: {exc}", file=sys.stderr)
        return 1
    planned = report["planned_faults"]
    print(
        f"chaos-soak: {spec.experiment} survived {planned['total']} planned "
        f"faults ({planned['crashes']} crashes, {planned['torn_writes']} "
        f"torn writes, {planned['errors']} errors, "
        f"{planned['hangs']} hangs)"
    )
    print(
        f"  {report['runs']} runs ({report['restarts']} restarts), "
        f"{report['shard_retries']} shard retries, "
        f"{report['cells']} cells, {report['recomputed']} recomputed "
        f"on resume, {report['elapsed']:.1f}s"
    )
    fired = report["fired"]
    print(
        f"  fired {sum(fired.values())} faults ({fired['worker_died']} "
        f"worker deaths, {fired['watchdog_timeout']} watchdog timeouts, "
        f"{fired['error']} errors, {fired['torn_writes']} torn writes)"
    )
    print("  final store byte-identical to the fault-free reference")
    print(f"  plan {report['plan_hash'][:16]} under {args.root}/")
    return 0


def _run_place(args) -> int:
    chosen_format = args.format
    if chosen_format == "auto":
        chosen_format = (
            "npz" if args.output and args.output.endswith(".npz") else "json"
        )
    if chosen_format == "npz" and not args.output:
        # Reject before doing the placement work, not after.
        print("--format npz needs --output", file=sys.stderr)
        return 2
    try:
        if args.strategy == "random":
            placement = RandomStrategy(args.n, args.r).place(
                args.b, random.Random(args.seed)
            )
        elif args.strategy == "simple":
            strategy = SimpleStrategy(args.n, args.r, args.x)
            placement = strategy.place(args.b)
            print(
                f"# Simple(x={args.x}) lambda={strategy.minimal_lambda(args.b)}",
                file=sys.stderr,
            )
        else:
            s = args.s if args.s is not None else (args.r + 1) // 2
            k = args.k if args.k is not None else s
            strategy = ComboStrategy(
                args.n, args.r, s, tier=Existence.CONSTRUCTIBLE
            )
            plan = strategy.plan(args.b, k)
            placement = strategy.place(args.b, k, plan=plan)
            print(
                f"# Combo lambdas={plan.lambdas} lower_bound={plan.lower_bound}",
                file=sys.stderr,
            )
    except ValueError as exc:
        # Out-of-range --n/--r/--b/--x/--s/--k: user input, not internal state.
        print(f"place: {exc}", file=sys.stderr)
        return 2
    if chosen_format == "npz":
        from repro.core.artifact import save_npz

        target = args.output
        if not target.endswith(".npz"):
            target += ".npz"
        save_npz(placement, target)
        print(f"wrote {placement.b} objects to {target}", file=sys.stderr)
        return 0
    payload = json.dumps(placement.to_dict())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {placement.b} objects to {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _run_attack(args) -> int:
    from repro.core.batch import AttackCell, batch_attack

    mark = _arm_obs(args)
    placement = _load_placement_arg("attack", args.placement, mmap=args.mmap)
    if placement is None:
        return 2
    cells = [AttackCell(k, args.s, args.effort) for k in args.k]
    try:
        results = batch_attack(placement, cells)
    except ValueError as exc:
        # Out-of-range --k/--s: user input, not internal state.
        print(f"attack: {exc}", file=sys.stderr)
        return 2
    print(f"placement: {placement}")
    for cell, result in zip(cells, results):
        if len(cells) > 1:
            print(f"--- k={cell.k} ---")
        print(f"attack nodes: {sorted(result.nodes)}")
        print(f"objects killed: {result.damage} / {placement.b}")
        print(f"availability: {placement.b - result.damage}")
        print(
            f"certified optimal: {'yes' if result.exact else 'no (lower bound)'}"
        )
    _report_obs(mark)
    return 0


def _run_bounds(args) -> int:
    try:
        plan = ComboStrategy(args.n, args.r, args.s).plan(args.b, args.k)
        pr = pr_avail_rnd(args.n, args.k, args.r, args.s, args.b)
    except ValueError as exc:
        # Out-of-range --n/--r/--b/--s/--k: user input, not internal state.
        print(f"bounds: {exc}", file=sys.stderr)
        return 2
    print(f"Combo plan lambdas: {plan.lambdas} (objects: {plan.counts})")
    print(f"lbAvail_co (guaranteed):   {plan.lower_bound}")
    print(f"prAvail_rnd (Random, probable): {pr}")
    margin = plan.lower_bound - pr
    denominator = args.b - pr
    if denominator > 0:
        print(
            f"improvement: {margin} objects "
            f"({100 * margin / denominator:.0f}% of b - prAvail)"
        )
    winner = "combo" if margin > 0 else ("random" if margin < 0 else "tie")
    print(f"winner: {winner}")
    return 0


def _run_catalog(args) -> int:
    tier = (
        Existence.CONSTRUCTIBLE
        if args.tier == "constructible"
        else Existence.KNOWN
    )
    if args.v is not None:
        result = existence(args.v, args.r, args.t)
        print(f"{args.t}-({args.v},{args.r},1): {result.name}")
        return 0
    orders = steiner_orders(args.r, args.t, args.max_v, tier)
    print(
        f"{args.t}-(v,{args.r},1) orders at tier >= {tier.name}, "
        f"v <= {args.max_v}:"
    )
    print(" ".join(str(v) for v in orders) if orders else "(none)")
    best = largest_order(args.max_v, args.r, args.t, tier)
    print(f"largest: {best}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
