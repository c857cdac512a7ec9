"""Print every benchmark metric by name with its unit, and the host fingerprint.

Runs ``run.py`` once per workload with ``--trace 0`` (end-to-end
metrics) and once with ``--trace 1`` (per-layer metrics), from the root
of a checkout::

    python3 e2ebench/report.py [--workload catalog ...] [--seed 1]

With ``--runs N`` (N >= 2) it instead makes N end-to-end runs per
workload on seeds ``--seed`` .. ``--seed + N - 1`` and writes the
steadiness record (median and quartiles of every end-to-end metric, of
its uncalibrated sum and of ``host.probe_s``, and the fingerprint) into
the ``--set`` entry of ``--output``, replacing the workloads it ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(os.getcwd(), "BENCHMARK.json")


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns (result, prefixed lines), the
    latter keyed ``fingerprint``, ``host.probe_s`` and ``raw``."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload}: benchmark exited {completed.returncode}")
    prefixed = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("fingerprint", "host.probe_s", "raw"):
            prefixed[key] = json.loads(rest)
    for line in lines[:-1]:
        if line.startswith("check:") or "FAIL" in line:
            print(f"  {workload}: {line}")
    return json.loads(lines[-1]), prefixed


def print_table(workload, kind, result, bounds):
    print(f"\n{workload} ({kind}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        bound = bounds.get(name)
        suffix = f"  (bound {bound:.0%})" if bound is not None else ""
        print(f"  {name:36s} {metric['value']:>18.6g} {metric['unit']}{suffix}")


def steadiness(record, config, workloads, first_seed, runs, set_name):
    """Add one entry per workload to ``record[set_name]`` (in place)."""
    whys = {entry["name"]: entry["why"] for entry in config["workloads"]}
    seeds = [first_seed + i for i in range(runs)]
    for workload in workloads:
        values, raw, probes, failed = {}, {}, [], 0
        for seed in seeds:
            result, prefixed = run_once(workload, seed, config["run_seconds"], 0)
            record["fingerprint"] = prefixed["fingerprint"]
            probes.append(prefixed["host.probe_s"]["median"])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in prefixed["raw"].items():
                raw.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()),
                  flush=True)
        record.setdefault(set_name, {})[workload] = {
            "why": whys.get(workload),
            "seeds": seeds,
            "failed_or_incorrect": failed,
            "metrics": {name: _summary(v) for name, v in values.items()},
            "uncalibrated": {name: _summary(v) for name, v in raw.items()},
            "host.probe_s": _summary(probes),
        }


def _summary(series):
    q1, _, q3 = statistics.quantiles(series, n=4)
    median = statistics.median(series)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": series}


def main(argv=None):
    with open(CONFIG, encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--output", default=os.path.join(HERE, "STEADINESS.json"))
    parser.add_argument("--set", default="first_set")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    if args.runs >= 2:
        record = {}
        if os.path.exists(args.output):
            with open(args.output, encoding="utf-8") as handle:
                record = json.load(handle)
        for workload in workloads:
            steadiness(record, config, [workload], args.seed, args.runs, args.set)
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
            print(f"wrote {workload} to {args.output}")
        return 0
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    fingerprint = None
    for workload in workloads:
        for trace, kind in ((0, "end-to-end"), (1, "per-layer")):
            result, prefixed = run_once(
                workload, args.seed, config["run_seconds"], trace)
            fingerprint = prefixed["fingerprint"]
            print_table(workload, kind, result, bounds)
    print("\nhost fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
