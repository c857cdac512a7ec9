#!/usr/bin/env python3
"""GFS/HDFS-style file placement on a large cluster with racks.

The paper's introduction cites GFS and Hadoop: files (here, chunks) are
replicated r = 3 ways. We model majority-quorum liveness (a chunk needs 2
of 3 replicas, so it dies once s = 2 replicas are lost) on a 257-node
cluster organized into racks, and compare Combo vs Random placement under
three failure modes:

* random node failures (the classic fault model),
* a full rack outage (correlated failure domain),
* the paper's worst-case adversary (targeted attack with placement
  knowledge).

Run:  python examples/distributed_file_system.py
"""

import os
import random
import statistics

from repro import (
    AttackCell,
    AttackEngine,
    ComboStrategy,
    RandomStrategy,
    majority_threshold,
)
from repro.designs.catalog import Existence
from repro.util.tables import TextTable

SMALL = os.environ.get("REPRO_EXAMPLE_SCALE", "") == "small"
N, B, RACKS = (71, 600, 8) if SMALL else (257, 2400, 16)
R = 3
S = majority_threshold(R)  # s = 2
K = 5


def chunks_lost(placement, failed_nodes) -> int:
    return len(placement.failed_objects(failed_nodes, S))


def chunks_lost_random(placement, reps=10) -> float:
    return statistics.fmean(
        chunks_lost(placement, random.Random(rep).sample(range(N), K))
        for rep in range(reps)
    )


def chunks_lost_rack(placement, reps=8) -> float:
    # Node i sits in rack i % RACKS.
    return statistics.fmean(
        chunks_lost(placement, range(rack, N, RACKS))
        for rack in range(min(reps, RACKS))
    )


def chunks_lost_worst(placement) -> int:
    attack = AttackEngine(placement).attack(AttackCell(K, S, "fast"), seed=0)
    return chunks_lost(placement, attack.nodes)


def main() -> None:
    print(f"Cluster: {N} nodes / {RACKS} racks, {B} chunks x {R} replicas, "
          f"majority quorum (chunk dies at s={S} replica losses)\n")

    combo = ComboStrategy(N, R, S, tier=Existence.CONSTRUCTIBLE)
    plan = combo.plan(B, K)
    placements = {
        "Combo": combo.place(B, K, plan=plan),
        "Random": RandomStrategy(N, R).place(B, random.Random(11)),
    }

    table = TextTable(
        ["policy", f"random k={K}", "rack outage", f"worst-case k={K}",
         "load max/mean"],
        title=f"Mean chunks lost out of {B}",
    )
    for name, placement in placements.items():
        loads = placement.loads()
        table.add_row(
            [
                name,
                round(chunks_lost_random(placement), 1),
                round(chunks_lost_rack(placement), 1),
                chunks_lost_worst(placement),
                f"{max(loads)}/{statistics.fmean(loads):.1f}",
            ]
        )
    print(table.render())
    print(
        f"\nCombo guarantee for k={K}: at most {B - plan.lower_bound} chunks "
        f"lost (lambdas={plan.lambdas})."
    )
    print(
        "Note how random failures barely hurt either policy — the paper's "
        "point is the worst-case column."
    )


if __name__ == "__main__":
    main()
