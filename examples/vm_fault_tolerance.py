#!/usr/bin/env python3
"""VM fault-tolerance placement: the paper's motivating r = 2 scenario.

The paper's introduction points at VM replication for fault tolerance
(e.g. VMware FT), which runs each VM as a primary/secondary *pair*:
r = 2 replicas, and the VM survives while either replica survives
(s = r = 2, "read-one" style liveness).

This example deploys 600 VM pairs on a 31-host cluster, then subjects
three placement policies to escalating targeted attacks (a hostile insider
picking hosts to power off):

* Combo          — this paper's strategy (for r = s = 2: pair design strata),
* Random         — load-balanced random (common practice),
* naive racking  — pair VMs on adjacent hosts (what ad-hoc deployment does).

Run:  python examples/vm_fault_tolerance.py
"""

import os
import random

from repro import (
    AttackCell,
    AttackEngine,
    ComboStrategy,
    Placement,
    RandomStrategy,
)
from repro.designs.catalog import Existence
from repro.util.tables import TextTable

SMALL = os.environ.get("REPRO_EXAMPLE_SCALE", "") == "small"


def naive_adjacent_pairs(n: int, b: int) -> Placement:
    """Pair VM i on hosts (2i, 2i+1) mod n: the 'rack neighbours' anti-pattern."""
    sets = []
    for i in range(b):
        a = (2 * i) % n
        bb = (2 * i + 1) % n
        if a == bb:  # odd n wrap-around collision
            bb = (bb + 1) % n
        sets.append((a, bb))
    return Placement.from_replica_sets(n, sets, strategy="naive-adjacent")


def attack(placement: Placement, k: int, s: int) -> int:
    """VMs lost when the worst-case adversary powers off ``k`` hosts."""
    result = AttackEngine(placement).attack(AttackCell(k, s, "auto"), seed=0)
    return len(placement.failed_objects(result.nodes, s))


def main() -> None:
    n, b, r = 31, (150 if SMALL else 600), 2
    s = r  # read-one: a VM dies only if BOTH replicas die
    k_values = (2, 3) if SMALL else (2, 3, 4, 5)

    combo = ComboStrategy(n, r, s, tier=Existence.CONSTRUCTIBLE)
    placements = {
        "Combo": combo.place(b, k=3),
        "Random": RandomStrategy(n, r).place(b, random.Random(7)),
        "Naive-adjacent": naive_adjacent_pairs(n, b),
    }

    table = TextTable(
        ["policy", *[f"VMs lost @k={k}" for k in k_values], "max host load"],
        title=f"Worst-case VM loss out of {b} VM pairs on {n} hosts",
    )
    for name, placement in placements.items():
        losses = [attack(placement, k, s) for k in k_values]
        table.add_row([name, *losses, placement.max_load()])
    print(table.render())

    guarantee = combo.plan(b, 3)
    print(
        f"\nCombo's k=3 guarantee (Lemma 3): at most "
        f"{b - guarantee.lower_bound} VMs lost — no attacker placement "
        f"knowledge can do worse."
    )


if __name__ == "__main__":
    main()
