"""Load-balanced Random (Definition 4) against unconstrained Random'.

Theorem 2 analyzes Random' and argues the two converge as the per-node
load grows. This checks the finite-size gap the proof waves at: the
max-load inflation Random' pays for dropping the quota, and the
worst-case availability difference, recorded in
``benchmarks/output/ablation_random.txt``.
"""

import pathlib
import random
import statistics

from repro.core.adversary import best_attack
from repro.core.random_placement import RandomStrategy, UnconstrainedRandomStrategy
from repro.util.combinatorics import ceil_div
from repro.util.tables import TextTable

REFERENCE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "output" / "ablation_random.txt"
)


def ablation(n=31, r=5, s=3, k=4, reps=5):
    table = TextTable(
        ["b", "quota", "maxload Rnd", "maxload Rnd'", "avail Rnd", "avail Rnd'"],
        title=f"Ablation: Random vs Random' (n={n}, r={r}, s={s}, k={k})",
    )
    gaps = []
    for b in (150, 600, 2400):
        quota = ceil_div(r * b, n)
        max_bal, max_unc, avail_bal, avail_unc = [], [], [], []
        for rep in range(reps):
            balanced = RandomStrategy(n, r).place(b, random.Random(1000 + rep))
            unconstrained = UnconstrainedRandomStrategy(n, r).place(
                b, random.Random(2000 + rep)
            )
            max_bal.append(balanced.max_load())
            max_unc.append(unconstrained.max_load())
            avail_bal.append(b - best_attack(balanced, k, s, effort="fast").damage)
            avail_unc.append(
                b - best_attack(unconstrained, k, s, effort="fast").damage
            )
        mean_bal = statistics.fmean(avail_bal)
        mean_unc = statistics.fmean(avail_unc)
        table.add_row([b, quota, max(max_bal), max(max_unc),
                       round(mean_bal, 1), round(mean_unc, 1)])
        gaps.append((b, quota, max(max_bal), mean_bal, mean_unc))
    return table.render(), gaps


def test_random_vs_unconstrained():
    text, gaps = ablation()
    for b, quota, max_balanced, mean_bal, mean_unc in gaps:
        # Definition 4's quota is respected by the balanced variant.
        assert max_balanced <= quota
        # The availability gap between the two shrinks as load grows
        # (Theorem 2's convergence); at b = 2400 they are within 1%.
        if b >= 2400:
            assert abs(mean_bal - mean_unc) / b < 0.01
    assert text + "\n" == REFERENCE.read_text(encoding="utf-8")
