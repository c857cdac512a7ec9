"""Cross-module property-based tests on the paper's core invariants.

These are the load-bearing guarantees of the reproduction:

1. Simple placements are valid packings at the Eqn.-1 minimal lambda.
2. Lemma 2 / Lemma 3 lower bounds never exceed exact worst-case
   availability.
3. The Combo DP never does worse than any single-stratum alternative.
4. Random placements obey Definition 4's load quota.
5. prAvail is sandwiched sensibly (monotonicity in each parameter).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary import ExhaustiveAdversary
from repro.core.bounds import lb_avail_combo, lb_avail_simple, simple_capacity
from repro.core.combo import ComboStrategy
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy
from repro.core.rand_analysis import pr_avail_rnd
from repro.core.simple import SimpleStrategy
from repro.designs.blocks import BlockDesign
from repro.designs.catalog import Existence
from repro.util.combinatorics import binom

# Small systems where every stratum is constructible and exact adversary
# search is instantaneous.
SMALL_SYSTEMS = [(13, 3), (16, 4), (9, 3), (10, 4)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.data())
def test_simple_packing_and_soundness(system, data):
    n, r = system
    x = data.draw(st.integers(1, r - 1))
    s = data.draw(st.integers(x + 1, r))
    k = data.draw(st.integers(s, min(s + 2, n - 1)))
    b = data.draw(st.integers(1, 60))
    strategy = SimpleStrategy(n, r, x, tier=Existence.CONSTRUCTIBLE)
    placement = strategy.place(b)
    lam = strategy.minimal_lambda(b)

    design = BlockDesign.from_blocks(
        n, [tuple(sorted(ns)) for ns in placement.replica_sets]
    )
    assert design.max_coverage(x + 1) <= lam  # Definition 2

    attack = ExhaustiveAdversary(max_subsets=500_000).attack(placement, k, s)
    assert placement.b - attack.damage >= lb_avail_simple(b, k, s, x, lam)  # Lemma 2


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(13, 3), (16, 4)]), st.data())
def test_combo_soundness_and_dominance(system, data):
    n, r = system
    s = data.draw(st.integers(2, r))
    k = data.draw(st.integers(s, min(s + 2, n - 1)))
    b = data.draw(st.integers(5, 80))
    strategy = ComboStrategy(n, r, s, tier=Existence.CONSTRUCTIBLE)
    plan = strategy.plan(b, k)

    # Lemma 3 soundness under exact attack.
    placement = strategy.place(b, k, plan=plan)
    attack = ExhaustiveAdversary(max_subsets=500_000).attack(placement, k, s)
    assert placement.b - attack.damage >= plan.lower_bound

    # DP dominance over single strata.
    for x in range(s):
        sub = strategy.subsystems[x]
        if sub is None:
            continue
        lambdas = [0] * s
        lambdas[x] = sub.minimal_lambda(b)
        assert plan.lower_bound >= min(b, max(0, lb_avail_combo(b, k, s, lambdas)))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(5, 25),
    st.integers(2, 5),
    st.integers(1, 120),
    st.integers(0, 2**31),
)
def test_random_quota_property(n, r, b, seed):
    if r > n:
        return
    placement = RandomStrategy(n, r).place(b, random.Random(seed))
    limit = -(-r * b // n)
    assert placement.max_load() <= limit
    assert sum(placement.loads()) == r * b


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pr_avail_monotonicities(data):
    n = data.draw(st.sampled_from([31, 71]))
    r = data.draw(st.integers(2, 5))
    s = data.draw(st.integers(1, r))
    k = data.draw(st.integers(s, 8))
    b = data.draw(st.sampled_from([300, 600, 1200]))
    base = pr_avail_rnd(n, k, r, s, b)
    assert 0 <= base <= b
    # More objects cannot decrease the count (though the fraction may drop).
    assert pr_avail_rnd(n, k, r, s, 2 * b) >= base
    # One more failure never helps.
    if k + 1 < n:
        assert pr_avail_rnd(n, k + 1, r, s, b) <= base


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.integers(2, 4), st.integers(1, 3))
def test_attack_damage_bounded_by_replica_budget(seed, k, s):
    """No attack can kill more objects than failed replicas / s."""
    n, r, b = 12, 3, 40
    if s > r:
        return
    placement = RandomStrategy(n, r).place(b, random.Random(seed))
    attack = ExhaustiveAdversary().attack(placement, k, s)
    failed_replicas = sum(
        1
        for nodes in placement.replica_sets
        for node in nodes
        if node in set(attack.nodes)
    )
    assert attack.damage * s <= failed_replicas


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31))
def test_placement_failed_objects_matches_adversary_damage(seed):
    rng = random.Random(seed)
    placement = RandomStrategy(10, 3).place(30, rng)
    nodes = tuple(rng.sample(range(10), 3))
    from repro.core.adversary import damage

    assert damage(placement, nodes, 2) == len(placement.failed_objects(nodes, 2))


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31))
def test_simple_capacity_lemma1_consistency(r, seed):
    """A materialized Simple placement never exceeds Lemma-1 capacity per lambda."""
    rng = random.Random(seed)
    n_by_r = {2: 10, 3: 13, 4: 16, 5: 25}
    n = n_by_r[r]
    x = rng.randrange(1, r)
    strategy = SimpleStrategy(n, r, x, tier=Existence.CONSTRUCTIBLE)
    b = rng.randint(1, 40)
    lam = strategy.minimal_lambda(b)
    sub = strategy.subsystem
    cap = sub.capacity(lam)
    assert b <= cap <= simple_capacity(n, r, x, lam)  # Lemma 1 on all n nodes
    # Eqn. 1 bracketing: one lambda step fewer would not fit.
    if lam > sub.mu:
        assert b > sub.capacity(lam - sub.mu)
