"""Tests for Random (Definition 4) and Random' placements."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacementError
from repro.core.random_placement import (
    RandomStrategy,
    UnconstrainedRandomStrategy,
    _shuffle,
)
from repro.util.combinatorics import ceil_div


class TestRandomStrategy:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(5, 40),
        st.integers(2, 5),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    def test_definition4_invariants(self, n, r, b, seed):
        if r > n:
            return
        placement = RandomStrategy(n, r).place(b, random.Random(seed))
        assert placement.b == b
        # Replica sets have r distinct nodes (enforced by Placement) and the
        # load quota ceil(r b / n) holds on every node.
        assert placement.r == r
        assert placement.max_load() <= ceil_div(r * b, n)

    def test_deterministic_under_seed(self):
        strategy = RandomStrategy(31, 5)
        a = strategy.place(100, random.Random(7))
        b = strategy.place(100, random.Random(7))
        assert a.replica_sets == b.replica_sets

    def test_different_seeds_differ(self):
        strategy = RandomStrategy(31, 5)
        a = strategy.place(100, random.Random(7))
        b = strategy.place(100, random.Random(8))
        assert a.replica_sets != b.replica_sets

    def test_explicit_load_limit_respected(self):
        placement = RandomStrategy(10, 2, load_limit=5).place(
            20, random.Random(1)
        )
        assert placement.max_load() <= 5

    def test_infeasible_limit_rejected(self):
        from repro.core.placement import PlacementError

        with pytest.raises(PlacementError):
            RandomStrategy(10, 2, load_limit=1).place(20, random.Random(1))

    def test_tight_quota_still_solvable(self):
        # r*b exactly n*limit: every slot used, repair must still converge.
        placement = RandomStrategy(6, 3).place(10, random.Random(3))
        assert placement.max_load() == 5

    def test_marginal_uniformity_sanity(self):
        # Each node's expected load is r*b/n; across many placements the
        # empirical mean should be close (loose 3-sigma-style check).
        strategy = RandomStrategy(9, 3)
        totals = [0] * 9
        reps = 60
        for i in range(reps):
            placement = strategy.place(30, random.Random(i))
            for node, load in enumerate(placement.loads()):
                totals[node] += load
        mean_loads = [t / reps for t in totals]
        for mean_load in mean_loads:
            assert 8.0 <= mean_load <= 12.0  # target 10

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStrategy(3, 4)
        with pytest.raises(ValueError):
            RandomStrategy(10, 2).place(0)


class TestUnconstrainedRandom:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 30), st.integers(1, 5), st.integers(1, 100), st.integers(0, 1000))
    def test_distinct_nodes_per_object(self, n, r, b, seed):
        if r > n:
            return
        placement = UnconstrainedRandomStrategy(n, r).place(b, random.Random(seed))
        assert placement.b == b
        assert placement.r == r

    def test_no_quota(self):
        # With many objects on few nodes some node exceeds the Random quota
        # eventually -- the defining difference from Definition 4.
        placement = UnconstrainedRandomStrategy(4, 1).place(
            400, random.Random(0)
        )
        assert placement.max_load() > ceil_div(400, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnconstrainedRandomStrategy(3, 4)
        with pytest.raises(ValueError):
            UnconstrainedRandomStrategy(5, 2).place(-1)


def _reference_place(n, r, b, rng, load_limit=None):
    """Random placement through ``rng.shuffle`` and ``rng.randrange``, with
    duplicates recounted on every attempt: the implementation the
    inlined draws and the kept duplicate counts must reproduce."""
    limit = load_limit if load_limit is not None else ceil_div(r * b, n)
    slots = []
    for node in range(n):
        slots.extend([node] * limit)
    rng.shuffle(slots)
    slots = slots[: r * b]

    def duplicates(obj):
        return r - len(set(slots[obj * r : (obj + 1) * r]))

    conflicted = {obj for obj in range(b) if duplicates(obj)}
    attempts = 0
    while conflicted:
        attempts += 1
        if attempts > 200 * len(slots) + 1000:
            raise PlacementError("slot repair failed to converge")
        obj = next(iter(conflicted))
        base = obj * r
        window = slots[base : base + r]
        dup_offset = next(i for i in range(r) if window[i] in window[:i])
        partner = rng.randrange(b)
        if partner == obj:
            continue
        i = base + dup_offset
        j = partner * r + rng.randrange(r)
        before = duplicates(obj) + duplicates(partner)
        slots[i], slots[j] = slots[j], slots[i]
        if duplicates(obj) + duplicates(partner) >= before:
            slots[i], slots[j] = slots[j], slots[i]
            continue
        for touched in (obj, partner):
            if duplicates(touched):
                conflicted.add(touched)
            else:
                conflicted.discard(touched)
    return [tuple(sorted(slots[o * r : (o + 1) * r])) for o in range(b)]


class TestByteIdentity:
    """The inlined draws reproduce the library calls bit for bit: the same
    lists, the same placements, the same generator state afterwards."""

    @pytest.mark.parametrize(
        "length",
        sorted({0, 1, 2} | {2**k + d for k in range(1, 13) for d in (-1, 0, 1)}),
    )
    def test_shuffle_matches_library(self, length):
        for seed in range(3):
            expected, got = list(range(length)), list(range(length))
            library, inlined = random.Random(seed), random.Random(seed)
            library.shuffle(expected)
            _shuffle(got, inlined.getrandbits)
            assert got == expected
            assert inlined.getstate() == library.getstate()

    @pytest.mark.parametrize(
        "n,r,b,load_limit",
        [
            (7, 1, 40, None),          # r = 1: nothing to repair
            (5, 5, 30, None),          # r = n: every object on every node
            (6, 3, 10, None),          # r*b = n*limit: every slot dealt
            (10, 2, 20, 4),            # explicit limit, exactly full
            (13, 3, 26, 7),            # explicit limit with slack
            (31, 5, 600, None),
            (71, 5, 1200, None),
            (9, 4, 1, None),           # a single object
        ],
    )
    def test_place_matches_reference(self, n, r, b, load_limit):
        for seed in range(4):
            library, inlined = random.Random(seed), random.Random(seed)
            expected = _reference_place(n, r, b, library, load_limit)
            placement = RandomStrategy(n, r, load_limit).place(b, inlined)
            assert [tuple(sorted(s)) for s in placement.replica_sets] == expected
            assert inlined.getstate() == library.getstate()

    def test_non_converging_limit_still_raises(self):
        # Two slots per node, three nodes, two objects of three replicas:
        # a feasible quota whose shuffle can leave a node twice in the dealt
        # slots, which no swap can repair.
        raised = 0
        for seed in range(8):
            try:
                _reference_place(3, 3, 2, random.Random(seed), load_limit=3)
            except PlacementError:
                raised += 1
                with pytest.raises(PlacementError, match="converge"):
                    RandomStrategy(3, 3, load_limit=3).place(
                        2, random.Random(seed)
                    )
            else:
                RandomStrategy(3, 3, load_limit=3).place(2, random.Random(seed))
        assert raised
