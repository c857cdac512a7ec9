"""Tests for the worst-case adversary ladder."""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import native
from repro.core.adversary import (
    AttackResult,
    BranchAndBoundAdversary,
    ExhaustiveAdversary,
    GreedyAdversary,
    LocalSearchAdversary,
    _search_tree,
    best_attack,
    damage,
)
from repro.core.kernels import Incidence, make_kernel
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


class TestDamage:
    def test_counts_threshold(self):
        p = Placement.from_replica_sets(5, [(0, 1, 2), (2, 3, 4), (0, 3, 4)])
        assert damage(p, [0, 1], 2) == 1
        assert damage(p, [0, 1], 1) == 2
        assert damage(p, [2, 3, 4], 3) == 1
        assert damage(p, [], 1) == 0


class TestExhaustive:
    def test_finds_known_optimum(self):
        # Two objects share nodes {0,1}: failing those kills both at s=2.
        p = Placement.from_replica_sets(
            6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)]
        )
        result = ExhaustiveAdversary().attack(p, 2, 2)
        assert result.damage == 2
        assert set(result.nodes) == {0, 1}
        assert result.exact

    def test_subset_limit_guard(self):
        p = random_placement(40, 3, 20, 0)
        with pytest.raises(ValueError):
            ExhaustiveAdversary(max_subsets=10).attack(p, 5, 2)

    def test_k_validated(self):
        p = random_placement(10, 3, 20, 0)
        for k in (-1, 11):
            with pytest.raises(ValueError, match="0 <= k <= n"):
                ExhaustiveAdversary().attack(p, k, 2)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_branch_and_bound_for_every_k(self, s):
        """k = 0 (no failures) and k = n (all nodes) included."""
        for seed in range(3):
            p = RandomStrategy(9, 3).place(20, rng=random.Random(seed))
            for k in range(0, p.n + 1):
                exhaustive = ExhaustiveAdversary().attack(p, k, s)
                bnb = BranchAndBoundAdversary().attack(p, k, s)
                assert exhaustive.exact and bnb.exact
                assert exhaustive.damage == bnb.damage, (seed, k)
                assert len(exhaustive.nodes) == k
                assert damage(p, exhaustive.nodes, s) == exhaustive.damage


class TestCrossEngineAgreement:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.data())
    def test_bnb_matches_exhaustive(self, seed, k, data):
        n = data.draw(st.integers(6, 12))
        r = data.draw(st.integers(2, min(4, n)))
        s = data.draw(st.integers(1, min(r, k)))
        p = random_placement(n, r, 25, seed)
        exhaustive = ExhaustiveAdversary().attack(p, k, s)
        bnb = BranchAndBoundAdversary().attack(p, k, s)
        assert bnb.exact
        assert bnb.damage == exhaustive.damage

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_heuristics_never_exceed_exact(self, seed):
        p = random_placement(10, 3, 30, seed)
        exact = ExhaustiveAdversary().attack(p, 3, 2)
        greedy = GreedyAdversary().attack(p, 3, 2)
        local = LocalSearchAdversary(restarts=2, rng=random.Random(seed)).attack(
            p, 3, 2
        )
        assert greedy.damage <= exact.damage
        assert greedy.damage <= local.damage <= exact.damage
        assert not greedy.exact and not local.exact

    def test_damage_reported_matches_nodes(self):
        p = random_placement(12, 3, 40, 5)
        for engine in (
            ExhaustiveAdversary(),
            GreedyAdversary(),
            LocalSearchAdversary(restarts=1),
            BranchAndBoundAdversary(),
        ):
            result = engine.attack(p, 3, 2)
            assert len(result.nodes) == 3
            assert damage(p, result.nodes, 2) == result.damage


class TestBackendLadder:
    """Every gain backing drives the full adversary ladder identically."""

    def test_exhaustive_agrees_across_backends(self, each_backing):
        p = random_placement(10, 3, 30, 1)
        result = ExhaustiveAdversary().attack(p, 3, 2)
        assert result.damage == ExhaustiveAdversary().attack(p, 3, 2).damage
        assert damage(p, result.nodes, 2) == result.damage

    def test_local_search_consistent(self, each_backing):
        p = random_placement(10, 3, 30, 2)
        result = LocalSearchAdversary(restarts=1).attack(p, 3, 2)
        assert damage(p, result.nodes, 2) == result.damage

    def test_bnb_exact_per_backend(self, each_backing):
        p = random_placement(9, 3, 20, 3)
        expected = ExhaustiveAdversary().attack(p, 3, 2).damage
        result = BranchAndBoundAdversary().attack(p, 3, 2)
        assert result.exact
        assert result.damage == expected

    def test_all_adversaries_agree_across_backings(self, each_backing):
        """Greedy/local/exhaustive/B&B damages are backing-independent."""
        p = random_placement(14, 3, 60, 2)
        engines = {
            "greedy": GreedyAdversary(),
            "local": LocalSearchAdversary(restarts=2),
            "exhaustive": ExhaustiveAdversary(),
            "bnb": BranchAndBoundAdversary(),
        }

        def damages(kernel):
            return {
                label: engine.attack(p, 3, 2, kernel=kernel).damage
                for label, engine in engines.items()
            }

        kernel = make_kernel(p, 2)
        assert kernel.backing == each_backing
        found = damages(kernel)
        assert found == damages(make_kernel(p, 2, gain_backing="python"))
        assert found["bnb"] == found["exhaustive"]
        assert found["greedy"] <= found["local"] <= found["exhaustive"]


class TestFailureSetSize:
    """Every engine rejects k outside [0, n] before touching a kernel."""

    ENGINES = (
        GreedyAdversary,
        LocalSearchAdversary,
        BranchAndBoundAdversary,
        ExhaustiveAdversary,
    )

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("k", [-1, 10, 11])
    def test_out_of_range_k_rejected(self, each_backing, engine, k):
        p = RandomStrategy(9, 3).place(20, rng=random.Random(1))
        with pytest.raises(ValueError, match="0 <= k <= n"):
            engine().attack(p, k, 2)

    def test_empty_and_full_failure_sets(self, each_backing):
        p = RandomStrategy(9, 3).place(20, rng=random.Random(1))
        assert BranchAndBoundAdversary().attack(p, 0, 2) == AttackResult(
            nodes=(), damage=0, exact=True, evaluations=1
        )
        assert BranchAndBoundAdversary().attack(p, 9, 2) == AttackResult(
            nodes=tuple(range(9)), damage=20, exact=True, evaluations=72
        )
        for engine in (GreedyAdversary(), LocalSearchAdversary()):
            assert engine.attack(p, 0, 2).damage == 0
            assert engine.attack(p, 9, 2).damage == 20


class TestSearchBudget:
    """A negative ``max_nodes`` is rejected; ``None`` stays unlimited."""

    def test_constructor_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="max_nodes must be >= 0"):
            BranchAndBoundAdversary(max_nodes=-5)
        assert BranchAndBoundAdversary(max_nodes=None).max_nodes is None

    def test_search_paths_reject_negative_budget(self, each_backing):
        """The native one-call search and the ``_search_tree`` reference
        both refuse a negative budget handed past the constructor."""
        p = RandomStrategy(9, 3).place(20, rng=random.Random(1))
        kernel = make_kernel(p, 2)
        if each_backing == "native":
            search = kernel.branch_and_bound
        else:
            def search(k, incumbent, nodes, max_nodes):
                return _search_tree(kernel, k, incumbent, nodes, max_nodes)
        with pytest.raises(ValueError, match="max_nodes must be >= 0"):
            search(3, 0, (0, 1, 2), -5)
        nodes, found, exhausted, _, _ = search(3, 0, (0, 1, 2), None)
        assert not exhausted
        assert found == ExhaustiveAdversary().attack(p, 3, 2).damage
        assert damage(p, nodes, 2) == found
        adversary = BranchAndBoundAdversary()
        adversary.max_nodes = -5
        with pytest.raises(ValueError, match="max_nodes must be >= 0"):
            adversary.attack(p, 3, 2, kernel=kernel)


@pytest.mark.skipif(not native.available(), reason="native backing unavailable")
class TestFusedBranchAndBound:
    """The native backing's one-call search (``gk_branch_and_bound``)
    against the python backing's ``recurse`` reference and exhaustive
    enumeration: identical ``AttackResult`` (nodes, damage, exactness,
    evaluations) and identical ``kernel.node_adds/removes`` deltas."""

    @pytest.fixture(autouse=True)
    def metrics_on(self):
        obs.set_metrics(True)
        yield
        obs.set_metrics(None)
        obs.reset_metrics()

    @staticmethod
    def _attack(engine, placement, k, s, kernel, **kwargs):
        names = ("kernel.node_adds", "kernel.node_removes")
        before = [obs.counter_value(name) for name in names]
        result = engine.attack(placement, k, s, kernel=kernel, **kwargs)
        moves = tuple(
            obs.counter_value(name) - was for name, was in zip(names, before)
        )
        return result, moves

    def _both(self, engine, placement, k, s, **kwargs):
        """(native, python) results of one attack, each with its moves."""
        return tuple(
            self._attack(
                engine, placement, k, s,
                make_kernel(placement, s, gain_backing=backing), **kwargs
            )
            for backing in ("native", "python")
        )

    PLACEMENTS = {
        "random-9-3-30": lambda: random_placement(9, 3, 30, 4),
        "random-10-4-25": lambda: random_placement(10, 4, 25, 5),
        "simple-13-3-26": lambda: SimpleStrategy(13, 3, 1).place(26),
    }

    @pytest.mark.parametrize("label", sorted(PLACEMENTS))
    def test_matches_reference_and_exhaustive(self, label):
        p = self.PLACEMENTS[label]()
        for s in range(1, p.r + 1):
            for k in range(1, p.n):
                fused, reference = self._both(
                    BranchAndBoundAdversary(max_nodes=None), p, k, s
                )
                assert fused == reference, (label, s, k)
                assert fused[0].exact
                exhaustive = ExhaustiveAdversary().attack(p, k, s)
                assert fused[0].damage == exhaustive.damage, (label, s, k)

    def test_warm_start(self):
        p = random_placement(12, 3, 50, 6)
        for warm in ((0, 1, 2), (11, 4), (5, 5, 99, 7)):
            fused, reference = self._both(
                BranchAndBoundAdversary(), p, 4, 2, warm_start=warm
            )
            assert fused == reference, warm
            assert fused[0].damage == ExhaustiveAdversary().attack(p, 4, 2).damage

    @pytest.mark.parametrize("max_nodes", [0, 1, 2, 40])
    def test_budget_exhaustion(self, max_nodes):
        p = random_placement(16, 3, 90, 7)
        fused, reference = self._both(
            BranchAndBoundAdversary(max_nodes=max_nodes, restarts=0), p, 5, 2
        )
        assert fused == reference
        result = fused[0]
        assert not result.exact
        assert damage(p, result.nodes, 2) == result.damage

    def test_kernel_rebound_after_delta(self):
        rng = random.Random(8)
        p = random_placement(11, 3, 40, 8)
        incidence = Incidence(p)
        kernels = {
            backing: make_kernel(p, 2, incidence=incidence, gain_backing=backing)
            for backing in ("native", "python")
        }
        for _ in range(3):
            added = [rng.sample(range(11), 3) for _ in range(4)]
            removed = rng.sample(range(incidence.b), 3)
            placement = incidence.apply_delta(added, removed)
            for kernel in kernels.values():
                kernel.rebind()
            for k in (2, 3, 4):
                fused, reference = (
                    self._attack(BranchAndBoundAdversary(), placement, k, 2,
                                 kernels[backing])
                    for backing in ("native", "python")
                )
                assert fused == reference, k
                assert fused[0].damage == (
                    ExhaustiveAdversary().attack(placement, k, 2).damage
                )


class TestLocalSearchDeterminism:
    def test_results_independent_of_call_order(self):
        p1 = random_placement(14, 3, 40, 11)
        p2 = random_placement(14, 3, 40, 12)
        # Fresh instance per attack vs one shared instance: identical, since
        # each attack() call reseeds its own generator.
        shared = LocalSearchAdversary(restarts=3)
        first = shared.attack(p1, 3, 2)
        second = shared.attack(p2, 3, 2)
        assert first == LocalSearchAdversary(restarts=3).attack(p1, 3, 2)
        assert second == LocalSearchAdversary(restarts=3).attack(p2, 3, 2)

    def test_seed_changes_restart_stream(self):
        p = random_placement(14, 3, 40, 13)
        a = LocalSearchAdversary(restarts=3, seed=1).attack(p, 3, 2)
        b = LocalSearchAdversary(restarts=3, seed=1).attack(p, 3, 2)
        assert a == b  # reproducible under an explicit seed

    def test_explicit_rng_still_honoured(self):
        p = random_placement(14, 3, 40, 14)
        a = LocalSearchAdversary(restarts=2, rng=random.Random(7)).attack(p, 3, 2)
        b = LocalSearchAdversary(restarts=2, rng=random.Random(7)).attack(p, 3, 2)
        assert a == b

    def test_warm_start_never_hurts(self):
        p = random_placement(14, 3, 40, 15)
        base = LocalSearchAdversary(restarts=0).attack(p, 4, 2)
        warmed = LocalSearchAdversary(restarts=0).attack(
            p, 4, 2, warm_start=base.nodes
        )
        assert warmed.damage >= base.damage

    def test_caller_rng_state_matches_the_serial_draw_loop(self):
        # Pre-drawing restart seeds must consume the caller-managed
        # generator exactly as the historical draw-inside-the-loop did:
        # one sample(range(n), k) per restart, nothing else. Pin both the
        # seed sequence and the post-attack generator state.
        p = random_placement(14, 3, 40, 16)
        rng = random.Random(99)
        LocalSearchAdversary(restarts=5, rng=rng).attack(p, 3, 2)
        reference = random.Random(99)
        expected_seeds = [
            reference.sample(range(p.n), 3) for _ in range(5)
        ]
        assert rng.getstate() == reference.getstate()
        # The drawn sequence is observable through the next draws: both
        # generators must continue identically.
        assert rng.random() == reference.random()
        # And the same seeds replayed explicitly reproduce the result.
        replay = random.Random(99)
        assert [
            replay.sample(range(p.n), 3) for _ in range(5)
        ] == expected_seeds

    def test_shared_rng_attack_sequence_pinned(self):
        # Two successive attacks sharing one generator: the second sees
        # exactly the state the serial draw loop would have left behind.
        p1 = random_placement(14, 3, 40, 18)
        p2 = random_placement(14, 3, 40, 19)
        rng = random.Random(7)
        shared = LocalSearchAdversary(restarts=3, rng=rng)
        a1 = shared.attack(p1, 3, 2)
        a2 = shared.attack(p2, 3, 2)
        assert LocalSearchAdversary(
            restarts=3, rng=random.Random(7)
        ).attack(p1, 3, 2) == a1
        replay = random.Random(7)
        for _ in range(3):
            replay.sample(range(p1.n), 3)
        assert LocalSearchAdversary(restarts=3, rng=replay).attack(
            p2, 3, 2
        ) == a2
        assert replay.getstate() == rng.getstate()


class TestEvaluationAccounting:
    """`evaluations` counts candidate damage evaluations, identically on
    every backing: greedy step i examines n - i candidates, a polish
    position n - (k - 1), and warm-start completion only the greedy steps
    that actually run after dropping duplicate/out-of-range seeds."""

    def test_greedy_charges_candidates_examined(self):
        p = random_placement(12, 3, 40, 0)
        result = GreedyAdversary().attack(p, 4, 2)
        assert result.evaluations == sum(12 - i for i in range(4))

    def test_polish_accounting_pinned(self):
        # Regression pin: greedy seed (42) plus two polish passes at
        # k * (n - k + 1) = 36 candidates each. Before the fix each
        # position was charged the full n regardless of the banned set.
        p = random_placement(12, 3, 40, 0)
        base = LocalSearchAdversary(restarts=0, seed=0).attack(p, 4, 2)
        assert base.evaluations == 114
        greedy = GreedyAdversary().attack(p, 4, 2)
        pass_cost = 4 * (12 - 3)
        assert (base.evaluations - greedy.evaluations) % pass_cost == 0

    def test_accounting_is_backend_independent(self, each_backing):
        p = random_placement(12, 3, 40, 0)
        result = LocalSearchAdversary(restarts=2, seed=0).attack(p, 4, 2)
        assert result.evaluations == 258

    def test_warm_start_duplicates_and_out_of_range(self):
        # Duplicates and out-of-range nodes are dropped before completion,
        # so the dirty warm start is *identical* to its cleaned form —
        # including evaluations (the old accounting charged
        # n * (k - len(set(warm_start))), which disagreed with the
        # filtered list whenever the seeds needed cleaning).
        p = random_placement(12, 3, 40, 0)
        clean = LocalSearchAdversary(restarts=0, seed=0).attack(
            p, 4, 2, warm_start=(0, 1)
        )
        dirty = LocalSearchAdversary(restarts=0, seed=0).attack(
            p, 4, 2, warm_start=(0, 0, 99, 1)
        )
        assert dirty == clean
        assert clean.evaluations == 205

    def test_warm_start_longer_than_k_truncated(self):
        p = random_placement(10, 3, 30, 1)
        full = LocalSearchAdversary(restarts=0, seed=0).attack(
            p, 2, 2, warm_start=(5, 3, 8, 1, 2)
        )
        truncated = LocalSearchAdversary(restarts=0, seed=0).attack(
            p, 2, 2, warm_start=(5, 3)
        )
        assert full == truncated


class TestResultsUnchangedVersusPR1:
    """best_attack results (nodes, damage, exact) for fixed seeds are
    bit-for-bit what PR 1's full-scan engines produced — the gain-table
    rewrite changed the cost of the search, never its trajectory. The
    literals below were captured by running PR 1's code."""

    PINNED = {
        ("random-20-3-120", 3, 2): ((3, 8, 19), 12),
        ("random-20-3-120", 5, 2): ((0, 1, 13, 16, 19), 26),
        ("random-20-3-120", 4, 3): ((0, 1, 2, 6), 4),
        ("random-31-3-600", 3, 2): ((7, 17, 21), 24),
        ("random-31-3-600", 5, 2): ((0, 2, 7, 17, 21), 59),
        ("random-31-3-600", 4, 3): ((10, 12, 15, 30), 5),
        ("simple-13-3-26", 3, 2): ((0, 1, 2), 3),
        ("simple-13-3-26", 5, 2): ((0, 1, 2, 3, 8), 10),
        ("simple-13-3-26", 4, 3): ((0, 1, 2, 6), 1),
    }

    @staticmethod
    def _placements():
        from repro.core.simple import SimpleStrategy

        return {
            "random-20-3-120": random_placement(20, 3, 120, 7),
            "random-31-3-600": random_placement(31, 3, 600, 42),
            "simple-13-3-26": SimpleStrategy(13, 3, 1).place(26),
        }

    def test_fast_effort_results_pinned(self, each_backing):
        placements = self._placements()
        for (label, k, s), (nodes, dmg) in self.PINNED.items():
            result = best_attack(placements[label], k, s, effort="fast")
            assert (tuple(result.nodes), result.damage) == (nodes, dmg), (
                each_backing, label, k, s, result,
            )

    def test_exact_effort_damage_unchanged(self, each_backing):
        # Tighter pruning (refined_bound) may change how much of the tree
        # branch-and-bound visits, but never the optimum it certifies.
        p = random_placement(10, 3, 30, 3)
        result = best_attack(p, 3, 2, effort="exact")
        assert result.exact
        assert result.damage == ExhaustiveAdversary().attack(p, 3, 2).damage


class TestAblationLadder:
    """The adversary ladder on the recorded ablation scenarios.

    Simulation figures attack with local search, not the exact search;
    these instances are where that substitution was measured. The
    damages must equal ``benchmarks/output/ablation_adversary.txt``
    (its timing columns aside), order the ladder greedy <= local <=
    branch and bound == exhaustive, and keep local search within 90%
    of the optimum.
    """

    REFERENCE = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "output" / "ablation_adversary.txt"
    )

    SCENARIOS = (
        ("Random n=31 b=600", lambda: random_placement(31, 5, 600, 1), 4, 3),
        ("Random n=31 b=600", lambda: random_placement(31, 5, 600, 2), 3, 2),
        ("Simple n=31 b=600", lambda: SimpleStrategy(31, 3, 1).place(600), 4, 2),
        ("Random n=20 b=300", lambda: random_placement(20, 3, 300, 3), 4, 2),
    )

    def test_ladder_matches_recorded_ablation(self):
        rows = []
        for name, build, k, s in self.SCENARIOS:
            placement = build()
            greedy = GreedyAdversary().attack(placement, k, s)
            local = LocalSearchAdversary(restarts=4).attack(placement, k, s)
            bnb = BranchAndBoundAdversary().attack(placement, k, s)
            exhaustive = ExhaustiveAdversary(max_subsets=5_000_000).attack(
                placement, k, s
            )
            assert bnb.exact
            assert bnb.damage == exhaustive.damage
            assert greedy.damage <= local.damage <= bnb.damage
            assert local.damage >= 0.9 * bnb.damage
            rows.append(name.split() + [
                str(value) for value in (
                    k, s, greedy.damage, local.damage, bnb.damage,
                    exhaustive.damage,
                )
            ])
        lines = self.REFERENCE.read_text(encoding="utf-8").splitlines()
        # Title, header and rule, then one row per scenario; the last two
        # columns are timings.
        assert [line.split()[:-2] for line in lines[3:]] == rows


class TestBudgetDegradation:
    def test_budget_exhaustion_flags_inexact(self):
        p = random_placement(20, 3, 60, 4)
        result = BranchAndBoundAdversary(max_nodes=2).attack(p, 4, 2)
        assert not result.exact
        # Still a valid attack with consistent accounting.
        assert damage(p, result.nodes, 2) == result.damage


class TestBestAttack:
    def test_effort_fast(self):
        p = random_placement(15, 3, 30, 6)
        result = best_attack(p, 3, 2, effort="fast")
        assert isinstance(result, AttackResult)

    def test_effort_exact_small(self):
        p = random_placement(9, 3, 20, 7)
        result = best_attack(p, 3, 2, effort="exact")
        assert result.exact

    def test_effort_auto_picks_exact_on_small(self):
        p = random_placement(9, 3, 20, 8)
        result = best_attack(p, 2, 2, effort="auto")
        assert result.exact

    def test_unknown_effort_rejected(self):
        p = random_placement(9, 3, 20, 9)
        with pytest.raises(ValueError):
            best_attack(p, 2, 2, effort="extreme")

    def test_availability_helper(self):
        p = random_placement(9, 3, 20, 10)
        result = best_attack(p, 2, 2, effort="exact")
        assert result.availability(20) == 20 - result.damage
