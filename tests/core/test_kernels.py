"""Property tests: every gain backing agrees with independent oracles.

The native / numpy / python gain backings implement one contract; these
tests drive them with hypothesis-generated random placements and assert
they agree with each other and with oracles that share no code with the
gain table: the reference ``damage()`` function for damage evaluation, a
brute-force argmax over ``damage()`` for ``best_addition``, and
enumerated completions for branch-and-bound bounds. The python backing,
which runs the generic ``try_swap``/``polish_pass``/``polish_chain``
loops, is the oracle for the fused native search entries.
"""

import ctypes
import gc
import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.adversary import LocalSearchAdversary, damage
from repro.core.kernels import (
    GAIN_BACKINGS,
    Incidence,
    make_kernel,
    numpy_available,
    resolve_gain_backing,
)
from repro.core.random_placement import RandomStrategy


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if (backing != "numpy" or numpy_available())
        and (backing != "native" or native.available())
    ]


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


def kernels_for(placement, s):
    incidence = Incidence(placement)
    return [
        make_kernel(placement, s, incidence=incidence, gain_backing=backing)
        for backing in available_gain_backings()
    ]


def brute_best_addition(placement, base, banned, s):
    """(node, damage) of the best single addition; lowest id on ties."""
    best_node, best_damage = -1, -1
    for node in range(placement.n):
        if node in banned:
            continue
        value = damage(placement, list(base) + [node], s)
        if value > best_damage:
            best_node, best_damage = node, value
    return best_node, best_damage


placements = st.builds(
    random_placement,
    n=st.integers(5, 14),
    r=st.integers(2, 4),
    b=st.integers(1, 40),
    seed=st.integers(0, 10_000),
).filter(lambda p: p.r <= p.n)


class TestDamageAgreement:
    @settings(max_examples=40, deadline=None)
    @given(placements, st.data())
    def test_damage_matches_legacy_oracle(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, placement.n - 1))
        nodes = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:k])
        )
        expected = damage(placement, nodes, s)
        for kernel in kernels_for(placement, s):
            assert kernel.damage_for(nodes) == expected, kernel.backing

    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_incremental_add_remove_roundtrip(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=8)
        )
        for kernel in kernels_for(placement, s):
            hits = kernel.empty_hits()
            active = []
            for node in moves:
                if node in active:
                    hits = kernel.remove_node(hits, node)
                    active.remove(node)
                else:
                    hits = kernel.add_node(hits, node)
                    active.append(node)
                assert kernel.damage_of(hits) == damage(placement, active, s), (
                    kernel.backing
                )


class TestBestAddition:
    @settings(max_examples=30, deadline=None)
    @given(placements, st.data())
    def test_backends_agree_exactly(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        base_size = data.draw(st.integers(0, min(4, placement.n - 2)))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        expected = brute_best_addition(placement, base, base, s)
        for kernel in kernels_for(placement, s):
            hits = kernel.hits_for(base)
            assert kernel.best_addition(hits, base) == expected, kernel.backing

    @settings(max_examples=30, deadline=None)
    @given(placements, st.data())
    def test_best_addition_is_truly_best(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        base_size = data.draw(st.integers(0, min(3, placement.n - 2)))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        kernel = make_kernel(placement, s, gain_backing="python")
        hits = kernel.hits_for(base)
        node, best = kernel.best_addition(hits, banned=base)
        assert node not in base
        assert best == damage(placement, base + [node], s)
        for candidate in range(placement.n):
            if candidate in base:
                continue
            assert damage(placement, base + [candidate], s) <= best


class TestOptimisticBound:
    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_bound_sound_and_backend_independent(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        n = placement.n
        start = data.draw(st.integers(0, n))
        slots = data.draw(st.integers(1, 3))
        base_size = data.draw(st.integers(0, 2))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        bounds = []
        for kernel in kernels_for(placement, s):
            hits = kernel.hits_for(base)
            bounds.append(kernel.optimistic_bound(hits, start, slots))
        assert len(set(bounds)) == 1, dict(zip(available_gain_backings(), bounds))
        # Soundness: no completion from nodes >= start can beat the bound.
        completions = [
            nodes
            for count in range(min(slots, n - start) + 1)
            for nodes in itertools.combinations(range(start, n), count)
        ]
        best_completion = max(
            damage(placement, list(base) + list(extra), s) for extra in completions
        )
        assert bounds[0] >= best_completion


class TestGainBackings:
    """Every gain backing agrees bit-for-bit with the oracles under
    interleaved add/remove/swap sequences — same damages, same
    best_addition outcomes (tie-breaks included), same bounds, and bulk
    rebuilds indistinguishable from replayed incremental updates."""

    @staticmethod
    def _gain_kernels(placement, s, incidence):
        return {
            backing: make_kernel(
                placement, s, incidence=incidence, gain_backing=backing,
            )
            for backing in available_gain_backings()
        }

    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_interleaved_sequences_bit_for_bit(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=10)
        )
        kernels = self._gain_kernels(placement, s, Incidence(placement))
        states = {name: kernel.empty_hits() for name, kernel in kernels.items()}
        active = []
        for node in moves:
            if node in active:
                active.remove(node)
                for name, kernel in kernels.items():
                    states[name] = kernel.remove_node(states[name], node)
            else:
                active.append(node)
                for name, kernel in kernels.items():
                    states[name] = kernel.add_node(states[name], node)
            expected_damage = damage(placement, active, s)
            expected_best = brute_best_addition(placement, active, active, s)
            for name, kernel in kernels.items():
                assert kernel.damage_of(states[name]) == expected_damage, name
                assert kernel.best_addition(states[name], active) == expected_best, name
        # Bulk rebuilds must be indistinguishable from the incremental path.
        for name, kernel in kernels.items():
            bulk = kernel.hits_for(active)
            assert kernel.damage_of(bulk) == expected_damage, name
            assert kernel.best_addition(bulk, active) == expected_best, name

    @settings(max_examples=20, deadline=None)
    @given(placements, st.data())
    def test_swap_positions_match_full_scan(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, min(4, placement.n - 1)))
        seed_nodes = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:k])
        )
        incidence = Incidence(placement)
        oracle = make_kernel(
            placement, s, incidence=incidence, gain_backing="python"
        )
        oracle_hits = oracle.hits_for(seed_nodes)
        current = oracle.damage_of(oracle_hits)
        banned = set(seed_nodes) - {seed_nodes[0]}
        _, expected_swap, expected_damage = oracle.try_swap(
            oracle_hits, seed_nodes[0], banned, current
        )
        expected_pass_nodes = list(seed_nodes)
        pass_hits = oracle.hits_for(seed_nodes)
        _, expected_pass_damage, expected_improved = oracle.polish_pass(
            pass_hits, expected_pass_nodes, current
        )
        # Chain batches: the python oracle runs the generic per-chain
        # loop that the native backing fuses into one foreign call.
        rng = random.Random(len(seed_nodes) * 1000 + s)
        seeds = [seed_nodes] + [
            rng.sample(range(placement.n), k) for _ in range(3)
        ]
        expected_chains = oracle.polish_chains(seeds)
        warm = seed_nodes[:1]
        expected_attacks = [
            LocalSearchAdversary(restarts=restarts, seed=5).attack(
                placement, k, s, kernel=oracle, warm_start=warm_start
            )
            for restarts in (0, 2)
            for warm_start in (None, warm)
        ]
        for backing, kernel in self._gain_kernels(placement, s, incidence).items():
            hits = kernel.hits_for(seed_nodes)
            _, swapped, dmg = kernel.try_swap(
                hits, seed_nodes[0], set(seed_nodes) - {seed_nodes[0]}, current
            )
            assert (swapped, dmg) == (expected_swap, expected_damage), backing
            nodes = list(seed_nodes)
            hits = kernel.hits_for(seed_nodes)
            _, pass_damage, improved = kernel.polish_pass(hits, nodes, current)
            assert nodes == expected_pass_nodes, backing
            assert (pass_damage, improved) == (
                expected_pass_damage, expected_improved,
            ), backing
            # A chain batch never touches the kernel's own packed state
            # or any hits object the caller holds.
            live = kernel.hits_for(seed_nodes)
            empty_before = kernel.export_state(kernel.empty_hits())
            live_before = kernel.export_state(live)
            assert kernel.polish_chains(seeds) == expected_chains, backing
            assert kernel.export_state(kernel.empty_hits()) == empty_before
            assert kernel.export_state(live) == live_before, backing
            # warm_start and restarts=0 edges of the batched search.
            assert [
                LocalSearchAdversary(restarts=restarts, seed=5).attack(
                    placement, k, s, kernel=kernel, warm_start=warm_start
                )
                for restarts in (0, 2)
                for warm_start in (None, warm)
            ] == expected_attacks, backing
            if backing == "native" and placement.n > k:
                with pytest.raises(ValueError):
                    kernel.polish_chains([seed_nodes, seed_nodes + [
                        next(v for v in range(placement.n)
                             if v not in seed_nodes)
                    ]])

    @settings(max_examples=15, deadline=None)
    @given(placements, st.data())
    def test_refined_bound_sound_and_at_most_optimistic(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        n = placement.n
        start = data.draw(st.integers(0, n))
        slots = data.draw(st.integers(1, 3))
        base_size = data.draw(st.integers(0, 2))
        base = data.draw(
            st.permutations(range(n)).map(lambda p: list(p)[:base_size])
        )
        best_completion = max(
            damage(placement, list(base) + list(extra), s)
            for count in range(min(slots, n - start) + 1)
            for extra in itertools.combinations(range(start, n), count)
        )
        for kernel in kernels_for(placement, s):
            name = kernel.backing
            hits = kernel.hits_for(base)
            refined = kernel.refined_bound(hits, start, slots)
            assert refined <= kernel.optimistic_bound(hits, start, slots), name
            assert refined >= best_completion, (name, refined, best_completion)

    def test_backing_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        assert resolve_gain_backing() == "python"
        placement = random_placement(8, 3, 12, 0)
        assert make_kernel(placement, 2).backing == "python"
        monkeypatch.setenv("REPRO_GAIN_BACKING", "warp-drive")
        with pytest.raises(ValueError):
            resolve_gain_backing()

    def test_explicit_backing_argument_wins(self):
        placement = random_placement(8, 3, 12, 0)
        for backing in available_gain_backings():
            kernel = make_kernel(placement, 2, gain_backing=backing)
            assert kernel.name == "gain"
            assert kernel.backing == backing
            if backing == "native":
                # The library records how it was built; it is serial.
                info = native.compile_info()
                assert info is not None and info["compiler"]
                assert any(f in info["flags"] for f in ("-O3", "-O2"))
                assert "-pthread" not in info["flags"]

    def test_auto_backing_is_dependency_free(self):
        # Whatever auto resolves to must be importable here and now.
        assert resolve_gain_backing() in GAIN_BACKINGS

    def test_unavailable_backing_rejected(self, monkeypatch, tmp_path):
        if not native.available():  # pragma: no cover - compiler-less envs
            with pytest.raises(ValueError):
                resolve_gain_backing("native")
        if not numpy_available():  # pragma: no cover - no-numpy CI leg
            with pytest.raises(ValueError):
                resolve_gain_backing("numpy")
        # A failing compiler makes the native rung unavailable, not fatal.
        saved = (
            native._lib, native._load_attempted, native._load_error,
            native._compile_info,
        )
        native._lib = None
        native._load_attempted = False
        native._load_error = None
        native._compile_info = None
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CC", "/bin/false")
        try:
            assert not native.available()
            assert native.compile_info() is None
            assert native.load_error() is not None
            with pytest.raises(ValueError):
                resolve_gain_backing("native")
        finally:
            (
                native._lib, native._load_attempted, native._load_error,
                native._compile_info,
            ) = saved


class TestSelection:
    def test_auto_is_dependency_free(self):
        # Whatever auto resolves to must be constructible here and now.
        placement = random_placement(6, 2, 6, 1)
        kernel = make_kernel(placement, 1)
        assert kernel.backing in available_gain_backings()
        assert kernel.damage_for([0]) == damage(placement, [0], 1)

    def test_s_validated(self):
        placement = random_placement(8, 3, 12, 2)
        with pytest.raises(ValueError):
            make_kernel(placement, 0)
        with pytest.raises(ValueError):
            make_kernel(placement, placement.r + 1)

    def test_incidence_shared_across_thresholds(self):
        placement = random_placement(8, 3, 12, 3)
        incidence = Incidence(placement)
        k1 = make_kernel(placement, 1, incidence=incidence, gain_backing="python")
        k2 = make_kernel(placement, 2, incidence=incidence, gain_backing="python")
        assert k1.incidence is k2.incidence
        assert k1.node_objects is k2.node_objects
        other = random_placement(8, 3, 12, 4)
        with pytest.raises(ValueError):
            make_kernel(other, 1, incidence=incidence)


def cyclic_buffers(work):
    """Run ``work`` and return the buffers and buffer views it left in
    reference cycles (ctypes array types are cyclic by nature; skipped)."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        gc.collect()
        return [obj for obj in gc.garbage
                if isinstance(obj, (ctypes.Array, memoryview, array))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestNativeBufferViews:
    """The views handed to native code form no reference cycles, so a
    viewed buffer is freed as soon as its last user lets go of it rather
    than whenever the cyclic collector next runs."""

    def test_views_are_not_cyclic(self):
        def work():
            views = [native.i32_ptr(array("i", range(5))),
                     native.i64_ptr(array("q", range(5)))]
            for view in views:
                assert [view[i] for i in range(5)] == list(range(5))

        assert cyclic_buffers(work) == []

    @pytest.mark.skipif(not native.available(), reason="needs the native backing")
    def test_native_search_leaves_no_cyclic_buffers(self):
        placement = random_placement(31, 3, 300, 5)

        def work():
            kernel = make_kernel(placement, 2, gain_backing="native")
            LocalSearchAdversary().attack(placement, 4, 2, kernel=kernel)

        assert cyclic_buffers(work) == []
