"""Tests for the Placement value type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import Placement, PlacementError


def make(n, sets, strategy=""):
    return Placement.from_replica_sets(n, sets, strategy=strategy)


class TestConstruction:
    def test_basic(self):
        p = make(5, [(0, 1, 2), (2, 3, 4)])
        assert p.b == 2
        assert p.r == 3
        assert p.n == 5

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(PlacementError):
            make(5, [(0, 0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PlacementError):
            make(3, [(0, 1, 3)])

    def test_rejects_mixed_r(self):
        with pytest.raises(PlacementError):
            make(5, [(0, 1, 2), (3, 4)])

    def test_rejects_empty(self):
        with pytest.raises(PlacementError):
            make(5, [])


class TestQueries:
    def test_loads(self):
        p = make(4, [(0, 1), (0, 2), (0, 3)])
        assert p.loads() == [3, 1, 1, 1]
        assert p.max_load() == 3

    def test_failed_objects_threshold(self):
        p = make(5, [(0, 1, 2), (2, 3, 4), (0, 3, 4)])
        assert p.failed_objects([0, 1], s=2) == [0]
        assert p.failed_objects([0, 1], s=1) == [0, 2]


class TestCombinators:
    def test_concatenated_with(self):
        a = make(5, [(0, 1)], strategy="A")
        b = make(5, [(2, 3)], strategy="B")
        both = a.concatenated_with(b)
        assert both.b == 2
        assert both.strategy == "A+B"

    def test_concatenate_mismatched_rejected(self):
        a = make(5, [(0, 1)])
        with pytest.raises(PlacementError):
            a.concatenated_with(make(6, [(0, 1)]))
        with pytest.raises(PlacementError):
            a.concatenated_with(make(5, [(0, 1, 2)]))


class TestSerialization:
    @settings(max_examples=25)
    @given(st.integers(4, 10), st.integers(1, 8), st.data())
    def test_roundtrip(self, n, b, data):
        r = data.draw(st.integers(1, min(3, n)))
        sets = [
            data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=r, max_size=r, unique=True
                )
            )
            for _ in range(b)
        ]
        p = make(n, sets, strategy="prop")
        again = Placement.from_dict(p.to_dict())
        assert again == p


class TestArrayCore:
    """The compact (b, r) array backing and its trusted fast paths."""

    def test_from_arrays_matches_from_replica_sets(self):
        sets = [(2, 0, 4), (1, 3, 2), (0, 1, 2)]
        via_sets = Placement.from_replica_sets(5, sets, strategy="x")
        via_rows = Placement.from_arrays(5, sets, strategy="x")
        assert via_rows == via_sets
        assert via_rows.fingerprint() == via_sets.fingerprint()

    def test_rows_are_sorted_canonical(self):
        p = Placement.from_arrays(6, [(5, 0, 3), (4, 2, 1)])
        flat = list(p.replica_array())
        assert flat == [0, 3, 5, 1, 2, 4]
        assert p.replica_sets == (frozenset({0, 3, 5}), frozenset({1, 2, 4}))

    def test_from_arrays_flat_requires_r(self):
        from array import array

        with pytest.raises(PlacementError):
            Placement.from_arrays(5, array("i", [0, 1, 2, 3]))
        p = Placement.from_arrays(5, array("i", [1, 0, 3, 2]), r=2)
        assert p.b == 2 and p.r == 2
        assert list(p.replica_array()) == [0, 1, 2, 3]

    def test_from_arrays_validates(self):
        with pytest.raises(PlacementError):
            Placement.from_arrays(5, [(0, 0, 1)])
        with pytest.raises(PlacementError):
            Placement.from_arrays(3, [(0, 1, 3)])
        with pytest.raises(PlacementError):
            Placement.from_arrays(3, [(-1, 1, 2)])

    def test_trusted_path_skips_validation(self):
        from array import array

        rows = array("i", [0, 1, 1, 2])  # duplicate in row 1: trusted anyway
        p = Placement.from_arrays(4, rows, r=2, validate=False)
        assert p.b == 2  # constructed without complaint (caller's contract)

    def test_node_csr_matches_replica_sets(self):
        p = make(6, [(0, 1, 2), (3, 4, 5), (0, 3, 5), (1, 3, 4)])
        node_off, node_objs = p.node_csr()
        for node in range(6):
            segment = list(node_objs[node_off[node]:node_off[node + 1]])
            assert segment == [
                obj_id for obj_id, nodes in enumerate(p.replica_sets)
                if node in nodes
            ]

    def test_load_array_matches_profile(self):
        p = make(4, [(0, 1), (0, 2), (0, 3)])
        assert list(p.load_array()) == [3, 1, 1, 1]
        assert p.load_profile() == (3, 1, 1, 1)

    def test_fingerprint_ignores_strategy(self):
        a = make(5, [(0, 1), (2, 3)], strategy="A")
        b = make(5, [(0, 1), (2, 3)], strategy="B")
        assert a.fingerprint() == b.fingerprint()
        assert a != b  # equality still sees the label

    def test_pickle_roundtrip(self):
        import pickle

        p = make(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6)], strategy="pkl")
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert q.fingerprint() == p.fingerprint()
        assert q.replica_sets == p.replica_sets

    def test_relabeled_shares_structure(self):
        p = make(5, [(0, 1), (2, 3)], strategy="A")
        q = p.relabeled("B")
        assert q.strategy == "B"
        assert q.fingerprint() == p.fingerprint()
        assert q.replica_array() is p.replica_array()

    def test_failed_objects_brute_force_equivalence(self):
        p = make(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 3, 5)])
        for failed in ([], [0], [0, 3], [1, 2, 4, 6], list(range(7))):
            failed_set = frozenset(failed)
            for s in (1, 2, 3):
                expect_failed = [
                    i for i, nodes in enumerate(p.replica_sets)
                    if len(nodes & failed_set) >= s
                ]
                assert p.failed_objects(failed, s) == expect_failed

    def test_failed_objects_ignores_out_of_range_nodes(self):
        p = make(4, [(0, 1), (2, 3)])
        assert p.failed_objects([0, 1, 9, -2], 2) == [0]
        assert p.failed_objects([9], 1) == []

    def test_concatenated_stays_canonical(self):
        p = make(5, [(4, 3), (4, 0)])
        both = p.concatenated_with(make(5, [(2, 1)]))
        assert both.b == 3
        assert list(both.replica_array()) == [3, 4, 0, 4, 1, 2]
