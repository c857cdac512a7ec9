"""Tests for cyclic difference families and their developed designs."""

import pytest

from repro.designs import catalog, difference_family
from repro.designs.blocks import DesignError
from repro.designs.difference_family import (
    _BASE_BLOCKS,
    cyclic_2design,
    develop_difference_family,
    difference_family_admissible,
    difference_family_constructible,
    find_difference_family,
)


class TestAdmissibility:
    def test_divisibility_rule(self):
        assert difference_family_admissible(13, 4)  # 12 | 12
        assert difference_family_admissible(25, 4)  # 12 | 24
        assert not difference_family_admissible(16, 4)  # 12 does not divide 15
        assert difference_family_admissible(41, 5)  # 20 | 40
        assert not difference_family_admissible(26, 5)
        assert not difference_family_admissible(4, 5)  # v <= r


class TestSearch:
    @pytest.mark.parametrize(
        "v,r,expected_blocks",
        [(7, 3, 1), (13, 4, 1), (21, 5, 1), (37, 4, 3), (41, 5, 2), (49, 4, 4)],
    )
    def test_known_families_found(self, v, r, expected_blocks):
        family = find_difference_family(v, r)
        assert family is not None
        assert len(family) == expected_blocks
        # Differences cover Z_v \ {0} exactly once.
        seen = set()
        for block in family:
            for a in block:
                for b in block:
                    if a != b:
                        d = (a - b) % v
                        assert d not in seen
                        seen.add(d)
        assert seen == set(range(1, v))

    def test_inadmissible_returns_none(self):
        assert find_difference_family(16, 4) is None

    def test_no_family_within_normalization(self):
        # v = 25 is composite; the unit-rooted search finds nothing (and no
        # cyclic 2-(25,4,1) design exists over Z_25 in any case).
        assert find_difference_family(25, 4) is None


class TestDevelopment:
    @pytest.mark.parametrize("v,r", [(7, 3), (13, 4), (37, 4), (41, 5)])
    def test_developed_design_is_2_design(self, v, r):
        design = cyclic_2design(v, r)
        assert design.v == v
        assert design.block_size == r
        assert design.num_blocks == v * (v - 1) // (r * (r - 1))
        assert design.is_design(2, 1)

    def test_cyclic_invariance(self):
        design = cyclic_2design(13, 4)
        blocks = set(design.blocks)
        shifted = {
            tuple(sorted((p + 1) % 13 for p in block)) for block in blocks
        }
        assert shifted == blocks

    def test_develop_rejects_empty(self):
        with pytest.raises(DesignError):
            develop_difference_family(7, ())

    def test_unfindable_raises(self):
        with pytest.raises(DesignError):
            cyclic_2design(25, 4)

    def test_constructible_probe(self):
        assert difference_family_constructible(37, 4)
        assert not difference_family_constructible(25, 4)


def _regenerated_table():
    return {
        (v, r): find_difference_family(v, r)
        for r in (4, 5)
        for v in range(r + 1, catalog._DIFFERENCE_FAMILY_LIMIT + 1)
        if difference_family_admissible(v, r)
    }


def _clear_design_caches():
    catalog.existence.cache_clear()
    catalog._build_nontrivial.cache_clear()
    cyclic_2design.cache_clear()


class TestTable:
    def test_table_matches_search(self):
        regenerated = _regenerated_table()
        listing = "\n".join(
            f"    {key!r}: {family!r}," for key, family in regenerated.items()
        )
        assert _BASE_BLOCKS == regenerated, (
            "difference-family table is stale; regenerated entries:\n" + listing
        )
        assert _BASE_BLOCKS[(25, 4)] is None

    def test_catalog_probes_never_search(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("catalog ran the difference-family search")

        monkeypatch.setattr(difference_family, "find_difference_family", no_search)
        _clear_design_caches()
        try:
            for r in (4, 5):
                for v in range(r + 1, catalog._DIFFERENCE_FAMILY_LIMIT + 1):
                    if catalog.existence(v, r, 2) == catalog.Existence.CONSTRUCTIBLE:
                        assert catalog.build(v, r, 2).is_design(2, 1)
        finally:
            _clear_design_caches()

    def test_corrupt_entry_rejected_on_load(self, monkeypatch):
        good = _BASE_BLOCKS[(37, 4)]
        corrupt = good[:-1] + (good[-1][:-1] + (good[-1][-1] + 1,),)
        monkeypatch.setitem(_BASE_BLOCKS, (37, 4), corrupt)
        _clear_design_caches()
        try:
            with pytest.raises(DesignError, match="not a 2-\\(37,4,1\\) design"):
                catalog.build(37, 4, 2)
        finally:
            _clear_design_caches()


class TestCatalogIntegration:
    def test_new_constructible_orders(self):
        from repro.designs.catalog import Existence, build, existence

        for v, r in [(37, 4), (49, 4), (61, 4), (41, 5), (61, 5)]:
            assert existence(v, r, 2) == Existence.CONSTRUCTIBLE, (v, r)
            design = build(v, r, 2)
            assert design.is_design(2, 1)

    def test_beyond_probe_limit_stays_known(self):
        from repro.designs.catalog import Existence, existence

        # 73 = 1 mod 12 exists (Hanani) but the probe limit excludes it.
        assert existence(73, 4, 2) == Existence.KNOWN
