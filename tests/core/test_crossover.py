"""The pure-Python and numpy bulk branches agree bit for bit.

Placement bulk passes and design-row gathers take numpy only from
``lazynumpy.BULK_MIN_B`` objects up. Moving that crossover below every
drawn size (numpy always) and above it (numpy never) must give identical
buffers and identical errors.
"""

import random
from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import placement as placement_module
from repro.core.placement import Placement, PlacementError
from repro.designs.packing import shuffled_design_rows
from repro.designs.steiner_triple import steiner_triple_system
from repro.util import lazynumpy

pytestmark = pytest.mark.skipif(not lazynumpy.installed(), reason="needs numpy")

#: Crossovers forcing each branch: 0 takes numpy at any size, the other
#: exceeds every drawn b.
NUMPY, PURE = 0, 1 << 40

#: Node-id offsets that put n in each width of the numpy CSR's sort key:
#: uint8 (n <= 256), uint16 (n <= 65,536) and uint32. The high ids sit
#: just past the narrower width's wrap, so a too-narrow key would alias
#: them onto the low ids.
KEY_WIDTH_OFFSETS = (0, 260, 65_540)


@contextmanager
def crossover(value):
    saved = lazynumpy.BULK_MIN_B
    lazynumpy.BULK_MIN_B = value
    try:
        yield
    finally:
        lazynumpy.BULK_MIN_B = saved


def on_both(compute):
    """``compute()`` under the numpy and the pure branch, in that order."""
    results = []
    for value in (NUMPY, PURE):
        with crossover(value):
            results.append(compute())
    return results


def outcome(compute):
    """A result, or the error type and message it raised."""
    try:
        return compute()
    except (PlacementError, IndexError) as exc:
        return type(exc), str(exc)


@st.composite
def valid_placements(draw):
    """Rows over the lowest and the highest ``m`` ids of ``n`` nodes."""
    m = draw(st.integers(1, 12))
    n = m + draw(st.sampled_from(KEY_WIDTH_OFFSETS))
    r = draw(st.integers(1, min(4, m)))
    b = draw(st.integers(1, 40))
    nodes = st.integers(0, m - 1) | st.integers(n - m, n - 1)
    rows = [
        draw(st.lists(nodes, min_size=r, max_size=r, unique=True))
        for _ in range(b)
    ]
    return n, r, rows


def csr_bytes(n, rows):
    placement = Placement.from_arrays(n, rows, validate=False)
    node_off, node_objs = placement.node_csr()
    return (
        placement.load_array().tobytes(),
        node_off.tobytes(),
        node_objs.tobytes(),
    )


@st.composite
def raw_rows(draw):
    """Flat rows that may be unsorted, repeat nodes or leave ``[0, n)``."""
    n = draw(st.integers(1, 10))
    r = draw(st.integers(1, 4))
    b = draw(st.integers(1, 30))
    flat = draw(st.lists(st.integers(-2, n + 1), min_size=b * r,
                         max_size=b * r))
    return n, r, flat


class TestPlacementBulkBranches:
    @settings(max_examples=150, deadline=None)
    @given(raw_rows())
    def test_sort_and_validate(self, case):
        n, r, flat = case

        def build():
            placement = Placement.from_arrays(n, array("i", flat), r=r)
            return placement.replica_array().tobytes()

        numpy_side, pure_side = on_both(lambda: outcome(build))
        assert numpy_side == pure_side

    @settings(max_examples=100, deadline=None)
    @given(valid_placements())
    def test_loads_and_csr(self, case):
        n, r, rows = case
        numpy_side, pure_side = on_both(lambda: csr_bytes(n, rows))
        assert numpy_side == pure_side

    @settings(max_examples=60, deadline=None)
    @given(valid_placements(), st.integers(1, 9))
    def test_csr_across_chunks(self, case, chunk):
        # Chunks of a few entries: every node's run spans several chunks,
        # so the cursors carried between chunks decide each position.
        n, r, rows = case
        with mock.patch.object(placement_module, "_CSR_CHUNK", chunk):
            numpy_side, pure_side = on_both(lambda: csr_bytes(n, rows))
        assert numpy_side == pure_side

    @pytest.mark.parametrize("n", [200, 5_000, 100_000])
    def test_csr_every_key_width_in_1001_entry_chunks(self, n):
        rng = random.Random(n)
        rows = [sorted(rng.sample(range(n), 3)) for _ in range(2_000)]
        with mock.patch.object(placement_module, "_CSR_CHUNK", 1001):
            numpy_side, pure_side = on_both(lambda: csr_bytes(n, rows))
        assert numpy_side == pure_side

    @settings(max_examples=100, deadline=None)
    @given(valid_placements(), st.data())
    def test_failure_queries(self, case, data):
        n, r, rows = case
        failed = data.draw(st.lists(st.integers(-1, n), max_size=12))
        s = data.draw(st.integers(1, r))

        def query():
            placement = Placement.from_arrays(n, rows, validate=False)
            return placement.failed_objects(failed, s)

        numpy_side, pure_side = on_both(query)
        assert numpy_side == pure_side


class TestDesignRowBranches:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([7, 9, 13]), st.integers(0, 120),
           st.integers(0, 2**31))
    def test_shuffled_design_rows(self, v, num_blocks, seed):
        design = steiner_triple_system(v)
        numpy_side, pure_side = on_both(
            lambda: shuffled_design_rows(design, num_blocks, seed=seed)
        )
        assert numpy_side == pure_side
        assert len(pure_side) == num_blocks * design.block_size
