"""The affine line generator emits blocks in resolution order.

``affine_geometry_design`` enumerates lines direction by direction, and
each direction's lines partition the point set — so consecutive runs of
``q^{d-1}`` blocks are parallel classes. Placements that consume these
blocks in order therefore keep per-node load perfectly uniform at every
class boundary, the strongest version of the paper's Observation-2
load-balance remark. This test pins that ordering contract.
"""

import pytest

from repro.designs.affine import affine_geometry_design


@pytest.mark.parametrize("d,q", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_affine_blocks_grouped_by_parallel_class(d, q):
    design = affine_geometry_design(d, q)
    class_size = q ** (d - 1)
    assert design.num_blocks % class_size == 0
    for start in range(0, design.num_blocks, class_size):
        points = sorted(
            point
            for block in design.blocks[start : start + class_size]
            for point in block
        )
        assert points == list(range(design.v)), f"class at block {start}"


def test_prefix_loads_uniform_at_class_boundaries():
    design = affine_geometry_design(2, 4)
    class_size = 4
    for boundary in range(class_size, design.num_blocks + 1, class_size):
        loads = [0] * design.v
        for block in design.blocks[:boundary]:
            for point in block:
                loads[point] += 1
        assert len(set(loads)) == 1, f"unbalanced at boundary {boundary}"
