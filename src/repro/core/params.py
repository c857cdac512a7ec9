"""System parameters (the paper's Fig. 1 notation).

=====  ==========================================================
``b``  number of objects
``r``  replicas per object
``s``  replica failures that disable an object, ``1 <= s <= r``
``n``  number of nodes
``k``  number of failed nodes, ``s <= k < n``
=====  ==========================================================
"""

from __future__ import annotations


def majority_threshold(r: int) -> int:
    """The ``s`` for majority-quorum objects: dead once a majority cannot form.

    An object accessed via majority quorums survives while more than half of
    its replicas are alive, i.e. dies when ``ceil(r / 2)`` replicas fail.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return (r + 1) // 2
