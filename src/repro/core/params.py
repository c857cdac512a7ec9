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

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """A validated (n, b, r, s, k) parameter tuple.

    The constraints are the paper's: each object's replicas live on distinct
    nodes (``r <= n``), an object dies when ``s`` of its ``r`` replicas die
    (``1 <= s <= r``), and the adversary fails ``s <= k < n`` nodes (fewer
    than ``s`` failures cannot disable anything; failing all nodes is not a
    placement question).
    """

    n: int
    b: int
    r: int
    s: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        if self.b < 1:
            raise ValueError(f"need at least one object, got b={self.b}")
        if not 1 <= self.r <= self.n:
            raise ValueError(
                f"replicas per object must satisfy 1 <= r <= n, "
                f"got r={self.r}, n={self.n}"
            )
        if not 1 <= self.s <= self.r:
            raise ValueError(
                f"fatality threshold must satisfy 1 <= s <= r, "
                f"got s={self.s}, r={self.r}"
            )
        if not self.s <= self.k < self.n:
            raise ValueError(
                f"failed nodes must satisfy s <= k < n, "
                f"got s={self.s}, k={self.k}, n={self.n}"
            )

    @property
    def average_load(self) -> float:
        """Average replicas per node, the paper's ``l = r b / n``."""
        return self.r * self.b / self.n

    def with_objects(self, b: int) -> "SystemParams":
        """The same system hosting a different number of objects."""
        return SystemParams(n=self.n, b=b, r=self.r, s=self.s, k=self.k)

    def with_failures(self, k: int) -> "SystemParams":
        """The same system under a different failure count."""
        return SystemParams(n=self.n, b=self.b, r=self.r, s=self.s, k=k)


def majority_threshold(r: int) -> int:
    """The ``s`` for majority-quorum objects: dead once a majority cannot form.

    An object accessed via majority quorums survives while more than half of
    its replicas are alive, i.e. dies when ``ceil(r / 2)`` replicas fail.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return (r + 1) // 2
