"""Way-partitioning-enabled tree pseudo-LRU (PARD Fig. 4).

The LLC control plane hands the replacement logic a per-DS-id way mask
from its parameter table; the PLRU tree then only ever selects victims
among the allowed ways. Masks restrict *allocation*, not lookup: a block
that hits in a way outside the requester's current mask is still a hit,
which is what makes mask reprogramming safe at any time (occupancy then
drifts toward the new partition as allocations happen).
"""

from __future__ import annotations

from functools import cache


class ReplacementError(RuntimeError):
    """Raised when no way is eligible for replacement (empty mask)."""


def mask_ways(mask: int, num_ways: int) -> list[int]:
    """The way indices enabled by ``mask`` (bit i = way i)."""
    return [w for w in range(num_ways) if mask & (1 << w)]


@cache
def _tables(num_ways: int) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
    """Bit masks for a tree over ``num_ways`` leaves, built once per size.

    ``keep[w]`` clears the bits of the internal nodes on way ``w``'s path
    to the root and ``point[w]`` sets the ones that must read 1 so every
    node on the path points away from ``w``; both are dicts keyed by the
    valid ways only, so a lookup doubles as the way range check.
    ``leaves[n]`` is the way mask covered by the subtree rooted at node
    ``n``.
    """
    keep, point = {}, {}
    for way in range(num_ways):
        path = ones = 0
        node = num_ways + way
        while node > 1:
            parent = node >> 1
            path |= 1 << parent
            if not node & 1:  # a left child: the parent points right
                ones |= 1 << parent
            node = parent
        keep[way] = ~path
        point[way] = ones
    leaves = [0] * (2 * num_ways)
    for way in range(num_ways):
        leaves[num_ways + way] = 1 << way
    for node in range(num_ways - 1, 0, -1):
        leaves[node] = leaves[2 * node] | leaves[2 * node + 1]
    return keep, point, tuple(leaves)


class WayMaskedPlru:
    """A binary tree PLRU over a power-of-two number of ways.

    Tree nodes are numbered heap-style: node 1 is the root, node ``n``
    has children ``2n`` and ``2n+1``; nodes ``num_ways .. 2*num_ways-1``
    are the leaves (ways). The internal nodes' bits live in one int,
    ``bits``, with node ``n`` at bit ``n``. A node bit of 0 means the
    left subtree is colder (next victim direction); touching a way flips
    the bits on its path to point away from it.
    """

    __slots__ = ("num_ways", "bits", "full_mask", "_keep", "_point", "_leaves")

    def __init__(self, num_ways: int):
        if num_ways < 1 or num_ways & (num_ways - 1):
            raise ValueError(f"num_ways must be a power of two, got {num_ways}")
        self.num_ways = num_ways
        self.bits = 0
        self.full_mask = (1 << num_ways) - 1
        self._keep, self._point, self._leaves = _tables(num_ways)

    def touch(self, way: int) -> None:
        """Record an access to ``way``, making it most recently used."""
        try:
            self.bits = (self.bits & self._keep[way]) | self._point[way]
        except KeyError:
            raise ValueError(f"way {way} out of range for {self.num_ways} ways") from None

    def victim(self, mask: int | None = None) -> int:
        """Choose the victim way, restricted to ``mask`` (default: all)."""
        if mask is None:
            mask = self.full_mask
        mask &= self.full_mask
        if mask == 0:
            raise ReplacementError("way mask selects no ways")
        bits = self.bits
        leaves = self._leaves
        num_ways = self.num_ways
        node = 1
        while node < num_ways:
            # The preferred child, or its sibling if no allowed way is below.
            child = 2 * node + ((bits >> node) & 1)
            node = child if mask & leaves[child] else child ^ 1
        return node - num_ways
