"""Address generation for the recursive PosMap hierarchy (AddrGen, Fig. 4).

For a data block address ``a0``, the PosMap block needed from recursion
level ``i`` has index ``a_i = a0 / X^i`` (floored), and is disambiguated
from same-index blocks of other levels by the tag ``i || a_i`` (§4.1.1).
:class:`AddressSpace` centralises that arithmetic and the tagged encoding
used as the Backend-visible block address in the Unified tree.
"""

from __future__ import annotations

from typing import List, Tuple

#: Bit position of the recursion-level tag within a tagged address.
LEVEL_SHIFT = 48
_INDEX_MASK = (1 << LEVEL_SHIFT) - 1


class AddressSpace:
    """Tagged address arithmetic for an H-level recursive PosMap."""

    def __init__(self, num_blocks: int, fanout: int, num_levels: int):
        if fanout < 2:
            raise ValueError("PosMap fan-out X must be at least 2")
        if num_levels < 1:
            raise ValueError("need at least the data level")
        self.num_blocks = num_blocks
        self.fanout = fanout
        self.num_levels = num_levels  # H: data level 0 plus H-1 PosMap levels

    def level_blocks(self, level: int) -> int:
        """Number of blocks at recursion level ``level`` (ceil division)."""
        n = self.num_blocks
        for _ in range(level):
            n = -(-n // self.fanout)
        return n

    def total_blocks(self) -> int:
        """Blocks across all levels stored in the Unified tree."""
        return sum(self.level_blocks(i) for i in range(self.num_levels))

    def chain(self, a0: int) -> List[int]:
        """Indices [a_0, a_1, ..., a_{H-1}] for a data address."""
        if not 0 <= a0 < self.num_blocks:
            raise ValueError(f"address {a0} out of range")
        out = [a0]
        for _ in range(self.num_levels - 1):
            out.append(out[-1] // self.fanout)
        return out

    def child_slot(self, child_index: int) -> int:
        """Position of a child's entry within its parent PosMap block."""
        return child_index % self.fanout

    @staticmethod
    def tag(level: int, index: int) -> int:
        """Backend-visible tagged address i || a_i."""
        if index >= (1 << LEVEL_SHIFT):
            raise ValueError("block index too large for tagging")
        return (level << LEVEL_SHIFT) | index

    @staticmethod
    def untag(tagged: int) -> Tuple[int, int]:
        """Inverse of :meth:`tag`: (level, index)."""
        return tagged >> LEVEL_SHIFT, tagged & _INDEX_MASK


def levels_needed(num_blocks: int, fanout: int, onchip_entries: int) -> int:
    """Smallest H with N / X^(H-1) <= on-chip PosMap entry budget.

    H counts the data level plus all PosMap levels, matching the paper's
    ``H = log(N/p)/log(X) + 1`` (§3.2).
    """
    if onchip_entries < 1:
        raise ValueError("on-chip PosMap needs at least one entry")
    if fanout < 2 and num_blocks > onchip_entries:
        raise ValueError(f"fan-out {fanout} never shrinks the PosMap to fit on chip")
    h = 1
    n = num_blocks
    while n > onchip_entries:
        n = -(-n // fanout)
        h += 1
    return h
