"""The stash: small trusted memory for in-flight blocks (§3.1).

The stash temporarily holds blocks between path reads and evictions. Its
occupancy stays small with overwhelming probability for Z >= 4; the
configured limit (200, following [26]) converts the negligible-probability
overflow into an explicit :class:`~repro.errors.StashOverflowError` so
tests can assert it never fires under honest operation.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional

from repro.errors import StashOverflowError
from repro.storage.block import Block
from repro.utils.stats import LEDGERS, RunningStats

_MAX, _MIN = map(LEDGERS["occupancy"].slots.index, ("max", "min"))


@LEDGERS["occupancy"].bind()
@LEDGERS["moments"].bind("moments")
class OccupancyStats(RunningStats):
    """``RunningStats`` over two columns the access kernel adds to.

    A columnar backend's occupancy sample after every eviction is added
    in C, with ``RunningStats.add``'s operand order (so the same bits as
    the object backend's), in place: ``ledger`` (``array('q')``) holds
    count / max / min and ``moments`` (``array('d')``) mean / m2, read
    here under the ``RunningStats`` names.
    """

    def __init__(self) -> None:
        # No super().__init__(): the state lives in the columns.
        self.ledger = LEDGERS["occupancy"].column()
        self.moments = LEDGERS["moments"].column()

    # Before the first sample the extremes read as RunningStats' sentinels.
    max = property(lambda self: self.ledger[_MAX] if self.count else float("-inf"))
    min = property(lambda self: self.ledger[_MIN] if self.count else float("inf"))


class ColumnarStash:
    """Slot-addressed stash for the columnar backend (no Block objects).

    Semantically identical to :class:`Stash`, but entries are arena slot
    ids in a :class:`~repro.storage.columnar.ColumnarTreeStorage`, kept
    in ``slots``: a length-prefixed int32 column in insertion order
    (``slots[0]`` is the occupancy, ``slots[1..n]`` the resident slot
    ids). The backend's access kernel reads and writes this column —
    adds, membership scans, the limit check — and blocks are materialised
    only for introspection (``blocks()``, iteration), and the kernel
    samples the occupancy into ``occupancy_stats``.
    """

    def __init__(self, limit: int, store):
        self.limit = limit
        self.store = store
        self.slots = array("i", [0])
        self.reserve(limit + 1)
        self.occupancy_stats = OccupancyStats()

    def reserve(self, blocks: int) -> None:
        """Room for ``blocks`` residents (the column only ever grows)."""
        short = blocks + 1 - len(self.slots)
        if short > 0:
            self.slots.extend([0] * short)

    def resident(self) -> array:
        """The resident slot ids, in insertion order (a copy)."""
        return self.slots[1 : self.slots[0] + 1]

    def blocks(self) -> List[Block]:
        """Snapshot list of resident blocks (materialised, in stash order)."""
        return [self.store.block_at_slot(s) for s in self.resident()]

    def __len__(self) -> int:
        return self.slots[0]

    def __iter__(self):
        return iter(self.blocks())


class Stash:
    """Address-indexed block store with occupancy tracking."""

    def __init__(self, limit: int):
        self.limit = limit
        self._blocks: Dict[int, Block] = {}
        #: Occupancy sampled after each eviction (for the stash experiments).
        self.occupancy_stats = RunningStats()

    def add(self, block: Block) -> None:
        """Insert a block; duplicate addresses are a protocol violation."""
        if block.addr in self._blocks:
            raise ValueError(f"duplicate block {block.addr:#x} in stash")
        self._blocks[block.addr] = block

    def add_all(self, blocks: Iterable[Block]) -> None:
        """Insert many blocks (path read)."""
        store = self._blocks
        for block in blocks:
            addr = block.addr
            if addr in store:
                raise ValueError(f"duplicate block {addr:#x} in stash")
            store[addr] = block

    @property
    def blocks_by_addr(self) -> Dict[int, Block]:
        """Live address->block mapping for the Backend's hot path.

        Mutating this dict bypasses the duplicate-address check in
        :meth:`add`; callers (the eviction loop) must preserve the
        one-block-per-address invariant themselves.
        """
        return self._blocks

    def get(self, addr: int) -> Optional[Block]:
        """Block by address, or None."""
        return self._blocks.get(addr)

    def pop(self, addr: int) -> Optional[Block]:
        """Remove and return block by address, or None."""
        return self._blocks.pop(addr, None)

    def contains(self, addr: int) -> bool:
        """Membership test."""
        return addr in self._blocks

    def blocks(self) -> List[Block]:
        """Snapshot list of resident blocks."""
        return list(self._blocks.values())

    def remove_many(self, addrs: Iterable[int]) -> None:
        """Remove a batch of addresses (post-eviction cleanup)."""
        for addr in addrs:
            del self._blocks[addr]

    def check_limit(self) -> None:
        """Record occupancy and raise if the configured limit is exceeded."""
        n = len(self._blocks)
        self.occupancy_stats.add(n)
        if n > self.limit:
            raise StashOverflowError(
                f"stash occupancy {n} exceeds limit {self.limit}"
            )

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self):
        return iter(self._blocks.values())
