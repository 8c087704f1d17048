"""The PosMap Lookaside Buffer (§4.2.3).

A conventional hardware cache holding entire PosMap blocks (unlike a TLB's
single translations — §4.1.4). Each resident block is stored with its
tagged address i||a_i, its *current* leaf in the Unified tree (needed for
the later append), and — under PMMAC — its current counter (needed to MAC
the block on eviction).

The default geometry is direct-mapped, which the paper adopts after
finding full associativity buys <= 10% (§7.1.3); ``ways`` > 1 gives a
set-associative LRU variant for the design-space experiments.

Implementation note: the PLB lookup loop runs once per recursion level per
processor request, making it one of the replay engine's hottest paths. A
flat dict keyed by tagged address backs every lookup in O(1); the per-set
lists exist only to model the geometry — victim selection, way conflicts
and LRU ordering are decided there, so hit/miss/eviction sequences are
identical to a straight set-scan implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigurationError


@dataclass(slots=True)
class PlbEntry:
    """One PosMap block resident in the PLB."""

    tagged_addr: int
    data: bytearray
    leaf: int
    counter: int = 0
    #: LRU timestamp within a set.
    last_use: int = 0


class Plb:
    """Set-associative (default direct-mapped) cache of PosMap blocks."""

    def __init__(self, capacity_bytes: int, block_bytes: int, ways: int = 1):
        if capacity_bytes < block_bytes:
            raise ConfigurationError("PLB smaller than one PosMap block")
        if ways < 1:
            raise ConfigurationError("ways must be >= 1")
        total = capacity_bytes // block_bytes
        if total % ways:
            total -= total % ways
        if total < ways:
            raise ConfigurationError("capacity too small for associativity")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self.ways = ways
        self.num_sets = total // ways
        self._sets: List[List[PlbEntry]] = [[] for _ in range(self.num_sets)]
        #: Tag index over all resident entries; the hot-path lookup never
        #: touches the set lists.
        self._index: Dict[int, PlbEntry] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def _set_index(self, tagged_addr: int) -> int:
        # Direct-mapped index over the block index bits; the recursion level
        # is folded in with a small odd multiplier so different levels do
        # not systematically collide (hardware would concatenate tag bits).
        level = tagged_addr >> 48
        index = tagged_addr & ((1 << 48) - 1)
        return (index + level * 7919) % self.num_sets

    def lookup(self, tagged_addr: int) -> Optional[PlbEntry]:
        """Return the resident entry for i||a_i, updating LRU state."""
        self._clock += 1
        entry = self._index.get(tagged_addr)
        if entry is not None:
            entry.last_use = self._clock
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def contains(self, tagged_addr: int) -> bool:
        """Membership test without touching hit/miss counters."""
        return tagged_addr in self._index

    def peek(self, tagged_addr: int) -> Optional[PlbEntry]:
        """Entry lookup without LRU/statistics side effects."""
        return self._index.get(tagged_addr)

    def insert(self, entry: PlbEntry) -> Optional[PlbEntry]:
        """Insert a refilled block; returns the evicted victim, if any."""
        self._clock += 1
        entry.last_use = self._clock
        if entry.tagged_addr in self._index:
            raise ValueError("block already resident in PLB")
        bucket = self._sets[self._set_index(entry.tagged_addr)]
        if len(bucket) < self.ways:
            bucket.append(entry)
            self._index[entry.tagged_addr] = entry
            return None
        # Direct-mapped: the one way is the victim. Otherwise LRU, the
        # first way with the smallest timestamp.
        victim_pos = (
            0 if self.ways == 1
            else min(range(len(bucket)), key=lambda i: bucket[i].last_use)
        )
        victim = bucket[victim_pos]
        bucket[victim_pos] = entry
        del self._index[victim.tagged_addr]
        self._index[entry.tagged_addr] = entry
        return victim

    def invalidate(self, tagged_addr: int) -> Optional[PlbEntry]:
        """Remove and return an entry (used by flush-style tests)."""
        entry = self._index.pop(tagged_addr, None)
        if entry is None:
            return None
        bucket = self._sets[self._set_index(tagged_addr)]
        bucket.remove(entry)
        return entry

    def entries(self) -> List[PlbEntry]:
        """All resident entries (set order, insertion order within a set)."""
        return [e for bucket in self._sets for e in bucket]

    @property
    def hit_rate(self) -> float:
        """Hits / lookups so far (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero hit/miss statistics (contents retained)."""
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._index)
