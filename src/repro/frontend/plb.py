"""The PosMap Lookaside Buffer (§4.2.3).

A conventional hardware cache holding entire PosMap blocks (unlike a TLB's
single translations — §4.1.4). Each resident block is stored with its
tagged address i||a_i, its *current* leaf in the Unified tree (needed for
the later append), and — under PMMAC — its current counter (needed to MAC
the block on eviction).

The default geometry is direct-mapped, which the paper adopts after
finding full associativity buys <= 10% (§7.1.3); ``ways`` > 1 gives a
set-associative LRU variant for the design-space experiments.

The state is the hardware's: fixed-size typed columns with one item per
way, way ``w`` of set ``s`` at ``s * ways + w`` — ``tags`` (int64, -1 an
empty way), ``leaves``, ``counters`` (two uint64 per way: low 64 bits,
high 32), ``last_use`` and one ``payload`` bytearray of ``block_bytes``
per way. A lookup is the set arithmetic plus a scan of at most ``ways``
tags. A set fills from way 0 up, a victim (the first way with the
smallest ``last_use``) is replaced in place and ``invalidate`` closes the
gap it leaves, so way order is insertion order. The LRU clock and the
hit / miss counts are the three slots of ``ledger`` (``array('q')``).
The interpreted frontend and the native ``FrontendKernel`` read and
write these same columns.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.utils.stats import LEDGERS

_U64 = (1 << 64) - 1


@dataclass(slots=True)
class PlbEntry:
    """One PosMap block by value: what ``insert`` takes and evicts."""

    tagged_addr: int
    data: bytearray
    leaf: int
    counter: int = 0
    #: LRU timestamp within a set.
    last_use: int = 0


class PlbWay:
    """One resident block: a view of way ``way`` of the PLB's columns."""

    __slots__ = ("_plb", "way")

    def __init__(self, plb: "Plb", way: int):
        self._plb = plb
        self.way = way

    tagged_addr = property(lambda self: self._plb.tags[self.way])
    leaf = property(
        lambda self: self._plb.leaves[self.way],
        lambda self, leaf: self._plb.leaves.__setitem__(self.way, leaf),
    )
    last_use = property(
        lambda self: self._plb.last_use[self.way],
        lambda self, stamp: self._plb.last_use.__setitem__(self.way, stamp),
    )

    @property
    def counter(self) -> int:
        low, high = self._plb.counters[2 * self.way : 2 * self.way + 2]
        return (high << 64) | low

    @counter.setter
    def counter(self, counter: int) -> None:
        self._plb.counters[2 * self.way : 2 * self.way + 2] = array(
            "Q", (counter & _U64, counter >> 64)
        )

    @property
    def data(self) -> memoryview:
        """The block's bytes in place: slices read and assign through."""
        size = self._plb.block_bytes
        return memoryview(self._plb.payload)[self.way * size : (self.way + 1) * size]

    def detach(self) -> PlbEntry:
        """The block by value, as it stands."""
        return PlbEntry(
            self.tagged_addr, bytearray(self.data), self.leaf, self.counter,
            self.last_use,
        )


@LEDGERS["plb"].bind()
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
        self.tags = array("q", [-1]) * total
        self.leaves = array("q", bytes(8 * total))
        self.counters = array("Q", bytes(16 * total))
        self.last_use = array("q", bytes(8 * total))
        self.payload = bytearray(total * block_bytes)
        self.ledger = LEDGERS["plb"].column()

    def _set_index(self, tagged_addr: int) -> int:
        # Direct-mapped index over the block index bits; the recursion level
        # is folded in with a small odd multiplier so different levels do
        # not systematically collide (hardware would concatenate tag bits).
        level = tagged_addr >> 48
        index = tagged_addr & ((1 << 48) - 1)
        return (index + level * 7919) % self.num_sets

    def _find(self, tagged_addr: int) -> int:
        """The way of its set holding i||a_i, else -1."""
        base = self._set_index(tagged_addr) * self.ways
        tags = self.tags
        for way in range(base, base + self.ways):
            if tags[way] == tagged_addr:
                return way
        return -1

    def lookup(self, tagged_addr: int) -> Optional[PlbWay]:
        """Return the resident entry for i||a_i, updating LRU state."""
        self._clock = clock = self._clock + 1
        way = self._find(tagged_addr)
        if way < 0:
            self.misses += 1
            return None
        self.last_use[way] = clock
        self.hits += 1
        return PlbWay(self, way)

    def contains(self, tagged_addr: int) -> bool:
        """Membership test without touching hit/miss counters."""
        return self._find(tagged_addr) >= 0

    def peek(self, tagged_addr: int) -> Optional[PlbWay]:
        """Entry lookup without LRU/statistics side effects."""
        way = self._find(tagged_addr)
        return PlbWay(self, way) if way >= 0 else None

    def insert(self, entry: PlbEntry) -> Optional[PlbEntry]:
        """Insert a refilled block; returns the evicted victim, if any."""
        self._clock = entry.last_use = self._clock + 1
        base = self._set_index(entry.tagged_addr) * self.ways
        tags = self.tags[base : base + self.ways]
        if entry.tagged_addr in tags:
            raise ValueError("block already resident in PLB")
        if -1 in tags:
            way, victim = base + tags.index(-1), None  # the lowest free way
        else:
            # Direct-mapped: the one way is the victim. Otherwise LRU, the
            # first way with the smallest timestamp.
            stamps = self.last_use[base : base + self.ways]
            way = base + stamps.index(min(stamps))
            victim = PlbWay(self, way).detach()
        resident = PlbWay(self, way)
        resident.data[:] = entry.data
        resident.leaf, resident.counter = entry.leaf, entry.counter
        resident.last_use = entry.last_use
        self.tags[way] = entry.tagged_addr
        return victim

    def invalidate(self, tagged_addr: int) -> Optional[PlbEntry]:
        """Remove and return an entry (used by flush-style tests)."""
        way = self._find(tagged_addr)
        if way < 0:
            return None
        removed = PlbWay(self, way).detach()
        # Close the gap: the set's later ways each move down one.
        last = (way // self.ways + 1) * self.ways - 1
        size = self.block_bytes
        for column, width in (
            (self.tags, 1), (self.leaves, 1), (self.counters, 2),
            (self.last_use, 1), (self.payload, size),
        ):
            column[way * width : last * width] = column[(way + 1) * width : (last + 1) * width]
        self.tags[last] = -1
        return removed

    def entries(self) -> List[PlbWay]:
        """All resident entries (set order, insertion order within a set)."""
        return [PlbWay(self, way) for way, tag in enumerate(self.tags) if tag != -1]

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
        return len(self.tags) - self.tags.count(-1)
