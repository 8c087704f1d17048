"""PLB cache behaviour: hits, eviction, associativity, accounting — and
the column layout the native ``FrontendKernel`` reads and writes in
place (this file runs in the compiled CI lane for that reason)."""

from array import array

import pytest

from repro.errors import ConfigurationError
from repro.frontend.addrgen import AddressSpace
from repro.frontend.plb import Plb, PlbEntry


def entry(level, index, leaf=0):
    return PlbEntry(AddressSpace.tag(level, index), bytearray(64), leaf)


class TestBasics:
    def test_miss_then_hit(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        assert plb.lookup(entry(1, 5).tagged_addr) is None
        plb.insert(entry(1, 5, leaf=7))
        found = plb.lookup(AddressSpace.tag(1, 5))
        assert found is not None
        assert found.leaf == 7

    def test_levels_disambiguated(self):
        """i||a_i tagging: same index at different levels are distinct."""
        plb = Plb(capacity_bytes=16 * 64, block_bytes=64)
        plb.insert(entry(1, 5, leaf=1))
        plb.insert(entry(2, 5, leaf=2))
        assert plb.peek(AddressSpace.tag(1, 5)).leaf == 1
        assert plb.peek(AddressSpace.tag(2, 5)).leaf == 2

    def test_duplicate_insert_rejected(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 5))
        with pytest.raises(ValueError):
            plb.insert(entry(1, 5))

    def test_capacity_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            Plb(capacity_bytes=32, block_bytes=64)

    def test_bad_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            Plb(capacity_bytes=256, block_bytes=64, ways=0)

    def test_entry_count(self):
        plb = Plb(capacity_bytes=4 * 64, block_bytes=64)
        assert plb.num_sets == 4


class TestEviction:
    def test_direct_mapped_conflict_evicts(self):
        plb = Plb(capacity_bytes=4 * 64, block_bytes=64, ways=1)
        plb.insert(entry(1, 0, leaf=1))
        victim = plb.insert(entry(1, 4, leaf=2))  # 4 % 4 == 0: same set
        assert victim is not None
        assert victim.leaf == 1
        assert plb.peek(AddressSpace.tag(1, 0)) is None

    def test_lru_within_set(self):
        plb = Plb(capacity_bytes=4 * 64, block_bytes=64, ways=2)
        # Set count = 2; indices 0, 2, 4 all map to set 0.
        plb.insert(entry(0, 0))
        plb.insert(entry(0, 2))
        plb.lookup(AddressSpace.tag(0, 0))  # touch 0: now 2 is LRU
        victim = plb.insert(entry(0, 4))
        assert victim.tagged_addr == AddressSpace.tag(0, 2)

    def test_invalidate(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 3))
        removed = plb.invalidate(AddressSpace.tag(1, 3))
        assert removed is not None
        assert plb.peek(AddressSpace.tag(1, 3)) is None
        assert plb.invalidate(AddressSpace.tag(1, 3)) is None

    def test_full_associative_no_premature_eviction(self):
        plb = Plb(capacity_bytes=4 * 64, block_bytes=64, ways=4)
        victims = [plb.insert(entry(0, i)) for i in range(4)]
        assert all(v is None for v in victims)
        assert len(plb) == 4


class TestAccounting:
    def test_hit_rate(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 1))
        plb.lookup(AddressSpace.tag(1, 1))
        plb.lookup(AddressSpace.tag(1, 2))
        assert plb.hits == 1
        assert plb.misses == 1
        assert plb.hit_rate == 0.5

    def test_peek_and_contains_do_not_count(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 1))
        plb.peek(AddressSpace.tag(1, 1))
        plb.contains(AddressSpace.tag(1, 1))
        assert plb.hits == 0 and plb.misses == 0

    def test_reset_counters_keeps_contents(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 1))
        plb.lookup(AddressSpace.tag(1, 1))
        plb.reset_counters()
        assert plb.hits == 0
        assert plb.peek(AddressSpace.tag(1, 1)) is not None

    def test_zero_lookups_hit_rate(self):
        assert Plb(capacity_bytes=256, block_bytes=64).hit_rate == 0.0

    def test_entries_listing(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(entry(1, 1))
        plb.insert(entry(2, 3))
        assert len(plb.entries()) == 2


class TestColumns:
    """The state is five fixed-size columns with one item per way."""

    def test_geometry_sizes_every_column(self):
        plb = Plb(capacity_bytes=6 * 64, block_bytes=64, ways=2)
        assert (plb.num_sets, plb.ways) == (3, 2)
        assert plb.tags == array("q", [-1] * 6)  # -1: an empty way
        assert plb.leaves == plb.last_use == array("q", [0] * 6)
        assert plb.counters == array("Q", [0] * 12)  # low 64, high 32
        assert plb.payload == bytearray(6 * 64)
        assert not {list, dict} & {type(v) for v in vars(plb).values()}

    def test_way_order_is_insertion_order_and_a_victim_is_replaced_in_place(self):
        plb = Plb(capacity_bytes=4 * 64, block_bytes=64, ways=2)
        for index in (0, 2):  # both map to set 0: ways 0 and 1
            plb.insert(entry(0, index, leaf=10 + index))
        assert plb.tags.tolist() == [0, 2, -1, -1]
        plb.lookup(AddressSpace.tag(0, 0))  # way 1 is now the LRU way
        victim = plb.insert(entry(0, 4, leaf=14))
        assert (victim.tagged_addr, victim.leaf) == (2, 12)
        assert plb.tags.tolist() == [0, 4, -1, -1]
        assert plb.leaves.tolist()[:2] == [10, 14]
        assert [e.tagged_addr for e in plb.entries()] == [0, 4]
        assert plb.last_use.tolist()[:2] == [3, 4] and plb._clock == 4

    def test_equal_stamps_evict_the_first_way(self):
        plb = Plb(capacity_bytes=3 * 64, block_bytes=64, ways=3)
        for index in range(3):
            plb.insert(entry(0, index))
        plb.last_use[0] = plb.last_use[1] = plb.last_use[2] = 7
        assert plb.insert(entry(0, 3)).tagged_addr == 0

    def test_invalidate_closes_the_gap(self):
        plb = Plb(capacity_bytes=3 * 64, block_bytes=64, ways=3)
        for index in range(3):
            block = entry(0, index, leaf=index)
            block.data[:] = bytes([index + 1]) * 64
            block.counter = (index + 1) << 64 | index
            plb.insert(block)
        removed = plb.invalidate(AddressSpace.tag(0, 0))
        assert (removed.leaf, removed.counter, removed.data) == (
            0, 1 << 64, bytearray(b"\x01" * 64)
        )
        assert plb.tags.tolist() == [1, 2, -1]
        assert [(e.leaf, e.counter, e.last_use) for e in plb.entries()] == [
            (1, 2 << 64 | 1, 2), (2, 3 << 64 | 2, 3)
        ]
        assert bytes(plb.payload[:128]) == b"\x02" * 64 + b"\x03" * 64
        assert plb.insert(entry(0, 9)) is None and plb.tags[2] == 9

    def test_a_lookup_hands_back_a_view_of_its_way(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        plb.insert(PlbEntry(5, bytearray(b"\xaa" * 64), leaf=3, counter=2**70 + 9))
        found = plb.lookup(5)
        way = found.way
        assert (found.tagged_addr, found.leaf, found.counter) == (5, 3, 2**70 + 9)
        assert plb.counters[2 * way : 2 * way + 2].tolist() == [9, 2**6]
        found.leaf, found.counter = 11, 2**64 - 1
        assert plb.leaves[way] == 11
        assert plb.counters[2 * way : 2 * way + 2].tolist() == [2**64 - 1, 0]
        # ``data`` is the payload in place: what a format's slice reads
        # and assignments go through.
        data = found.data
        assert type(data) is memoryview and not data.readonly
        data[3:5] = b"\x01\x02"
        data[:] = bytes(data)
        assert plb.payload[way * 64 : way * 64 + 6] == b"\xaa\xaa\xaa\x01\x02\xaa"
        assert int.from_bytes(plb.peek(5).data[3:5], "little") == 0x0201

    def test_an_inserted_entry_is_copied_not_kept(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        block = entry(1, 1, leaf=4)
        plb.insert(block)
        block.data[0], block.leaf = 0xFF, 99
        assert plb.peek(block.tagged_addr).data[0] == 0
        assert plb.peek(block.tagged_addr).leaf == 4
        victim = plb.insert(entry(1, 1 + plb.num_sets))
        assert type(victim) is PlbEntry and type(victim.data) is bytearray

    def test_a_wrong_sized_payload_is_refused_before_anything_moves(self):
        plb = Plb(capacity_bytes=8 * 64, block_bytes=64)
        with pytest.raises(ValueError):
            plb.insert(PlbEntry(3, bytearray(63), leaf=1))
        assert len(plb) == 0 and plb.tags.count(-1) == 8
