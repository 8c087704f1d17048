"""Batched PRF leaf derivation: ``leaf_for_many`` vs scalar ``leaf_for``.

The batched spelling must be bit-identical to the equivalent scalar call
sequence — leaves, ``call_count``, ``cache_hits`` and the LRU state it
leaves behind — across cache-hit/miss mixes, empty/singleton batches,
disabled caches, eviction pressure and both PRF primitives. The last
class pins the ``LeafLru`` column layout the native ``FrontendKernel``
probes and fills in place (this file runs in the compiled CI lane for
that reason).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import NODE_WORDS, LeafLru, Prf, lru_hash

KEY = b"batched-prf-key!"


def scalar_reference(prf: Prf, addrs, counts, levels, subblock=0):
    return [
        prf.leaf_for(addr, count, levels, subblock)
        for addr, count in zip(addrs, counts)
    ]


class TestLeafForMany:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**70),
            ),
            max_size=50,
        ),
        levels=st.integers(min_value=1, max_value=30),
        subblock=st.integers(min_value=0, max_value=7),
    )
    def test_matches_scalar_sequence(self, pairs, levels, subblock):
        addrs = [a for a, _ in pairs]
        counts = [c for _, c in pairs]
        batched_prf, scalar_prf = Prf(KEY), Prf(KEY)
        batched = batched_prf.leaf_for_many(addrs, counts, levels, subblock)
        scalar = scalar_reference(scalar_prf, addrs, counts, levels, subblock)
        assert batched == scalar
        assert batched_prf.call_count == scalar_prf.call_count
        assert batched_prf.cache_hits == scalar_prf.cache_hits
        assert batched_prf._leaf_cache == scalar_prf._leaf_cache
        assert list(batched_prf._leaf_cache) == list(scalar_prf._leaf_cache)

    def test_hit_miss_mix_accounting(self):
        """A batch straddling warm and cold keys accounts both exactly."""
        prf = Prf(KEY)
        prf.leaf_for(1, 0, 16)
        prf.leaf_for(2, 0, 16)  # warm two keys
        leaves = prf.leaf_for_many([1, 3, 2, 3, 1], [0, 0, 0, 0, 0], 16)
        # calls: 2 scalar + 5 batched; hits: keys 1, 2 warm, then 3 and 1
        # re-hit within the batch itself.
        assert prf.call_count == 7
        assert prf.cache_hits == 4
        assert leaves[0] == prf.leaf_for(1, 0, 16)
        assert leaves[1] == leaves[3]  # repeated (3, 0) pair

    def test_empty_batch(self):
        prf = Prf(KEY)
        assert prf.leaf_for_many([], [], 20) == []
        assert prf.call_count == 0 and prf.cache_hits == 0

    def test_singleton_batch(self):
        batched_prf, scalar_prf = Prf(KEY), Prf(KEY)
        assert batched_prf.leaf_for_many([9], [4], 20) == [
            scalar_prf.leaf_for(9, 4, 20)
        ]
        assert batched_prf.call_count == 1 and batched_prf.cache_hits == 0

    def test_degenerate_levels_bypasses_cache_and_counters(self):
        prf = Prf(KEY)
        assert prf.leaf_for_many([1, 2], [3, 4], 0) == [0, 0]
        assert prf.call_count == 0 and prf.cache_hits == 0
        assert not prf._leaf_cache

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            Prf(KEY).leaf_for_many([1, 2], [3], 16)

    def test_cache_disabled(self):
        cached, uncached = Prf(KEY), Prf(KEY, leaf_cache_entries=0)
        addrs = [5, 5, 6, 5]
        counts = [1, 1, 1, 1]
        assert cached.leaf_for_many(addrs, counts, 18) == uncached.leaf_for_many(
            addrs, counts, 18
        )
        assert uncached.cache_hits == 0
        assert cached.call_count == uncached.call_count == 4

    def test_eviction_pressure_matches_scalar(self):
        """Under a tiny LRU the eviction sequence stays scalar-identical."""
        batched_prf = Prf(KEY, leaf_cache_entries=3)
        scalar_prf = Prf(KEY, leaf_cache_entries=3)
        addrs = [1, 2, 3, 4, 1, 2, 5, 3, 1] * 3
        counts = [0] * len(addrs)
        batched = batched_prf.leaf_for_many(addrs, counts, 16)
        scalar = scalar_reference(scalar_prf, addrs, counts, 16)
        assert batched == scalar
        assert batched_prf.cache_hits == scalar_prf.cache_hits
        assert list(batched_prf._leaf_cache) == list(scalar_prf._leaf_cache)

    def test_aes_mode_matches_scalar(self):
        batched_prf = Prf(b"0123456789abcdef", mode=Prf.MODE_AES)
        scalar_prf = Prf(b"0123456789abcdef", mode=Prf.MODE_AES)
        addrs = [0, 1, 0, 2]
        counts = [0, 7, 0, 9]
        assert batched_prf.leaf_for_many(addrs, counts, 12) == scalar_reference(
            scalar_prf, addrs, counts, 12
        )
        assert batched_prf.call_count == scalar_prf.call_count
        assert batched_prf.cache_hits == scalar_prf.cache_hits

    def test_lru_refresh_within_batch(self):
        """A batch hit refreshes recency exactly like a scalar hit."""
        prf = Prf(KEY, leaf_cache_entries=2)
        prf.leaf_for_many([1, 2, 1, 3], [0, 0, 0, 0], 16)
        # (1,0) was refreshed by the third item, so (2,0) was evicted.
        assert (1, 0, 16, 0) in prf._leaf_cache
        assert (2, 0, 16, 0) not in prf._leaf_cache
        assert (3, 0, 16, 0) in prf._leaf_cache


class ModelLru:
    """The LRU as a specification: a recency list, oldest first."""

    def __init__(self, limit):
        self.limit = limit
        self.keys = []
        self.calls = self.hits = 0

    def touch(self, key):
        self.calls += 1
        if key in self.keys:
            self.hits += 1
            self.keys.remove(key)
        elif len(self.keys) >= self.limit:
            self.keys.pop(0)
        self.keys.append(key)


class NeverScanned(type(Prf(KEY)._leaf_cache)):
    """The leaf cache's own type, failing any walk over its entries:
    the eviction that found its victim by ``next(iter(cache))`` stepped
    over every already-deleted entry to get there."""

    def __iter__(self):
        raise AssertionError("LRU eviction scanned the cache")


class TestLeafLruEviction:
    @settings(max_examples=120, deadline=None)
    @given(
        addrs=st.lists(st.integers(min_value=0, max_value=15), max_size=200),
        batched=st.booleans(),
    )
    def test_matches_the_model_under_eviction(self, addrs, batched):
        prf = Prf(KEY, leaf_cache_entries=8)
        model = ModelLru(8)
        if batched:
            prf.leaf_for_many(addrs, [0] * len(addrs), 16)
        else:
            for addr in addrs:
                prf.leaf_for(addr, 0, 16)
        for addr in addrs:
            model.touch((addr, 0, 16, 0))
        assert list(prf._leaf_cache) == model.keys
        assert (prf.call_count, prf.cache_hits) == (model.calls, model.hits)

    @pytest.mark.parametrize("batched", (False, True))
    def test_eviction_never_scans_the_cache(self, batched):
        prf = Prf(KEY, leaf_cache_entries=8)
        prf._leaf_cache = NeverScanned()
        addrs = [(i // 3) % 29 for i in range(600)]  # hits, misses, evictions
        if batched:
            prf.leaf_for_many(addrs, [0] * len(addrs), 16)
        else:
            for addr in addrs:
                prf.leaf_for(addr, 0, 16)
        assert len(prf._leaf_cache) == 8
        assert prf.cache_hits > 0


class TestLeafLruColumns:
    def test_a_node_is_key_words_then_leaf_and_node_zero_the_sentinel(self):
        prf = Prf(KEY, leaf_cache_entries=4)
        lru = prf._leaf_cache
        assert (lru.nodes.typecode, lru.prev.typecode) == ("Q", "i")
        assert len(lru.nodes) == NODE_WORDS and len(lru.heads) == 4
        count = (7 << 64) | 5
        leaf = prf.leaf_for(3, count, 16, subblock=2)
        assert lru.nodes[0] == len(lru) == 1  # the sentinel's word: the count
        assert lru.nodes[NODE_WORDS : 2 * NODE_WORDS].tolist() == [
            3, 5, (7 << 32) | 2, 16, leaf
        ]
        bucket = lru_hash(3, 5, (7 << 32) | 2, 16) & 3
        assert lru.heads[bucket] == 1 and lru.chain[1] == 0
        assert (lru.next[0], lru.prev[0], lru.next[1], lru.prev[1]) == (1, 1, 0, 0)
        assert list(lru.items()) == [((3, count, 16, 2), leaf)]

    def test_an_eviction_reuses_the_node_it_frees(self):
        prf = Prf(KEY, leaf_cache_entries=3)
        lru = prf._leaf_cache
        for addr in range(40):
            prf.leaf_for(addr, 0, 16)
        assert len(lru) == 3 and [key[0] for key in lru] == [37, 38, 39]
        used = {lru.next[0], lru.next[lru.next[0]], lru.prev[0]}
        assert used == {1, 2, 3}  # entries are nodes 1..len, no free list
        assert len(lru.prev) == len(lru.next) == len(lru.chain) == 1025
        assert len(lru.nodes) == 1025 * NODE_WORDS  # one chunk, grown once
        chained = []
        for head in lru.heads:
            while head:
                chained.append(head)
                head = lru.chain[head]
        assert sorted(chained) == [1, 2, 3]

    def test_the_columns_grow_a_chunk_at_a_time(self):
        prf = Prf(KEY)
        lru = prf._leaf_cache
        assert len(lru.heads) == 1 << 16
        for addr in range(1500):
            prf.leaf_for(addr, 0, 16)
        assert len(lru) == 1500 and len(lru.prev) == 2049
        assert [key[0] for key in lru] == list(range(1500))

    @pytest.mark.parametrize("limit, buckets", [(0, 1), (1, 1), (5, 8), (8, 8), (9, 16)])
    def test_the_bucket_table_is_a_power_of_two_sized_for_the_limit(
        self, limit, buckets
    ):
        assert len(LeafLru(limit).heads) == buckets

    def test_a_limit_lowered_below_the_occupancy_keeps_the_count(self):
        prf = Prf(KEY, leaf_cache_entries=8)
        for addr in range(8):
            prf.leaf_for(addr, 0, 16)
        prf._leaf_cache_limit = 3
        prf.leaf_for(100, 0, 16)
        assert [key[0] for key in prf._leaf_cache] == [1, 2, 3, 4, 5, 6, 7, 100]
        prf._leaf_cache_limit = 0
        prf.leaf_for(101, 0, 16)
        assert prf.leaf_for(100, 0, 16) and prf.cache_hits == 1
        assert len(prf._leaf_cache) == 8 and (101, 0, 16, 0) not in prf._leaf_cache

    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(min_value=0, max_value=2**96 - 1),
        subblock=st.integers(min_value=0, max_value=2**32 - 1),
        levels=st.integers(min_value=1, max_value=64),
    )
    def test_every_packable_key_round_trips(self, count, subblock, levels):
        prf = Prf(KEY)
        leaf = prf.leaf_for(9, count, levels, subblock)
        assert list(prf._leaf_cache.items()) == [((9, count, levels, subblock), leaf)]
        assert prf.leaf_for(9, count, levels, subblock) == leaf and prf.cache_hits == 1

    def test_an_unpackable_subblock_never_aliases_a_held_key(self):
        """``count high 32 || subblock`` is one word: a subblock past 32
        bits must miss (and then fail to pack), not hit its neighbour."""
        import struct

        prf = Prf(KEY)
        prf.leaf_for(1, 1 << 64, 16, 0)
        with pytest.raises(struct.error):
            prf.leaf_for(1, 0, 16, 1 << 32)
        assert prf.cache_hits == 0
