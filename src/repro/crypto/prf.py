"""Pseudorandom function PRF_K(x), used for on-demand leaf generation.

The compressed PosMap (§5.2.1) and PMMAC (§6.2.1) derive the current leaf
of block ``a`` with count ``c`` as ``PRF_K(a || c) mod 2^L``. The paper
implements PRF_K with AES-128; we offer that plus a fast keyed-BLAKE2b
instantiation for large simulations (identical interface, still a PRF —
just a different primitive).

``leaf_for`` is the replay engine's hot path: every counter-mode remap
derives both the old and the new leaf, and the old leaf of count ``c`` is
exactly the new leaf computed when the counter reached ``c`` — so an
exact LRU over (address, count, levels, subblock), :class:`LeafLru`,
serves the repeats. ``call_count`` keeps counting *logical* PRF
evaluations — cache hits included — so hash-bandwidth accounting is
unchanged; ``cache_hits`` is a stored result field
(``SimResult.prf_cache_hits``), which is why the policy is exact LRU and
only the container is free to change. What it buys is workload-bound:
4.2 calls per ``replay_posmap_bound`` event hit 13 % of the time and a
sequential write scan never hits, so a probe has to cost well under the
one BLAKE2b compression (~0.15 us native) it sometimes saves — hence
typed columns the native kernel probes in place, not a dict of tuples.

``leaf_for_many`` is the batched spelling of the same body, call for
call: same leaves, same counters, same LRU evolution.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Iterator, List, Sequence, Tuple

from repro.crypto.aes import AES128

#: Bound on the leaf-derivation LRU (entries, not bytes): 64k entries
#: comfortably cover replay working sets, at 52 bytes a held entry.
LEAF_CACHE_LIMIT = 1 << 16

#: addr (8) || count (12, split low-8/high-4) || subblock (4), little-endian
#: — byte-identical to the three-way ``to_bytes`` concatenation.
_pack_leaf_message = struct.Struct("<QQII").pack_into
_U64 = (1 << 64) - 1

#: Words (and bytes) of one :class:`LeafLru` node record — four of key,
#: one of leaf; fewest nodes added per growth.
NODE_WORDS = 5
_NODE_BYTES = 8 * NODE_WORDS
_NODE_CHUNK = 1024
_pack_node = struct.Struct("5Q").pack_into
_unpack_key = struct.Struct("4Q").unpack_from


def lru_hash(address: int, low: int, high: int, levels: int) -> int:
    """Bucket hash of a leaf key's four words: one 64-bit multiply-xor-shift
    (spelled once more in ``_replay_core.c``; a Hypothesis test pins them)."""
    x = ((address ^ (low << 26) ^ (high << 13) ^ (levels << 57))
         * 0x9E3779B97F4A7C15) & _U64
    return x ^ (x >> 32)


class LeafLru:
    """Exact LRU of derived leaves as a chained hash over integer columns.

    ``nodes`` holds :data:`NODE_WORDS` uint64 per node — the key (tagged
    address, count low 64, count high 32 || subblock, levels), then the
    leaf, so a probe reads one record; ``prev`` / ``next`` thread the
    recency list (oldest first) through node 0, its sentinel, ``chain``
    the nodes of one bucket from ``heads``, a power-of-two table sized
    once, for ``limit`` entries. ``nodes[0]`` — the sentinel's first word
    — is the number of entries held: they are nodes ``1..nodes[0]``,
    because the node an insert evicts is the node it reuses. The columns
    grow a chunk at a time (:meth:`_grow`). The native frontend kernel
    probes, relinks and fills these same columns through the buffer
    protocol; everything else here is a read-out over them.
    """

    def __init__(self, limit: int = LEAF_CACHE_LIMIT):
        self.nodes = array("Q", bytes(_NODE_BYTES))
        self.prev = array("i", [0])
        self.next = array("i", [0])
        self.chain = array("i", [0])
        self.heads = array("i", [0]) * (
            1 << max(min(limit, 1 << 20) - 1, 0).bit_length()
        )

    def _grow(self) -> None:
        """Add a chunk of unused nodes to the four node columns: half as
        many again, so that refilling a cold LRU copies it O(1) times."""
        more = max(_NODE_CHUNK, len(self.chain) // 2)
        self.nodes.frombytes(bytes(_NODE_BYTES * more))
        for links in (self.prev, self.next, self.chain):
            links.frombytes(bytes(4 * more))

    def _append(self, node: int) -> None:
        """Link ``node`` in at the young end of the recency list."""
        prev, next_ = self.prev, self.next
        last = prev[0]
        next_[last] = prev[0] = node
        prev[node], next_[node] = last, 0

    def get(self, address: int, count: int, levels: int, subblock: int):
        """The cached leaf, refreshed to the young end; None on a miss."""
        if subblock >> 32:
            return None  # no such key can be packed, hence none was stored
        key = address, count & _U64, (count >> 64 << 32) | subblock, levels
        nodes = self.nodes
        node = self.heads[lru_hash(*key) & (len(self.heads) - 1)]
        while node:
            if _unpack_key(nodes, _NODE_BYTES * node) == key:
                after = self.next[node]
                if after:  # not the youngest already
                    before = self.prev[node]
                    self.next[before], self.prev[after] = after, before
                    self._append(node)
                return nodes[node * NODE_WORDS + 4]
            node = self.chain[node]
        return None

    def put(self, address, count, levels, subblock, leaf, limit) -> None:
        """Hold the leaf of a key :meth:`get` just missed: in the oldest
        entry's node when ``limit`` is reached, in a new one otherwise."""
        if not limit or levels > 64:
            return  # switched off, or a leaf wider than a word: never held
        nodes, chain, heads = self.nodes, self.chain, self.heads
        mask = len(heads) - 1
        held = nodes[0]
        if held and held >= limit:
            node = self.next[0]
            after = self.next[0] = self.next[node]
            self.prev[after] = 0
            bucket = lru_hash(*_unpack_key(nodes, _NODE_BYTES * node)) & mask
            link = heads[bucket]
            if link == node:
                heads[bucket] = chain[node]
            else:
                while chain[link] != node:
                    link = chain[link]
                chain[link] = chain[node]
        else:
            if held + 1 == len(chain):
                self._grow()
            node = nodes[0] = held + 1
        key = address, count & _U64, (count >> 64 << 32) | subblock, levels
        _pack_node(nodes, _NODE_BYTES * node, *key, leaf)
        bucket = lru_hash(*key) & mask
        chain[node], heads[bucket] = heads[bucket], node
        self._append(node)

    def __len__(self) -> int:
        return self.nodes[0]

    def items(self) -> Iterator[Tuple[tuple, int]]:
        """``((address, count, levels, subblock), leaf)``, oldest first."""
        nodes, node = self.nodes, self.next[0]
        for _ in range(len(self)):
            address, low, high, levels = _unpack_key(nodes, _NODE_BYTES * node)
            yield (
                (address, (high >> 32 << 64) | low, levels, high & 0xFFFFFFFF),
                nodes[node * NODE_WORDS + 4],
            )
            node = self.next[node]

    def __iter__(self) -> Iterator[tuple]:
        return (key for key, _leaf in self.items())

    def __contains__(self, key) -> bool:
        return any(held == key for held, _leaf in self.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, LeafLru) and list(self.items()) == list(other.items())


class Prf:
    """PRF keyed at construction; maps byte strings / ints to integers."""

    MODE_AES = "aes"
    MODE_FAST = "fast"

    def __init__(
        self,
        key: bytes,
        mode: str = MODE_FAST,
        leaf_cache_entries: int = LEAF_CACHE_LIMIT,
    ):
        if mode not in (self.MODE_AES, self.MODE_FAST):
            raise ValueError(f"unknown PRF mode {mode!r}")
        self.mode = mode
        self.key = key
        self.call_count = 0
        self.cache_hits = 0
        if mode == self.MODE_AES:
            if len(key) != 16:
                raise ValueError("AES PRF requires a 16-byte key")
            self._aes = AES128(key)
        else:
            # Pre-keyed hash state: copying it skips the key-block
            # compression that ``blake2b(data, key=...)`` pays per call,
            # with a byte-identical digest.
            self._keyed_state = hashlib.blake2b(key=key, digest_size=16)
        #: Reusable leaf-derivation message buffer (no per-call allocation).
        self._message = bytearray(24)
        #: Entries the LRU may hold; read per miss, 0 stores nothing.
        self._leaf_cache_limit = max(int(leaf_cache_entries), 0)
        self._leaf_cache = LeafLru(self._leaf_cache_limit)

    def _digest(self, data: bytes) -> bytes:
        if self.mode == self.MODE_FAST:
            state = self._keyed_state.copy()
            state.update(data)
            return state.digest()
        # AES-CBC-MAC style compression for inputs longer than one block:
        # pad to a block multiple with the length, then chain.
        padded = bytes(data) + b"\x80"
        padded += b"\x00" * ((-len(padded) - 8) % 16)
        padded += len(data).to_bytes(8, "little")
        state = b"\x00" * 16
        for i in range(0, len(padded), 16):
            block = bytes(a ^ b for a, b in zip(state, padded[i : i + 16]))
            state = self._aes.encrypt_block(block)
        return state

    def eval_bytes(self, data: bytes) -> bytes:
        """PRF output (16 bytes) for an arbitrary-length input."""
        self.call_count += 1
        return self._digest(data)

    def eval_int(self, data: bytes, modulus_bits: int) -> int:
        """PRF output reduced to ``modulus_bits`` bits (``mod 2^L``)."""
        if modulus_bits <= 0:
            return 0
        digest = self.eval_bytes(data)
        return int.from_bytes(digest, "little") & ((1 << modulus_bits) - 1)

    def peek_leaf(
        self, address: int, count: int, num_levels: int, subblock: int = 0
    ) -> int:
        """The leaf :meth:`leaf_for` returns, derived without side effects.

        One evaluation of the primitive that neither counts as a PRF call
        nor reads, fills or reorders the LRU: what diagnostics use, and
        what ``leaf_for`` itself runs on a miss.
        """
        if num_levels <= 0:
            return 0
        message = self._message
        _pack_leaf_message(message, 0, address, count & _U64, count >> 64, subblock)
        digest = self._digest(message)
        return int.from_bytes(digest, "little") & ((1 << num_levels) - 1)

    def leaf_for(
        self, address: int, count: int, num_levels: int, subblock: int = 0
    ) -> int:
        """Leaf label for (address, count) per §5.2.1 / §6.2.1.

        ``subblock`` carries the sub-block index k of §5.4 when a data block
        is split into PosMap-sized sub-blocks; it is 0 otherwise.
        """
        if num_levels <= 0:
            # Degenerate single-bucket tree: no PRF evaluation happens
            # (mirrors ``eval_int``'s early return, which skips the call
            # counter), so the cache is bypassed entirely.
            return 0
        cache = self._leaf_cache
        leaf = cache.get(address, count, num_levels, subblock)
        if leaf is not None:
            # Logical PRF evaluation served from the cache: the bandwidth
            # model still counts it, the primitive is simply not re-run.
            self.call_count += 1
            self.cache_hits += 1
            return leaf
        leaf = self.peek_leaf(address, count, num_levels, subblock)
        self.call_count += 1
        cache.put(address, count, num_levels, subblock, leaf, self._leaf_cache_limit)
        return leaf

    def leaf_for_many(
        self,
        addresses: "Sequence[int]",
        counts: "Sequence[int]",
        num_levels: int,
        subblock: int = 0,
    ) -> "List[int]":
        """Batched :meth:`leaf_for`: one leaf per (address, count) pair,
        by exactly the scalar call sequence."""
        if len(addresses) != len(counts):
            raise ValueError("leaf_for_many needs equal-length address/count batches")
        leaf_for = Prf.leaf_for  # the body itself, whatever shims the instance wears
        return [
            leaf_for(self, address, count, num_levels, subblock)
            for address, count in zip(addresses, counts)
        ]
