"""Pseudorandom function PRF_K(x), used for on-demand leaf generation.

The compressed PosMap (§5.2.1) and PMMAC (§6.2.1) derive the current leaf
of block ``a`` with count ``c`` as ``PRF_K(a || c) mod 2^L``. The paper
implements PRF_K with AES-128; we offer that plus a fast keyed-BLAKE2b
instantiation for large simulations (identical interface, still a PRF —
just a different primitive).

``leaf_for`` is the replay engine's hot path: every counter-mode remap
derives both the old and the new leaf, and the old leaf of count ``c`` is
exactly the new leaf computed when the counter reached ``c`` — so a small
LRU over (address, count, levels, subblock) halves steady-state PRF work,
and group remaps (which re-derive whole sibling groups) hit it harder
still. ``call_count`` keeps counting *logical* PRF evaluations — cache
hits included — so hash-bandwidth accounting is unchanged; the separate
``cache_hits`` counter exposes the cache's effectiveness.

``leaf_for_many`` is the batched spelling: one call derives a whole run
of (address, count) leaves with the packing buffer, pre-keyed hash state
and LRU bookkeeping resolved once per batch instead of once per leaf —
bit-identical (leaves *and* counters) to the equivalent ``leaf_for``
sequence by construction.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import List, Sequence

from repro.crypto.aes import AES128

#: Bound on the leaf-derivation LRU (entries, not bytes). One entry is a
#: small tuple-keyed int; 64k entries comfortably cover replay working sets.
LEAF_CACHE_LIMIT = 1 << 16

#: addr (8) || count (12, split low-8/high-4) || subblock (4), little-endian
#: — byte-identical to the three-way ``to_bytes`` concatenation.
_pack_leaf_message = struct.Struct("<QQII").pack_into
_U64 = (1 << 64) - 1


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
        # An OrderedDict, not a plain dict: refresh (move_to_end) and
        # oldest-first eviction (popitem) are O(1) on its linked list,
        # where ``del d[next(iter(d))]`` rescans the plain dict's
        # ever-growing prefix of deleted entries on every eviction.
        self._leaf_cache: "OrderedDict[tuple, int]" = OrderedDict()
        self._leaf_cache_limit = max(int(leaf_cache_entries), 0)

    def eval_bytes(self, data: bytes) -> bytes:
        """PRF output (16 bytes) for an arbitrary-length input."""
        self.call_count += 1
        if self.mode == self.MODE_FAST:
            state = self._keyed_state.copy()
            state.update(data)
            return state.digest()
        # AES-CBC-MAC style compression for inputs longer than one block:
        # pad to a block multiple with the length, then chain.
        padded = data + b"\x80"
        padded += b"\x00" * ((-len(padded) - 8) % 16)
        padded += len(data).to_bytes(8, "little")
        state = b"\x00" * 16
        for i in range(0, len(padded), 16):
            block = bytes(a ^ b for a, b in zip(state, padded[i : i + 16]))
            state = self._aes.encrypt_block(block)
        return state

    def eval_int(self, data: bytes, modulus_bits: int) -> int:
        """PRF output reduced to ``modulus_bits`` bits (``mod 2^L``)."""
        if modulus_bits <= 0:
            return 0
        digest = self.eval_bytes(data)
        return int.from_bytes(digest, "little") & ((1 << modulus_bits) - 1)

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
        key = (address, count, num_levels, subblock)
        cache = self._leaf_cache
        leaf = cache.get(key)
        if leaf is not None:
            # Logical PRF evaluation served from the cache: the bandwidth
            # model still counts it, the primitive is simply not re-run.
            self.call_count += 1
            self.cache_hits += 1
            cache.move_to_end(key)  # LRU: refresh to the young end
            return leaf
        if self.mode == self.MODE_FAST:
            message = self._message
            _pack_leaf_message(
                message, 0, address, count & _U64, count >> 64, subblock
            )
            self.call_count += 1
            state = self._keyed_state.copy()
            state.update(message)
            leaf = int.from_bytes(state.digest(), "little") & (
                (1 << num_levels) - 1
            )
        else:
            leaf = self.eval_int(
                address.to_bytes(8, "little")
                + count.to_bytes(12, "little")
                + subblock.to_bytes(4, "little"),
                num_levels,
            )
        limit = self._leaf_cache_limit
        if limit:
            if len(cache) >= limit:
                cache.popitem(last=False)  # evict the oldest entry
            cache[key] = leaf
        return leaf

    def leaf_for_many(
        self,
        addresses: "Sequence[int]",
        counts: "Sequence[int]",
        num_levels: int,
        subblock: int = 0,
    ) -> "List[int]":
        """Batched :meth:`leaf_for`: one leaf per (address, count) pair.

        Semantically exactly the scalar call sequence
        ``[leaf_for(a, c, num_levels, subblock) for a, c in zip(...)]`` —
        same leaves, same ``call_count``/``cache_hits`` accounting, same
        LRU state evolution — but the buffer packing, pre-keyed BLAKE2b
        state lookup and cache bookkeeping are amortised over the batch
        (every per-item attribute resolution is hoisted out of the loop),
        and the LRU is fed in one pass.
        """
        if len(addresses) != len(counts):
            raise ValueError("leaf_for_many needs equal-length address/count batches")
        if num_levels <= 0:
            # Degenerate single-bucket tree: mirrors leaf_for (no PRF
            # evaluation, no counter movement, cache bypassed).
            return [0] * len(addresses)
        if self.mode != self.MODE_FAST:
            return [
                self.leaf_for(addr, count, num_levels, subblock)
                for addr, count in zip(addresses, counts)
            ]
        cache = self._leaf_cache
        cache_get = cache.get
        refresh = cache.move_to_end
        evict_oldest = cache.popitem
        limit = self._leaf_cache_limit
        message = self._message
        pack = _pack_leaf_message
        keyed_state = self._keyed_state
        mask = (1 << num_levels) - 1
        from_bytes = int.from_bytes
        calls = 0
        hits = 0
        out: List[int] = []
        append = out.append
        for address, count in zip(addresses, counts):
            key = (address, count, num_levels, subblock)
            leaf = cache_get(key)
            calls += 1
            if leaf is not None:
                hits += 1
                refresh(key)  # LRU: to the young end
                append(leaf)
                continue
            pack(message, 0, address, count & _U64, count >> 64, subblock)
            state = keyed_state.copy()
            state.update(message)
            leaf = from_bytes(state.digest(), "little") & mask
            if limit:
                if len(cache) >= limit:
                    evict_oldest(last=False)
                cache[key] = leaf
            append(leaf)
        self.call_count += calls
        self.cache_hits += hits
        return out
