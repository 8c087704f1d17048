"""Pseudorandom function PRF_K(x), used for on-demand leaf generation.

The compressed PosMap (§5.2.1) and PMMAC (§6.2.1) derive the current leaf
of block ``a`` with count ``c`` as ``PRF_K(a || c) mod 2^L``. The paper
implements PRF_K with AES-128; we offer that plus a fast keyed-BLAKE2b
instantiation for large simulations (identical interface, still a PRF —
just a different primitive).

``leaf_for`` is the replay engine's hot path: every counter-mode remap
derives the old and the new leaf, each one evaluation of the primitive —
in ``fast`` mode one BLAKE2b compression from the pre-keyed mid-state
(the native frontend kernel derives the two in one two-lane compression
on a CPU with AVX-512VL; ``call_count`` still moves by two).
No leaf is memoised. The paper caches none, a leaf is a function of the
key and the counter the PosMap already holds, and an exact LRU memo
(65 536 entries) did not pay for itself: it served 13 % of the calls on
``replay_posmap_bound``, 3-6 % on PI_X8 and none on ``replay_write_scan``
or on any PC_X32 / PIC_X32 cell of the Fig. 6 sweep, while its ~3.4 MB
of node columns pushed the tree's columns out of a 2 MB L2. Deriving
every leaf raised ``ops_per_s`` 1.20x on ``replay_write_scan``, 1.18x on
``replay_posmap_bound`` and 1.10x on ``serve_mixed_tenants`` (medians of
ten alternating pairs, 2 vCPUs).

``call_count`` counts logical PRF evaluations, which is what the
hash-bandwidth model charges. ``cache_hits`` is always 0.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence

from repro.crypto.aes import AES128
from repro.utils.stats import LEDGERS

#: addr (8) || count (12, split low-8/high-4) || subblock (4), little-endian
#: — byte-identical to the three-way ``to_bytes`` concatenation.
_pack_leaf_message = struct.Struct("<QQII").pack_into
_U64 = (1 << 64) - 1


@LEDGERS["prf"].bind()
class Prf:
    """PRF keyed at construction; maps byte strings / ints to integers.
    ``call_count`` is the one slot of ``ledger``, counted in C too."""

    MODE_AES = "aes"
    MODE_FAST = "fast"

    #: No leaf is memoised, so none is ever served from a cache.
    cache_hits = 0

    def __init__(self, key: bytes, mode: str = MODE_FAST):
        if mode not in (self.MODE_AES, self.MODE_FAST):
            raise ValueError(f"unknown PRF mode {mode!r}")
        self.mode = mode
        self.key = key
        self.ledger = LEDGERS["prf"].column()
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
        """The leaf :meth:`leaf_for` returns, derived without counting a
        PRF call: what diagnostics use."""
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
            # counter).
            return 0
        self.call_count += 1
        return self.peek_leaf(address, count, num_levels, subblock)

    def leaf_for_many(
        self,
        addresses: "Sequence[int]",
        counts: "Sequence[int]",
        num_levels: int,
        subblock: int = 0,
    ) -> "List[int]":
        """One :meth:`leaf_for` per (address, count) pair, in order."""
        if len(addresses) != len(counts):
            raise ValueError("leaf_for_many needs equal-length address/count batches")
        leaf_for = Prf.leaf_for  # the body itself, whatever shims the instance wears
        return [
            leaf_for(self, address, count, num_levels, subblock)
            for address, count in zip(addresses, counts)
        ]
