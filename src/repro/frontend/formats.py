"""PosMap block formats: uncompressed leaves, flat counters, compressed.

A PosMap block at recursion level i+1 stores, for X consecutive child
blocks of level i, the information needed to derive each child's current
leaf:

- **Uncompressed** (§3.2): X literal leaf labels. X = B / leaf_bytes
  (16 for 64-byte blocks and 4-byte leaves — the paper's P_X16).
- **Flat counter** (§6.2.2): X 64-bit access counters; the leaf is
  PRF_K(a || c) mod 2^L. X = B/8 = 8 (the paper's PI_X8).
- **Compressed** (§5.2.1): one α-bit group counter GC plus X β-bit
  individual counters IC_j; the child's logical count is GC || IC_j and
  the leaf is PRF_K(a+j || GC || IC_j) mod 2^L. With B = 512 bits,
  α = 64, β = 14 this packs X = 32 (PC_X32 / PIC_X32). Incrementing an
  IC past 2^β - 1 triggers a *group remap*: GC += 1 and every IC in the
  block resets to zero, relocating all X children (§5.2.2).

Formats are stateless codecs over block payload bytes. ``RemapResult``
carries everything a Frontend needs to finish the operation, including
which siblings must be relocated on a group remap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto.prf import Prf
from repro.errors import ConfigurationError
from repro.utils.rng import DeterministicRng


@dataclass(slots=True)
class RemapResult:
    """Outcome of remapping one child entry inside a PosMap block."""

    old_leaf: int
    new_leaf: int
    old_counter: int = 0
    new_counter: int = 0
    #: (slot, old_counter) for every child other than the accessed one that
    #: must be relocated because a group remap reset its counter; the new
    #: counter for all of them equals ``new_counter``. Empty unless a
    #: compressed-format IC rolled over.
    group_remap_slots: List[Tuple[int, int]] = field(default_factory=list)


class UncompressedPosMapFormat:
    """X literal leaf labels of ``leaf_bytes`` each."""

    kind = "uncompressed"
    uses_counters = False

    def __init__(self, block_bytes: int, levels: int, leaf_bytes: int = 4):
        if block_bytes % leaf_bytes:
            raise ConfigurationError("block size must be a leaf multiple")
        self.block_bytes = block_bytes
        self.leaf_bytes = leaf_bytes
        self.levels = levels
        self.fanout = block_bytes // leaf_bytes
        if levels >= 8 * leaf_bytes:
            raise ConfigurationError("leaf label does not fit in an entry")

    def leaf_of(self, data: bytes, slot: int, child_addr: int) -> int:
        """Current leaf of the child in ``slot`` (child_addr unused)."""
        off = slot * self.leaf_bytes
        return int.from_bytes(data[off : off + self.leaf_bytes], "little")

    def counter_of(self, data: bytes, slot: int) -> int:
        """Uncompressed entries carry no counters."""
        raise ConfigurationError("uncompressed PosMap has no counters")

    def remap(
        self, data: bytearray, slot: int, child_addr: int, rng: DeterministicRng
    ) -> RemapResult:
        """Replace the slot's leaf with a fresh uniform label."""
        off = slot * self.leaf_bytes
        end = off + self.leaf_bytes
        # Read the old label straight from the mutable block — no
        # whole-block copy on the replay hot path.
        old = int.from_bytes(data[off:end], "little")
        new = rng.random_leaf(self.levels)
        data[off:end] = new.to_bytes(self.leaf_bytes, "little")
        return RemapResult(old_leaf=old, new_leaf=new)

    def initial_block(self) -> bytes:
        """Payload for a never-written PosMap block."""
        return bytes(self.block_bytes)


class FlatCounterPosMapFormat:
    """X flat 64-bit counters; leaves derived by PRF (PI_X8 of §6.2.2)."""

    kind = "flat"
    uses_counters = True

    def __init__(self, block_bytes: int, levels: int, prf: Prf, counter_bytes: int = 8):
        if block_bytes % counter_bytes:
            raise ConfigurationError("block size must be a counter multiple")
        self.block_bytes = block_bytes
        self.counter_bytes = counter_bytes
        self.levels = levels
        self.prf = prf
        self.fanout = block_bytes // counter_bytes

    def counter_of(self, data: bytes, slot: int) -> int:
        """Current access count of the child in ``slot``."""
        off = slot * self.counter_bytes
        return int.from_bytes(data[off : off + self.counter_bytes], "little")

    def leaf_of(self, data: bytes, slot: int, child_addr: int) -> int:
        """Leaf = PRF_K(child_addr || c) mod 2^L."""
        return self.prf.peek_leaf(child_addr, self.counter_of(data, slot), self.levels)

    def remap(
        self, data: bytearray, slot: int, child_addr: int, rng: DeterministicRng
    ) -> RemapResult:
        """Increment the child's counter; derive old and new leaves."""
        off = slot * self.counter_bytes
        # Read the counter straight out of the mutable block: no whole-block
        # copy on the replay hot path.
        old_c = int.from_bytes(data[off : off + self.counter_bytes], "little")
        new_c = old_c + 1
        data[off : off + self.counter_bytes] = new_c.to_bytes(self.counter_bytes, "little")
        old_leaf = self.prf.leaf_for(child_addr, old_c, self.levels)
        new_leaf = self.prf.leaf_for(child_addr, new_c, self.levels)
        return RemapResult(
            old_leaf=old_leaf,
            new_leaf=new_leaf,
            old_counter=old_c,
            new_counter=new_c,
        )

    def initial_block(self) -> bytes:
        """All counters zero (factory state)."""
        return bytes(self.block_bytes)


class CompressedPosMapFormat:
    """GC || IC_0 || ... || IC_{X-1} with PRF-derived leaves (§5.2.1).

    The logical per-child count is ``(GC << β) | IC_j``, which strictly
    increases across normal increments and group remaps, so it doubles as
    the PMMAC freshness nonce (§6.2.2).
    """

    kind = "compressed"
    uses_counters = True

    def __init__(
        self,
        block_bytes: int,
        levels: int,
        prf: Prf,
        alpha_bits: int = 64,
        beta_bits: int = 14,
        fanout: Optional[int] = None,
    ):
        total_bits = 8 * block_bytes
        max_fanout = (total_bits - alpha_bits) // beta_bits
        if fanout is None:
            # Footnote 2: X' is restricted to a power of two to simplify
            # the PosMap block address translation.
            fanout = 1 << (max_fanout.bit_length() - 1) if max_fanout >= 1 else 0
        self.fanout = fanout
        if self.fanout < 1 or self.fanout > max_fanout:
            raise ConfigurationError(
                f"fanout {fanout} does not fit: block {total_bits}b, "
                f"alpha {alpha_bits}b, beta {beta_bits}b"
            )
        self.block_bytes = block_bytes
        self.levels = levels
        self.prf = prf
        self.alpha_bits = alpha_bits
        self.beta_bits = beta_bits
        self._ic_mask = (1 << beta_bits) - 1

    # -- field access (bit-packed little-endian integer view) -----------------

    def _unpack(self, data: bytes) -> int:
        return int.from_bytes(data, "little")

    def group_counter(self, data: bytes) -> int:
        """GC field."""
        return self._unpack(data) & ((1 << self.alpha_bits) - 1)

    def individual_counter(self, data: bytes, slot: int) -> int:
        """IC_slot field."""
        value = self._unpack(data)
        return (value >> (self.alpha_bits + slot * self.beta_bits)) & self._ic_mask

    def counter_of(self, data: bytes, slot: int) -> int:
        """Logical per-child count (GC << β) | IC."""
        return (self.group_counter(data) << self.beta_bits) | self.individual_counter(
            data, slot
        )

    def leaf_of(self, data: bytes, slot: int, child_addr: int) -> int:
        """Leaf = PRF_K(child_addr || GC || IC) mod 2^L."""
        return self.prf.peek_leaf(child_addr, self.counter_of(data, slot), self.levels)

    def leaf_for_counter(self, child_addr: int, counter: int) -> int:
        """Leaf for an explicit logical count (used by group relocation)."""
        return self.prf.leaf_for(child_addr, counter, self.levels)

    # -- remap -----------------------------------------------------------------

    def remap(
        self, data: bytearray, slot: int, child_addr: int, rng: DeterministicRng
    ) -> RemapResult:
        """Increment IC_slot, performing a group remap on rollover.

        The common (no-rollover) case touches only the few bytes spanning
        GC and the addressed IC field — an IC increment cannot carry out of
        its β-bit field, so the byte-exact result matches rewriting the
        whole block from its integer image. The rare rollover keeps the
        straightforward whole-block path.
        """
        alpha = self.alpha_bits
        beta = self.beta_bits
        gc = int.from_bytes(data[: (alpha + 7) >> 3], "little") & ((1 << alpha) - 1)
        ic_shift = alpha + slot * beta
        byte_off = ic_shift >> 3
        bit_off = ic_shift & 7
        window = data[byte_off : byte_off + ((bit_off + beta + 7) >> 3)]
        word = int.from_bytes(window, "little")
        ic = (word >> bit_off) & self._ic_mask
        old_counter = (gc << beta) | ic

        if ic < self._ic_mask:
            word += 1 << bit_off
            data[byte_off : byte_off + len(window)] = word.to_bytes(
                len(window), "little"
            )
            new_counter = old_counter + 1
            group_slots: List[Tuple[int, int]] = []
        else:
            # Group remap: GC += 1, every IC (including this one) resets.
            value = int.from_bytes(data, "little")
            new_gc = gc + 1
            if new_gc >= (1 << alpha):
                raise ConfigurationError("group counter overflow (alpha too small)")
            group_slots = []
            for s in range(self.fanout):
                if s == slot:
                    continue
                ic_s = (value >> (alpha + s * beta)) & self._ic_mask
                group_slots.append((s, (gc << beta) | ic_s))
            new_counter = new_gc << beta
            data[:] = new_gc.to_bytes(self.block_bytes, "little")  # all ICs zero
        old_leaf = self.prf.leaf_for(child_addr, old_counter, self.levels)
        new_leaf = self.prf.leaf_for(child_addr, new_counter, self.levels)
        return RemapResult(
            old_leaf=old_leaf,
            new_leaf=new_leaf,
            old_counter=old_counter,
            new_counter=new_counter,
            group_remap_slots=group_slots,
        )

    def initial_block(self) -> bytes:
        """All counters zero (factory state)."""
        return bytes(self.block_bytes)
