"""On-chip PosMap: the root of the recursion (§3.2's "root page table").

Stores one entry per block of the top recursion level. Two modes:

- ``leaf`` mode: entries are literal leaf labels remapped uniformly at
  random on each access (classic Path ORAM, §3.1).
- ``counter`` mode: entries are flat 64-bit access counters and the leaf
  is derived as PRF_K(a || c) mod 2^L (§6.2.1). Because the counters are
  on-chip they are tamper-proof, forming PMMAC's root of trust.

First-touch handling: hardware ships with factory-initialised memory; a
simulator cannot afford to pre-write every block through the ORAM, so in
leaf mode a never-touched entry receives its initial uniform label on
first access (statistically identical to pre-initialisation), and in
counter mode the initial count is simply zero, exactly as in hardware.

The table is one fixed-size uint64 column (``array('Q')``), as wide as
the SRAM words it stands for, beside the first-touch bitmap; the native
frontend kernels (``FrontendKernel`` and ``RecursiveKernel`` alike) read
and remap the entries in that same memory.
"""

from __future__ import annotations

from array import array
from typing import Optional, Tuple

from repro.crypto.prf import Prf
from repro.errors import ConfigurationError
from repro.utils.rng import DeterministicRng


class OnChipPosMap:
    """Trusted on-chip table of leaves or counters."""

    MODE_LEAF = "leaf"
    MODE_COUNTER = "counter"

    def __init__(
        self,
        entries: int,
        levels: int,
        mode: str = MODE_LEAF,
        rng: Optional[DeterministicRng] = None,
        prf: Optional[Prf] = None,
        counter_bits: int = 64,
    ):
        if mode not in (self.MODE_LEAF, self.MODE_COUNTER):
            raise ConfigurationError(f"unknown PosMap mode {mode!r}")
        if mode == self.MODE_LEAF and rng is None:
            raise ConfigurationError("leaf mode requires an RNG")
        if mode == self.MODE_COUNTER and prf is None:
            raise ConfigurationError("counter mode requires a PRF")
        self.entries = entries
        self.levels = levels
        self.mode = mode
        self.rng = rng
        self.prf = prf
        self.counter_bits = counter_bits
        self._table = array("Q", bytes(8 * entries))
        self._touched = bytearray((entries + 7) // 8)

    # -- first-touch bookkeeping ------------------------------------------------

    def _is_touched(self, index: int) -> bool:
        return bool(self._touched[index >> 3] & (1 << (index & 7)))

    def _mark_touched(self, index: int) -> None:
        self._touched[index >> 3] |= 1 << (index & 7)

    # -- access -------------------------------------------------------------------

    def lookup_and_remap(self, index: int, tagged_addr: int) -> Tuple[int, int, int]:
        """Return (current_leaf, new_leaf, new_counter) and remap the entry.

        ``tagged_addr`` feeds the PRF in counter mode. The returned
        ``new_counter`` is 0 in leaf mode.
        """
        if not 0 <= index < self.entries:
            raise ValueError(f"on-chip PosMap index {index} out of range")
        if self.mode == self.MODE_LEAF:
            if self._is_touched(index):
                current = self._table[index]
            else:
                current = self.rng.random_leaf(self.levels)
                self._mark_touched(index)
            new = self.rng.random_leaf(self.levels)
            self._table[index] = new
            return current, new, 0

        count = self._table[index]
        new_count = count + 1
        if new_count >= (1 << self.counter_bits):
            raise ConfigurationError("on-chip counter overflow")
        self._table[index] = new_count
        self._mark_touched(index)
        current = self.prf.leaf_for(tagged_addr, count, self.levels)
        new = self.prf.leaf_for(tagged_addr, new_count, self.levels)
        return current, new, new_count

    def counter(self, index: int) -> int:
        """Current counter value (counter mode only)."""
        if self.mode != self.MODE_COUNTER:
            raise ConfigurationError("counters only exist in counter mode")
        return self._table[index]

    def peek_leaf(self, index: int, tagged_addr: int = 0) -> int:
        """Current leaf without remapping (testing/diagnostics)."""
        if self.mode == self.MODE_LEAF:
            if not self._is_touched(index):
                raise KeyError(f"entry {index} not yet initialised")
            return self._table[index]
        return self.prf.peek_leaf(tagged_addr, self._table[index], self.levels)

    @property
    def size_bytes(self) -> int:
        """On-chip SRAM footprint (entries x entry width)."""
        bits = self.levels if self.mode == self.MODE_LEAF else self.counter_bits
        return (self.entries * bits + 7) // 8
