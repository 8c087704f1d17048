"""§5.4 sub-block construction: the asymptotically optimal variant.

When the data block size B exceeds the optimal PosMap block size
Bp = Θ(log N), §5.4 splits each data block into ceil(B/Bp) sub-blocks
stored as *independent* blocks of the Unified tree. All sub-blocks of a
logical block share a single compressed individual counter; the leaf of
sub-block k is PRF_K(GC || IC_j || a+j || k) mod 2^L — the sub-block
index enters the PRF, so each piece lives on its own uniform path.

A full access is then H Backend accesses for the PosMap chain plus
ceil(B/Bp) Backend accesses for the sub-blocks, which is what yields the
O(log N + log^3 N / (B log log N)) overhead — the best known Position-
based ORAM for intermediate block sizes (§5.4). The analysis assumes no
PLB (locality is workload-dependent), so this frontend walks the
recursion on every access, mirroring the analysed construction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import OramConfig
from repro.crypto.suite import CryptoSuite
from repro.errors import ConfigurationError
from repro.frontend.addrgen import AddressSpace, levels_needed
from repro.frontend.base import AccessResult, Frontend
from repro.frontend.formats import CompressedPosMapFormat
from repro.frontend.posmap import OnChipPosMap
from repro.storage.tree import TreeStorage
from repro.utils.bitops import next_pow2
from repro.utils.rng import DeterministicRng

#: Tag level used for sub-block (data) addresses; PosMap levels are 1..H-1
#: on their own tags, so level 0 carries logical_index * s + k.
_DATA_LEVEL = 0


class SubBlockFrontend(Frontend):
    """Compressed-PosMap ORAM with §5.4 sub-block splitting (no PLB)."""

    def __init__(
        self,
        num_blocks: int,
        data_block_bytes: int = 512,
        posmap_block_bytes: int = 64,
        blocks_per_bucket: int = 4,
        onchip_entries: int = 1024,
        alpha_bits: int = 64,
        beta_bits: int = 14,
        crypto: Optional[CryptoSuite] = None,
        rng: Optional[DeterministicRng] = None,
        observer=None,
    ):
        super().__init__()
        if data_block_bytes % posmap_block_bytes:
            raise ConfigurationError("B must be a multiple of Bp for splitting")
        self.rng = rng if rng is not None else DeterministicRng(0)
        self.crypto = crypto if crypto is not None else CryptoSuite.fast()
        self.num_blocks = num_blocks
        self.data_block_bytes = data_block_bytes
        self.sub_blocks = data_block_bytes // posmap_block_bytes

        # Plan the recursion over *logical* blocks with the compressed
        # fan-out; the tree itself stores Bp-sized blocks.
        fanout = CompressedPosMapFormat(
            posmap_block_bytes, levels=1, prf=self.crypto.prf,
            alpha_bits=alpha_bits, beta_bits=beta_bits,
        ).fanout
        self.num_levels = levels_needed(num_blocks, fanout, onchip_entries)
        self.space = AddressSpace(num_blocks, fanout, self.num_levels)
        total = self.space.total_blocks() - num_blocks  # PosMap blocks
        total += num_blocks * self.sub_blocks  # data sub-blocks
        self.config = OramConfig(
            num_blocks=next_pow2(total),
            block_bytes=posmap_block_bytes,
            blocks_per_bucket=blocks_per_bucket,
        )
        self.format = CompressedPosMapFormat(
            posmap_block_bytes,
            self.config.levels,
            self.crypto.prf,
            alpha_bits=alpha_bits,
            beta_bits=beta_bits,
            fanout=fanout,
        )
        view = observer.for_tree(0) if observer is not None else None
        storage = TreeStorage(self.config, observer=view)
        self.backend = PathOramBackend(self.config, storage, self.rng.fork(0x5B))
        top = self.num_levels - 1
        self.posmap = OnChipPosMap(
            entries=self.space.level_blocks(top),
            levels=self.config.levels,
            mode=OnChipPosMap.MODE_COUNTER,
            prf=self.crypto.prf,
        )

    # -- sub-block leaf derivation -------------------------------------------------

    def _sub_leaf(self, logical: int, counter: int, k: int) -> int:
        """Leaf of sub-block k: PRF(GC||IC||a||k) per §5.4."""
        return self.crypto.prf.leaf_for(
            logical, counter, self.config.levels, subblock=k
        )

    def _sub_tag(self, logical: int, k: int) -> int:
        """Unified-tree address of sub-block k of a logical block."""
        return self.space.tag(_DATA_LEVEL, logical * self.sub_blocks + k)

    # -- access ------------------------------------------------------------------------

    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """H PosMap Backend accesses, then ceil(B/Bp) sub-block accesses."""
        if op not in (Op.READ, Op.WRITE):
            raise ConfigurationError("processor requests are READ or WRITE")
        if op is Op.WRITE and (data is None or len(data) != self.data_block_bytes):
            raise ValueError("WRITE requires a full logical block of data")
        self.stats.accesses += 1
        chain = self.space.chain(addr)
        top = self.num_levels - 1

        # On-chip: counter of the top PosMap block.
        leaf, new_leaf, _ = self.posmap.lookup_and_remap(
            chain[top], self.space.tag(top, chain[top])
        )

        # Walk PosMap blocks top-down; the final remap yields the logical
        # block's shared counter transition.
        old_counter = new_counter = 0
        for level in range(top, 0, -1):
            slot = self.space.child_slot(chain[level - 1])
            child_tag = self.space.tag(level - 1, chain[level - 1])
            holder = {}

            def update(block, slot=slot, child_tag=child_tag, holder=holder):
                buf = bytearray(block.data)
                holder["remap"] = self.format.remap(buf, slot, child_tag, self.rng)
                block.data = bytes(buf)

            self.backend.access(
                Op.READ, self.space.tag(level, chain[level]), leaf, new_leaf,
                update=update,
            )
            self.stats.posmap_tree_accesses += 1
            remap = holder["remap"]
            if remap.group_remap_slots:
                self._group_remap(level - 1, chain[level - 1], remap)
            leaf, new_leaf = remap.old_leaf, remap.new_leaf
            old_counter, new_counter = remap.old_counter, remap.new_counter

        # Sub-block accesses: every piece moves to its new PRF path.
        pieces: List[bytes] = []
        bp = self.config.block_bytes
        for k in range(self.sub_blocks):
            sub_leaf = self._sub_leaf(addr, old_counter, k)
            sub_new = self._sub_leaf(addr, new_counter, k)

            def update(block, k=k):
                if op is Op.WRITE:
                    block.data = bytes(data[k * bp : (k + 1) * bp])

            block = self.backend.access(
                op, self._sub_tag(addr, k), sub_leaf, sub_new, update=update
            )
            self.stats.data_tree_accesses += 1
            pieces.append(block.data)

        return AccessResult(
            data=b"".join(pieces),
            tree_accesses=(self.num_levels - 1) + self.sub_blocks,
            posmap_tree_accesses=self.num_levels - 1,
        )

    def _group_remap(self, level: int, child_index: int, result) -> None:
        """Relocate siblings after an IC rollover.

        Level-0 siblings are *logical* blocks: all their sub-blocks move.
        Higher-level siblings are single PosMap blocks.
        """
        self.stats.group_remaps += 1
        group_base = child_index - (child_index % self.space.fanout)
        level_size = self.space.level_blocks(level)
        for slot, old_counter in result.group_remap_slots:
            sibling = group_base + slot
            if sibling >= level_size:
                continue
            if level == _DATA_LEVEL:
                for k in range(self.sub_blocks):
                    self._relocate(
                        self._sub_tag(sibling, k),
                        self._sub_leaf(sibling, old_counter, k),
                        self._sub_leaf(sibling, result.new_counter, k),
                    )
            else:
                tag = self.space.tag(level, sibling)
                self._relocate(
                    tag,
                    self.format.leaf_for_counter(tag, old_counter),
                    self.format.leaf_for_counter(tag, result.new_counter),
                )

    def _relocate(self, tag: int, old_leaf: int, new_leaf: int) -> None:
        block = self.backend.access(Op.READRMV, tag, old_leaf, new_leaf)
        self.stats.posmap_tree_accesses += 1
        self.stats.group_relocations += 1
        self.backend.access(Op.APPEND, tag, append_block=block)

    # -- bandwidth attribution -------------------------------------------------------------

    @property
    def data_bytes_moved(self) -> int:
        """Sub-block traffic."""
        return self.stats.data_tree_accesses * 2 * self.config.path_bytes

    @property
    def posmap_bytes_moved(self) -> int:
        """PosMap chain traffic."""
        return self.stats.posmap_tree_accesses * 2 * self.config.path_bytes

    @property
    def onchip_posmap_bytes(self) -> int:
        """SRAM footprint of the on-chip counters."""
        return self.posmap.size_bytes
