"""PLB-enabled Frontend over a Unified ORAM tree (§4), with optional
compressed PosMap (§5) and PMMAC integrity verification (§6).

All recursion levels — data blocks and every PosMap level — live in one
physical tree ``ORamU``, addressed with i||a_i tags (§4.2.1). The access
algorithm is §4.2.4:

1. *PLB lookup loop*: find the smallest i such that the PosMap block
   a_{i+1} (which holds the leaf of a_i) is PLB-resident; fall back to the
   on-chip PosMap at i = H-1.
2. *PosMap block accesses*: readrmv each missing PosMap block from ORamU
   and refill it into the PLB, appending any PLB victim back to the stash.
3. *Data block access*: an ordinary read/write to ORamU.

PMMAC (§6.2): every block is stored with h = MAC_K(c || a || d) where the
count c comes from the block's parent PosMap entry (flat or compressed
counters) — tamper-proof recursively up to the on-chip PosMap. Only the
block of interest is ever hashed, the source of the >= 68x hash-bandwidth
advantage over Merkle schemes (§6.3).

The Backend is driven through its four public ops only; no Backend changes
are required for any of the three mechanisms — the paper's composability
claim, which the test suite checks by running every scheme against the
same Backend implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.backend.ops import Op
from repro.backend.path_oram import make_backend
from repro.crypto.mac import Mac
from repro.crypto.prf import Prf
from repro.crypto.suite import CryptoSuite
from repro.errors import ConfigurationError, IntegrityViolationError
from repro.frontend.addrgen import AddressSpace, levels_needed
from repro.frontend.base import AccessResult, Frontend, check_request
from repro.frontend.formats import (
    CompressedPosMapFormat,
    FlatCounterPosMapFormat,
    UncompressedPosMapFormat,
)
from repro.frontend.plb import Plb, PlbEntry, PlbWay
from repro.frontend.posmap import OnChipPosMap
from repro.storage import make_storage
from repro.storage.block import Block
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.spec import SchemeSpec


class PlbFrontend(Frontend):
    """The paper's Frontend: PLB + Unified tree (+ compression / PMMAC)."""

    def __init__(
        self,
        spec: "SchemeSpec",
        *,
        rng: Optional[DeterministicRng] = None,
        observer=None,
        crypto: Optional[CryptoSuite] = None,
        storage_factory=None,
    ):
        """Build the PLB + Unified-tree frontend ``spec`` describes.

        ``crypto`` (a suite instance) overrides ``spec.crypto``; a
        ``storage_factory(config, observer)`` overrides ``spec.storage``.
        """
        super().__init__()
        if spec.frontend != "plb":
            raise ConfigurationError(f"not a plb spec: {spec.frontend!r}")
        self.rng = rng if rng is not None else DeterministicRng(0)
        if crypto is None:  # spec.crypto names a CryptoSuite constructor
            crypto = getattr(CryptoSuite, spec.crypto)()
        self.crypto = crypto
        self.pmmac = spec.pmmac
        self.num_blocks = spec.num_blocks

        # One tree holds the data blocks and every PosMap level
        # (``SchemeSpec.tree_configs``). Geometry is solved iteratively
        # because the format's fan-out is independent of tree depth here
        # (leaf labels are 4 bytes / PRF-derived for any supported depth).
        fanout = spec.fanout
        self.space_levels = levels_needed(spec.num_blocks, fanout, spec.onchip_entries)
        self.space = AddressSpace(spec.num_blocks, fanout, self.space_levels)
        (self.config,) = spec.tree_configs()

        self.format = self._build_format(spec)
        if self.format.fanout != fanout:
            raise ConfigurationError("fan-out mismatch between planning and format")

        if storage_factory is not None:
            storage = storage_factory(self.config, observer)
        else:
            view = observer.for_tree(0) if observer is not None else None
            storage = make_storage(spec.storage, self.config, observer=view)
        self.backend = make_backend(self.config, storage, self.rng.fork(0xBACC))

        top = self.space_levels - 1
        self.posmap = OnChipPosMap(
            entries=self.space.level_blocks(top),
            levels=self.config.levels,
            mode=OnChipPosMap.MODE_COUNTER if spec.pmmac else OnChipPosMap.MODE_LEAF,
            rng=self.rng,
            prf=self.crypto.prf,
        )
        self.plb = Plb(spec.plb_capacity_bytes, spec.block_bytes, ways=spec.plb_ways)
        # First-touch bitmap per level for leaf-mode entries (see
        # OnChipPosMap docstring); counter formats need none — zero
        # counters reproduce factory state exactly.
        self._touched: List[Optional[bytearray]] = [None] * self.space_levels
        if not self.format.uses_counters:
            for level in range(self.space_levels - 1):
                size = (self.space.level_blocks(level) + 7) // 8
                self._touched[level] = bytearray(size)
        # The native FrontendKernel handle; None until enable_native_kernel().
        self._kernel = None

    def enable_native_kernel(self, core) -> None:
        """Hand every later :meth:`access` to a native ``FrontendKernel``.

        ``core`` is only the on-switch (``None`` is a no-op; anything
        else binds one handle, of the real module's type); idempotent.
        The kernel is the whole of :meth:`access` in C over this
        frontend's own columns — the PLB's, the on-chip table, the
        first-touch bitmaps, the ledgers of the statistics, the PLB, the
        PRF and the MAC — and its RNG, so the Python path below,
        ``peek``/``entries`` and the lockstep harnesses keep reading one
        copy of the state. Of the PRF it keeps only a BLAKE2b
        mid-state, keyed once. It engages
        only on top of the backend's ``AccessKernel`` (columnar storage)
        and the BLAKE2b ``fast`` suite, with format fields its fixed-width
        arithmetic holds; everything else keeps the Python path.
        """
        if core is None or self._kernel is not None:
            return
        from repro.sim.native import _replay_core

        tree_kernel = getattr(self.backend, "_kernel", None)
        prf, mac, fmt = self.crypto.prf, self.crypto.mac, self.format
        leaf_bytes, alpha, beta = (
            getattr(fmt, name, 0)
            for name in ("leaf_bytes", "alpha_bits", "beta_bits")
        )
        if (
            type(tree_kernel) is not _replay_core.AccessKernel
            or prf.mode != Prf.MODE_FAST
            or mac.mode != Mac.MODE_FAST
            or leaf_bytes > 8
            or alpha > 64
            or beta > 32
        ):
            return
        plb, posmap, space = self.plb, self.posmap, self.space
        self._kernel = _replay_core.FrontendKernel(
            self, tree_kernel, PlbFrontend.access,
            (self.stats.ledger, plb.ledger, prf.ledger, mac.ledger),
            (plb.tags, plb.leaves, plb.counters, plb.last_use, plb.payload),
            posmap._table, posmap._touched, self._touched,
            self.rng._getrandbits,
            (
                self.space_levels, space.fanout, space.num_blocks,
                tuple(space.level_blocks(i) for i in range(self.space_levels)),
                plb.num_sets, plb.ways, posmap.entries,
            ),
            (
                fmt.kind, leaf_bytes, alpha, beta,
                posmap.mode == OnChipPosMap.MODE_COUNTER, self.pmmac,
            ),
            (prf.key, mac.key, mac.tag_bytes),
            (
                AccessResult, Op.READ, Op.WRITE,
                ConfigurationError, IntegrityViolationError,
            ),
        )

    # -- construction helpers -----------------------------------------------------

    def _build_format(self, spec):
        levels = self.config.levels
        if spec.posmap_format == "uncompressed":
            return UncompressedPosMapFormat(spec.block_bytes, levels, spec.leaf_bytes)
        if spec.posmap_format == "flat":
            return FlatCounterPosMapFormat(spec.block_bytes, levels, self.crypto.prf)
        return CompressedPosMapFormat(
            spec.block_bytes,
            levels,
            self.crypto.prf,
            alpha_bits=spec.compressed_alpha,
            beta_bits=spec.compressed_beta,
            fanout=spec.compressed_fanout,
        )

    # -- PMMAC helpers ---------------------------------------------------------------

    def _verify(self, block: Block, tagged_addr: int, counter: int) -> None:
        """Check h == MAC_K(c || a || d) for the block of interest (§6.2.1)."""
        if not self.pmmac:
            return
        if block.mac is None:
            # Never-written block materialised as zeroes by the Backend.
            # Legitimate only while its counter has never been advanced:
            # once c > 0 the block must exist in the tree with a MAC, so a
            # missing block means deletion or replay (freshness violation).
            if counter != 0:
                raise IntegrityViolationError(
                    f"block {tagged_addr:#x} lost: counter {counter} but no MAC"
                )
            self.stats.fresh_blocks += 1
            return
        self.stats.mac_checks += 1
        if not self.crypto.mac.verify(
            counter.to_bytes(12, "little")
            + tagged_addr.to_bytes(8, "little")
            + block.data,
            block.mac,
        ):
            raise IntegrityViolationError(
                f"MAC mismatch for block {tagged_addr:#x} at count {counter}"
            )

    def _seal(self, tagged_addr: int, counter: int, data: bytes) -> Optional[bytes]:
        """Produce the stored tag for a block about to re-enter the tree."""
        if not self.pmmac:
            return None
        return self.crypto.mac.block_tag(counter, tagged_addr, data)

    # -- first-touch bookkeeping -------------------------------------------------------

    def _fresh_leaf_override(self, level: int, index: int) -> Optional[int]:
        """Uniform label for a never-touched leaf-mode entry, else None."""
        bitmap = self._touched[level]
        if bitmap is None:
            return None
        if bitmap[index >> 3] & (1 << (index & 7)):
            return None
        bitmap[index >> 3] |= 1 << (index & 7)
        return self.rng.random_leaf(self.config.levels)

    # -- child remap through a parent entry ----------------------------------------------

    def _remap_child(
        self,
        parent: Optional[PlbWay],
        level: int,
        chain: Sequence[int],
        tagged: int,
    ) -> Tuple[int, int, int, int]:
        """Remap the entry for block (level, chain[level]) in its parent.

        Returns (current_leaf, new_leaf, old_counter, new_counter). The
        parent is a PLB entry, or None for the on-chip PosMap (top level
        only); ``tagged`` is the precomputed i||a_i tag of the child.
        Handles compressed-format group remaps inline.
        """
        index = chain[level]
        if parent is None:
            if level != self.space_levels - 1:
                raise ConfigurationError("only the top level resolves on-chip")
            leaf, new_leaf, new_counter = self.posmap.lookup_and_remap(index, tagged)
            return leaf, new_leaf, max(new_counter - 1, 0), new_counter

        slot = self.space.child_slot(index)
        result = self.format.remap(parent.data, slot, tagged, self.rng)
        if result.group_remap_slots:
            self._group_remap(parent, level, index, slot, result)
        override = self._fresh_leaf_override(level, index)
        current = override if override is not None else result.old_leaf
        return current, result.new_leaf, result.old_counter, result.new_counter

    def _group_remap(
        self,
        parent: PlbWay,
        level: int,
        child_index: int,
        child_slot: int,
        result,
    ) -> None:
        """Relocate every sibling after an IC rollover (§5.2.2).

        Thanks to the Unified tree this costs one readrmv+append per
        sibling instead of X full recursive accesses — the §5.2.2 argument
        for why compression requires the unified organisation.
        """
        self.stats.group_remaps += 1
        group_base = child_index - child_slot
        level_size = self.space.level_blocks(level)
        for slot, old_counter in result.group_remap_slots:
            sibling = group_base + slot
            if sibling >= level_size:
                continue
            tagged = self.space.tag(level, sibling)
            new_leaf = self.format.leaf_for_counter(tagged, result.new_counter)
            resident = self.plb.peek(tagged)
            if resident is not None:
                # The sibling lives on-chip: update its bookkeeping only.
                resident.leaf = new_leaf
                resident.counter = result.new_counter
                continue
            old_leaf = self.format.leaf_for_counter(tagged, old_counter)
            block = self.backend.access(Op.READRMV, tagged, old_leaf, new_leaf)
            self.stats.posmap_tree_accesses += 1
            self.stats.group_relocations += 1
            self._verify(block, tagged, old_counter)
            block.mac = self._seal(tagged, result.new_counter, block.data)
            self.backend.access(Op.APPEND, tagged, append_block=block)

    # -- PLB refill / eviction ----------------------------------------------------------

    def _refill_plb(
        self, tagged: int, leaf: int, new_leaf: int,
        old_counter: int, new_counter: int,
    ) -> PlbWay:
        """readrmv the PosMap block ``tagged`` and install it in the PLB."""
        block = self.backend.access(Op.READRMV, tagged, leaf, new_leaf)
        stats = self.stats
        stats.posmap_tree_accesses += 1
        stats.plb_refills += 1
        self._verify(block, tagged, old_counter)
        entry = PlbEntry(
            tagged_addr=tagged,
            data=bytearray(block.data),
            leaf=new_leaf,
            counter=new_counter,
        )
        victim = self.plb.insert(entry)
        if victim is not None:
            self._evict_plb_entry(victim)
        return self.plb.peek(tagged)  # the block where it now lives

    def _evict_plb_entry(self, victim: PlbEntry) -> None:
        """Append a PLB victim back into the stash with a fresh MAC."""
        self.stats.plb_evictions += 1
        data = bytes(victim.data)
        block = Block(
            addr=victim.tagged_addr,
            leaf=victim.leaf,
            data=data,
            mac=self._seal(victim.tagged_addr, victim.counter, data),
        )
        self.backend.access(Op.APPEND, victim.tagged_addr, append_block=block)

    # -- the access algorithm (§4.2.4) -----------------------------------------------------

    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """One processor request: PLB loop, PosMap refills, data access."""
        check_request(op, data, self.config.block_bytes)
        kernel = self._kernel
        if kernel is not None:
            return kernel.access(addr, op, data)
        stats = self.stats
        stats.accesses += 1
        start_posmap = stats.posmap_tree_accesses
        levels = self.space_levels
        chain = self.space.chain(addr)
        tag = self.space.tag
        tags = [tag(i, chain[i]) for i in range(levels)]

        # Step 1: PLB lookup loop.
        parent: Optional[PlbWay] = None
        hit_level = levels - 1
        plb_lookup = self.plb.lookup
        for i in range(levels - 1):
            entry = plb_lookup(tags[i + 1])
            if entry is not None:
                parent = entry
                hit_level = i
                break
        if levels > 1:
            # With a single recursion level no PLB lookup occurs, so the
            # access counts toward neither hits nor misses (the hit rate
            # is a property of actual lookups only).
            if hit_level == 0:
                stats.plb_hits += 1
            else:
                stats.plb_misses += 1

        # Step 2: fetch missing PosMap blocks, deepest level first.
        for level in range(hit_level, 0, -1):
            leaf, new_leaf, old_c, new_c = self._remap_child(
                parent, level, chain, tags[level]
            )
            parent = self._refill_plb(tags[level], leaf, new_leaf, old_c, new_c)

        # Step 3: data block access.
        leaf, new_leaf, old_c, new_c = self._remap_child(parent, 0, chain, tags[0])
        if self.pmmac or op is Op.WRITE:
            frontend = self

            def update(block) -> None:
                frontend._verify(block, addr, old_c)
                if op is Op.WRITE:
                    # A copy, never the caller's buffer: what the ORAM
                    # holds must not change without an access.
                    block.data = bytes(data)
                block.mac = frontend._seal(addr, new_c, block.data)

            result_block = self.backend.access(
                op, addr, leaf, new_leaf, update=update
            )
        else:
            # Non-PMMAC READ: nothing to verify, overwrite or seal.
            result_block = self.backend.access(op, addr, leaf, new_leaf)
        stats.data_tree_accesses += 1
        posmap_accesses = stats.posmap_tree_accesses - start_posmap
        return AccessResult(
            data=result_block.data if op is Op.READ else (data or b""),
            tree_accesses=posmap_accesses + 1,
            posmap_tree_accesses=posmap_accesses,
            plb_hit_level=hit_level,
        )

    # -- bandwidth attribution ---------------------------------------------------------------

    @property
    def data_bytes_moved(self) -> int:
        """Unified-tree traffic attributable to data block accesses."""
        per_access = 2 * self.config.path_bytes
        return self.stats.data_tree_accesses * per_access

    @property
    def posmap_bytes_moved(self) -> int:
        """Unified-tree traffic attributable to PosMap management."""
        per_access = 2 * self.config.path_bytes
        return self.stats.posmap_tree_accesses * per_access

    @property
    def onchip_posmap_bytes(self) -> int:
        """SRAM footprint of the on-chip PosMap."""
        return self.posmap.size_bytes

    @property
    def plb_capacity_bytes(self) -> int:
        """Configured PLB data capacity."""
        return self.plb.capacity_bytes
