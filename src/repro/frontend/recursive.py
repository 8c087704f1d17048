"""Recursive ORAM baseline (§3.2): one physical tree per recursion level.

This is the scheme of Shi et al. [30] as architected by Ren et al. [26] —
the paper's R_X8 baseline. PosMap blocks of ORam_i hold X leaf labels for
blocks of ORam_{i-1}; a full access walks the on-chip PosMap, then
ORam_{H-1} ... ORam_1, then the Data ORAM, like a page-table walk. Every
level lives in its *own* ORAM tree, which is exactly why a PLB cannot be
bolted on here without leaking (§4.1.2) — and why bandwidth explodes with
capacity (Fig. 3 / Fig. 7).

PosMap ORAMs may use a smaller block size Bp than the data ORAM (32-byte
PosMap blocks in [26]); bandwidth accounting uses each tree's own padded
bucket size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend, make_backend
from repro.config import OramConfig
from repro.errors import ConfigurationError
from repro.frontend.addrgen import AddressSpace
from repro.frontend.base import AccessResult, Frontend, check_request
from repro.frontend.formats import UncompressedPosMapFormat
from repro.frontend.posmap import OnChipPosMap
from repro.storage import make_storage
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.spec import SchemeSpec


class RecursiveFrontend(Frontend):
    """H-level Recursive Path ORAM with separate trees (baseline R_X8)."""

    def __init__(
        self,
        spec: "SchemeSpec",
        *,
        rng: Optional[DeterministicRng] = None,
        observer=None,
    ):
        """Build the separate-tree Recursive ORAM ``spec`` describes.

        The data tree uses ``spec.block_bytes``, every PosMap tree
        ``spec.posmap_block_bytes``. A separate-tree Recursive ORAM has no
        PLB and no PMMAC (§4.1.2), so those fields play no part.
        """
        super().__init__()
        if spec.frontend != "recursive":
            raise ConfigurationError(f"not a recursive spec: {spec.frontend!r}")
        self.rng = rng if rng is not None else DeterministicRng(0)
        # One tree per level, data tree first (``SchemeSpec.tree_configs``
        # raises for a PosMap block too small for its entries).
        self.configs: List[OramConfig] = list(spec.tree_configs())
        self.num_levels = len(self.configs)
        self.space = AddressSpace(spec.num_blocks, spec.fanout, self.num_levels)

        self.backends: List[PathOramBackend] = []
        self._touched: List[bytearray] = []
        for level, cfg in enumerate(self.configs):
            view = observer.for_tree(level) if observer is not None else None
            tree = make_storage(spec.storage, cfg, observer=view)
            self.backends.append(make_backend(cfg, tree, self.rng.fork(level)))
            self._touched.append(bytearray((self.space.level_blocks(level) + 7) // 8))
        # A PosMap block at level i stores leaves of tree i-1, so each
        # level's format emits labels sized for the tree *below* it.
        self.formats: List[Optional[UncompressedPosMapFormat]] = [None]
        for level in range(1, self.num_levels):
            self.formats.append(
                UncompressedPosMapFormat(
                    spec.posmap_block_bytes, self.configs[level - 1].levels,
                    spec.leaf_bytes,
                )
            )

        top = self.num_levels - 1
        self.posmap = OnChipPosMap(
            entries=self.space.level_blocks(top),
            levels=self.configs[top].levels,
            mode=OnChipPosMap.MODE_LEAF,
            rng=self.rng,
        )
        # The native RecursiveKernel handle; None until enable_native_kernel().
        self._kernel = None

    def enable_native_kernel(self, core) -> None:
        """Hand every later :meth:`access` to a native ``RecursiveKernel``.

        ``core`` is only the on-switch (``None`` is a no-op; anything
        else binds one handle, of the real module's type); idempotent.
        The kernel is the whole of :meth:`access` in C over this
        frontend's own containers — the on-chip table and its touched
        bitmap, the per-level first-touch bitmaps, the statistics' ledger,
        the RNG — driving each level's tree through its backend's own
        ``AccessKernel``, so the Python path below and the lockstep
        harnesses keep reading one copy of the state. It engages only
        when every level's backend runs on an ``AccessKernel`` (columnar
        storage) and labels fit its fixed-width arithmetic; everything
        else keeps the Python path.
        """
        if core is None or self._kernel is not None:
            return
        from repro.sim.native import _replay_core

        trees = tuple(getattr(b, "_kernel", None) for b in self.backends)
        leaf_bytes = self.configs[0].leaf_bytes
        if leaf_bytes > 8 or any(
            type(tree) is not _replay_core.AccessKernel for tree in trees
        ):
            return
        posmap, space = self.posmap, self.space
        self._kernel = _replay_core.RecursiveKernel(
            self, RecursiveFrontend.access, self.stats.ledger, trees,
            posmap._table, posmap._touched, self._touched,
            self.rng._getrandbits,
            (
                self.num_levels, space.fanout, space.num_blocks,
                posmap.entries, leaf_bytes,
            ),
            (AccessResult, Op.READ, Op.WRITE, ConfigurationError),
        )

    # -- first-touch bookkeeping (simulation stand-in for factory init) --------

    def _is_touched(self, level: int, index: int) -> bool:
        return bool(self._touched[level][index >> 3] & (1 << (index & 7)))

    def _mark_touched(self, level: int, index: int) -> None:
        self._touched[level][index >> 3] |= 1 << (index & 7)

    # -- access -----------------------------------------------------------------

    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """Full Recursive ORAM access: on-chip, ORam_{H-1}..ORam_1, Data."""
        check_request(op, data, self.configs[0].block_bytes)
        kernel = self._kernel
        if kernel is not None:
            return kernel.access(addr, op, data)
        stats = self.stats
        stats.accesses += 1
        chain = self.space.chain(addr)
        top = self.num_levels - 1

        leaf, new_leaf, _ = self.posmap.lookup_and_remap(chain[top], chain[top])

        # Walk ORam_{H-1} down to ORam_1: each supplies (and remaps) the
        # leaf of the next block down.
        for level in range(top, 0, -1):
            child_index = chain[level - 1]
            slot = self.space.child_slot(child_index)
            fmt = self.formats[level]
            backend = self.backends[level]
            child_fresh = not self._is_touched(level - 1, child_index)
            holder = {}

            def update(block, fmt=fmt, slot=slot, holder=holder) -> None:
                buf = bytearray(block.data)
                holder["remap"] = fmt.remap(buf, slot, 0, self.rng)
                block.data = bytes(buf)

            backend.access(Op.READ, chain[level], leaf, new_leaf, update=update)
            stats.posmap_tree_accesses += 1
            remap = holder["remap"]
            if child_fresh:
                # Never-written entry: substitute the uniform label factory
                # initialisation would have placed there.
                leaf = self.rng.random_leaf(self.configs[level - 1].levels)
                self._mark_touched(level - 1, child_index)
            else:
                leaf = remap.old_leaf
            new_leaf = remap.new_leaf

        # Data ORAM access.
        stats.data_tree_accesses += 1

        def data_update(block) -> None:
            if op is Op.WRITE:
                # A copy, never the caller's buffer: what the ORAM holds
                # must not change without an access.
                block.data = bytes(data)

        block = self.backends[0].access(op, addr, leaf, new_leaf, update=data_update)
        return AccessResult(
            data=block.data,
            tree_accesses=self.num_levels,
            posmap_tree_accesses=self.num_levels - 1,
        )

    # -- bandwidth attribution -----------------------------------------------------

    @property
    def data_bytes_moved(self) -> int:
        """Bytes moved by the Data ORAM tree."""
        return self.backends[0].storage.bytes_moved

    @property
    def posmap_bytes_moved(self) -> int:
        """Bytes moved by all PosMap ORAM trees combined."""
        return sum(b.storage.bytes_moved for b in self.backends[1:])

    @property
    def onchip_posmap_bytes(self) -> int:
        """SRAM footprint of the on-chip PosMap."""
        return self.posmap.size_bytes
