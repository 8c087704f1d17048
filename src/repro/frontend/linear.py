"""Non-recursive Frontend: the entire PosMap held on-chip.

This is the Phantom [21] organisation — no recursion, one Backend access
per processor request — used as the Fig. 9 baseline (with 4 KB blocks) and
in unit tests as the simplest correct Frontend. Its on-chip cost is what
makes it unscalable: N * L bits of SRAM (§1.1, §7.2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.backend.ops import Op
from repro.backend.path_oram import make_backend
from repro.errors import ConfigurationError
from repro.frontend.base import AccessResult, Frontend, check_request
from repro.frontend.posmap import OnChipPosMap
from repro.storage import make_storage
from repro.utils.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.spec import SchemeSpec


class LinearFrontend(Frontend):
    """One flat on-chip PosMap in front of a single Backend."""

    def __init__(
        self,
        spec: "SchemeSpec",
        *,
        rng: Optional[DeterministicRng] = None,
        observer=None,
        storage_factory=None,
    ):
        """Build the flat-PosMap frontend ``spec`` describes.

        A ``storage_factory(config, observer)`` overrides ``spec.storage``.
        """
        super().__init__()
        if spec.frontend != "linear":
            raise ConfigurationError(f"not a linear spec: {spec.frontend!r}")
        (config,) = spec.tree_configs()
        self.config = config
        self.rng = rng = rng if rng is not None else DeterministicRng(0)
        if storage_factory is not None:
            storage = storage_factory(config, observer)
        else:
            view = observer.for_tree(0) if observer is not None else None
            storage = make_storage(spec.storage, config, observer=view)
        self.backend = make_backend(config, storage, rng)
        self.posmap = OnChipPosMap(
            entries=config.num_blocks,
            levels=config.levels,
            mode=OnChipPosMap.MODE_LEAF,
            rng=rng,
        )

    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """Steps 1-5 of §3.1: PosMap lookup/remap, then one Backend access."""
        check_request(op, data, self.config.block_bytes)
        stats = self.stats
        stats.accesses += 1
        if not 0 <= addr < self.config.num_blocks:
            raise ValueError(f"address {addr} out of range")
        stats.data_tree_accesses += 1

        leaf, new_leaf, _ = self.posmap.lookup_and_remap(addr, addr)

        def update(block) -> None:
            if op is Op.WRITE:
                # A copy, never the caller's buffer: what the ORAM holds
                # must not change without an access.
                block.data = bytes(data)

        block = self.backend.access(op, addr, leaf, new_leaf, update=update)
        return AccessResult(
            data=block.data, tree_accesses=1, posmap_tree_accesses=0
        )

    @property
    def data_bytes_moved(self) -> int:
        """All traffic is data traffic — there are no PosMap ORAMs."""
        return self.backend.storage.bytes_moved

    @property
    def posmap_bytes_moved(self) -> int:
        """Always zero for the non-recursive design."""
        return 0

    @property
    def onchip_posmap_bytes(self) -> int:
        """SRAM cost of the flat PosMap (the design's scaling problem)."""
        return self.posmap.size_bytes
