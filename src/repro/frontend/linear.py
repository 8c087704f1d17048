"""Non-recursive Frontend: the entire PosMap held on-chip.

This is the Phantom [21] organisation — no recursion, one Backend access
per processor request — used as the Fig. 9 baseline (with 4 KB blocks) and
in unit tests as the simplest correct Frontend. Its on-chip cost is what
makes it unscalable: N * L bits of SRAM (§1.1, §7.2.3).
"""

from __future__ import annotations

from typing import Optional

from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend, make_backend
from repro.config import OramConfig
from repro.errors import ConfigurationError
from repro.frontend.base import AccessResult, Frontend
from repro.frontend.posmap import OnChipPosMap
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng


class LinearFrontend(Frontend):
    """One flat on-chip PosMap in front of a single Backend."""

    def __init__(
        self,
        config: OramConfig,
        rng: DeterministicRng,
        storage=None,
        backend: Optional[PathOramBackend] = None,
    ):
        super().__init__()
        self.config = config
        self.rng = rng
        if backend is None:
            storage = storage if storage is not None else TreeStorage(config)
            backend = make_backend(config, storage, rng)
        self.backend = backend
        self.posmap = OnChipPosMap(
            entries=config.num_blocks,
            levels=config.levels,
            mode=OnChipPosMap.MODE_LEAF,
            rng=rng,
        )

    @classmethod
    def from_spec(cls, spec, rng=None, observer=None) -> "LinearFrontend":
        """Build from a declarative :class:`~repro.spec.SchemeSpec`.

        Mirrors the historical ``phantom_4kb`` preset construction:
        geometry from the spec, storage kind resolved per tree 0, default
        RNG seed 0 when none is supplied.
        """
        from repro.storage import make_storage

        config = OramConfig(
            num_blocks=spec.num_blocks,
            block_bytes=spec.block_bytes,
            blocks_per_bucket=spec.blocks_per_bucket,
        )
        rng = rng if rng is not None else DeterministicRng(0)
        view = observer.for_tree(0) if observer is not None else None
        return cls(
            config, rng, storage=make_storage(spec.storage, config, observer=view)
        )

    def access(
        self, addr: int, op: Op = Op.READ, data: Optional[bytes] = None
    ) -> AccessResult:
        """Steps 1-5 of §3.1: PosMap lookup/remap, then one Backend access."""
        if op not in (Op.READ, Op.WRITE):
            raise ConfigurationError("processor requests are READ or WRITE")
        if op is Op.WRITE and (data is None or len(data) != self.config.block_bytes):
            raise ValueError("WRITE requires a full block of data")
        self.stats.accesses += 1
        self.stats.data_tree_accesses += 1

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
