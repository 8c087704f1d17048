"""Central ORAM tree parameterisation.

:class:`OramConfig` captures the Path ORAM geometry of §3.1 — block count N,
block size B, bucket arity Z, tree depth L — together with the metadata and
padding rules the paper uses for bandwidth accounting (buckets padded to
512-bit multiples for DDR3, Fig. 3 caption). :class:`Platform` is the
machine one experiment runs at, and builds the component configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict

from repro.dram.config import DramConfig
from repro.utils.bitops import is_power_of_two, log2_exact

#: Default stash capacity in blocks, following [26] (§3.1).
DEFAULT_STASH_LIMIT = 200

#: DDR3 access granularity in bytes; buckets are padded to a multiple.
DRAM_BEAT_BYTES = 64


@dataclass(frozen=True)
class OramConfig:
    """Geometry and sizing of one Path ORAM tree.

    Parameters
    ----------
    num_blocks:
        N — the maximum number of real data blocks. Must be a power of two.
    block_bytes:
        B — payload bytes per block (a cache line; 64 in Table 1).
    blocks_per_bucket:
        Z — block slots per bucket (4 in Table 1, 3 in the [26] comparison).
    levels:
        L — tree depth; leaves are at level L. Defaults to log2(N) - 1,
        giving 2^L = N/2 leaves so the tree has ~2N slots with Z=4,
        i.e. 50% utilisation as in §7.1.1. Pass explicitly to override.
    stash_limit:
        Maximum stash occupancy before the (negligible-probability)
        overflow is flagged; 200 following [26].
    addr_bytes / leaf_bytes:
        Per-block metadata stored alongside each block in the tree.
    mac_bytes:
        Extra per-block bytes for a PMMAC tag (0 when integrity is off).
    """

    num_blocks: int
    block_bytes: int = 64
    blocks_per_bucket: int = 4
    levels: int = -1
    stash_limit: int = DEFAULT_STASH_LIMIT
    addr_bytes: int = 4
    leaf_bytes: int = 4
    mac_bytes: int = 0
    seed_bytes: int = 8

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_blocks):
            raise ValueError("num_blocks must be a power of two")
        if self.block_bytes <= 0 or self.blocks_per_bucket <= 0:
            raise ValueError("block_bytes and blocks_per_bucket must be positive")
        if self.levels < 0:
            object.__setattr__(self, "levels", max(log2_exact(self.num_blocks) - 1, 0))

    # -- derived geometry ----------------------------------------------------

    @property
    def num_leaves(self) -> int:
        """Number of leaves, 2^L."""
        return 1 << self.levels

    @property
    def num_buckets(self) -> int:
        """Total buckets in the tree, 2^(L+1) - 1."""
        return (1 << (self.levels + 1)) - 1

    @property
    def slot_bytes(self) -> int:
        """Stored bytes per block slot: payload + addr + leaf + MAC."""
        return self.block_bytes + self.addr_bytes + self.leaf_bytes + self.mac_bytes

    @property
    def bucket_payload_bytes(self) -> int:
        """Bytes of one bucket before DRAM padding (slots + seed)."""
        return self.blocks_per_bucket * self.slot_bytes + self.seed_bytes

    # The two sizes every bytes-moved counter multiplies by: computed once
    # per (frozen) config.
    @cached_property
    def bucket_bytes(self) -> int:
        """Bucket size padded to a 512-bit (64 B) multiple, per Fig. 3."""
        beats = -(-self.bucket_payload_bytes // DRAM_BEAT_BYTES)
        return beats * DRAM_BEAT_BYTES

    @cached_property
    def path_bytes(self) -> int:
        """Bytes moved to read or write one full path: (L+1) buckets."""
        return (self.levels + 1) * self.bucket_bytes

    @property
    def capacity_bytes(self) -> int:
        """Logical data capacity N * B."""
        return self.num_blocks * self.block_bytes

    def with_mac(self, mac_bytes: int) -> "OramConfig":
        """Copy of this config with PMMAC tag bytes added to each slot."""
        return OramConfig(
            num_blocks=self.num_blocks,
            block_bytes=self.block_bytes,
            blocks_per_bucket=self.blocks_per_bucket,
            levels=self.levels,
            stash_limit=self.stash_limit,
            addr_bytes=self.addr_bytes,
            leaf_bytes=self.leaf_bytes,
            mac_bytes=mac_bytes,
            seed_bytes=self.seed_bytes,
        )


@dataclass(frozen=True)
class FrontendTimings:
    """Latency constants from Table 1 (processor cycles)."""

    aes_latency: int = 21
    sha3_latency: int = 18
    frontend_latency: int = 20
    backend_latency: int = 30


@dataclass(frozen=True)
class ProcessorConfig:
    """Core and cache parameters from Table 1."""

    core_ghz: float = 1.3
    l1_bytes: int = 32 * 1024
    l1_ways: int = 4
    l1_latency: int = 2  # data + tag
    l2_bytes: int = 1024 * 1024
    l2_ways: int = 16
    l2_latency: int = 11  # data + tag
    line_bytes: int = 64
    insecure_dram_latency: int = 58  # avg processor cycles without ORAM


@dataclass(frozen=True)
class Platform:
    """The machine one experiment runs at: a row of
    :data:`repro.eval.paper_values.PLATFORMS`.

    :attr:`proc` and :attr:`dram` are the component configs it builds;
    every field they do not name keeps the component's own Table 1
    default. ``sources`` names the section each value comes from, and
    ``note`` what the row does not say by its values alone; neither is
    part of the row's identity.
    """

    name: str
    capacity_bytes: int
    line_bytes: int
    block_bytes: int
    blocks_per_bucket: int
    channels: int
    core_ghz: float
    plb_bytes: int
    onchip_entries: int
    posmap_block_bytes: int
    sources: Dict[str, str] = field(default_factory=dict, compare=False)
    note: str = field(default="", compare=False)

    @property
    def proc(self) -> ProcessorConfig:
        """The core and caches: this clock and line, Table 1's caches."""
        return ProcessorConfig(core_ghz=self.core_ghz, line_bytes=self.line_bytes)

    @property
    def dram(self) -> DramConfig:
        """The memory system: this many DDR3-1333 channels."""
        return DramConfig(channels=self.channels)

    @property
    def oram(self) -> OramConfig:
        """The Data ORAM tree at the paper's capacity (for closed forms)."""
        return OramConfig(
            num_blocks=self.capacity_bytes // self.block_bytes,
            block_bytes=self.block_bytes,
            blocks_per_bucket=self.blocks_per_bucket,
        )
