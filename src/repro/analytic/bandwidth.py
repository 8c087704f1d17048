"""Recursive ORAM bandwidth accounting (Fig. 3, Fig. 7, §3.2.1, §5.4).

A full Recursive ORAM access reads and writes one path in every level's
tree. Each level i holds N_i = ceil(N / X^i) blocks in a tree of
L_i = log2(next_pow2(N_i)) - 1 levels with buckets padded to 512-bit
multiples (Fig. 3 caption), so bytes-per-access is exact arithmetic — no
simulation required. The same accounting at a single Unified tree models
the PLB designs, with the measured average number of PosMap accesses per
data access supplied by simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.config import OramConfig
from repro.utils.bitops import next_pow2


def recursive_level_sizes(num_blocks: int, fanout: int, onchip_entries: int) -> List[int]:
    """Block count per recursion level (level 0 = data) until the
    residual PosMap fits on-chip."""
    sizes = [num_blocks]
    while sizes[-1] > onchip_entries:
        sizes.append(-(-sizes[-1] // fanout))
    return sizes


@dataclass
class RecursionBreakdown:
    """Bytes moved by one full Recursive ORAM access."""

    capacity_bytes: int
    num_levels: int
    data_bytes: int
    posmap_bytes: int
    onchip_posmap_bits: int

    @property
    def total_bytes(self) -> int:
        """Data + PosMap bytes."""
        return self.data_bytes + self.posmap_bytes

    @property
    def posmap_fraction(self) -> float:
        """Share of bytes serving PosMap lookups (Fig. 3 y-axis)."""
        return self.posmap_bytes / self.total_bytes if self.total_bytes else 0.0


def recursion_breakdown(
    num_blocks: int,
    data_block_bytes: int = 64,
    posmap_block_bytes: int = 32,
    blocks_per_bucket: int = 4,
    leaf_bytes: int = 4,
    onchip_posmap_bytes: int = 8 * 1024,
    mac_bytes: int = 0,
) -> RecursionBreakdown:
    """Exact bytes per access for the separate-tree Recursive ORAM.

    ``onchip_posmap_bytes`` converts to an entry budget at ``leaf_bytes``
    per entry, matching how the paper sizes its on-chip PosMaps.

    Following the paper's Fig. 3 estimation method, PosMap ORAM buckets
    are counted at Z x Bp (metadata folded into the 512-bit padding —
    4 x 32 B is exactly one DDR3 burst pair), while Data ORAM buckets
    carry full per-block metadata.
    """
    fanout = posmap_block_bytes // leaf_bytes
    onchip_entries = max(onchip_posmap_bytes // leaf_bytes, 1)
    sizes = recursive_level_sizes(num_blocks, fanout, onchip_entries)

    data_bytes = 0
    posmap_bytes = 0
    for level, blocks in enumerate(sizes):
        if level == 0:
            cfg = OramConfig(
                num_blocks=next_pow2(blocks),
                block_bytes=data_block_bytes,
                blocks_per_bucket=blocks_per_bucket,
                leaf_bytes=leaf_bytes,
                mac_bytes=mac_bytes,
            )
        else:
            cfg = OramConfig(
                num_blocks=next_pow2(blocks),
                block_bytes=posmap_block_bytes,
                blocks_per_bucket=blocks_per_bucket,
                addr_bytes=0,
                leaf_bytes=0,
                mac_bytes=mac_bytes,
                seed_bytes=0,
            )
        moved = 2 * cfg.path_bytes  # read + write-back
        if level == 0:
            data_bytes += moved
        else:
            posmap_bytes += moved
    top_levels = OramConfig(
        num_blocks=next_pow2(sizes[-1]),
        block_bytes=posmap_block_bytes,
        blocks_per_bucket=blocks_per_bucket,
    ).levels
    return RecursionBreakdown(
        capacity_bytes=num_blocks * data_block_bytes,
        num_levels=len(sizes),
        data_bytes=data_bytes,
        posmap_bytes=posmap_bytes,
        onchip_posmap_bits=sizes[-1] * max(top_levels, 1),
    )


def posmap_fraction(
    capacity_bytes: int,
    block_bytes: int,
    onchip_posmap_bytes: int,
    posmap_block_bytes: int = 32,
    blocks_per_bucket: int = 4,
) -> float:
    """Fig. 3 data point: PosMap byte share at a given Data ORAM capacity."""
    num_blocks = next_pow2(capacity_bytes // block_bytes)
    return recursion_breakdown(
        num_blocks,
        data_block_bytes=block_bytes,
        posmap_block_bytes=posmap_block_bytes,
        blocks_per_bucket=blocks_per_bucket,
        onchip_posmap_bytes=onchip_posmap_bytes,
    ).posmap_fraction


def unified_access_bytes(
    num_blocks: int,
    block_bytes: int = 64,
    fanout: int = 32,
    onchip_entries: int = 1024,
    blocks_per_bucket: int = 4,
    mac_bytes: int = 0,
    posmap_accesses_per_data_access: float = 0.0,
) -> RecursionBreakdown:
    """Bytes per access for a PLB scheme over one Unified tree.

    ``posmap_accesses_per_data_access`` is the simulation-measured average
    number of PosMap block fetches per processor request (0 = perfect PLB,
    H-1 = every level misses); data and PosMap traffic both move whole
    paths of the same Unified tree.
    """
    sizes = recursive_level_sizes(num_blocks, fanout, onchip_entries)
    total_blocks = next_pow2(sum(sizes))
    cfg = OramConfig(
        num_blocks=total_blocks,
        block_bytes=block_bytes,
        blocks_per_bucket=blocks_per_bucket,
        mac_bytes=mac_bytes,
    )
    per_path = 2 * cfg.path_bytes
    return RecursionBreakdown(
        capacity_bytes=num_blocks * block_bytes,
        num_levels=len(sizes),
        data_bytes=per_path,
        posmap_bytes=int(round(posmap_accesses_per_data_access * per_path)),
        onchip_posmap_bits=sizes[-1] * cfg.levels,
    )


# -- asymptotic forms (§3.2.1 and §5.4) ------------------------------------------


def recursive_overhead_term(num_blocks: int, block_bits: int) -> float:
    """O(log N + log^3 N / B): baseline Recursive Path ORAM overhead."""
    log_n = math.log2(num_blocks)
    return log_n + log_n**3 / block_bits


def compressed_overhead_term(num_blocks: int, block_bits: int) -> float:
    """O(log N + log^3 N / (B log log N)): compressed-PosMap overhead."""
    log_n = math.log2(num_blocks)
    return log_n + log_n**3 / (block_bits * math.log2(max(log_n, 2.0)))
