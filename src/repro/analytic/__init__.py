"""Closed-form bandwidth and hashing models.

Path ORAM's bytes-per-access is a deterministic function of its geometry,
which is how the paper computes Fig. 3 (recursion overhead vs capacity)
and the §6.3 hash-bandwidth comparison. These models also extend the
simulated results to full paper-scale capacities (Fig. 7) where direct
simulation is impractical (:mod:`repro.eval.fig7`).
"""

from repro.analytic.bandwidth import (
    RecursionBreakdown,
    compressed_overhead_term,
    posmap_fraction,
    recursion_breakdown,
    recursive_level_sizes,
    recursive_overhead_term,
    unified_access_bytes,
)
from repro.analytic.hashbw import (
    hash_reduction_factor,
    merkle_hash_blocks_per_access,
    pmmac_hash_blocks_per_access,
)

__all__ = [
    "RecursionBreakdown",
    "recursion_breakdown",
    "recursive_level_sizes",
    "posmap_fraction",
    "unified_access_bytes",
    "recursive_overhead_term",
    "compressed_overhead_term",
    "merkle_hash_blocks_per_access",
    "pmmac_hash_blocks_per_access",
    "hash_reduction_factor",
]
