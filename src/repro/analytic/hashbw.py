"""Hash-bandwidth comparison: PMMAC vs Merkle trees (§6.3).

A Path ORAM access touches Z*(L+1) blocks. Merkle-style schemes [2, 25]
must hash every one of them to check and update the root; PMMAC hashes
exactly one — the block of interest. The paper quotes the resulting
reduction at L=16 and L=32 (Z=4, sibling-hash traffic ignored, as in
§6.3): the ``hashbw.reduction`` rows of :mod:`repro.eval.paper_values`.
"""

from __future__ import annotations


def merkle_hash_blocks_per_access(levels: int, blocks_per_bucket: int = 4) -> int:
    """Blocks hashed per access by a path Merkle scheme: Z * (L + 1)."""
    if levels < 0:
        raise ValueError("levels must be non-negative")
    return blocks_per_bucket * (levels + 1)


def pmmac_hash_blocks_per_access() -> int:
    """Blocks hashed per access by PMMAC: only the block of interest."""
    return 1


def hash_reduction_factor(levels: int, blocks_per_bucket: int = 4) -> float:
    """PMMAC's hash-bandwidth advantage: Merkle blocks hashed per PMMAC block."""
    return merkle_hash_blocks_per_access(levels, blocks_per_bucket) / float(
        pmmac_hash_blocks_per_access()
    )


def merkle_bytes_hashed_per_access(
    levels: int, bucket_bytes: int, tag_bytes: int = 28, verify_and_update: bool = True
) -> int:
    """Bytes through the hash unit per access for the Merkle baseline.

    Each of the L+1 path buckets is hashed over its contents plus two
    child tags; verification and the post-eviction update each walk the
    path once.
    """
    per_node = bucket_bytes + 2 * tag_bytes
    passes = 2 if verify_and_update else 1
    return passes * (levels + 1) * per_node


def pmmac_bytes_hashed_per_access(block_bytes: int, header_bytes: int = 20) -> int:
    """Bytes hashed per access by PMMAC: one block plus its c||a header."""
    return block_bytes + header_bytes
