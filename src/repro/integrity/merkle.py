"""Merkle-tree integrity baseline over the ORAM tree ([25]).

Each tree node stores a hash over its bucket contents and its two
children's hashes; the root hash lives on-chip. Reading a path requires
recomputing every node hash bottom-up against stored sibling hashes and
comparing the root; writing requires recomputing the same chain — i.e.
the hash unit processes Z*(L+1) blocks per ORAM access versus PMMAC's
one (§6.3). The per-node hash is also *sequential* along the path, the
bottleneck the paper calls out.

The verifier wraps any tree storage exposing ``read_path``/``write_path``
and bucket objects; hashing goes through a :class:`~repro.crypto.mac.Mac`
whose counters feed the §6.3 bench.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.mac import Mac
from repro.errors import IntegrityViolationError
from repro.storage.bucket import Bucket


def serialise_bucket(bucket: Bucket, block_bytes: int, capacity: int) -> bytes:
    """Canonical byte image of a bucket for hashing (dummies included)."""
    out = bytearray()
    for slot in range(capacity):
        if slot < len(bucket.blocks):
            block = bucket.blocks[slot]
            out.append(1)
            out += block.addr.to_bytes(8, "little", signed=True)
            out += block.leaf.to_bytes(8, "little")
            out += block.data
            out += block.mac or b""
        else:
            out.append(0)
            out += bytes(16 + block_bytes)
    return bytes(out)


class MerklePathVerifier:
    """Maintains and checks the bucket hash tree for one ORAM tree."""

    def __init__(self, levels: int, block_bytes: int, bucket_capacity: int, mac: Mac):
        self.levels = levels
        self.block_bytes = block_bytes
        self.bucket_capacity = bucket_capacity
        self.mac = mac
        self._hashes: Dict[int, bytes] = {}
        self._empty_chain = self._build_empty_chain()
        #: On-chip root hash (trusted).
        self.root = self._node_default(0)

    # -- defaults for never-written subtrees ---------------------------------------

    def _build_empty_chain(self) -> List[bytes]:
        """Hash of an all-empty subtree rooted at each depth, leaf-up."""
        empty_bucket = serialise_bucket(
            Bucket(self.bucket_capacity), self.block_bytes, self.bucket_capacity
        )
        chain: List[bytes] = []
        child = b""
        for depth in range(self.levels, -1, -1):
            if depth == self.levels:
                node = self.mac.tag(empty_bucket)
            else:
                node = self.mac.tag(empty_bucket + child + child)
            chain.append(node)
            child = node
        chain.reverse()  # chain[depth] = hash of empty subtree at depth
        return chain

    def _node_default(self, depth: int) -> bytes:
        return self._empty_chain[depth]

    def _node_hash(self, index: int, depth: int) -> bytes:
        return self._hashes.get(index, self._node_default(depth))

    # -- path hashing --------------------------------------------------------------

    @staticmethod
    def _children(index: int) -> Tuple[int, int]:
        return 2 * index + 1, 2 * index + 2

    def _compute_path_hashes(
        self, leaf: int, buckets: List[Bucket], indices: List[int]
    ) -> List[bytes]:
        """Bottom-up hashes of the path nodes using stored sibling hashes."""
        hashes: List[Optional[bytes]] = [None] * (self.levels + 1)
        for depth in range(self.levels, -1, -1):
            image = serialise_bucket(
                buckets[depth], self.block_bytes, self.bucket_capacity
            )
            if depth == self.levels:
                hashes[depth] = self.mac.tag(image)
            else:
                left, right = self._children(indices[depth])
                on_path = indices[depth + 1]
                child_hash = hashes[depth + 1]
                if on_path == left:
                    left_h, right_h = child_hash, self._node_hash(right, depth + 1)
                else:
                    left_h, right_h = self._node_hash(left, depth + 1), child_hash
                hashes[depth] = self.mac.tag(image + left_h + right_h)
        return hashes  # type: ignore[return-value]

    # -- public API -----------------------------------------------------------------

    def verify_path(self, leaf: int, buckets: List[Bucket], indices: List[int]) -> None:
        """Raise IntegrityViolationError unless the path matches the root."""
        computed_root = self._compute_path_hashes(leaf, buckets, indices)[0]
        if computed_root != self.root:
            raise IntegrityViolationError(
                f"Merkle root mismatch on path to leaf {leaf}"
            )

    def update_path(self, leaf: int, buckets: List[Bucket], indices: List[int]) -> None:
        """Recompute and store the path's hashes after an eviction."""
        hashes = self._compute_path_hashes(leaf, buckets, indices)
        for depth, index in enumerate(indices):
            self._hashes[index] = hashes[depth]
        self.root = hashes[0]
