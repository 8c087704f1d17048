"""Merkle-verified storage adapter.

Composes a :class:`~repro.integrity.merkle.MerklePathVerifier` with any
tree storage so that *every* path read is verified against the on-chip
root and every write-back refreshes the path's hashes — the [25]-style
system PMMAC is compared against in §6.3. Drop it under any Backend:

    storage = MerkleVerifiedStorage(TreeStorage(cfg), mac)
    backend = PathOramBackend(cfg, storage, rng)

The adapter hashes Z·(L+1) blocks per ORAM access (verify + update),
which is exactly the hash-bandwidth cost the paper's measurement
instrument (``mac.bytes_hashed``) records.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.crypto.mac import Mac
from repro.errors import ConfigurationError
from repro.integrity.merkle import MerklePathVerifier
from repro.storage.bucket import Bucket


class MerkleVerifiedStorage:
    """Storage proxy enforcing Merkle integrity on every path operation."""

    def __init__(self, inner, mac: Mac):
        if getattr(inner, "columnar", False):
            raise ConfigurationError(
                "MerkleVerifiedStorage wraps a bucket-object store (TreeStorage, "
                "EncryptedTreeStorage); columnar storage has no bucket objects"
            )
        self.inner = inner
        self.config = inner.config
        self.mac = mac
        self.verifier = MerklePathVerifier(
            self.config.levels,
            self.config.block_bytes,
            self.config.blocks_per_bucket,
            mac,
        )
        self._pending: Tuple[int, List[Bucket], List[int]] = (-1, [], [])

    # -- storage interface -----------------------------------------------------

    def path_indices(self, leaf: int) -> List[int]:
        """Heap indices along the path (delegated)."""
        return self.inner.path_indices(leaf)

    def read_path(self, leaf: int) -> List[Tuple[int, Bucket]]:
        """Read and *verify* the path before handing it to the Backend."""
        path = self.inner.read_path(leaf)
        buckets = [bucket for _, bucket in path]
        indices = self.inner.path_indices(leaf)
        self.verifier.verify_path(leaf, buckets, indices)
        self._pending = (leaf, buckets, indices)
        return path

    def write_path(self, leaf: int) -> None:
        """Write the path back and refresh its hash chain to the root."""
        self.inner.write_path(leaf)
        pending_leaf, buckets, indices = self._pending
        if pending_leaf != leaf:
            raise RuntimeError("write_path leaf does not match last read_path")
        self.verifier.update_path(leaf, buckets, indices)

    def bucket_at(self, index: int) -> Bucket:
        """Direct bucket access (delegated; used by tests only)."""
        return self.inner.bucket_at(index)

    # -- accounting (delegated) ---------------------------------------------------

    @property
    def bytes_read(self) -> int:
        """Bytes read on the memory bus."""
        return self.inner.bytes_read

    @property
    def bytes_written(self) -> int:
        """Bytes written on the memory bus."""
        return self.inner.bytes_written

    @property
    def bytes_moved(self) -> int:
        """Read + written bytes."""
        return self.inner.bytes_moved

    def reset_counters(self) -> None:
        """Zero bandwidth counters (delegated)."""
        self.inner.reset_counters()

    def occupancy(self) -> int:
        """Real blocks resident in the tree (delegated)."""
        return self.inner.occupancy()
