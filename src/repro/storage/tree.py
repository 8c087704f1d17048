"""Plaintext-object ORAM tree storage (fast functional model).

The tree is the standard heap layout: node at level ``d`` on the path to
leaf ``l`` has index ``2^d - 1 + (l >> (L - d))``. Reads and writes are
whole-path operations, matching the Path ORAM backend's access pattern, and
every operation is reported to an optional
:class:`~repro.adversary.observer.TraceObserver` exactly as an adversary
snooping the memory bus would see it (bucket indices only — contents are
encrypted in the real system).
"""

from __future__ import annotations

from itertools import compress, count
from typing import Dict, Iterator, List, Optional, Tuple

from repro.config import OramConfig
from repro.storage.bucket import Bucket
from repro.utils.stats import LEDGERS


def path_indices(leaf: int, levels: int) -> List[int]:
    """Heap indices of the buckets on the path from root to ``leaf``."""
    return [(1 << d) - 1 + (leaf >> (levels - d)) for d in range(levels + 1)]


#: Per-storage cap on memoised path entries. Small trees (the replay
#: hot path) fit entirely; on paper-scale trees, where uniform leaf
#: remapping makes hits rare anyway, the caches cycle instead of
#: growing with every distinct leaf ever touched.
PATH_CACHE_LIMIT = 1 << 15


@LEDGERS["storage"].bind()
class BucketLedger:
    """Bandwidth accounting at the padded bucket granularity, one
    implementation for every tree storage: ``buckets_read`` /
    ``buckets_written`` are the slots of ``ledger``, which the columnar
    access kernel counts in too."""

    def __init__(self, config: OramConfig):
        self.config = config
        self.ledger = LEDGERS["storage"].column()

    @property
    def bytes_read(self) -> int:
        """Total bytes read at the padded bucket granularity."""
        return self.buckets_read * self.config.bucket_bytes

    @property
    def bytes_written(self) -> int:
        """Total bytes written at the padded bucket granularity."""
        return self.buckets_written * self.config.bucket_bytes

    @property
    def bytes_moved(self) -> int:
        """Read + written bytes."""
        return self.bytes_read + self.bytes_written

    def reset_counters(self) -> None:
        """Zero the bandwidth counters (used between experiment phases)."""
        self.buckets_read = 0
        self.buckets_written = 0


class TreeStorage(BucketLedger):
    """Untrusted external memory holding the ORAM tree as live objects."""

    def __init__(self, config: OramConfig, observer=None):
        super().__init__(config)
        self.observer = observer
        self._buckets: List[Optional[Bucket]] = [None] * config.num_buckets
        # Replay touches the same leaves repeatedly; memoise each path's
        # heap indices (immutable tuples) and its materialised bucket list.
        # Both are bounded by the number of leaves ever touched, and the
        # bucket lists stay valid because buckets are created exactly once.
        self._path_cache: Dict[int, Tuple[int, ...]] = {}
        self._bucket_path_cache: Dict[int, List[Bucket]] = {}

    # -- geometry -----------------------------------------------------------

    def bucket_at(self, index: int) -> Bucket:
        """Bucket by heap index, materialising empties lazily."""
        bucket = self._buckets[index]
        if bucket is None:
            bucket = Bucket(self.config.blocks_per_bucket)
            self._buckets[index] = bucket
        return bucket

    def _indices(self, leaf: int) -> Tuple[int, ...]:
        """Memoised heap indices along the path to ``leaf``."""
        cached = self._path_cache.get(leaf)
        if cached is None:
            if not 0 <= leaf < self.config.num_leaves:
                raise ValueError(f"leaf {leaf} out of range")
            levels = self.config.levels
            cached = tuple(
                (1 << d) - 1 + (leaf >> (levels - d)) for d in range(levels + 1)
            )
            if len(self._path_cache) >= PATH_CACHE_LIMIT:
                self._path_cache.clear()
            self._path_cache[leaf] = cached
        return cached

    def path_indices(self, leaf: int) -> List[int]:
        """Heap indices along the path to ``leaf``."""
        return list(self._indices(leaf))

    # -- whole-path operations ------------------------------------------------

    def read_path_buckets(self, leaf: int) -> List[Bucket]:
        """Read all buckets root->leaf; index in the list is the level.

        Hot-path variant of :meth:`read_path` that skips the (level, bucket)
        tuple packaging; the Backend detects and prefers it. The returned
        list is cached and shared — callers may mutate the buckets but must
        not mutate the list itself.
        """
        path = self._bucket_path_cache.get(leaf)
        if path is None:
            indices = self._indices(leaf)
            buckets = self._buckets
            capacity = self.config.blocks_per_bucket
            path = []
            for idx in indices:
                bucket = buckets[idx]
                if bucket is None:
                    bucket = Bucket(capacity)
                    buckets[idx] = bucket
                path.append(bucket)
            if len(self._bucket_path_cache) >= PATH_CACHE_LIMIT:
                self._bucket_path_cache.clear()
            self._bucket_path_cache[leaf] = path
        self.buckets_read += len(path)
        if self.observer is not None:
            self.observer.on_path_read(leaf, self._indices(leaf))
        return path

    def read_path(self, leaf: int) -> List[Tuple[int, Bucket]]:
        """Read all buckets root->leaf; returns (level, bucket) pairs."""
        return list(enumerate(self.read_path_buckets(leaf)))

    def write_path(self, leaf: int) -> None:
        """Account for writing the path back (contents already mutated)."""
        self.buckets_written += self.config.levels + 1
        if self.observer is not None:
            self.observer.on_path_write(leaf, self._indices(leaf))

    def occupancy(self) -> int:
        """Total real blocks currently stored in the tree."""
        return sum(len(b) for b in self._buckets if b is not None)

    def occupied_buckets(self) -> Iterator[int]:
        """Heap indices of the buckets holding a block, ascending (a
        bucket is truthy when it holds one, an unmaterialised one is
        None)."""
        return compress(count(), self._buckets)

    # -- content introspection ----------------------------------------------

    def bucket_records(
        self, index: int
    ) -> Tuple[Tuple[int, int, bytes, Optional[bytes]], ...]:
        """(addr, leaf, data, mac) records of one bucket, in slot order.

        Content-level view shared with the columnar storage so snapshots
        and digests compare across representations (never-materialised
        and empty buckets are both the empty tuple).
        """
        bucket = self._buckets[index]
        if bucket is None or not bucket.blocks:
            return ()
        return tuple((b.addr, b.leaf, b.data, b.mac) for b in bucket.blocks)

    def replace_bucket_records(self, index: int, records) -> None:
        """Overwrite one bucket's contents from (addr, leaf, data, mac) rows.

        Tamper/restore hook used by the adversary layer; the columnar
        storage exposes the same method over its slot arena. A bucket
        has ``Z`` slots; more records than that are refused before
        anything is replaced.
        """
        from repro.storage.block import Block

        records = list(records)
        capacity = self.config.blocks_per_bucket
        if len(records) > capacity:
            raise ValueError(
                f"bucket {index} cannot hold {len(records)} blocks (Z = {capacity})"
            )
        bucket = self.bucket_at(index)
        bucket.blocks = [
            Block(addr, leaf, bytes(data), mac)
            for addr, leaf, data, mac in records
        ]
