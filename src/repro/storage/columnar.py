"""Columnar ORAM tree storage: struct-of-arrays block store.

Where :class:`~repro.storage.tree.TreeStorage` keeps every block as a live
:class:`~repro.storage.block.Block` object inside per-bucket lists,
:class:`ColumnarTreeStorage` stores the tree as *columns over a slot
arena*:

- ``addr_col`` / ``leaf_col`` — per-slot address and leaf-label columns;
- a contiguous, chunked **byte arena** holding every payload at
  ``slot * block_bytes`` (no per-block ``bytes`` objects at rest);
- ``mac_col`` — optional PMMAC tag per slot;
- the tree itself is a list of *bucket slot lists* (ints), so the fused
  drain/eviction loop of the columnar backend moves integers, never
  Python objects.

Block objects are materialised only at the Backend boundary (the block
of interest, ``READRMV`` hand-off, stash snapshots); the other ~Z·(L+1)
blocks touched per access stay columnar. Geometry is arithmetic — the
bucket at depth ``d`` on the path to ``leaf`` is heap index
``(1 << d) - 1 + (leaf >> (L - d))`` — with per-leaf rows cached on first
use for the interpreted path; the native access kernel computes the same
indices inline and keeps no table.

The pairing backend is
:class:`~repro.backend.columnar.ColumnarPathOramBackend` (selected
automatically by :func:`~repro.backend.path_oram.make_backend`). For
storage adapters that require the classic bucket-object interface — e.g.
:class:`~repro.integrity.adapter.MerkleVerifiedStorage`, or a plain
:class:`~repro.backend.path_oram.PathOramBackend` — a compatibility
``read_path``/``write_path`` pair materialises the path as
:class:`~repro.storage.bucket.Bucket` objects on read and re-absorbs
their contents into the columns on write-back (correct but slower; one
outstanding path at a time).

Selection: ``storage="columnar"`` on any preset/spec, or
``REPRO_STORAGE=columnar``. Bit-identity with the object path is pinned
by the golden digests and the differential harness in
``tests/test_columnar_differential.py``.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.config import OramConfig
from repro.storage.block import Block
from repro.storage.bucket import Bucket

#: Slots per arena chunk (power of two: slot -> chunk is a shift/mask).
CHUNK_SLOTS = 512
_CHUNK_SHIFT = CHUNK_SLOTS.bit_length() - 1
_CHUNK_MASK = CHUNK_SLOTS - 1


class ColumnarTreeStorage:
    """Untrusted external memory as columns over a block-slot arena."""

    #: Marker consumed by :func:`~repro.backend.path_oram.make_backend`.
    columnar = True

    def __init__(self, config: OramConfig, observer=None):
        self.config = config
        self.observer = observer
        self.block_bytes = config.block_bytes
        self._zero = bytes(config.block_bytes)
        self._path_len = config.levels + 1
        # -- slot arena (grown in chunks; a freed slot is recycled LIFO) --
        # addr/leaf are unboxed int64 columns (``array('q')``): random
        # reads touch contiguous raw memory instead of chasing pointers
        # to heap PyLongs, which is where the columnar layout beats the
        # object tree at paper-scale working sets. numpy sees them
        # zero-copy via ``frombuffer`` for the vectorised kernels.
        self.addr_col = array("q")
        self.leaf_col = array("q")
        self.mac_col: List[Optional[bytes]] = []
        self._chunks: List[memoryview] = []
        self._free: List[int] = []
        # -- the tree: per-bucket slot lists, materialised lazily --------
        self.buckets: List[Optional[List[int]]] = [None] * config.num_buckets
        # -- geometry: per-leaf heap-index rows and path lists, filled on
        # first use by the interpreted path. The bucket at depth d on the
        # path to a leaf is heap index (1 << d) - 1 + (leaf >> (L - d));
        # the (offset, shift) pair of every depth is fixed per tree.
        levels = config.levels
        self._depth_terms = tuple(
            ((1 << d) - 1, levels - d) for d in range(levels + 1)
        )
        num_leaves = config.num_leaves
        self._index_rows: List[Optional[Tuple[int, ...]]] = [None] * num_leaves
        self._bucket_rows: List[Optional[List[List[int]]]] = [None] * num_leaves
        # -- bandwidth accounting (padded bucket granularity) ------------
        self.buckets_read = 0
        self.buckets_written = 0
        # -- compatibility path state (bucket-object adapters) -----------
        self._pending: Optional[Tuple[int, List[Bucket]]] = None

    # -- slot arena ---------------------------------------------------------

    def _grow(self) -> None:
        """Add one chunk of zeroed slots to the arena."""
        base = len(self.addr_col)
        chunk = bytearray(CHUNK_SLOTS * self.block_bytes)
        self._chunks.append(memoryview(chunk))
        self.addr_col.extend([-1] * CHUNK_SLOTS)
        self.leaf_col.extend([0] * CHUNK_SLOTS)
        self.mac_col.extend([None] * CHUNK_SLOTS)
        self._free.extend(range(base + CHUNK_SLOTS - 1, base - 1, -1))

    def alloc(
        self,
        addr: int,
        leaf: int,
        data: Optional[bytes] = None,
        mac: Optional[bytes] = None,
    ) -> int:
        """Claim a slot for a block; ``data=None`` means an all-zero payload."""
        free = self._free
        if not free:
            self._grow()
        slot = free.pop()
        self.addr_col[slot] = addr
        self.leaf_col[slot] = leaf
        self.mac_col[slot] = mac
        view = self._chunks[slot >> _CHUNK_SHIFT]
        offset = (slot & _CHUNK_MASK) * self.block_bytes
        view[offset : offset + self.block_bytes] = (
            data if data is not None else self._zero
        )
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free list (its payload stays until reuse)."""
        self._free.append(slot)

    def payload(self, slot: int) -> bytes:
        """Independent copy of a slot's payload bytes."""
        offset = (slot & _CHUNK_MASK) * self.block_bytes
        return bytes(
            self._chunks[slot >> _CHUNK_SHIFT][offset : offset + self.block_bytes]
        )

    def set_payload(self, slot: int, data: bytes) -> None:
        """Overwrite a slot's payload (must be exactly one block)."""
        if len(data) != self.block_bytes:
            raise ValueError(
                f"payload must be {self.block_bytes} bytes, got {len(data)}"
            )
        offset = (slot & _CHUNK_MASK) * self.block_bytes
        self._chunks[slot >> _CHUNK_SHIFT][offset : offset + self.block_bytes] = data

    def block_at_slot(self, slot: int) -> Block:
        """Materialise one slot as an independent :class:`Block`."""
        return Block(
            self.addr_col[slot],
            self.leaf_col[slot],
            self.payload(slot),
            self.mac_col[slot],
        )

    def interchange_columns(self):
        """The ``(addr_col, leaf_col)`` pair for zero-copy interchange.

        These are the live ``array('q')`` columns themselves — exporting
        a buffer over them is the compiled replay core's access path (no
        serialisation, no copies). Two rules bound the hand-off: the
        columns grow strictly in place (``array.extend`` during
        :meth:`alloc`), so consumers must bind the *objects*, never raw
        pointers, across calls; and no buffer export may be live across
        an :meth:`alloc` (CPython refuses to resize an array with
        exported buffers — the C kernel acquires and releases within
        each call).
        """
        return self.addr_col, self.leaf_col

    # -- geometry -----------------------------------------------------------

    def _indices(self, leaf: int) -> Tuple[int, ...]:
        """Heap indices along the path to ``leaf`` (dense-cached)."""
        if not 0 <= leaf < self.config.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        row = self._index_rows[leaf]
        if row is None:
            row = self._index_rows[leaf] = tuple(
                [offset + (leaf >> shift) for offset, shift in self._depth_terms]
            )
        return row

    def path_indices(self, leaf: int) -> List[int]:
        """Heap indices along the path to ``leaf``."""
        return list(self._indices(leaf))

    # -- native whole-path operations (columnar backend) --------------------

    def read_path_slots(self, leaf: int) -> List[List[int]]:
        """Live bucket slot lists for the path to ``leaf``, root->leaf.

        The returned lists are the tree's own storage: the columnar
        backend drains them in place (clearing, never replacing, so this
        per-leaf materialisation stays cacheable) and evicts by
        appending slot ids. Accounting and observer callbacks match
        ``TreeStorage.read_path_buckets`` exactly.
        """
        if not 0 <= leaf < self.config.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        path = self._bucket_rows[leaf]
        if path is None:
            indices = self._indices(leaf)
            buckets = self.buckets
            path = []
            for idx in indices:
                lst = buckets[idx]
                if lst is None:
                    lst = buckets[idx] = []
                path.append(lst)
            self._bucket_rows[leaf] = path
        self.buckets_read += self._path_len
        if self.observer is not None:
            self.observer.on_path_read(leaf, self._indices(leaf))
        return path

    def write_path_slots(self, leaf: int) -> None:
        """Account for writing the path back (contents already mutated)."""
        self.buckets_written += self._path_len
        if self.observer is not None:
            self.observer.on_path_write(leaf, self._indices(leaf))

    # -- compatibility whole-path operations (bucket-object adapters) -------

    def read_path(self, leaf: int) -> List[Tuple[int, Bucket]]:
        """Materialise the path as Bucket objects; (level, bucket) pairs.

        Compatibility interface for consumers that require live bucket
        objects (Merkle adapter, plain ``PathOramBackend``). Mutations to
        the returned buckets are re-absorbed into the columns by the next
        ``write_path(leaf)``; only one path may be outstanding at a time
        (a second ``read_path`` discards unsynced mutations, mirroring
        the Merkle adapter's single-path contract).

        Error contract — identical to
        :class:`~repro.storage.encrypted.EncryptedTreeStorage`, the other
        materialise-on-read storage: if the backend fails *between* a
        ``read_path`` and its ``write_path`` (e.g. a caught
        ``IntegrityViolationError``), the store still holds the
        un-synced path while the backend's restore moved materialised
        copies into its stash, so continuing to drive that backend raises
        duplicate-block errors. Treat such failures as terminal for the
        pairing; the native columnar backend (which restores in the
        arena itself) recovers fully and is the supported path.
        """
        rows = self._indices(leaf)
        capacity = self.config.blocks_per_bucket
        out: List[Bucket] = []
        for idx in rows:
            bucket = Bucket(capacity)
            lst = self.buckets[idx]
            if lst:
                bucket.blocks = [self.block_at_slot(slot) for slot in lst]
            out.append(bucket)
        self._pending = (leaf, out)
        self.buckets_read += self._path_len
        if self.observer is not None:
            self.observer.on_path_read(leaf, rows)
        return list(enumerate(out))

    def write_path(self, leaf: int) -> None:
        """Absorb the pending materialised path back into the columns."""
        if self._pending is None or self._pending[0] != leaf:
            raise RuntimeError(
                "write_path leaf does not match the last read_path "
                "(columnar compatibility mode keeps one outstanding path)"
            )
        _leaf, pending = self._pending
        self._pending = None
        buckets = self.buckets
        for idx, bucket in zip(self._indices(leaf), pending):
            lst = buckets[idx]
            if lst is None:
                lst = buckets[idx] = []
            for slot in lst:
                self._free.append(slot)
            # In-place replacement: bucket list identity is part of the
            # dense per-leaf path cache's contract.
            lst[:] = [
                self.alloc(b.addr, b.leaf, b.data, b.mac) for b in bucket.blocks
            ]
        self.buckets_written += self._path_len
        if self.observer is not None:
            self.observer.on_path_write(leaf, self._indices(leaf))

    # -- introspection ------------------------------------------------------

    def bucket_records(
        self, index: int
    ) -> Tuple[Tuple[int, int, bytes, Optional[bytes]], ...]:
        """(addr, leaf, data, mac) records of one bucket, in slot order."""
        lst = self.buckets[index]
        if not lst:
            return ()
        addr_col, leaf_col, mac_col = self.addr_col, self.leaf_col, self.mac_col
        return tuple(
            (addr_col[s], leaf_col[s], self.payload(s), mac_col[s]) for s in lst
        )

    def replace_bucket_records(self, index: int, records) -> None:
        """Overwrite one bucket's contents from (addr, leaf, data, mac) rows.

        Tamper/restore hook used by the adversary layer: the analogue of
        assigning ``bucket.blocks`` on the object storages.
        """
        lst = self.buckets[index]
        if lst is None:
            lst = self.buckets[index] = []
        for slot in lst:
            self._free.append(slot)
        # In-place (list identity is part of the path cache's contract).
        lst[:] = [
            self.alloc(addr, leaf, bytes(data), mac)
            for addr, leaf, data, mac in records
        ]

    def find_block(self, addr: int) -> Optional[Tuple[int, int]]:
        """(bucket index, slot) of a live tree block by address, or None."""
        addr_col = self.addr_col
        for index, lst in enumerate(self.buckets):
            if lst:
                for slot in lst:
                    if addr_col[slot] == addr:
                        return index, slot
        return None

    # -- accounting ---------------------------------------------------------

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

    def occupancy(self) -> int:
        """Total real blocks currently stored in the tree."""
        return sum(len(lst) for lst in self.buckets if lst)
