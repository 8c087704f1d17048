"""Columnar ORAM tree storage: struct-of-arrays block store.

Where :class:`~repro.storage.tree.TreeStorage` keeps every block as a live
:class:`~repro.storage.block.Block` object inside per-bucket lists,
:class:`ColumnarTreeStorage` stores the tree as *typed columns*, and
nothing else:

- ``addr_col`` / ``leaf_col`` — per-slot address and leaf-label columns
  over a slot arena that grows a chunk at a time (a free slot's address
  is :data:`~repro.storage.block.DUMMY_ADDR`);
- a contiguous, chunked **byte arena** holding every payload at
  ``slot * block_bytes`` (no per-block ``bytes`` objects at rest), and
  ``mac_col``, the optional PMMAC tag per slot;
- ``_free`` — the free slots, an int32 column beside the arena with a
  two-word header: ``_free[0]`` is the depth of the stack of *released*
  slots, ``_free[1]`` the arena's high-water mark (the first slot never
  handed out: every slot from it to the arena's end is fresh), and
  ``_free[2 .. depth + 1]`` the released slot ids, top last. A claim
  takes the top released slot, else the slot at the mark, so slots are
  claimed in the order a plain stack of every free slot would give —
  released ones last-in first-out, then fresh ones ascending — and the
  stack's capacity, ``len(_free) - 2``, is the arena's size. Growing the
  arena only extends the columns: no slot id is written per slot;
- ``bucket_slots`` / ``bucket_fill`` — the tree: bucket ``i`` holds the
  ``bucket_fill[i]`` slot ids ``bucket_slots[i*Z : i*Z + fill]`` (int32,
  what lies beyond the fill is stale). Both are fixed-size typed
  memoryviews over the compiled core's ``column`` allocator:
  ``bucket_fill`` is zeroed (0 is "empty", so an untouched bucket is
  never written) and ``bucket_slots`` is left uninitialised, since
  nothing reads a slot at or past its bucket's fill. A page of either
  costs memory only once a block is written to it, so a 2^26-block tree
  builds in under a megabyte, and construction makes O(1) Python objects
  whatever the tree's size. Without a usable core they are zeroed
  ``array`` columns.

Block objects are materialised only at the Backend boundary (the block
of interest, ``READRMV`` hand-off, stash snapshots); the other ~Z·(L+1)
blocks touched per access stay integers in columns. Geometry is
arithmetic — the bucket at depth ``d`` on the path to ``leaf`` is heap
index ``(1 << d) - 1 + (leaf >> (L - d))``; nothing is cached per leaf.
The native access kernel, the snapshots and the tamper hooks all read
and write these same columns: there is one representation and no
conversion between them.

The pairing backend is
:class:`~repro.backend.columnar.ColumnarPathOramBackend` (selected
automatically by :func:`~repro.backend.path_oram.make_backend`), whose
access is the C extension's ``AccessKernel``; it is the only backend
that drives this store. Bucket-object consumers — a plain
:class:`~repro.backend.path_oram.PathOramBackend`,
:class:`~repro.integrity.adapter.MerkleVerifiedStorage` — run over
:class:`~repro.storage.tree.TreeStorage`.

Selection: ``storage="columnar"`` on any spec, or the fast tier
(``REPRO_NATIVE`` with the extension built). Bit-identity with the
object path is pinned by the golden digests and the differential
harness in ``tests/test_columnar_differential.py``.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterator, List, Optional, Tuple

from repro.config import OramConfig
from repro.storage.block import DUMMY_ADDR, Block
from repro.storage.tree import BucketLedger

#: Slots per arena chunk (power of two: slot -> chunk is a shift/mask).
CHUNK_SLOTS = 512
_CHUNK_SHIFT = CHUNK_SLOTS.bit_length() - 1
_CHUNK_MASK = CHUNK_SLOTS - 1
#: One fresh chunk's worth of each column, appended in bulk by ``_grow``.
_FREE_ADDRS = array("q", [DUMMY_ADDR]) * CHUNK_SLOTS
_ZERO_LEAVES = bytes(8 * CHUNK_SLOTS)
_NO_MACS = [None] * CHUNK_SLOTS
_EMPTY_STACK = bytes(4 * CHUNK_SLOTS)
#: Buckets :meth:`~ColumnarTreeStorage.occupied_buckets` copies the
#: fills of at a time (a run), and counts before walking (a piece).
_SCAN_RUN = 1 << 16
_SCAN_PIECE = 1 << 9


def _column(core, typecode: str, length: int, zeroed: bool) -> memoryview:
    """A fixed-size typed column of ``length`` items.

    The compiled core's allocator when there is a core: ``zeroed=False``
    leaves the memory uninitialised, so its pages are backed only once
    written. Without one (unbuilt, or ``REPRO_NATIVE=off``) it is a
    zeroed ``array``.
    """
    if core is None:
        return memoryview(array(typecode, [0]) * length)
    return memoryview(core.column(typecode, length, zeroed))


class ColumnarTreeStorage(BucketLedger):
    """Untrusted external memory as columns over a block-slot arena."""

    #: Marker consumed by :func:`~repro.backend.path_oram.make_backend`.
    columnar = True

    def __init__(self, config: OramConfig, observer=None):
        if config.blocks_per_bucket > 255:
            raise ValueError("bucket_fill counts a bucket's blocks in one byte")
        super().__init__(config)
        self.observer = observer
        self.block_bytes = config.block_bytes
        self._zero = bytes(config.block_bytes)
        self._path_len = config.levels + 1
        # -- slot arena (grown in chunks; freed slots are reused first) ----
        # addr/leaf are unboxed int64 columns (``array('q')``): random
        # reads touch contiguous raw memory instead of chasing pointers
        # to heap PyLongs, which is where the columnar layout beats the
        # object tree at paper-scale working sets.
        self.addr_col = array("q")
        self.leaf_col = array("q")
        self.mac_col: List[Optional[bytes]] = []
        self._chunks: List[memoryview] = []
        self._free = array("i", [0, 0])
        # -- the tree: two fixed-size columns, O(1) objects ---------------
        from repro.sim.native import load_native_core

        core = load_native_core()
        self.bucket_fill = _column(core, "B", config.num_buckets, zeroed=True)
        self.bucket_slots = _column(
            core, "i", config.blocks_per_bucket * config.num_buckets,
            zeroed=False,
        )
        # Heap index at depth d on the path to a leaf: offset + (leaf >> shift).
        levels = config.levels
        self._depth_terms = tuple(
            ((1 << d) - 1, levels - d) for d in range(levels + 1)
        )

    # -- slot arena ---------------------------------------------------------

    def _grow(self) -> None:
        """Add one chunk of zeroed slots to the arena, past the high-water
        mark (so all of them fresh)."""
        self._chunks.append(memoryview(bytearray(CHUNK_SLOTS * self.block_bytes)))
        self.addr_col.extend(_FREE_ADDRS)
        self.leaf_col.frombytes(_ZERO_LEAVES)
        self.mac_col.extend(_NO_MACS)
        # The stack's capacity follows the arena: every slot fits on it.
        self._free.frombytes(_EMPTY_STACK)

    def alloc(
        self,
        addr: int,
        leaf: int,
        data: Optional[bytes] = None,
        mac: Optional[bytes] = None,
    ) -> int:
        """Claim a slot for a block; ``data=None`` means an all-zero payload.

        The last released slot, else the fresh one at the high-water mark
        (growing the arena when the mark is at its end).
        """
        free = self._free
        depth = free[0]
        if depth:
            slot = free[depth + 1]
        else:
            slot = free[1]
            if slot == len(self.addr_col):
                self._grow()
        if not 0 <= slot < len(self.addr_col):
            raise IndexError(f"free slot {slot} outside the arena")
        if self.addr_col[slot] != DUMMY_ADDR:
            raise ValueError(f"free slot {slot} holds a live block")
        # The slot leaves the stack last: a refused field claims nothing.
        view = self._chunks[slot >> _CHUNK_SHIFT]
        offset = (slot & _CHUNK_MASK) * self.block_bytes
        view[offset : offset + self.block_bytes] = (
            data if data is not None else self._zero
        )
        self.leaf_col[slot] = leaf
        self.mac_col[slot] = mac
        self.addr_col[slot] = addr
        if depth:
            free[0] = depth - 1
        else:
            free[1] = slot + 1
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the free stack (its payload stays until reuse)."""
        free = self._free
        depth = free[0] + 1
        free[depth + 1] = slot
        free[0] = depth
        self.addr_col[slot] = DUMMY_ADDR

    def free_slots(self) -> List[int]:
        """Every free slot of the arena, in the order they will be claimed."""
        free = self._free
        depth = free[0]
        return free[2 : depth + 2].tolist()[::-1] + list(
            range(free[1], len(self.addr_col))
        )

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

    def record_at_slot(self, slot: int) -> Tuple[int, int, bytes, Optional[bytes]]:
        """One slot as an (addr, leaf, data, mac) record."""
        return (
            self.addr_col[slot], self.leaf_col[slot], self.payload(slot),
            self.mac_col[slot],
        )

    def block_at_slot(self, slot: int) -> Block:
        """Materialise one slot as an independent :class:`Block`."""
        return Block(*self.record_at_slot(slot))

    def interchange_columns(self):
        """The ``(addr_col, leaf_col)`` pair for zero-copy interchange.

        These are the live ``array('q')`` columns themselves — exporting
        a buffer over them is the compiled replay core's access path (no
        serialisation, no copies). Two rules bound the hand-off: the
        columns grow strictly in place (``array.extend`` during
        :meth:`alloc`), so consumers must bind the *objects*, never raw
        pointers, across calls; and no buffer export may be live across
        an :meth:`alloc` (CPython refuses to resize an array with
        exported buffers — the C kernel releases its exports before it
        grows the arena or runs foreign Python, and when it returns).
        The free stack follows the same rule; ``bucket_slots`` and
        ``bucket_fill`` never change size and may stay exported.
        """
        return self.addr_col, self.leaf_col

    # -- geometry -----------------------------------------------------------

    def path_indices(self, leaf: int) -> List[int]:
        """Heap indices along the path to ``leaf``, root->leaf."""
        if not 0 <= leaf < self.config.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        return [offset + (leaf >> shift) for offset, shift in self._depth_terms]

    def bucket(self, index: int) -> List[int]:
        """The slot ids bucket ``index`` holds, in slot order (a copy)."""
        base = index * self.config.blocks_per_bucket
        return self.bucket_slots[base : base + self.bucket_fill[index]].tolist()

    # -- whole-path accounting (what the access kernel does in C) -----------

    def read_path_slots(self, leaf: int) -> List[int]:
        """Read the path to ``leaf``: its bucket heap indices, root->leaf.

        The buckets themselves are the ``bucket_slots`` / ``bucket_fill``
        columns, which the access kernel drains and refills in place; it
        does this method's range check, accounting and observer call
        itself, and these two methods remain the Python spelling of that
        path I/O for tracing shims. Accounting and observer callbacks
        match ``TreeStorage.read_path_buckets`` exactly.
        """
        indices = self.path_indices(leaf)
        self.buckets_read += self._path_len
        if self.observer is not None:
            self.observer.on_path_read(leaf, tuple(indices))
        return indices

    def write_path_slots(self, leaf: int) -> None:
        """Account for writing the path back (contents already mutated)."""
        self.buckets_written += self._path_len
        if self.observer is not None:
            self.observer.on_path_write(leaf, tuple(self.path_indices(leaf)))

    # -- introspection ------------------------------------------------------

    def _check_fits(self, index: int, count: int) -> None:
        """A bucket has ``Z`` slots: refuse ``count`` blocks beyond that."""
        capacity = self.config.blocks_per_bucket
        if count > capacity:
            raise ValueError(
                f"bucket {index} cannot hold {count} blocks (Z = {capacity})"
            )

    def bucket_records(
        self, index: int
    ) -> Tuple[Tuple[int, int, bytes, Optional[bytes]], ...]:
        """(addr, leaf, data, mac) records of one bucket, in slot order."""
        if not self.bucket_fill[index]:
            return ()
        return tuple([self.record_at_slot(s) for s in self.bucket(index)])

    def replace_bucket_records(self, index: int, records) -> None:
        """Overwrite one bucket's contents from (addr, leaf, data, mac) rows.

        Tamper/restore hook used by the adversary layer: the analogue of
        assigning ``bucket.blocks`` on the object storages. A bucket has
        ``Z`` slots; more records than that are refused before any slot
        is freed or claimed.
        """
        records = list(records)
        self._check_fits(index, len(records))
        for slot in self.bucket(index):
            self.release(slot)
        base = index * self.config.blocks_per_bucket
        for position, (addr, leaf, data, mac) in enumerate(records):
            self.bucket_slots[base + position] = self.alloc(
                addr, leaf, bytes(data), mac
            )
        if len(records) != self.bucket_fill[index]:  # untouched stays untouched
            self.bucket_fill[index] = len(records)

    def occupied_buckets(self) -> Iterator[int]:
        """Heap indices of the buckets holding a block, ascending.

        ``bucket_fill`` is copied a run at a time; a run or piece of
        empty buckets is skipped with one ``count``, and only a piece
        holding a fill is walked bucket by bucket. Change no bucket
        while iterating: a run already copied is not read again.
        """
        fill = self.bucket_fill
        for base in range(0, len(fill), _SCAN_RUN):
            run = fill[base : base + _SCAN_RUN].tobytes()
            if run.count(0) == len(run):
                continue
            for start in range(0, len(run), _SCAN_PIECE):
                piece = run[start : start + _SCAN_PIECE]
                if piece.count(0) != len(piece):
                    first = base + start
                    yield from compress(range(first, first + len(piece)), piece)

    def find_block(self, addr: int) -> Optional[Tuple[int, int]]:
        """(bucket index, slot) of a live tree block by address, or None."""
        addr_col = self.addr_col
        for index in self.occupied_buckets():
            for slot in self.bucket(index):
                if addr_col[slot] == addr:
                    return index, slot
        return None

    def occupancy(self) -> int:
        """Total real blocks currently stored in the tree."""
        return sum(self.bucket_fill)
