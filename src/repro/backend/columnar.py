"""Columnar Path ORAM Backend: the §3.1 access algorithm over slot columns.

``ColumnarPathOramBackend`` is a drop-in replacement for
:class:`~repro.backend.path_oram.PathOramBackend` bound to a
:class:`~repro.storage.columnar.ColumnarTreeStorage`. The algorithm —
fused drain + greedy deepest-first eviction with LIFO candidate/pool
placement, wholesale stash reconciliation, identical error restoration —
is a line-for-line transcription of the object backend, but every loop
moves *arena slot ids* (plain ints read out of the storage's typed
columns: ``bucket_slots`` / ``bucket_fill`` for the tree, the stash's
slot column, ``addr_col`` / ``leaf_col`` for what a slot holds) instead
of Block objects. Only the block of interest is ever materialised: for
the caller's ``update`` callback, for ``READRMV`` hand-off, and as the
defensive ``READ``/``WRITE`` result.

Under the fast tier (:meth:`enable_native_kernel`, engaged by
``REPRO_REPLAY=compiled``) :meth:`access` hands the whole operation —
counters, path read, drain, update hand-off, placement, stash
reconcile, write-back accounting, occupancy fold — to the backend's
``AccessKernel`` handle in ``repro.sim.native._replay_core``: one C call
per access over the same columns, integers only, with this method's
semantics (validation order, error text, placement order) held exactly.
The interpreted method below is the one other spelling, the fallback for
installs without a C toolchain.

Their equivalence to each other and to the object backend is enforced
by the differential harness in ``tests/test_columnar_differential.py``,
``tests/test_native_replay.py`` (the native kernel, in lockstep after
every access) and the golden digests.

Error handling is transactional on both: nothing but the block of
interest's own slot is written before placement, and the stash column is
only rewritten after it, so a failure anywhere before placement (drain,
update callback, depth validation) rolls back to the exact pre-access
stash snapshot and tree digest, matching ``PathOramBackend``.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.backend.ops import Op
from repro.backend.stash import ColumnarStash, KernelOccupancyStats
from repro.config import OramConfig
from repro.errors import (
    RESTORE_FAILURES,
    BlockNotFoundError,
    StashOverflowError,
)
from repro.storage.block import Block
from repro.storage.columnar import _CHUNK_MASK, _CHUNK_SHIFT, CHUNK_SLOTS
from repro.utils.rng import DeterministicRng


def _leaf_out_of_range(label: int, levels: int) -> ValueError:
    return ValueError(f"leaf label {label} out of range for {levels}-level tree")


class ColumnarPathOramBackend:
    """One Path ORAM Backend bound to a columnar store and a slot stash."""

    def __init__(
        self,
        config: OramConfig,
        storage,
        rng: DeterministicRng,
        allow_missing: bool = True,
    ):
        self.config = config
        self.storage = storage
        self.rng = rng
        self.allow_missing = allow_missing
        self.stash = ColumnarStash(config.stash_limit, storage)
        self.access_count = 0
        self.tree_access_count = 0
        self.append_count = 0
        # Eviction scratch, mirroring the object backend's exactly.
        self._by_depth: List[List[int]] = [[] for _ in range(config.levels + 1)]
        # Hot-loop bindings. The storage's columns and chunk table are
        # grown strictly in place, so binding the objects once is safe;
        # this backend and its storage are a coupled pair.
        self._read_path_slots = storage.read_path_slots
        self._path_capacity = config.blocks_per_bucket * (config.levels + 1)
        self._block_bytes = config.block_bytes
        self._addr_col = storage.addr_col
        self._leaf_col = storage.leaf_col
        self._mac_col = storage.mac_col
        self._chunks = storage._chunks
        # The native AccessKernel handle; None until enable_native_kernel().
        self._kernel = None

    def enable_native_kernel(self, core) -> None:
        """Hand every later :meth:`access` to a native ``AccessKernel``.

        ``core`` is only the on-switch: ``None`` is a no-op (callers pass
        ``load_native_core()`` unconditionally) and anything else — the
        ``_replay_core`` module, or a tracing proxy of its functions —
        binds one handle, of the real module's type, to this backend's
        storage. Idempotent, and O(1) once the handle exists. From here
        on the stash's ``occupancy_stats`` is a view of the fold the
        kernel keeps (seeded with everything sampled so far).
        """
        if core is None or self._kernel is not None:
            return
        from repro.sim.native import _replay_core

        storage = self.storage
        # Fail fast if the storage cannot hand out buffer-capable
        # columns (the zero-copy contract the C kernel relies on).
        addr_col, leaf_col = storage.interchange_columns()
        stats = self.stash.occupancy_stats
        self._kernel = _replay_core.AccessKernel(
            self, storage, addr_col, leaf_col, storage.mac_col,
            storage._chunks, storage._free, storage.bucket_slots,
            storage.bucket_fill, self.stash.slots,
            self.config.levels, self.config.blocks_per_bucket,
            self._block_bytes, CHUNK_SLOTS, self.stash.limit,
            self.allow_missing,
            (stats.count, stats.mean, stats._m2, stats.max, stats.min),
            Block, Op.APPEND, Op.READRMV,
            BlockNotFoundError, StashOverflowError,
        )
        self.stash.occupancy_stats = KernelOccupancyStats(self._kernel)

    # -- public API -----------------------------------------------------------

    def random_leaf(self) -> int:
        """Fresh uniform leaf label for remapping."""
        return self.rng.random_leaf(self.config.levels)

    def stash_occupancy(self) -> int:
        """Current stash size in blocks."""
        return len(self.stash)

    def stash_snapshot(self):
        """Ordered (addr, leaf, data, mac) image of the stash.

        Same contract as ``PathOramBackend.stash_snapshot`` — the
        differential harness requires the two to be equal after every
        lockstep access, insertion order included.
        """
        record = self.storage.record_at_slot
        return tuple([record(s) for s in self.stash.resident()])

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved on the tree interface."""
        return self.storage.bytes_moved

    def access(
        self,
        op: Op,
        addr: int,
        leaf: int = 0,
        new_leaf: int = 0,
        update=None,
        append_block: Optional[Block] = None,
    ) -> Optional[Block]:
        """Perform one Backend operation; same contract as the object path.

        ``READ``/``WRITE`` return an independent materialised copy;
        ``READRMV`` materialises the block, removes its slot and hands
        ownership to the caller; ``APPEND`` copies ``append_block`` into
        the arena without any tree access.
        """
        kernel = self._kernel
        if kernel is not None:
            return kernel.access(op, addr, leaf, new_leaf, update, append_block)
        self.access_count += 1
        store = self.storage
        stash = self.stash
        if op is Op.APPEND:
            if append_block is None:
                raise ValueError("APPEND requires append_block")
            self.append_count += 1
            stash.add(append_block)
            stash.check_limit()
            return None

        self.tree_access_count += 1
        path = self._read_path_slots(leaf)

        levels = self.config.levels
        cap = self.config.blocks_per_bucket
        addr_col = self._addr_col
        leaf_col = self._leaf_col
        bucket_slots = store.bucket_slots
        bucket_fill = store.bucket_fill
        by_depth = self._by_depth
        # Nothing below writes the stash column or a bucket before
        # placement, so a fault anywhere in the try block leaves both
        # untouched (exact rollback).
        slot = None
        created_fresh = False
        saved_fields = None
        try:
            # Fused drain + depth grouping with the duplicate checks of
            # the object backend's merged formulation: the stash first,
            # drained like one long bucket, then every path bucket
            # root->leaf. ``merged`` is every slot seen, in that order —
            # what the leftover stash is rebuilt from.
            merged = stash.resident().tolist() if stash.slots[0] else []
            if len(merged) + self._path_capacity + 1 >= len(stash.slots):
                stash.reserve(len(merged) + self._path_capacity + 1)
            resident_addrs = [addr_col[s] for s in merged]
            for index in (None, *path) if merged else path:
                if index is None:
                    slots = list(merged)
                else:
                    fill = bucket_fill[index]
                    if not fill:
                        continue
                    if fill > cap:
                        raise ValueError(
                            f"bucket {index} holds {fill} blocks (Z = {cap})"
                        )
                    slots = bucket_slots[index * cap : index * cap + fill]
                    merged.extend(slots)
                for s in slots:
                    a = addr_col[s]
                    if a == addr:
                        if slot is not None:
                            raise ValueError(f"duplicate block {a:#x} in stash")
                        slot = s
                        continue  # the block of interest is grouped last
                    if index is not None and a in resident_addrs:
                        raise ValueError(f"duplicate block {a:#x} in stash")
                    depth = levels - (leaf_col[s] ^ leaf).bit_length()
                    if depth < 0:
                        raise _leaf_out_of_range(leaf_col[s], levels)
                    by_depth[depth].append(s)

            if slot is None:
                if not self.allow_missing:
                    raise BlockNotFoundError(
                        f"block {addr:#x} absent from path {leaf} and stash"
                    )
                slot = store.alloc(addr, new_leaf)
                created_fresh = True

            # Materialise the block of interest (inlined payload copy —
            # the one per-access byte movement the columnar layout keeps).
            bb = self._block_bytes
            offset = (slot & _CHUNK_MASK) * bb
            payload = bytes(
                self._chunks[slot >> _CHUNK_SHIFT][offset : offset + bb]
            )
            if not created_fresh:
                # Column snapshot for rollback (payload/mac are immutable
                # bytes, so this is three references, not a copy).
                saved_fields = (leaf_col[slot], payload, self._mac_col[slot])
            leaf_col[slot] = new_leaf
            block = Block(addr, new_leaf, payload, self._mac_col[slot])
            if update is not None:
                try:
                    update(block)
                finally:
                    # Write the mutations into the columns even on an
                    # exception (the error path then rolls them back from
                    # the snapshot, same as the object backend's live
                    # Block fields).
                    leaf_col[slot] = block.leaf
                    store.set_payload(slot, block.data)
                    self._mac_col[slot] = block.mac

            if op is not Op.READRMV:
                # READRMV hands ownership to the Frontend (PLB) instead;
                # its slot is released after eviction succeeds, so error
                # restoration can still re-insert it.
                depth = levels - (block.leaf ^ leaf).bit_length()
                if depth < 0:
                    raise _leaf_out_of_range(block.leaf, levels)
                by_depth[depth].append(slot)  # grouped last, like a re-insert
        except BaseException as exc:
            # BaseException, not Exception: a KeyboardInterrupt (or an
            # injected kill) mid-update must roll back too — the re-raise
            # below means nothing is ever swallowed. _abort_access keeps
            # a failing restore from masking the original error.
            self._abort_access(exc, created_fresh, slot, saved_fields)
            raise

        # Greedy placement, deepest level first; candidates LIFO, then
        # the pool of deeper leftovers LIFO — the object backend's loop
        # verbatim, writing ints into the bucket columns. Every path
        # bucket is rewritten (an empty one that stays empty is not).
        pool: List[int] = []
        for level in range(levels, -1, -1):
            candidates = by_depth[level]
            index = path[level]
            if not (candidates or pool or bucket_fill[index]):
                continue
            base = index * cap
            count = 0
            while count < cap and candidates:
                bucket_slots[base + count] = candidates.pop()
                count += 1
            if candidates:
                pool.extend(candidates)
                candidates.clear()  # leave the scratch lists empty
            while count < cap and pool:
                bucket_slots[base + count] = pool.pop()
                count += 1
            if count != bucket_fill[index]:
                bucket_fill[index] = count

        # Leftovers become the stash, in original merge order — resident
        # survivors, drained survivors, the block of interest last (see
        # the object backend).
        slots = stash.slots
        if pool:
            leftover = set(pool)
            kept = array("i", [s for s in merged if s in leftover and s != slot])
            if op is not Op.READRMV and slot in leftover:
                kept.append(slot)
            slots[1 : len(kept) + 1] = kept
            slots[0] = len(kept)
        elif slots[0]:
            slots[0] = 0
        if op is Op.READRMV:
            store.release(slot)

        store.write_path_slots(leaf)
        stash.check_limit()
        return block  # already an independent materialised copy

    # -- error restoration ----------------------------------------------------

    def _abort_access(
        self, exc: BaseException, created_fresh: bool,
        slot: Optional[int], saved_fields,
    ) -> None:
        """Release a fresh slot and restore state without masking ``exc``.

        Restoration failures of the *expected* kinds (the library's own
        errors, container/buffer faults from a corrupted snapshot —
        :data:`repro.errors.RESTORE_FAILURES`) are chained onto the
        original error as a note instead of replacing it; anything else
        escaping the restore path is a programming error and propagates,
        with ``exc`` attached as its ``__context__``.
        """
        try:
            if created_fresh:
                self.storage.release(slot)
                slot = None
            self._restore_on_error(slot, saved_fields)
        except RESTORE_FAILURES as restore_exc:
            exc.add_note(f"state restoration also failed: {restore_exc!r}")

    def _restore_on_error(self, slot: Optional[int], saved_fields) -> None:
        """Roll a half-finished access back to the exact pre-access state.

        Placement only runs after the try block succeeds, so every
        failure reaching here finds the path buckets and the stash column
        never written; a freshly allocated zero slot was already released
        by the caller. All that remains is clearing the scratch lists and
        undoing the block of interest's remap/update from the column
        snapshot — after which the stash snapshot and tree digest both
        equal their pre-access values, mirroring
        ``PathOramBackend._restore_on_error``.
        """
        for group in self._by_depth:
            group.clear()
        if slot is not None and saved_fields is not None:
            self._leaf_col[slot] = saved_fields[0]
            self.storage.set_payload(slot, saved_fields[1])
            self._mac_col[slot] = saved_fields[2]
